"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--traced --trace-out PATH]

The worker imports symwave, does the workload's set-up (root systems, lazy
tables, Plancherel calibration, initial data), prints ``ready``, runs the
timed library calls, and prints one JSON report line: timings, resource
use, the outputs the runner checks, and a digest of the full outputs.

A fresh interpreter per repetition matters: the module-level caches in
symwave (the radial-profile cache, the Plancherel constants, the cutoff and
Gauss-Legendre tables) would turn a second in-process repetition into a
lookup.  Each report therefore carries the process id and how many times
this process has run the workload, and the runner refuses to time any
repetition but the first.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import time
from collections import Counter

import mpmath
import numpy as np
import scipy

from symwave import estimates, evolution, spherical, wave_kernel
from symwave.errors import SymwaveError
from symwave.geometry import RadialFunction, RadialGrid
from symwave.root_system import root_system_from_tag

from tracer import Tracer
from workloads import make_inputs

# Executions of each workload in this interpreter.  Only the first one of a
# process starts with cold caches.
_EXECUTIONS = Counter()


def _error(exc: SymwaveError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


# ---------------------------------------------------------------------------
# workloads: set-up returns a context, run returns (checked output, raw bytes)
# ---------------------------------------------------------------------------

def _setup_kernel(inputs: dict) -> dict:
    tags = [sw["root_system"] for sw in inputs.get("sweeps", [inputs])]
    wave_kernel.chi_pair(np.zeros(1))       # builds the smooth-step table
    return {tag: root_system_from_tag(tag) for tag in tags}


def _run_kernel_small_time(rss: dict, inputs: dict):
    sweeps = []
    for sw in inputs["sweeps"]:
        try:
            rep = estimates.decay_sweep(rss[sw["root_system"]], "small_time",
                                        sigma=complex(*sw["sigma"]),
                                        times=sw["times"], per_axis=sw["per_axis"])
        except SymwaveError as exc:
            sweeps.append({"error": _error(exc)})
            continue
        sweeps.append({"sups": [float(v) for v in rep.sup_ratios],
                       "fitted_slope": float(rep.fitted_slope),
                       "theoretical_slope": float(rep.theoretical_slope)})
    return {"sweeps": sweeps}, b""


def _run_kernel_dispersive(rss: dict, inputs: dict):
    try:
        _, vals = estimates.kunze_stein_sweep(
            rss[inputs["root_system"]], inputs["q"], inputs["times"],
            sigma=complex(*inputs["sigma"]))
    except SymwaveError as exc:
        return {"error": _error(exc)}, b""
    return {"ks": [float(v) for v in vals]}, b""


def _setup_spectral_solve(inputs: dict) -> dict:
    rs = root_system_from_tag(inputs["root_system"])
    spherical.plancherel_constant(rs)
    grid = RadialGrid(rs, inputs["R"], inputs["n"])
    sgrid = spherical.SpectralGrid(rs, inputs["L"], inputs["m"])
    state = evolution.gaussian_state(
        rs, grid, width=inputs["width"],
        sobolev_order=evolution.gwp_sigma(rs.dim_X, inputs["gamma"]),
        target_norm=inputs["smallness"])
    return {"rs": rs, "sgrid": sgrid, "state": state}


# Trajectory entries compared with the recorded values on the default seed.
_SAMPLE_TIMES = slice(None, None, 12)
_SAMPLE_NODES = slice(None, None, 20)


def _run_spectral_solve(ctx: dict, inputs: dict):
    try:
        res = evolution.semilinear_solve(ctx["rs"], ctx["state"], inputs["gamma"],
                                         inputs["T"], inputs["steps"],
                                         tol=inputs["tol"], sgrid=ctx["sgrid"])
    except SymwaveError as exc:
        return {"error": _error(exc)}, b""
    u = np.stack([s.u.values for s in res.trajectory])
    ut = np.stack([s.ut.values for s in res.trajectory])
    out = {"iterations": res.iterations,
           "residuals": [float(r) for r in res.residuals],
           "energies": [float(e) for e in res.energies],
           "u_sample": _complex_pairs(u[_SAMPLE_TIMES, _SAMPLE_NODES]),
           "ut_sample": _complex_pairs(ut[_SAMPLE_TIMES, _SAMPLE_NODES])}
    return out, u.tobytes() + ut.tobytes()


def _setup_transform_roundtrip(inputs: dict) -> dict:
    rss = {tag: root_system_from_tag(tag) for tag in inputs["cases"]}
    for rs in rss.values():
        spherical.plancherel_constant(rs)
    return rss


def _run_transform_roundtrip(rss: dict, inputs: dict):
    """The multi-grid round-trip table: sup relative error of
    inverse(forward(Gaussian)) per grid pair."""
    tables = {}
    for tag, grids in inputs["cases"].items():
        rs = rss[tag]
        rows = []
        for R, n, L, m in grids:
            try:
                rgrid, sgrid = RadialGrid(rs, R, n), spherical.SpectralGrid(rs, L, m)
                f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)
                                                 / inputs["width"] ** 2))
                frt = spherical.inverse_transform(
                    rs, spherical.forward_transform(rs, f, sgrid), rgrid)
                rows.append(float(np.max(np.abs(frt.values - f.values))
                                  / np.max(np.abs(f.values))))
            except SymwaveError as exc:
                rows.append(_error(exc))
        tables[tag] = {"plancherel_constant": spherical.plancherel_constant(rs),
                       "errors": rows}
    return {"tables": tables}, b""


WORKLOADS = {
    "kernel_small_time": (_setup_kernel, _run_kernel_small_time),
    "kernel_dispersive": (_setup_kernel, _run_kernel_dispersive),
    "spectral_solve": (_setup_spectral_solve, _run_spectral_solve),
    "transform_roundtrip": (_setup_transform_roundtrip, _run_transform_roundtrip),
}


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def execute(name: str, inputs: dict, traced: bool = False, on_ready=None,
            trace_out: str | None = None) -> dict:
    """Set up and run workload ``name`` once in this process.

    With ``traced`` the per-layer wrappers are installed for set-up and the
    timed part and removed before this returns.
    """
    _EXECUTIONS[name] += 1
    setup, run = WORKLOADS[name]
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        ctx = setup(inputs)
        if on_ready:
            on_ready()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        output, raw = run(ctx, inputs)
        w1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode() + raw)
    report = {
        "workload": name, "pid": os.getpid(), "execution": _EXECUTIONS[name],
        "traced": traced, "wall_s": w1 - w0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "output": output, "digest": digest.hexdigest(),
    }
    if tracer:
        report["layers"] = tracer.layer_stats()
        if trace_out:
            tracer.write_spans(trace_out, f"{name}:{os.getpid()}")
    return report


def _blas() -> list:
    """BLAS libraries loaded in this process, with their thread counts."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib, threads = ctypes.CDLL(path), None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        found.append({"library": os.path.basename(path), "threads": threads})
    return found


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    inputs = make_inputs(args.workload, args.seed)
    report = execute(args.workload, inputs, traced=args.traced,
                     on_ready=lambda: print("ready", flush=True),
                     trace_out=args.trace_out)
    report["environment"] = environment()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
