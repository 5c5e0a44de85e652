"""The benchmark's workloads: inputs drawn from a seed, and the checks on
their outputs.

This module uses the standard library only.  The runner imports it to make
inputs and to check what the worker processes report; the library calls
themselves live in ``worker.py``.

An operation is one time point of a sweep, one grid pair of the round-trip
table, or one solve.  ``check`` returns one list of failure reasons per
operation, so a failed operation counts once however many checks it fails.

Tolerances come from the acceptance criteria and the ROADMAP gates:
slopes against theory (criteria 05 and 07), round-trip sup error (01),
Picard contraction and energy ratio (10), and, on the default seed, the
values recorded at the commit that defined this benchmark (kernel sups and
Kunze-Stein values within 1e-8 relative, the solve trajectory within 1e-12
of its sup).
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

KERNEL_REF_RTOL = 1e-8
SOLVE_REF_TOL = 1e-12
ROUNDTRIP_TOL = {"A1": 1e-6, "A2": 1e-5}
# Workloads whose default-seed outputs are compared with reference.json.
REFERENCED = ("kernel_small_time", "kernel_dispersive", "spectral_solve")

# Grid pairs (R, n, L, m) of the multi-grid round-trip table.
ROUNDTRIP_CASES = {
    "A1": [(10.0, 129, 9.0, 129), (10.0, 193, 9.0, 193), (10.0, 257, 9.0, 257)],
    "A2": [(10.0, 81, 11.0, 89), (10.0, 121, 10.0, 109), (10.0, 161, 10.0, 131)],
}


def _geomspace(a: float, b: float, n: int) -> list:
    return [a * (b / a) ** (k / (n - 1)) for k in range(n)]


def _jittered(values: list, rng: random.Random, rel: float) -> list:
    """Each value scaled by its own factor in [1 - rel, 1 + rel]; the
    spacing of the sweeps keeps the order strictly increasing."""
    return [v * (1.0 + rng.uniform(-rel, rel)) for v in values]


def _inputs_kernel_small_time(rng: random.Random) -> dict:
    # Criterion 05 on A1, all twelve small times.  A2 costs about 3 s per
    # time point on its default 49-point grid, so it runs four times of the
    # same window on a 25-point grid.  On that grid a 1% shift of the times
    # moved the A2 slope by up to 0.5, so only Im sigma varies there.
    im = rng.uniform(0.48, 0.52)
    return {"sweeps": [
        {"root_system": "A1", "times": _jittered(_geomspace(0.05, 0.8, 12), rng, 0.01),
         "sigma": [2.0, im], "per_axis": None, "theory": -1.0, "slope_tol": 0.15},
        {"root_system": "A2", "times": _geomspace(0.05, 0.8, 4),
         "sigma": [4.5, im], "per_axis": 25, "theory": -3.5, "slope_tol": 0.30},
    ]}


def _inputs_kernel_dispersive(rng: random.Random) -> dict:
    # Criterion 07 on four times spread over its window [2, 40].
    return {"root_system": "A1", "q": 4.0,
            "times": _jittered(_geomspace(2.0, 40.0, 4), rng, 0.01),
            "sigma": [2.0, rng.uniform(0.95, 1.05)], "max_slope": -1.3}


def _inputs_spectral_solve(rng: random.Random) -> dict:
    # Criterion 10's grids and time step (10/270), over a shorter horizon.
    return {"root_system": "A1", "R": 16.0, "n": 321, "L": 10.5, "m": 321,
            "gamma": 3.0, "T": 4.0, "steps": 108, "smallness": 1e-2,
            "width": rng.uniform(0.9, 1.1), "tol": 1e-8}


def _inputs_transform_roundtrip(rng: random.Random) -> dict:
    # At width 1 to 1.05 the A1 spectral box edge (L = 9) holds about 1e-10
    # of the mass, the inverse transform's tail tolerance, so some widths in
    # that range fail the check; from 1.1 on it holds a tenth of that or less.
    return {"width": rng.uniform(1.1, 1.2),
            "cases": {tag: [list(g) for g in grids]
                      for tag, grids in ROUNDTRIP_CASES.items()}}


_MAKERS = {
    "kernel_small_time": _inputs_kernel_small_time,
    "kernel_dispersive": _inputs_kernel_dispersive,
    "spectral_solve": _inputs_spectral_solve,
    "transform_roundtrip": _inputs_transform_roundtrip,
}
NAMES = tuple(_MAKERS)


def make_inputs(name: str, seed: int) -> dict:
    """Inputs of workload ``name`` for ``seed``; equal seeds give equal inputs."""
    return _MAKERS[name](random.Random(f"{name}:{seed}"))


def n_ops(name: str, inputs: dict) -> int:
    if name == "kernel_small_time":
        return sum(len(sw["times"]) for sw in inputs["sweeps"])
    if name == "kernel_dispersive":
        return len(inputs["times"])
    if name == "spectral_solve":
        return 1
    return sum(len(grids) for grids in inputs["cases"].values())


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _loglog_slope(times, values) -> float:
    return statistics.linear_regression([math.log(t) for t in times],
                                        [math.log(v) for v in values]).slope


def _rel_close(a, b, rtol: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= rtol * abs(b)


def _check_sweep(times, values, slope_ok, ref) -> list:
    """Per-time-point reasons for one sweep of positive values."""
    if not isinstance(values, list) or len(values) != len(times):
        return [["missing values"] for _ in times]
    fails = [[] if _finite_positive(v) else [f"value {v!r} not finite positive"]
             for v in values]
    if all(not f for f in fails):
        reason = slope_ok(_loglog_slope(times, values))
        if reason:
            for f in fails:
                f.append(reason)
    if ref is not None:
        for f, v, r in zip(fails, values, ref):
            if not _rel_close(v, r, KERNEL_REF_RTOL):
                f.append(f"value {v!r} differs from recorded {r!r}")
    return fails


def _check_kernel_small_time(inputs, output, ref) -> list:
    fails = []
    for i, (sw, got) in enumerate(zip(inputs["sweeps"], output["sweeps"])):
        times = sw["times"]
        if got.get("error"):
            fails += [[got["error"]] for _ in times]
            continue

        def slope_ok(slope, sw=sw, got=got):
            lib = got.get("fitted_slope")
            if not isinstance(lib, float) or abs(lib - slope) > 1e-6:
                return f"reported slope {lib!r} is not the fit {slope!r}"
            if got.get("theoretical_slope") != sw["theory"]:
                return f"theory slope {got.get('theoretical_slope')!r} != {sw['theory']}"
            if abs(slope - sw["theory"]) > sw["slope_tol"]:
                return f"slope {slope:.4f} off theory {sw['theory']} by > {sw['slope_tol']}"
            return None

        fails += _check_sweep(times, got.get("sups"), slope_ok,
                              None if ref is None else ref["sweeps"][i]["sups"])
    return fails


def _check_kernel_dispersive(inputs, output, ref) -> list:
    times = inputs["times"]
    if output.get("error"):
        return [[output["error"]] for _ in times]

    def slope_ok(slope):
        if slope > inputs["max_slope"]:
            return f"KS slope {slope:.4f} above {inputs['max_slope']}"
        return None

    return _check_sweep(times, output.get("ks"), slope_ok,
                        None if ref is None else ref["ks"])


def _max_abs_diff(a, b) -> float:
    return max(math.hypot(x[0] - y[0], x[1] - y[1]) for x, y in zip(a, b))


def _check_spectral_solve(inputs, output, ref) -> list:
    if output.get("error"):
        return [[output["error"]]]
    why = []
    res = output["residuals"]
    ratios = [b / a for a, b in zip(res, res[1:])]
    if not res or output["iterations"] != len(res):
        why.append("no Picard iterations recorded")
    elif not res[-1] < inputs["tol"]:
        why.append(f"not converged: last residual {res[-1]:.3e}")
    if not all(r < 0.5 for r in ratios):
        why.append(f"contraction ratios {ratios} not all < 0.5")
    en = output["energies"]
    if len(en) != inputs["steps"] + 1 or not all(map(_finite_positive, en)):
        why.append("energies missing or not finite positive")
    elif max(en) > 2.0 * en[0]:
        why.append(f"energy ratio {max(en) / en[0]:.4f} > 2")
    if ref is not None:
        for key in ("u_sample", "ut_sample"):
            scale = max(math.hypot(*z) for z in ref[key])
            if (len(output[key]) != len(ref[key])
                    or _max_abs_diff(output[key], ref[key]) > SOLVE_REF_TOL * scale):
                why.append(f"trajectory {key} differs from recorded")
        if not all(_rel_close(a, b, SOLVE_REF_TOL) for a, b in zip(en, ref["energies"])):
            why.append("energies differ from recorded")
    return [why]


def _check_transform_roundtrip(inputs, output, ref) -> list:
    fails = []
    for tag, grids in inputs["cases"].items():
        got = output["tables"].get(tag, {})
        rows = got.get("errors")
        if got.get("error") or not isinstance(rows, list) or len(rows) != len(grids):
            fails += [[got.get("error") or "missing table"] for _ in grids]
            continue
        const_ok = _finite_positive(got.get("plancherel_constant"))
        for err in rows:
            why = [] if const_ok else ["plancherel constant not finite positive"]
            if isinstance(err, str):
                why.append(err)
            elif not (isinstance(err, float) and err <= ROUNDTRIP_TOL[tag]):
                why.append(f"{tag} sup rel error {err!r} > {ROUNDTRIP_TOL[tag]:.0e}")
            fails.append(why)
    return fails


_CHECKS = {
    "kernel_small_time": _check_kernel_small_time,
    "kernel_dispersive": _check_kernel_dispersive,
    "spectral_solve": _check_spectral_solve,
    "transform_roundtrip": _check_transform_roundtrip,
}


def check(name: str, seed: int, inputs: dict, output: dict,
          reference: dict | None = None) -> list:
    """One list of failure reasons per operation (empty when it passed).

    On the default seed the outputs are also compared with ``reference``
    (read from reference.json when not given).
    """
    ref = None
    if seed == DEFAULT_SEED and name in REFERENCED:
        ref = (reference if reference is not None else load_reference())[name]
        if ref["inputs"] != inputs:
            return [["recorded reference was made from other inputs"]
                    for _ in range(n_ops(name, inputs))]
    try:
        fails = _CHECKS[name](inputs, output, ref)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [[f"malformed output: {type(exc).__name__}: {exc}"]
                for _ in range(n_ops(name, inputs))]
    if len(fails) != n_ops(name, inputs):
        return [["output has the wrong number of operations"]
                for _ in range(n_ops(name, inputs))]
    return fails

