"""Benchmark of symwave: four workloads over the kernel and spectral paths.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports symwave from ``src``.
Workloads (inputs in ``workloads.py``, library calls in ``worker.py``):

  kernel_small_time    decay_sweep(small_time) on A1 and A2 (criterion 05)
  kernel_dispersive    kunze_stein_sweep(A1, q=4, sigma=2+i) (criterion 07)
  spectral_solve       semilinear small-data solve on A1 (criterion 10)
  transform_roundtrip  the multi-grid round-trip table on A1 and A2 (01)

Every repetition runs in a fresh interpreter, so symwave's module-level
caches start cold, and repetitions follow one another until ``--seconds``
is used up (at least two).  With ``--trace 0`` the runner reports, as the
median over repetitions, the wall and CPU time of the timed part, the
set-up time (interpreter start, imports, lazy tables, calibration, initial
data) and the peak resident memory, plus the share of operations that
passed their checks.  With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer calls, times and counts of the traced
ones (totals over set-up and the timed part) and the tracing overhead.  A traced repetition must give bit for bit
the outputs of an untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(inputs, environment, every repetition's raw numbers) goes to
``perfbench/out/``, and traced repetitions write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, NAMES, check, load_reference, make_inputs, n_ops

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEADLINE_S = 170.0       # one run never takes longer; workers past it are killed

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "fraction"}

# Per-layer metrics: layer -> the fields of tracer.layer_stats reported.
LAYER_FIELDS = {
    "estimates.sup_weighted": ("calls", "s", "self_s"),
    "estimates.kernel_on_grid": ("calls", "s", "self_s"),
    "estimates.kunze_stein_bound": ("s",),
    "wave_kernel.kernel_piece": ("calls", "distinct", "s", "self_s", "reuse"),
    "wave_kernel.shell_integral": ("calls", "points", "s"),
    "wave_kernel.bessel_j": ("calls", "points", "s"),
    "wave_kernel.chi_pair": ("s",),
    "geometry.phi0_envelope": ("calls", "s"),
    "geometry.phi0": ("calls", "s"),
    "geometry.integrate_biinvariant": ("calls", "s"),
    "spherical.forward_transform": ("calls", "points", "s"),
    "spherical.inverse_transform": ("calls", "points", "s"),
    "spherical.plancherel_constant": ("s",),
    "evolution.to_spectral": ("calls", "s"),
    "evolution.to_radial": ("calls", "s"),
    "evolution.semilinear_solve": ("s", "self_s", "iterations"),
    "evolution.gaussian_state": ("s",),
}
FIELD_UNITS = {"calls": "count", "distinct": "count", "points": "count",
               "iterations": "count", "s": "s", "self_s": "s", "reuse": "fraction"}
PER_LAYER = {f"{layer}.{f}": FIELD_UNITS[f]
             for layer, fields in LAYER_FIELDS.items() for f in fields}
PER_LAYER["trace.overhead"] = "fraction"


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def _read_line(fd: int, buf: bytes, deadline: float) -> tuple:
    while b"\n" not in buf:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("worker ran past the deadline")
        if select.select([fd], [], [], left)[0]:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("worker ended without a report")
            buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line, rest


def run_rep(root: str, workload: str, seed: int, traced: bool,
            trace_out: str | None, deadline: float) -> dict:
    """One repetition in a fresh interpreter.  ``setup_s`` runs from the
    spawn to the worker's ``ready`` line."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--trace-out", trace_out]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), BENCH_DIR]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        fd = proc.stdout.fileno()
        ready, buf = _read_line(fd, b"", deadline)
        setup_s = time.perf_counter() - t0
        if ready != b"ready":
            raise BenchError(f"worker said {ready[:200]!r} instead of ready")
        line, _ = _read_line(fd, buf, deadline)
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    report = json.loads(line)
    report["setup_s"] = setup_s
    return report


def require_fresh(reports: list) -> None:
    """Refuse any timed repetition that was not the first execution of the
    workload in its own interpreter."""
    pids = [r["pid"] for r in reports]
    if len(set(pids)) != len(pids):
        raise BenchError("two repetitions came from one process")
    for r in reports:
        if r["execution"] != 1:
            raise BenchError(f"repetition from pid {r['pid']} was execution "
                             f"{r['execution']} in its process, not a fresh one")


def run_reps(root: str, workload: str, seed: int, seconds: float,
             trace: bool, start: float) -> list:
    """Repetitions until ``seconds`` are used: untraced ones, or with
    ``trace`` pairs of an untraced and a traced one.  At least two
    repetitions run, and none starts that would end past ``seconds``."""
    deadline = start + DEADLINE_S
    unit = (False, True) if trace else (False,)
    reports = []
    while True:
        for traced in unit:
            out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-rep{len(reports)}"
                                        "-spans.jsonl") if traced else None
            reports.append(run_rep(root, workload, seed, traced, out, deadline))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reports)
        if len(reports) >= 2 and elapsed + len(unit) * per_rep > seconds:
            return reports


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check_reports(workload: str, seed: int, inputs: dict, reports: list,
                  reference: dict | None = None) -> list:
    """Failure reasons per operation for each repetition.  Every repetition
    must also reproduce the first one's outputs bit for bit."""
    first = reports[0]["digest"]
    out = []
    for r in reports:
        fails = check(workload, seed, inputs, r["output"], reference)
        if r["digest"] != first:
            for f in fails:
                f.append("outputs differ bit for bit from the first repetition")
        out.append(fails)
    return out


def end_to_end_metrics(reports: list, attempted: int, failed: int) -> dict:
    vals = {k: statistics.median(r[k] for r in reports)
            for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    vals["ok_frac"] = 1.0 - failed / attempted
    return {k: {"value": vals[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer_metrics(reports: list) -> dict:
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    vals = {f"{layer}.{f}": statistics.median(r["layers"][layer].get(f, 0)
                                              for r in traced)
            for layer, fields in LAYER_FIELDS.items() for f in fields}
    vals["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                              / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return {k: {"value": vals[k], "unit": u} for k, u in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _tree_sha(top: str) -> str:
    """sha256 over the relative paths and contents of the .py files under top."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(root: str, reports: list) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "loadavg": os.getloadavg(),
            "git_sha": _git_sha(root),
            "src_sha256": _tree_sha(os.path.join(root, "src")),
            "bench_sha256": _tree_sha(BENCH_DIR),
            **reports[0]["environment"]}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "symwave", "__init__.py")):
        print("run.py: no src/symwave here; run it from the root of a "
              "symwave checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    reference = load_reference()
    try:
        reports = run_reps(root, args.workload, args.seed, args.seconds,
                           bool(args.trace), start)
        require_fresh(reports)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    fails = check_reports(args.workload, args.seed, inputs, reports, reference)
    attempted = n_ops(args.workload, inputs) * len(reports)
    failed = sum(1 for rep in fails for why in rep if why)
    metrics = (per_layer_metrics(reports) if args.trace
               else end_to_end_metrics(reports, attempted, failed))

    for i, (r, f) in enumerate(zip(reports, fails)):
        ok = sum(1 for why in f if not why)
        print(f"rep {i}{' traced' if r['traced'] else ''}: setup {r['setup_s']:.3f} s, "
              f"wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB, {ok}/{len(f)} ops ok")
        for why in f:
            for reason in why:
                print(f"  failed: {reason}")
    label = "traced" if args.trace else "untraced"
    n = sum(1 for r in reports if r["traced"] == bool(args.trace))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {n} {label} runs)")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
              "provenance": provenance(root, reports),
              "reps": [{k: r[k] for k in ("pid", "traced", "setup_s", "wall_s",
                                          "cpu_s", "peak_rss_mb", "digest")}
                       | {"failures": f, "layers": r.get("layers")}
                       for r, f in zip(reports, fails)],
              "first_output": reports[0]["output"],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
