"""Self-tests of the benchmark harness.

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q

They use tiny inputs, so they check the harness, not the library's speed.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import run
import symwave
from symwave import evolution, spherical, wave_kernel
from symwave.root_system import root_system_from_tag
from symwave.wave_kernel import KernelParams
from tracer import Tracer
from worker import execute
from workloads import DEFAULT_SEED, NAMES, check, load_reference, make_inputs

BENCHMARK_JSON = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")
TINY_ROUNDTRIP = {"width": 1.0, "cases": {"A1": [[10.0, 65, 9.0, 65]]}}


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(NAMES)
    assert _units(bench["end_to_end"]) == run.END_TO_END
    assert _units(bench["per_layer"]) == run.PER_LAYER

    plain = execute("transform_roundtrip", TINY_ROUNDTRIP)
    traced = execute("transform_roundtrip", TINY_ROUNDTRIP, traced=True)
    printed = run.end_to_end_metrics([plain | {"setup_s": 0.5}], 1, 0)
    assert {k: m["unit"] for k, m in printed.items()} == run.END_TO_END
    printed = run.per_layer_metrics([plain, traced])
    assert {k: m["unit"] for k, m in printed.items()} == run.PER_LAYER


def test_second_in_process_repetition_is_refused():
    first = execute("transform_roundtrip", TINY_ROUNDTRIP)
    second = execute("transform_roundtrip", TINY_ROUNDTRIP)
    assert second["execution"] == first["execution"] + 1
    with pytest.raises(run.BenchError):
        run.require_fresh([second])
    fresh = dict(first, execution=1, pid=first["pid"] + 1)
    run.require_fresh([fresh])
    with pytest.raises(run.BenchError):
        run.require_fresh([fresh, fresh])


def _reference_outputs():
    ref = load_reference()
    return {name: {k: v for k, v in ref[name].items() if k != "inputs"}
            for name in ("kernel_small_time", "kernel_dispersive", "spectral_solve")}


def test_reference_inputs_are_the_default_seed_inputs():
    ref = load_reference()
    for name in ("kernel_small_time", "kernel_dispersive", "spectral_solve"):
        assert ref[name]["inputs"] == make_inputs(name, DEFAULT_SEED)


def _corruptions():
    """(workload, inputs, good output, corrupted output, failing op)."""
    outs = _reference_outputs()
    inputs = {name: make_inputs(name, DEFAULT_SEED) for name in outs}
    cases = []
    bad = copy.deepcopy(outs["kernel_small_time"])
    bad["sweeps"][0]["sups"][3] *= 1.0 + 1e-6          # within the slope gate
    cases.append(("kernel_small_time", inputs["kernel_small_time"],
                  outs["kernel_small_time"], bad, 3))
    bad = copy.deepcopy(outs["kernel_dispersive"])
    bad["ks"][1] *= 1.0 - 1e-6
    cases.append(("kernel_dispersive", inputs["kernel_dispersive"],
                  outs["kernel_dispersive"], bad, 1))
    bad = copy.deepcopy(outs["spectral_solve"])
    bad["u_sample"][40][0] += 1e-9
    cases.append(("spectral_solve", inputs["spectral_solve"],
                  outs["spectral_solve"], bad, 0))
    rt_inputs = make_inputs("transform_roundtrip", 7)
    good = {"tables": {"A1": {"plancherel_constant": 1.0, "errors": [5e-10] * 3},
                       "A2": {"plancherel_constant": 2.0, "errors": [2e-10] * 3}}}
    bad = copy.deepcopy(good)
    bad["tables"]["A2"]["errors"][2] = 2e-5
    cases.append(("transform_roundtrip", rt_inputs, good, bad, 5))
    return cases


@pytest.mark.parametrize("case", _corruptions(), ids=lambda c: c[0])
def test_corrupted_output_fails_its_check(case):
    name, inputs, good, bad, op = case
    seed = DEFAULT_SEED if name != "transform_roundtrip" else 7
    assert not any(check(name, seed, inputs, good))
    fails = check(name, seed, inputs, bad)
    assert [i for i, why in enumerate(fails) if why] == [op]

    reports = [{"output": good, "digest": "a"}, {"output": bad, "digest": "a"}]
    per_rep = run.check_reports(name, seed, inputs, reports)
    failed = sum(1 for rep in per_rep for why in rep if why)
    attempted = len(fails) * len(reports)
    assert failed == 1
    timing = {"wall_s": 1.0, "cpu_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}
    ok = run.end_to_end_metrics([timing, timing], attempted, failed)["ok_frac"]["value"]
    assert ok == 1.0 - 1 / attempted


def test_outputs_that_differ_between_repetitions_fail():
    name, inputs, good, _, _ = _corruptions()[1]
    reports = [{"output": good, "digest": "a"}, {"output": good, "digest": "b"}]
    per_rep = run.check_reports(name, DEFAULT_SEED, inputs, reports)
    assert not any(per_rep[0]) and all(per_rep[1])


def _traced_objects():
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "symwave"]
    found = [f"{m.__name__}.{k}" for m in mods for k, v in vars(m).items()
             if getattr(v, "__perfbench_traced__", False)]
    found += [f"KleinGordonPropagator.{k}"
              for k, v in vars(evolution.KleinGordonPropagator).items()
              if getattr(v, "__perfbench_traced__", False)]
    return found


def test_wrappers_are_removed_once_the_traced_run_ends():
    originals = (spherical.forward_transform, evolution.forward_transform,
                 symwave.forward_transform,
                 evolution.KleinGordonPropagator.__dict__["to_spectral"])
    report = execute("transform_roundtrip", TINY_ROUNDTRIP, traced=True)
    assert report["layers"]["spherical.forward_transform"]["calls"] >= 1
    assert _traced_objects() == []
    assert (spherical.forward_transform, evolution.forward_transform,
            symwave.forward_transform,
            evolution.KleinGordonPropagator.__dict__["to_spectral"]) == originals

    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert evolution.forward_transform is not originals[1]
            assert len(_traced_objects()) > 10
            1 / 0
    assert _traced_objects() == []


def test_traced_outputs_equal_untraced_outputs():
    plain = execute("transform_roundtrip", TINY_ROUNDTRIP)
    traced = execute("transform_roundtrip", TINY_ROUNDTRIP, traced=True)
    assert traced["digest"] == plain["digest"]


def test_kernel_piece_reuse_counts_repeated_keys():
    rs = root_system_from_tag("A1")
    p = KernelParams(t=0.7, sigma=2.0 + 0.5j)
    with Tracer() as tr:
        for s in (0.5, 0.5, 1.25):
            wave_kernel.kernel_piece(rs, p, [s], "high_reg")
    kp = tr.layer_stats()["wave_kernel.kernel_piece"]
    assert (kp["calls"], kp["distinct"]) == (3, 2)
    assert kp["reuse"] == pytest.approx(1 / 3)
    assert kp["self_s"] <= kp["s"]


def test_inputs_follow_the_seed():
    for name in NAMES:
        assert make_inputs(name, 11) == make_inputs(name, 11)
        assert make_inputs(name, 11) != make_inputs(name, 12)


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           "--workload", "spectral_solve", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
