import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symwave
from symwave.cli import (_build_parser, _finite_float, _float_list, _load_config,
                         run)
from symwave.geometry import phi0
from symwave.root_system import root_system_from_tag
from symwave.spherical import plancherel_constant
from symwave import wave_kernel
from symwave.wave_kernel import KernelParams, kernel_piece


def _read(path: Path) -> bytes:
    return path.read_bytes()


def test_admissible_examples(capsys):
    assert run(["admissible", "--d", "4", "--p", "inf", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["admissible", "--d", "3", "--p", "2", "--q", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_gwp_example(capsys):
    assert run(["gwp", "--d", "3", "--gamma", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_gwp_out_of_range_exit_code(capsys):
    assert run(["gwp", "--d", "3", "--gamma", "9"]) == 2
    assert "OutOfRangeError" in capsys.readouterr().err


def test_phi_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["phi", "--root-system", "A1", "--lam", "1.0",
                "--points", "21", "--box-radius", "2",
                "--output-dir", str(out)]) == 0
    header = (out / "phi.csv").read_text().splitlines()[0]
    assert header == "H_1,re,im"
    manifest = json.loads((out / "phi_manifest.json").read_text())
    assert manifest["root_system"] == "A1"
    assert manifest["lam"] == [1.0]


@pytest.mark.parametrize("tag", ["B4", "C4", "D4"])
def test_phi_table_at_rank_four_keeps_the_basic_bound(tag, tmp_path, capsys):
    # the default lam = (1, 1, 1, 1) is orthogonal to six roots, the
    # e_i - e_j, and most nodes of the 3^4 grid lie on two or more walls
    out = tmp_path / "o"
    assert run(["phi", "--root-system", tag, "--points", "3", "--output-dir", str(out)]) == 0
    rs = root_system_from_tag(tag)
    with open(out / "phi.csv") as fh:
        rows = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
    H, vals = rows[:, :rs.rank], rows[:, rs.rank] + 1j * rows[:, rs.rank + 1]
    assert rows.shape[0] == 81
    assert np.all(np.abs(vals) <= phi0(rs, H) * (1 + 1e-10))


@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "C2"])
def test_transform_roundtrip_and_metadata(tag, tmp_path, capsys):
    # default grids and spectral radius for each rank
    out = tmp_path / "o"
    assert run(["transform", "--root-system", tag,
                "--output-dir", str(out)]) == 0
    meta = json.loads((out / "transform_manifest.json").read_text())
    assert meta["roundtrip_sup_rel_error"] < 1e-5
    expected = 0.07957747154594767 if tag == "A1" \
        else plancherel_constant(root_system_from_tag(tag))
    assert meta["plancherel_constant"] == pytest.approx(expected, rel=1e-6)


def test_kernel_csv_schema(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["kernel", "--root-system", "A1", "--t", "1.0",
                "--sigma-im", "1.0", "--h-points", "5", "--h-max", "2",
                "--output-dir", str(out)]) == 0
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "t,abs_H,H_1,re,im,abs,weighted_abs"
    assert len(lines) == 6
    sidecar = json.loads((out / "kernel_manifest.json").read_text())
    assert sidecar["quadrature"]["panels"] == 128


def test_kernel_csv_matches_kernel_piece(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["kernel", "--root-system", "A1", "--t", "1.0,1.5",
                "--h-points", "5", "--h-max", "2",
                "--output-dir", str(out)]) == 0
    rs = root_system_from_tag("A1")
    with open(out / "kernel.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        p = KernelParams(t=float(row["t"]), sigma=2.0 + 1.0j)
        v = kernel_piece(rs, p, np.array([float(row["H_1"])]), "total")
        assert (v.real, v.imag) == (float(row["re"]), float(row["im"]))
    sidecar = json.loads((out / "kernel_manifest.json").read_text())
    assert sidecar["quadrature"] == {"panels": 128}


def test_kernel_times_are_one_radial_pass(tmp_path, monkeypatch, capsys):
    # all the --t values of one kernel table go through one batched pass
    passes = []
    real_pass = wave_kernel._profile_pass

    def counting_pass(*args):
        passes.append(args[3].tolist())
        return real_pass(*args)

    monkeypatch.setattr(wave_kernel, "_profile_pass", counting_pass)
    assert run(["kernel", "--root-system", "A1", "--t", "1.0,1.5",
                "--h-points", "5", "--h-max", "2",
                "--output-dir", str(tmp_path / "o")]) == 0
    assert len(passes) == 1 and sorted(set(passes[0])) == [1.0, 1.5]


def test_kernel_pole_sigma_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run(["kernel", "--root-system", "A1", "--t", "1.0",
              "--sigma-im", "0.0", "--output-dir", str(out)])
    assert rc == 2
    assert "PoleError" in capsys.readouterr().err


def test_decay_small_report(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["decay", "--root-system", "A1", "--regime", "small",
                "--per-axis", "33", "--output-dir", str(out)]) == 0
    rep = json.loads((out / "decay_report.json").read_text())
    assert rep["theoretical_slope"] == -1.0
    csv_lines = (out / "decay.csv").read_text().splitlines()
    assert csv_lines[0] == "t,sup_ratio"
    assert len(csv_lines) == 13


def test_decay_and_dispersive_manifests_record_their_grids(tmp_path, capsys):
    # two decay runs that differ only in --per-axis differ in the manifest's
    # per_axis; sigma is recorded as resolved, with the default imaginary part
    reps = []
    for n in ("17", "19"):
        out = tmp_path / n
        assert run(["decay", "--root-system", "A1", "--per-axis", n, "--sigma-re", "2.5",
                    "--output-dir", str(out)]) == 0
        reps.append(json.loads((out / "decay_report.json").read_text()))
    assert [r["per_axis"] for r in reps] == [17, 19]
    assert all(r["sigma"] == [2.5, 1.0] for r in reps)
    assert {k for k in reps[0] if reps[0][k] != reps[1][k]} <= {"per_axis", "sup_ratios",
                                                               "fitted_slope", "r_squared"}
    out = tmp_path / "d"
    assert run(["dispersive", "--times", "2,3", "--per-axis-ks", "33",
                "--output-dir", str(out)]) == 0
    assert json.loads((out / "dispersive_report.json").read_text())["per_axis_ks"] == 33


def test_solve_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["solve", "--root-system", "A1", "--gamma", "3", "--T", "1.0",
                "--steps", "20", "--points", "129", "--box-radius", "8",
                "--snapshots", "3", "--output-dir", str(out)]) == 0
    man = json.loads((out / "solve_manifest.json").read_text())
    assert man["gwp_sigma"] == pytest.approx(0.5)
    assert len(man["residual_history"]) == man["iterations"]
    assert (out / "solution_step00000.csv").exists()


def test_solve_takes_T_from_config_file(tmp_path, capsys):
    # config keys keep their case, so [solve] T is the T of the --T flag
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solve]\nT = 0.5\n")
    out = tmp_path / "o"
    assert run(["--config", str(cfg), "solve", "--root-system", "A1",
                "--gamma", "3", "--steps", "20", "--points", "129",
                "--box-radius", "8", "--snapshots", "3",
                "--output-dir", str(out)]) == 0
    man = json.loads((out / "solve_manifest.json").read_text())
    assert man["T"] == 0.5


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[common]\nroot_system = A1\n[gwp]\nd = 3\ngamma = 3\n")
    assert run(["--config", str(cfg), "gwp"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"
    # flag overrides config
    assert run(["--config", str(cfg), "gwp", "--gamma", "1.2"]) == 0
    assert capsys.readouterr().out.strip() == "0.001"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[gwp]\nbogus = 1\n")
    assert run(["--config", str(cfg), "gwp"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_every_flag_is_a_key_of_its_config_section(tmp_path, capsys):
    # flags and config keys are declared once: every dest of every
    # subcommand is accepted in its section ([common] for the shared ones),
    # and a misspelt key is refused with exit 2
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        dests = [a.dest for a in sp._actions if a.dest != "help"]
        common = [d for d in dests if d in ("root_system", "output_dir")]
        assert len(common) == 2
        ini = tmp_path / f"{name}.ini"
        ini.write_text("[common]\n" + "".join(f"{d} = 1\n" for d in common)
                       + f"[{name}]\n" + "".join(f"{d} = 1\n" for d in dests
                                                  if d not in common))
        assert len(_load_config(str(ini))) == len(dests)
        for d in dests:
            wrong = d.replace("_", "-") if "_" in d else d + d[-1]
            ini.write_text(f"[{'common' if d in common else name}]\n{wrong} = 1\n")
            assert run(["--config", str(ini), name]) == 2
            assert f"unknown key {wrong!r}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [("phi", "points", "abc"),
                                                 ("solve", "T", "x")])
def test_malformed_config_value_exits_like_the_flag(tmp_path, capsys, section, key, value):
    # a config value is parsed by its flag's own type: argparse's exit 2
    # and message, not a ValueError traceback
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(ini), section])
    assert exc.value.code == 2
    from_file = capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(SystemExit) as exc:
        run([section, f"--{key}", value])
    assert exc.value.code == 2
    assert from_file == capsys.readouterr().err.splitlines()[-1]
    assert f"argument --{key}: invalid" in from_file


def test_non_finite_floats_exit_naming_the_flag(tmp_path, capsys):
    # a non-finite size, time, exponent or sigma part exits 2 with its flag's
    # message, from the command line and from a config file, before the
    # command runs
    out, ini = tmp_path / "out", tmp_path / "run.ini"
    ini.write_text("[kernel]\nh_max = nan\n")
    for argv, flag, value in ((["kernel", "--h-max", "inf"], "--h-max", "inf"),
                              (["--config", str(ini), "kernel"], "--h-max", "nan"),
                              (["kernel", "--t", "1,-inf"], "--t", "-inf")):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--output-dir", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: not a finite number: {value!r}" in capsys.readouterr().err
    assert not out.exists()
    # admissible's exponents take inf on purpose
    assert run(["admissible", "--d", "4", "--p", "inf", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"


@pytest.mark.parametrize("section, key", [("kernel", "piece"), ("decay", "regime")])
def test_config_value_outside_choices_exits_like_the_flag(tmp_path, capsys, section, key):
    # argparse checks choices only on the command line; a config value
    # outside them exits 2 with the flag's message before the command
    # runs, so no half-written kernel.csv is left behind
    ini, out = tmp_path / "run.ini", tmp_path / "out"
    ini.write_text(f"[{section}]\n{key} = bogus\n")
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(ini), section, "--output-dir", str(out)])
    assert exc.value.code == 2
    from_file = capsys.readouterr().err.splitlines()[-1]
    assert not (out / "kernel.csv").exists()
    with pytest.raises(SystemExit) as exc:
        run([section, f"--{key}", "bogus"])
    assert exc.value.code == 2
    assert from_file == capsys.readouterr().err.splitlines()[-1]
    assert f"argument --{key}: invalid choice: 'bogus'" in from_file


# two valid literals of each option type: the config file's and the flag's
_LITERALS = {_float_list: ("0.5,1.5", "2"), float: ("inf", "3"),
             int: ("7", "9"), _finite_float: ("2.5", "0.125"), None: ("A2", "B2")}


def test_flags_and_config_keys_parse_alike(tmp_path):
    # each literal is tried as the file's value, with the other as the
    # overriding flag, so a file value left unread would show in one order
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    ini = tmp_path / "run.ini"
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if not action.option_strings or action.dest == "help":
                continue
            flag, dest = action.option_strings[0], action.dest
            section = "common" if dest in ("root_system", "output_dir") else name
            pair = action.choices[:2] if action.choices else _LITERALS[action.type]
            for v, w in (pair, pair[::-1]):
                ini.write_text(f"[{section}]\n{dest} = {v}\n")
                parser = _build_parser(_load_config(str(ini)))
                from_file = getattr(parser.parse_args([name]), dest)
                assert from_file == getattr(_build_parser().parse_args([name, flag, v]), dest), \
                    (name, dest, v)
                # a flag still overrides the file
                assert getattr(parser.parse_args([name, flag, w]), dest) == \
                    getattr(_build_parser().parse_args([name, flag, w]), dest) != from_file, \
                    (name, dest, w)


def test_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(symwave.__file__))
    done = subprocess.run([sys.executable, "-m", "symwave.cli", "gwp", "--d", "3",
                           "--gamma", "3"], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0.5"


def test_byte_identical_reruns(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["phi", "--root-system", "A2", "--lam", "0.9,0.4",
                    "--points", "9", "--box-radius", "1.5",
                    "--output-dir", str(out)]) == 0
    assert _read(out1 / "phi.csv") == _read(out2 / "phi.csv")
    assert _read(out1 / "phi_manifest.json") == _read(out2 / "phi_manifest.json")
    for out in (out1, out2):
        # coarse grids that still pass both tail checks
        assert run(["transform", "--root-system", "A2", "--box-radius", "9",
                    "--points", "81", "--spectral-points", "41",
                    "--output-dir", str(out)]) == 0
    for name in ("transform.csv", "roundtrip.csv", "transform_manifest.json"):
        assert _read(out1 / name) == _read(out2 / name)
