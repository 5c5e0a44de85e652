import csv
import json
from pathlib import Path

import numpy as np
import pytest

from symwave.cli import run
from symwave.root_system import root_system_from_tag
from symwave.spherical import plancherel_constant
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


def test_solve_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["solve", "--root-system", "A1", "--gamma", "3", "--T", "1.0",
                "--steps", "20", "--points", "129", "--box-radius", "8",
                "--snapshots", "3", "--output-dir", str(out)]) == 0
    man = json.loads((out / "solve_manifest.json").read_text())
    assert man["gwp_sigma"] == pytest.approx(0.5)
    assert len(man["residual_history"]) == man["iterations"]
    assert (out / "solution_step00000.csv").exists()


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
