"""Command-line front end: every workflow as a reproducible batch job.

Configuration comes from an INI file (section per subcommand plus
``[common]``) overridden by flags; every run writes machine-readable CSV
artifacts plus a JSON manifest echoing the fully resolved configuration.
Outputs carry no timestamps, so identical configs give identical bytes.

Exit codes: 0 success, 2 configuration/domain errors, 3 inconclusive
integrals or unresolved spectral tails.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, InconclusiveIntegralError, ResolutionError,
                     SymwaveError)
from .estimates import (LARGE_TIMES, decay_sweep, dispersive_report)
from .evolution import (KleinGordonPropagator, admissible, gaussian_state,
                        gwp_sigma, semilinear_solve, suggested_steps)
from .geometry import RadialFunction, RadialGrid, phi0_envelope, write_radial_csv
from .root_system import root_system_from_tag
from .spherical import (SpectralGrid, forward_transform, inverse_transform,
                        phi_lambda_many, plancherel_constant)
from .wave_kernel import KernelParams, QuadratureControls, kernel_piece


def _fmt(x) -> str:
    return f"{x:.17g}"


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["symwave_version"] = __version__
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=float) + "\n", encoding="utf-8")


def _parse_float(x: str) -> float:
    return math.inf if x in ("inf", "Inf", "INF") else float(x)


def _float_list(x: str) -> list:
    return [float(v) for v in x.split(",") if v.strip()]


# each subcommand's flags besides the [common] ones; a flag's dest (argparse
# derives it from the flag's name) is also its key in the config section
_COMMON = ("--root-system", "--output-dir")
_OPTIONS = {
    "phi": (("--lam", dict(type=_float_list)), ("--box-radius", dict(type=float)),
            ("--points", dict(type=int))),
    "transform": (("--box-radius", dict(type=float)), ("--points", dict(type=int)),
                  ("--spectral-radius", dict(type=float)),
                  ("--spectral-points", dict(type=int)),
                  ("--width", dict(type=float)), ("--amplitude", dict(type=float)),
                  ("--roundtrip", dict(type=int))),
    "kernel": (("--t", dict(type=_float_list)), ("--sigma-re", dict(type=float)),
               ("--sigma-im", dict(type=float)), ("--rho-tilde", dict(type=float)),
               ("--piece", dict(choices=["low", "high_reg", "total"])),
               ("--h-max", dict(type=float)), ("--h-points", dict(type=int)),
               ("--envelope-power", dict(type=float)), ("--panels", dict(type=int))),
    "decay": (("--regime", dict(choices=["small", "large", "small_time", "large_time"])),
              ("--sigma-re", dict(type=float)), ("--sigma-im", dict(type=float)),
              ("--per-axis", dict(type=int)), ("--envelope-power", dict(type=float))),
    "dispersive": (("--q", dict(type=float)), ("--times", dict(type=_float_list)),
                   ("--per-axis-ks", dict(type=int))),
    "solve": (("--gamma", dict(type=float)), ("--T", dict(type=float)),
              ("--steps", dict(type=int)), ("--box-radius", dict(type=float)),
              ("--points", dict(type=int)), ("--smallness", dict(type=float)),
              ("--mu", dict(type=float)), ("--snapshots", dict(type=int))),
    "admissible": (("--d", dict(type=int)), ("--p", dict(type=_parse_float)),
                   ("--q", dict(type=_parse_float))),
    "gwp": (("--d", dict(type=int)), ("--gamma", dict(type=float))),
}


def _key(flag: str) -> str:
    """The dest argparse gives the flag ``flag``: its config key."""
    return flag[2:].replace("-", "_")


_SECTIONS = {"common": {_key(f) for f in _COMMON},
             **{name: {_key(f) for f, _ in specs} for name, specs in _OPTIONS.items()}}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    parser.optionxform = str        # keys keep their case, as in _SECTIONS ("T")
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    out = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            out[f"{section}.{key}"] = val
    return out


def _resolve(args, cfg: dict, section: str, name: str, cast, default):
    """Flag > config-file value > default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    raw = cfg.get(f"{section}.{name}", cfg.get(f"common.{name}"))
    if raw is not None:
        return cast(raw)
    return default


def _out_dir(args, cfg) -> Path:
    out = Path(_resolve(args, cfg, "common", "output_dir", str, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_phi(args, cfg) -> int:
    rs = root_system_from_tag(_resolve(args, cfg, "common", "root_system", str, "A1"))
    lam = np.asarray(_resolve(args, cfg, "phi", "lam", _float_list, [1.0] * rs.rank))
    if lam.size != rs.rank:
        raise ConfigError(f"lam needs {rs.rank} components")
    R = _resolve(args, cfg, "phi", "box_radius", float, 4.0)
    n = int(_resolve(args, cfg, "phi", "points", int, 65))
    grid = RadialGrid(rs, R, n)
    vals = phi_lambda_many(rs, lam, grid.nodes)
    out = _out_dir(args, cfg)
    write_radial_csv(out / "phi.csv", RadialFunction(grid, vals))
    _write_manifest(out / "phi_manifest.json", {
        "command": "phi", "root_system": rs.tag, "lam": list(lam),
        "box_radius": R, "points": n})
    print(f"wrote {out / 'phi.csv'}")
    return 0


def _cmd_transform(args, cfg) -> int:
    rs = root_system_from_tag(_resolve(args, cfg, "common", "root_system", str, "A1"))
    R = _resolve(args, cfg, "transform", "box_radius", float, 10.0)
    n = int(_resolve(args, cfg, "transform", "points", int,
                     193 if rs.rank == 1 else 121))
    L = _resolve(args, cfg, "transform", "spectral_radius", float,
                 9.0 if rs.rank == 1 else 12.0)
    m = int(_resolve(args, cfg, "transform", "spectral_points", int,
                     193 if rs.rank == 1 else 109))
    width = _resolve(args, cfg, "transform", "width", float, 1.0)
    amp = _resolve(args, cfg, "transform", "amplitude", float, 1.0)
    roundtrip = bool(int(_resolve(args, cfg, "transform", "roundtrip", int, 1)))
    rgrid = RadialGrid(rs, R, n)
    sgrid = SpectralGrid(rs, L, m)
    f = RadialFunction(rgrid, amp * np.exp(-np.sum(rgrid.nodes ** 2, axis=1) / width ** 2))
    Hf = forward_transform(rs, f, sgrid)
    out = _out_dir(args, cfg)
    with open(out / "transform.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"lam_{k + 1}" for k in range(rs.rank)] + ["re", "im"])
        for node, v in zip(sgrid.nodes, Hf.values):
            w.writerow([_fmt(x) for x in node] + [_fmt(v.real), _fmt(v.imag)])
    meta = {"command": "transform", "root_system": rs.tag,
            "box_radius": R, "points": n, "spectral_radius": L,
            "spectral_points": m, "width": width, "amplitude": amp,
            "plancherel_constant": plancherel_constant(rs)}
    if roundtrip:
        frt = inverse_transform(rs, Hf, rgrid)
        write_radial_csv(out / "roundtrip.csv", frt)
        err = float(np.max(np.abs(frt.values - f.values)) / np.max(np.abs(f.values)))
        meta["roundtrip_sup_rel_error"] = err
        print(f"roundtrip sup relative error {err:.3e}")
    _write_manifest(out / "transform_manifest.json", meta)
    return 0


def _cmd_kernel(args, cfg) -> int:
    rs = root_system_from_tag(_resolve(args, cfg, "common", "root_system", str, "A1"))
    d = rs.dim_X
    ts = _resolve(args, cfg, "kernel", "t", _float_list, [1.0])
    sig = complex(_resolve(args, cfg, "kernel", "sigma_re", float, (d + 1) / 2.0),
                  _resolve(args, cfg, "kernel", "sigma_im", float, 1.0))
    rho_tilde = _resolve(args, cfg, "kernel", "rho_tilde", float, None)
    piece = _resolve(args, cfg, "kernel", "piece", str, "total")
    h_max = _resolve(args, cfg, "kernel", "h_max", float, 4.0)
    h_points = int(_resolve(args, cfg, "kernel", "h_points", int, 33))
    N = _resolve(args, cfg, "kernel", "envelope_power", float, float(d - rs.rank))
    panels = int(_resolve(args, cfg, "kernel", "panels", int, 128))
    quad = QuadratureControls(panels=panels)
    direction = rs.rho_c / np.linalg.norm(rs.rho_c)
    radii = np.linspace(0.0, h_max, h_points)
    out = _out_dir(args, cfg)
    with open(out / "kernel.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "abs_H"] + [f"H_{k + 1}" for k in range(rs.rank)]
                   + ["re", "im", "abs", "weighted_abs"])
        H = radii[:, None] * direction[None, :]
        env = phi0_envelope(rs, H, N)
        for t in ts:
            p = KernelParams(t=t, sigma=sig, rho_tilde=rho_tilde, quad=quad)
            vals = kernel_piece(rs, p, H, piece)
            for s, h, v, e in zip(radii, H, vals, env):
                w.writerow([_fmt(t), _fmt(s)] + [_fmt(x) for x in h]
                           + [_fmt(v.real), _fmt(v.imag), _fmt(abs(v)),
                              _fmt(abs(v) / e)])
    _write_manifest(out / "kernel_manifest.json", {
        "command": "kernel", "root_system": rs.tag, "t": list(ts),
        "sigma": [sig.real, sig.imag],
        "rho_tilde": rs.rho_norm if rho_tilde is None else rho_tilde,
        "piece": piece, "h_max": h_max, "h_points": h_points,
        "envelope_power": N,
        "quadrature": {"panels": panels}})
    print(f"wrote {out / 'kernel.csv'}")
    return 0


def _cmd_decay(args, cfg) -> int:
    rs = root_system_from_tag(_resolve(args, cfg, "common", "root_system", str, "A1"))
    regime = _resolve(args, cfg, "decay", "regime", str, "small")
    regime = {"small": "small_time", "large": "large_time"}.get(regime, regime)
    sig_re = _resolve(args, cfg, "decay", "sigma_re", float, None)
    sig_im = _resolve(args, cfg, "decay", "sigma_im", float, 1.0)
    sigma = None if sig_re is None else complex(sig_re, sig_im)
    per_axis = _resolve(args, cfg, "decay", "per_axis", int, None)
    N = _resolve(args, cfg, "decay", "envelope_power", float, None)
    report = decay_sweep(rs, regime, sigma=sigma, per_axis=per_axis,
                         envelope_power=N)
    out = _out_dir(args, cfg)
    with open(out / "decay.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "sup_ratio"])
        for t, v in zip(report.times, report.sup_ratios):
            w.writerow([_fmt(t), _fmt(v)])
    _write_manifest(out / "decay_report.json",
                    {"command": "decay", "root_system": rs.tag,
                     **report.as_dict()})
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _cmd_dispersive(args, cfg) -> int:
    rs = root_system_from_tag(_resolve(args, cfg, "common", "root_system", str, "A1"))
    q = _resolve(args, cfg, "dispersive", "q", float, 4.0)
    times = _resolve(args, cfg, "dispersive", "times", _float_list,
                     [float(t) for t in LARGE_TIMES])
    per_axis_ks = int(_resolve(args, cfg, "dispersive", "per_axis_ks", int, 129))
    report = dispersive_report(rs, q, times, per_axis_ks=per_axis_ks)
    out = _out_dir(args, cfg)
    with open(out / "dispersive.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "ks_low", "sup_high_reg"])
        for row in report.rows:
            w.writerow([_fmt(row["t"]), _fmt(row["ks_low"]),
                        _fmt(row["sup_high_reg"])])
    _write_manifest(out / "dispersive_report.json",
                    {"command": "dispersive", "root_system": rs.tag,
                     **report.as_dict()})
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _cmd_solve(args, cfg) -> int:
    rs = root_system_from_tag(_resolve(args, cfg, "common", "root_system", str, "A1"))
    gamma = _resolve(args, cfg, "solve", "gamma", float, 3.0)
    T = _resolve(args, cfg, "solve", "T", float, 10.0)
    R = _resolve(args, cfg, "solve", "box_radius", float, 12.0)
    n = int(_resolve(args, cfg, "solve", "points", int,
                     257 if rs.rank == 1 else 97))
    smallness = _resolve(args, cfg, "solve", "smallness", float, 1e-2)
    mu = _resolve(args, cfg, "solve", "mu", float, 1.0)
    snapshots = int(_resolve(args, cfg, "solve", "snapshots", int, 11))
    rgrid = RadialGrid(rs, R, n)
    sigma = gwp_sigma(rs.dim_X, gamma)
    state0 = gaussian_state(rs, rgrid, sobolev_order=sigma, target_norm=smallness)
    prop = KleinGordonPropagator(rs, rgrid)
    steps = _resolve(args, cfg, "solve", "steps", int, None)
    steps = int(steps) if steps is not None else suggested_steps(rs, prop.sgrid, T)
    result = semilinear_solve(rs, state0, gamma, T, steps, mu=mu,
                              sgrid=prop.sgrid)
    out = _out_dir(args, cfg)
    keep = np.unique(np.linspace(0, len(result.times) - 1, snapshots).astype(int))
    for idx in keep:
        write_radial_csv(out / f"solution_step{idx:05d}.csv",
                         result.trajectory[idx].u)
    _write_manifest(out / "solve_manifest.json", {
        "command": "solve", "root_system": rs.tag, "gamma": gamma, "T": T,
        "steps": steps, "mu": mu, "smallness": smallness,
        "gwp_sigma": sigma, "box_radius": R, "points": n,
        "iterations": result.iterations,
        "residual_history": [float(r) for r in result.residuals],
        "energy_series": [float(e) for e in result.energies],
        "snapshot_steps": [int(i) for i in keep]})
    print(f"picard iterations: {result.iterations}; "
          f"final residual {result.residuals[-1]:.3e}")
    return 0


def _cmd_admissible(args, cfg) -> int:
    d = int(_resolve(args, cfg, "admissible", "d", int, 4))
    p = _resolve(args, cfg, "admissible", "p", _parse_float, math.inf)
    q = _resolve(args, cfg, "admissible", "q", _parse_float, 2.0)
    print("true" if admissible(d, p, q) else "false")
    return 0


def _cmd_gwp(args, cfg) -> int:
    d = int(_resolve(args, cfg, "gwp", "d", int, 3))
    gamma = _resolve(args, cfg, "gwp", "gamma", float, 3.0)
    print(_fmt(gwp_sigma(d, gamma)))
    return 0


_COMMANDS = {"phi": _cmd_phi, "transform": _cmd_transform, "kernel": _cmd_kernel,
             "decay": _cmd_decay, "dispersive": _cmd_dispersive,
             "solve": _cmd_solve, "admissible": _cmd_admissible,
             "gwp": _cmd_gwp}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symwave",
                                 description="spherical analysis and wave kernels "
                                             "on complex-group symmetric spaces")
    ap.add_argument("--config", help="INI config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, specs in _OPTIONS.items():
        sp = sub.add_parser(name)
        for flag in _COMMON:
            sp.add_argument(flag)
        for flag, kw in specs:
            sp.add_argument(flag, **kw)
    return ap


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (InconclusiveIntegralError, ResolutionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SymwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
