"""Command-line front end: every workflow as a reproducible batch job.

Configuration comes from an INI file (section per subcommand plus
``[common]``) overridden by flags.  Each option is declared once, in
``_OPTIONS``: a config value becomes its subcommand's string default, which
argparse parses with the flag's own type, so a malformed value exits 2 as
the same flag would.  Every run writes machine-readable CSV artifacts plus
a JSON manifest echoing the fully resolved configuration.  Outputs carry no
timestamps, so identical configs give identical bytes.

Run as ``symwave`` or ``python -m symwave.cli``.  Exit codes: 0 success,
2 configuration/domain errors, 3 inconclusive integrals or unresolved
spectral tails.
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
from .wave_kernel import KernelParams, kernel_piece


def _fmt(x) -> str:
    return f"{x:.17g}"


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["symwave_version"] = __version__
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=float) + "\n", encoding="utf-8")


def _finite_float(x: str) -> float:
    """Every float flag's type but admissible's --p and --q, which take inf."""
    v = float(x)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {x!r}")
    return v


def _float_list(x: str) -> list:
    return [_finite_float(v) for v in x.split(",") if v.strip()]


# each subcommand's flags besides the [common] ones, with argparse's type,
# choices and default; a flag's dest (argparse derives it from the flag's
# name) is also its key in the config section.  A default that depends on
# the root system is None here, and the subcommand fills it in.
_COMMON = (("--root-system", dict(default="A1")), ("--output-dir", dict(default="out")))
_OPTIONS = {
    "phi": (("--lam", dict(type=_float_list)), ("--points", dict(type=int, default=65)),
            ("--box-radius", dict(type=_finite_float, default=4.0))),
    "transform": (("--box-radius", dict(type=_finite_float, default=10.0)),
                  ("--points", dict(type=int)),
                  ("--spectral-radius", dict(type=_finite_float)),
                  ("--spectral-points", dict(type=int)),
                  ("--width", dict(type=_finite_float, default=1.0)),
                  ("--amplitude", dict(type=_finite_float, default=1.0)),
                  ("--roundtrip", dict(type=int, default=1))),
    "kernel": (("--t", dict(type=_float_list, default=[1.0])),
               ("--sigma-re", dict(type=_finite_float)), ("--h-points", dict(type=int, default=33)),
               ("--sigma-im", dict(type=_finite_float, default=1.0)),
               ("--rho-tilde", dict(type=_finite_float)), ("--panels", dict(type=int, default=128)),
               ("--piece", dict(choices=["low", "high_reg", "total"], default="total")),
               ("--h-max", dict(type=_finite_float, default=4.0)),
               ("--envelope-power", dict(type=_finite_float))),
    "decay": (("--regime", dict(choices=["small", "large", "small_time", "large_time"],
                                default="small")),
              ("--sigma-re", dict(type=_finite_float)),
              ("--sigma-im", dict(type=_finite_float, default=1.0)),
              ("--per-axis", dict(type=int)), ("--envelope-power", dict(type=_finite_float))),
    "dispersive": (("--q", dict(type=_finite_float, default=4.0)),
                   ("--times", dict(type=_float_list, default=[float(t) for t in LARGE_TIMES])),
                   ("--per-axis-ks", dict(type=int, default=129))),
    "solve": (("--gamma", dict(type=_finite_float, default=3.0)),
              ("--T", dict(type=_finite_float, default=10.0)), ("--steps", dict(type=int)),
              ("--box-radius", dict(type=_finite_float, default=12.0)),
              ("--points", dict(type=int)), ("--smallness", dict(type=_finite_float, default=1e-2)),
              ("--mu", dict(type=_finite_float, default=1.0)),
              ("--snapshots", dict(type=int, default=11))),
    "admissible": (("--d", dict(type=int, default=4)),
                   ("--p", dict(type=float, default=math.inf)),
                   ("--q", dict(type=float, default=2.0))),
    "gwp": (("--d", dict(type=int, default=3)), ("--gamma", dict(type=_finite_float, default=3.0))),
}
# the keys of each config section: the dests of its flags
_SECTIONS = {name: {flag[2:].replace("-", "_") for flag, _ in specs}
             for name, specs in {"common": _COMMON, **_OPTIONS}.items()}


def _load_config(path: str | None) -> dict:
    """The values of the INI file ``path`` as {"section.key": string}."""
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


def _or(value, default):
    """``value``, or ``default`` where it is None."""
    return default if value is None else value


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_phi(args) -> int:
    rs = root_system_from_tag(args.root_system)
    lam = np.asarray(_or(args.lam, [1.0] * rs.rank))
    if lam.size != rs.rank:
        raise ConfigError(f"lam needs {rs.rank} components")
    grid = RadialGrid(rs, args.box_radius, args.points)
    vals = phi_lambda_many(rs, lam, grid.nodes)
    out = _out_dir(args)
    write_radial_csv(out / "phi.csv", RadialFunction(grid, vals))
    _write_manifest(out / "phi_manifest.json", {
        "command": "phi", "root_system": rs.tag, "lam": list(lam),
        "box_radius": args.box_radius, "points": args.points})
    print(f"wrote {out / 'phi.csv'}")
    return 0


def _cmd_transform(args) -> int:
    rs = root_system_from_tag(args.root_system)
    R, width, amp = args.box_radius, args.width, args.amplitude
    n = _or(args.points, 193 if rs.rank == 1 else 121)
    L = _or(args.spectral_radius, 9.0 if rs.rank == 1 else 12.0)
    m = _or(args.spectral_points, 193 if rs.rank == 1 else 109)
    rgrid = RadialGrid(rs, R, n)
    sgrid = SpectralGrid(rs, L, m)
    f = RadialFunction(rgrid, amp * np.exp(-np.sum(rgrid.nodes ** 2, axis=1) / width ** 2))
    Hf = forward_transform(rs, f, sgrid)
    out = _out_dir(args)
    with open(out / "transform.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"lam_{k + 1}" for k in range(rs.rank)] + ["re", "im"])
        for node, v in zip(sgrid.nodes, Hf.values):
            w.writerow([_fmt(x) for x in node] + [_fmt(v.real), _fmt(v.imag)])
    meta = {"command": "transform", "root_system": rs.tag,
            "box_radius": R, "points": n, "spectral_radius": L,
            "spectral_points": m, "width": width, "amplitude": amp,
            "plancherel_constant": plancherel_constant(rs)}
    if args.roundtrip:
        frt = inverse_transform(rs, Hf, rgrid)
        write_radial_csv(out / "roundtrip.csv", frt)
        err = float(np.max(np.abs(frt.values - f.values)) / np.max(np.abs(f.values)))
        meta["roundtrip_sup_rel_error"] = err
        print(f"roundtrip sup relative error {err:.3e}")
    _write_manifest(out / "transform_manifest.json", meta)
    return 0


def _cmd_kernel(args) -> int:
    rs = root_system_from_tag(args.root_system)
    d = rs.dim_X
    sig = complex(_or(args.sigma_re, (d + 1) / 2.0), args.sigma_im)
    N = _or(args.envelope_power, float(d - rs.rank))
    params = [KernelParams(t=t, sigma=sig, rho_tilde=args.rho_tilde, panels=args.panels)
              for t in args.t]
    direction = rs.rho_c / np.linalg.norm(rs.rho_c)
    radii = np.linspace(0.0, args.h_max, args.h_points)
    out = _out_dir(args)
    with open(out / "kernel.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "abs_H"] + [f"H_{k + 1}" for k in range(rs.rank)]
                   + ["re", "im", "abs", "weighted_abs"])
        H = radii[:, None] * direction[None, :]
        env = phi0_envelope(rs, H, N)
        # every time is one call, with per-row times
        vals = kernel_piece(rs, params[0], np.tile(H, (len(params), 1)), args.piece,
                            t=np.repeat([p.t for p in params], len(H)))
        for p, row in zip(params, np.split(vals, len(params))):
            for s, h, v, e in zip(radii, H, row, env):
                w.writerow([_fmt(p.t), _fmt(s)] + [_fmt(x) for x in h]
                           + [_fmt(v.real), _fmt(v.imag), _fmt(abs(v)),
                              _fmt(abs(v) / e)])
    _write_manifest(out / "kernel_manifest.json", {
        "command": "kernel", "root_system": rs.tag, "t": list(args.t),
        "sigma": [sig.real, sig.imag],
        "rho_tilde": _or(args.rho_tilde, rs.rho_norm),
        "piece": args.piece, "h_max": args.h_max, "h_points": args.h_points,
        "envelope_power": N,
        "quadrature": {"panels": args.panels}})
    print(f"wrote {out / 'kernel.csv'}")
    return 0


def _cmd_decay(args) -> int:
    rs = root_system_from_tag(args.root_system)
    regime = {"small": "small_time", "large": "large_time"}.get(args.regime, args.regime)
    sigma = None if args.sigma_re is None else complex(args.sigma_re, args.sigma_im)
    report = decay_sweep(rs, regime, sigma=sigma, per_axis=args.per_axis,
                         envelope_power=args.envelope_power)
    out = _out_dir(args)
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


def _cmd_dispersive(args) -> int:
    rs = root_system_from_tag(args.root_system)
    report = dispersive_report(rs, args.q, args.times, per_axis_ks=args.per_axis_ks)
    out = _out_dir(args)
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


def _cmd_solve(args) -> int:
    rs = root_system_from_tag(args.root_system)
    gamma, T = args.gamma, args.T
    n = _or(args.points, 257 if rs.rank == 1 else 97)
    rgrid = RadialGrid(rs, args.box_radius, n)
    sigma = gwp_sigma(rs.dim_X, gamma)
    state0 = gaussian_state(rs, rgrid, sobolev_order=sigma, target_norm=args.smallness)
    prop = KleinGordonPropagator(rs, rgrid)
    steps = args.steps if args.steps is not None else suggested_steps(rs, prop.sgrid, T)
    result = semilinear_solve(rs, state0, gamma, T, steps, mu=args.mu,
                              sgrid=prop.sgrid)
    out = _out_dir(args)
    keep = np.unique(np.linspace(0, len(result.times) - 1, args.snapshots).astype(int))
    for idx in keep:
        write_radial_csv(out / f"solution_step{idx:05d}.csv",
                         result.trajectory[idx].u)
    _write_manifest(out / "solve_manifest.json", {
        "command": "solve", "root_system": rs.tag, "gamma": gamma, "T": T,
        "steps": steps, "mu": args.mu, "smallness": args.smallness,
        "gwp_sigma": sigma, "box_radius": args.box_radius, "points": n,
        "iterations": result.iterations,
        "residual_history": [float(r) for r in result.residuals],
        "energy_series": [float(e) for e in result.energies],
        "snapshot_steps": [int(i) for i in keep]})
    print(f"picard iterations: {result.iterations}; "
          f"final residual {result.residuals[-1]:.3e}")
    return 0


def _cmd_admissible(args) -> int:
    print("true" if admissible(args.d, args.p, args.q) else "false")
    return 0


def _cmd_gwp(args) -> int:
    print(_fmt(gwp_sigma(args.d, args.gamma)))
    return 0


_COMMANDS = {"phi": _cmd_phi, "transform": _cmd_transform, "kernel": _cmd_kernel,
             "decay": _cmd_decay, "dispersive": _cmd_dispersive,
             "solve": _cmd_solve, "admissible": _cmd_admissible,
             "gwp": _cmd_gwp}


def _build_parser(cfg: dict | None = None) -> argparse.ArgumentParser:
    """The parser, with the values of ``cfg`` (as ``_load_config`` returns
    them) as its subcommands' defaults, a section's over [common]'s.  They
    stay strings, so argparse converts them with the flag's own type, a
    malformed one exits 2 as a flag does, and a flag still overrides them.
    argparse checks ``choices`` only on the command line, so a config value
    of an option with choices is parsed here as that flag, which exits 2
    with the flag's message before any command runs."""
    cfg = cfg or {}
    ap = argparse.ArgumentParser(prog="symwave",
                                 description="spherical analysis and wave kernels "
                                             "on complex-group symmetric spaces")
    ap.add_argument("--config", help="INI config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, specs in _OPTIONS.items():
        sp = sub.add_parser(name)
        defaults = {key: cfg[f"{sec}.{key}"] for sec in ("common", name)
                    for key in _SECTIONS[sec] if f"{sec}.{key}" in cfg}
        for action in [sp.add_argument(flag, **kw) for flag, kw in _COMMON + specs]:
            if action.choices is not None and action.dest in defaults:
                # parsed as the flag, it exits 2 with the flag's message
                sp.parse_known_args([f"{action.option_strings[0]}={defaults[action.dest]}"])
        sp.set_defaults(**defaults)
    return ap


def run(argv=None) -> int:
    """Parse ``argv`` once to find --config, then again with the file loaded."""
    config = _build_parser().parse_args(argv).config
    try:
        args = _build_parser(_load_config(config)).parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InconclusiveIntegralError, ResolutionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SymwaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
