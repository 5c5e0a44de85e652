"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  Sigma values sit on the
critical line Re sigma = (d+1)/2 with a fixed imaginary offset wherever the
regularized family is exercised (the real point of that line is a zero of
the regularizing factor, so the family is trivially zero there; see the
decisions ledger), and above the critical line for the large-time total
kernel, where the same theorems hold and the fit window is free of
low-order transients.
"""

import math
import time

import numpy as np
import pytest

from symwave.estimates import (LARGE_TIMES, decay_sweep, fit_decay,
                               kunze_stein_sweep)
from symwave.evolution import (KleinGordonPropagator, admissible,
                               gaussian_state, gwp_curves, gwp_powers,
                               gwp_sigma, semilinear_solve)
from symwave.geometry import RadialFunction, RadialGrid, phi0
from symwave.root_system import build_root_system
from symwave.spherical import (SpectralGrid, forward_transform,
                               inverse_transform, phi_lambda_many,
                               radial_laplacian_apply)
from symwave.wave_kernel import KernelParams, kernel_piece

from kernel_oracle import oracle_high_regularized

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_transform_round_trip():
    details = []
    ok = True
    for rs, R, n, L, m, tol in ((A1, 10.0, 193, 9.0, 193, 1e-6),
                                (A2, 10.0, 121, 10.0, 109, 1e-5)):
        t0 = time.monotonic()
        rgrid, sgrid = RadialGrid(rs, R, n), SpectralGrid(rs, L, m)
        f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
        frt = inverse_transform(rs, forward_transform(rs, f, sgrid), rgrid)
        err = float(np.max(np.abs(frt.values - f.values))
                    / np.max(np.abs(f.values)))
        dt = time.monotonic() - t0
        details.append(f"{rs.tag}: sup rel {err:.2e} in {dt:.1f}s")
        ok = ok and err <= tol and dt <= 30.0
    _report(1, "transform round-trip", ok, "; ".join(details))


def test_criterion_02_eigenfunction_identity():
    details = []
    ok = True
    for rs, lam in ((A1, np.array([1.0])), (A2, np.array([0.9, 0.4]))):
        E = float(lam @ lam) + rs.rho_norm ** 2
        resids = {}
        for h in (0.04, 0.02):
            grid = RadialGrid(rs, h * 32, 65)
            f = RadialFunction(grid, phi_lambda_many(rs, lam, grid.nodes))
            Lf = radial_laplacian_apply(rs, f)
            mask = grid.interior_chamber_mask()
            resids[h] = float(np.max(np.abs(-Lf.values[mask]
                                            - E * f.values[mask])))
        rel = resids[0.02] / (E * 1.0)
        ratio = resids[0.04] / resids[0.02]
        details.append(f"{rs.tag}: rel {rel:.2e}, halving ratio {ratio:.2f}")
        ok = ok and rel <= 1e-3 and 3.5 <= ratio <= 4.5
    _report(2, "eigenfunction identity", ok, "; ".join(details))


def test_criterion_03_basic_bound():
    rng = np.random.default_rng(31415926)
    details = []
    ok = True
    for rs in (A1, A2):
        violations = 0
        for _ in range(100):
            lam = rng.uniform(-6.0, 6.0, size=(100, rs.rank))
            H = rng.uniform(-3.0, 3.0, size=rs.rank)
            vals = np.abs(phi_lambda_many(rs, lam, np.broadcast_to(H, lam.shape)))
            violations += int(np.sum(vals > phi0(rs, H) * (1 + 1e-10)))
        details.append(f"{rs.tag}: {violations} violations in 10^4 samples")
        ok = ok and violations == 0
    _report(3, "basic bound |phi_lam| <= phi0", ok, "; ".join(details))


def test_criterion_04_quadrature_oracle_equivalence():
    t0 = time.monotonic()
    sigma = 2.0 + 1.0j        # critical line; the real point is a Gamma zero
    worst = 0.0
    for t in (0.3, 0.9, 2.1, 4.5, 7.5):
        for s in (0.0, 0.7, 1.9, 3.8):
            H = np.array([s])
            a = kernel_piece(A1, KernelParams(t=t, sigma=sigma), H, "high_reg")
            b = oracle_high_regularized(A1, t, sigma, H)
            worst = max(worst, abs(a - b) / abs(b))
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt <= 300.0
    _report(4, "Filon vs dense oracle", ok,
            f"20 points, worst rel {worst:.2e}, {dt:.0f}s")


def test_criterion_05_small_time_decay():
    t0 = time.monotonic()
    details = []
    ok = True
    for rs, tol in ((A1, 0.15), (A2, 0.30)):
        sigma = (rs.dim_X + 1) / 2.0 + 0.5j
        rep = decay_sweep(rs, "small_time", sigma=sigma)
        details.append(f"{rs.tag}: slope {rep.fitted_slope:.3f} "
                       f"(theory {rep.theoretical_slope})")
        ok = ok and abs(rep.fitted_slope - rep.theoretical_slope) <= tol
    dt = time.monotonic() - t0
    ok = ok and dt <= 1200.0
    _report(5, "small-time kernel decay", ok,
            "; ".join(details) + f", {dt:.0f}s")


def test_criterion_06_large_time_decay():
    details = []
    rep1 = decay_sweep(A1, "large_time", sigma=3.5 + 0.0j)
    ok = abs(rep1.fitted_slope - (-1.5)) <= 0.2
    details.append(f"A1: slope {rep1.fitted_slope:.3f} vs -1.5 +- 0.2")
    rep2 = decay_sweep(A2, "large_time", sigma=6.0 + 0.0j,
                       times=np.geomspace(2.0, 12.0, 10))
    ok = ok and rep2.fitted_slope <= -3.5
    details.append(f"A2: slope {rep2.fitted_slope:.3f} <= -3.5")
    _report(6, "large-time kernel decay", ok, "; ".join(details))


def test_criterion_07_kunze_stein_sweep():
    ts, vals = kunze_stein_sweep(A1, 4.0, LARGE_TIMES, sigma=2.0 + 1.0j)
    rep = fit_decay(ts, vals, "large_time", -1.5)
    ok = rep.fitted_slope <= -1.3
    _report(7, "Kunze-Stein dispersive functional", ok,
            f"A1 q=4 slope {rep.fitted_slope:.3f} <= -1.3")


def test_criterion_08_energy_and_group_law():
    grid = RadialGrid(A1, 26.0, 513)
    prop = KleinGordonPropagator(A1, grid)
    state = gaussian_state(A1, grid)
    E0 = prop.energy(state)
    drift = max(abs(prop.energy(prop.propagate(state, t)) - E0) / E0
                for t in (1.0, 5.0, 12.0, 20.0))
    back = prop.propagate(prop.propagate(state, 7.3), -7.3)
    rev = max(float(np.max(np.abs(back.u.values - state.u.values))),
              float(np.max(np.abs(back.ut.values - state.ut.values))))
    ok = drift <= 1e-6 and rev <= 1e-8
    _report(8, "energy conservation and group law", ok,
            f"drift {drift:.2e}, reversal {rev:.2e}")


def test_criterion_09_formula_tables():
    lattice = [
        (4, math.inf, 2, True), (4, 2, 6, True), (4, 2, 2, False),
        (4, 4, 4, False), (4, 2, 4, True), (4, 3, 100, False),
        (4, 2.5, 5, False), (3, 2, math.inf, False), (3, 2, 4, True),
        (3, math.inf, 2, True), (3, 4, 4, True), (6, 2, 10 / 3, True),
    ]
    table_ok = all(admissible(d, p, q) is want for d, p, q, want in lattice)
    cont_ok = True
    for d in (3, 4, 5, 6):
        g, c = gwp_powers(d), gwp_curves(d)
        cont_ok &= abs(c["sigma_0"](g["gamma_1"]) - c["sigma_1"](g["gamma_1"])) <= 1e-9
        cont_ok &= abs(c["sigma_1"](g["gamma_2"]) - c["sigma_2"](g["gamma_2"])) <= 1e-9
        cont_ok &= abs(c["sigma_2"](g["gamma_c"]) - c["sigma_3"](g["gamma_c"])) <= 1e-9
    value_ok = gwp_sigma(3, 3.0) == pytest.approx(0.5, abs=1e-12)
    ok = table_ok and cont_ok and value_ok
    _report(9, "admissibility and regularity tables", ok,
            f"12 lattice points {'ok' if table_ok else 'bad'}, "
            f"breakpoint continuity {'ok' if cont_ok else 'bad'}, "
            f"sigma2(gamma_c)=1/2 {'ok' if value_ok else 'bad'}")


def test_criterion_10_semilinear_small_data():
    t0 = time.monotonic()
    grid = RadialGrid(A1, 16.0, 321)
    sgrid = SpectralGrid(A1, 10.5, 321)
    state = gaussian_state(A1, grid, sobolev_order=gwp_sigma(3, 3.0),
                           target_norm=1e-2)
    steps = 270
    res = semilinear_solve(A1, state, gamma=3.0, T=10.0, steps=steps,
                           sgrid=sgrid)
    ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:])]
    contracts = all(r < 0.5 for r in ratios)
    energy_ok = float(res.energies.max()) <= 2.0 * float(res.energies[0])
    dt = time.monotonic() - t0
    ok = contracts and energy_ok and dt <= 600.0
    _report(10, "semilinear small-data run", ok,
            f"iterations {res.iterations}, contraction ratios "
            f"{['%.1e' % r for r in ratios]}, energy ratio "
            f"{res.energies.max() / res.energies[0]:.3f}, {dt:.0f}s")
