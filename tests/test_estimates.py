import math

import numpy as np
import pytest

from symwave.errors import (DataError, DomainError, InconclusiveIntegralError,
                            NoCriticalPointError)
from symwave import wave_kernel
from symwave.estimates import (chamber_sup_grid, critical_point, decay_sweep,
                               dispersive_report, fit_decay, kernel_on_grid,
                               ks_box_radius, kunze_stein_bound, kunze_stein_sweep,
                               phase_psi, sup_weighted)
from symwave.geometry import RadialFunction, RadialGrid, phi0
from symwave.wave_kernel import KernelParams, kernel_piece

SIGMA = 2.0 + 1.0j


def test_critical_point_at_origin(a2):
    assert np.allclose(critical_point(a2, np.zeros(2), 3.0), np.zeros(2))


def test_critical_point_half_speed_magnitude(a2):
    # |A|/t = 1/2 gives |lam0| = |rho|/sqrt(3)
    A = np.array([0.5, 0.8])
    t = 2.0 * np.linalg.norm(A)
    lam0 = critical_point(a2, A, t)
    assert np.linalg.norm(lam0) == pytest.approx(a2.rho_norm / math.sqrt(3.0),
                                                 rel=1e-12)


def test_critical_point_closed_form_magnitude(a1, rng):
    for _ in range(20):
        t = rng.uniform(1.0, 5.0)
        A = rng.normal(size=1)
        if abs(A[0]) >= t:
            continue
        lam0 = critical_point(a1, A, t)
        a = np.linalg.norm(A) / t
        assert np.linalg.norm(lam0) == pytest.approx(
            a1.rho_norm * a / math.sqrt(1 - a * a), rel=1e-12)


def test_critical_point_gradient_vanishes(a2, rng):
    for _ in range(10):
        A = rng.normal(size=2) * 0.5
        t = 2.5
        lam0 = critical_point(a2, A, t)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            g = (phase_psi(a2, A, t, lam0 + e) - phase_psi(a2, A, t, lam0 - e)) / (2 * h)
            assert abs(g) < 1e-8


def test_critical_point_hessian_positive_definite(a2):
    A, t = np.array([0.4, 0.2]), 2.0
    lam0 = critical_point(a2, A, t)
    h = 1e-5
    Hmat = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            ei, ej = np.zeros(2), np.zeros(2)
            ei[i] = h
            ej[j] = h
            Hmat[i, j] = (phase_psi(a2, A, t, lam0 + ei + ej)
                          - phase_psi(a2, A, t, lam0 + ei - ej)
                          - phase_psi(a2, A, t, lam0 - ei + ej)
                          + phase_psi(a2, A, t, lam0 - ei - ej)) / (4 * h * h)
    assert np.all(np.linalg.eigvalsh(Hmat) > 0)


def test_no_critical_point(a1):
    with pytest.raises(NoCriticalPointError):
        critical_point(a1, np.array([3.0]), 2.0)


def test_fit_decay_exact_power_law():
    times = np.geomspace(0.1, 10.0, 9)
    rep = fit_decay(times, 7.0 * times ** -1.5, "large_time", -1.5)
    assert rep.fitted_slope == pytest.approx(-1.5, abs=1e-12)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_data_errors():
    with pytest.raises(DataError):
        fit_decay([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(DataError):
        fit_decay([1.0, 2.0, 3.0], [1.0, -0.5, 0.2])
    with pytest.raises(DataError):
        fit_decay([1.0, 1.0, 3.0], [1.0, 0.5, 0.2])


def test_sup_weighted_monotone_under_refinement(a1):
    p = KernelParams(t=1.0, sigma=SIGMA)
    coarse = sup_weighted(a1, p, "high_reg", 1.0, chamber_sup_grid(a1, 4.0, 17))
    fine = sup_weighted(a1, p, "high_reg", 1.0, chamber_sup_grid(a1, 4.0, 33))
    assert fine >= coarse - 1e-12   # node superset


def test_sup_weighted_small_time_scale(a1):
    # ratios finite and bounded by C / t at d = 3
    vals = []
    for t in (0.1, 0.2, 0.4):
        p = KernelParams(t=t, sigma=SIGMA)
        vals.append(sup_weighted(a1, p, "high_reg", 1.0,
                                 chamber_sup_grid(a1, 4.0, 33)))
    assert all(np.isfinite(v) for v in vals)
    C = max(v * t for v, t in zip(vals, (0.1, 0.2, 0.4)))
    assert C < 1e6


def test_kunze_stein_zero_and_sup(a1):
    grid = RadialGrid(a1, 5.0, 101)
    zero = RadialFunction(grid, np.zeros(grid.n_nodes))
    assert kunze_stein_bound(a1, zero, 4.0) == 0.0
    p = KernelParams(t=3.0, sigma=SIGMA)
    samples = kernel_on_grid(a1, p, grid, "high_reg")
    assert kunze_stein_bound(a1, samples, math.inf) == pytest.approx(
        np.max(np.abs(samples.values)))


def test_kunze_stein_monotone_in_kernel(a1):
    grid = RadialGrid(a1, 6.0, 121)
    base = np.exp(-np.sum(grid.nodes ** 2, axis=1))
    small = RadialFunction(grid, 0.5 * base)
    big = RadialFunction(grid, base)
    assert kunze_stein_bound(a1, small, 4.0) <= kunze_stein_bound(a1, big, 4.0)


def test_kunze_stein_rejects_divergent_tail(a1):
    grid = RadialGrid(a1, 4.0, 61)
    # decays too slowly against the exponential weight
    slow = RadialFunction(grid, np.exp(-0.1 * np.abs(grid.nodes[:, 0])))
    with pytest.raises(InconclusiveIntegralError):
        kunze_stein_bound(a1, slow, 2.5)


def test_kernel_on_grid_matches_pointwise(a1):
    grid = RadialGrid(a1, 3.0, 21)
    p = KernelParams(t=2.0, sigma=SIGMA)
    samples = kernel_on_grid(a1, p, grid, "low")
    for i in (3, 10, 15):
        H = grid.nodes[i]
        Hc = np.abs(H)          # chamber representative in rank one
        assert samples.values[i] == pytest.approx(
            kernel_piece(a1, p, Hc, "low") * phi0(a1, H) / phi0(a1, Hc), rel=1e-12)


def test_kernel_on_grid_equals_kernel_piece_at_the_nodes(a2):
    # every node, inside the chamber or not, goes to kernel_piece as it is
    grid = RadialGrid(a2, 3.0, 9)
    p = KernelParams(t=0.7, sigma=SIGMA)
    for piece in ("low", "total"):
        samples = kernel_on_grid(a2, p, grid, piece)
        assert np.all(samples.values == kernel_piece(a2, p, grid.nodes, piece)), piece


def test_dispersive_report_rejects_bad_q(a1):
    with pytest.raises(DomainError):
        dispersive_report(a1, 2.0, [2.0, 3.0])
    with pytest.raises(DomainError):
        dispersive_report(a1, math.inf, [2.0, 3.0])


def test_sweeps_make_one_radial_pass_per_piece(a1, a2, monkeypatch):
    # a sweep's times all go through one batched radial pass per kernel
    # piece (its times are all positive), as on the inputs of the
    # small-time and Kunze-Stein benchmark sweeps; one pass per time made
    # 12 + 4 and 4 of them
    pieces = []
    real_pass = wave_kernel._profile_pass

    def counting_pass(*args):
        pieces.append(args[6])
        return real_pass(*args)

    monkeypatch.setattr(wave_kernel, "_profile_pass", counting_pass)
    decay_sweep(a1, "small_time", sigma=2.0 + 0.5j, times=np.geomspace(0.05, 0.8, 12))
    decay_sweep(a2, "small_time", sigma=4.5 + 0.5j, times=np.geomspace(0.05, 0.8, 4), per_axis=25)
    assert pieces == ["high", "high"]
    pieces.clear()
    kunze_stein_sweep(a1, 4.0, np.geomspace(2.0, 40.0, 4), sigma=2.0 + 1.0j)
    assert pieces == ["total"]
    pieces.clear()
    dispersive_report(a1, 4.0, [2.0, 3.0], per_axis_ks=33)
    assert sorted(pieces) == ["high", "low"]


def test_sweeps_equal_their_per_time_values(a1):
    # each time's value of a batched sweep is that of the same functional at
    # that time alone: sup_weighted on the standard grid, and the
    # convolution functional of kernel_on_grid
    times = [0.1, 0.3, 0.6]
    rep = decay_sweep(a1, "small_time", sigma=SIGMA, times=times, per_axis=17)
    for t, sup in zip(times, rep.sup_ratios):
        grid = chamber_sup_grid(a1, max(4.0, 2.0 * t), 17)
        assert sup == sup_weighted(a1, KernelParams(t=t, sigma=SIGMA), "high_reg",
                                   a1.n_positive, grid)
    ts, vals = kunze_stein_sweep(a1, 4.0, [2.0, 3.0], sigma=SIGMA)
    for t, v in zip(ts, vals):
        grid = RadialGrid(a1, ks_box_radius(a1, t), 257)
        samples = kernel_on_grid(a1, KernelParams(t=t, sigma=SIGMA), grid, "total")
        assert v == kunze_stein_bound(a1, samples, 4.0)
