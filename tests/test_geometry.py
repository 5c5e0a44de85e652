import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from symwave.errors import ChamberError, ConfigError, InconclusiveIntegralError
from symwave.geometry import (RadialFunction, RadialGrid, density_delta,
                              integrate_biinvariant, phi0, phi0_envelope,
                              read_radial_csv, w_invariance_defect,
                              write_radial_csv)
from symwave.root_system import build_root_system, weyl_group


def test_grid_construction_and_validation(a1):
    grid = RadialGrid(a1, 3.0, 31)
    assert grid.spacing == pytest.approx(0.2)
    assert 0.0 in grid.axis
    with pytest.raises(ConfigError):
        RadialGrid(a1, 3.0, 30)       # even
    with pytest.raises(ConfigError):
        RadialGrid(a1, -1.0, 31)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
def test_grids_refuse_a_non_finite_box_radius(a1, radius):
    from symwave.spherical import SpectralGrid
    for grid in (RadialGrid, SpectralGrid):
        with pytest.raises(ConfigError, match="box_radius"):
            grid(a1, radius, 31)


def test_chamber_flags(a2):
    grid = RadialGrid(a2, 2.0, 21)
    pos = grid.nodes[grid.chamber_mask]
    assert np.all(pos @ a2.simple_c.T > 0)
    # walls excluded from the open chamber
    assert not grid.chamber_mask[np.all(grid.nodes == 0.0, axis=1)][0]


def test_density_examples(a1, a2):
    assert density_delta(a1, np.zeros(1)) == 0.0
    # <alpha, H> = 1
    H = a1.rho_c / 2.0            # alpha = rho, |alpha|^2 = 2, so <alpha,H> = 1
    assert density_delta(a1, H) == pytest.approx(np.sinh(1.0) ** 2, rel=1e-14)
    # chamber wall: one pairing vanishes (up to basis rounding)
    wall = np.array([0.0, 1.0])
    assert density_delta(a2, wall) < 1e-30


def test_density_weyl_invariance(a2, rng):
    W = weyl_group(a2)
    for _ in range(20):
        H = rng.normal(size=2) * 2
        base = density_delta(a2, H)
        for m in W.matrices:
            assert density_delta(a2, m @ H) == pytest.approx(base, rel=1e-12)


def test_density_exponential_bound(a2, rng):
    # delta(H) <= e^{2<rho,H>} on the closed chamber, constant 1
    grid = RadialGrid(a2, 4.0, 41)
    nodes = grid.nodes[grid.chamber_mask]
    assert np.all(density_delta(a2, nodes)
                  <= np.exp(2.0 * nodes @ a2.rho_c) * (1 + 1e-12))


def test_phi0_examples(a1, a2):
    assert phi0(a1, np.zeros(1)) == pytest.approx(1.0)
    H = a1.rho_c / 2.0
    assert phi0(a1, H) == pytest.approx(1.0 / np.sinh(1.0), rel=1e-14)
    assert phi0(a2, np.zeros(2)) == pytest.approx(1.0)


def test_phi0_range_invariance_monotonicity(a2, rng):
    W = weyl_group(a2)
    for _ in range(20):
        H = rng.normal(size=2) * 2.5
        v = phi0(a2, H)
        assert 0.0 < v <= 1.0
        for m in W.matrices[:3]:
            assert phi0(a2, m @ H) == pytest.approx(v, rel=1e-12)
    for _ in range(10):
        H = np.abs(rng.normal(size=2))
        H = np.array([H[0] + H[1], H[1]])      # chamber-ish direction
        for s in (1.5, 3.0):
            assert phi0(a2, s * H) <= phi0(a2, H) + 1e-15


def test_phi0_envelope_examples(a1):
    assert phi0_envelope(a1, np.zeros(1), 2.0) == pytest.approx(1.0)
    H = 3.0 * a1.rho_c / a1.rho_norm ** 2      # <rho, H> = 3
    assert phi0_envelope(a1, H, 0.0) == pytest.approx(np.exp(-3.0), rel=1e-14)
    with pytest.raises(ChamberError):
        phi0_envelope(a1, -a1.rho_c, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phi0_and_envelope_refuse_non_finite_points(a2, bad):
    # a point with a NaN or infinite entry is a ConfigError naming it, with
    # no floating-point warning on the way and before the chamber test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (lambda H: phi0(a2, H), lambda H: phi0_envelope(a2, H, 1.0)):
            with pytest.raises(ConfigError, match=re.escape(f"H = {[bad, 0.0]} is not finite")):
                f(np.array([bad, 0.0]))
            H = np.array([[1.0, 0.5], [0.5, 0.2], [2.0, bad]])
            with pytest.raises(ConfigError, match=re.escape(f"H[2] = {[2.0, bad]} is not finite")):
                f(H)
        with pytest.raises(ConfigError, match=re.escape(f"H[1, 0] = {[2.0, bad]} is not finite")):
            phi0(a2, H[:, None, :][1:])


def test_phi0_envelope_two_sided_on_chamber(a2):
    # phi0 matches prod(1+<alpha,H>) e^{-<rho,H>} within fixed constants
    grid = RadialGrid(a2, 5.0, 41)
    nodes = grid.nodes[grid.chamber_mask]
    pair = nodes @ a2.roots_c.T
    envelope = np.prod(1.0 + pair, axis=1) * np.exp(-nodes @ a2.rho_c)
    ratio = phi0(a2, nodes) / envelope
    assert 0.05 < ratio.min() and ratio.max() < 20.0


def test_integrate_zero(a1):
    grid = RadialGrid(a1, 4.0, 41)
    f = RadialFunction(grid, np.zeros(grid.n_nodes))
    assert integrate_biinvariant(a1, f) == 0.0


def test_integrate_rank1_vs_adaptive_oracle(a1):
    # f(H) = exp(-<alpha,H>^2); oracle is scalar adaptive quadrature of the
    # same chamber integral
    grid = RadialGrid(a1, 7.0, 281)
    alpha = a1.roots_c[0, 0]
    f = RadialFunction(grid, np.exp(-(alpha * grid.nodes[:, 0]) ** 2))
    mine = integrate_biinvariant(a1, f).real
    oracle = si.quad(lambda u: np.sinh(alpha * u) ** 2 * np.exp(-(alpha * u) ** 2),
                     0, 7.0, epsabs=1e-14, limit=300)[0]
    assert mine == pytest.approx(oracle, rel=1e-8)


def test_integrate_rank2_vs_adaptive_oracle(a2):
    grid = RadialGrid(a2, 8.0, 161)
    f = RadialFunction(grid, np.exp(-np.sum(grid.nodes ** 2, axis=1)))
    mine = integrate_biinvariant(a2, f).real

    # chamber in coordinates: x > 0, y > x / sqrt(3)
    def integrand(y, x):
        H = np.array([x, y])
        return density_delta(a2, H) * math.exp(-(x * x + y * y))

    oracle, err = si.dblquad(integrand, 0, 8.0, lambda x: x / math.sqrt(3.0),
                             lambda x: 8.0, epsabs=1e-11)
    assert mine == pytest.approx(oracle, rel=1e-6)


def test_integrate_tail_failure(a1):
    grid = RadialGrid(a1, 2.0, 21)
    f = RadialFunction(grid, np.ones(grid.n_nodes))   # no decay inside sinh^2
    with pytest.raises(InconclusiveIntegralError) as exc:
        integrate_biinvariant(a1, f)
    assert exc.value.tail_bound > 0


def test_radial_function_w_invariance_helper(a2):
    grid = RadialGrid(a2, 2.0, 15)
    good = RadialFunction(grid, np.exp(-np.sum(grid.nodes ** 2, axis=1)))
    assert w_invariance_defect(good) < 1e-12
    bad = RadialFunction(grid, grid.nodes[:, 0])
    assert w_invariance_defect(bad) > 0.1


def test_csv_roundtrip(tmp_path, a2):
    grid = RadialGrid(a2, 1.5, 9)
    f = RadialFunction(grid, np.exp(-np.sum(grid.nodes ** 2, axis=1))
                       + 0.25j * np.cos(grid.nodes[:, 0]))
    path = tmp_path / "f.csv"
    write_radial_csv(path, f)
    header = path.read_text().splitlines()[0]
    assert header == "H_1,H_2,re,im"
    g = read_radial_csv(path, grid)
    assert np.allclose(g.values, f.values, atol=1e-15)


def test_csv_with_missing_rows_rejected(tmp_path, a1):
    # a 5-node grid read from a file holding only its first 2 data rows
    grid = RadialGrid(a1, 1.0, 5)
    path = tmp_path / "f.csv"
    write_radial_csv(path, RadialFunction(grid, np.arange(5.0)))
    path.write_text("\n".join(path.read_text().splitlines()[:3]) + "\n")
    with pytest.raises(ConfigError, match="2 data rows for a grid of 5 nodes"):
        read_radial_csv(path, grid)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 4.0), st.floats(0.0, 6.0))
def test_envelope_positive_decreasing_in_rho_pairing(N, r):
    rs = build_root_system("A", 1)
    H = r * rs.rho_c / rs.rho_norm
    val = phi0_envelope(rs, H, N)
    assert val > 0
    assert val == pytest.approx((1 + r) ** N * np.exp(-rs.rho_norm * r), rel=1e-12)
