import math
from fractions import Fraction

import numpy as np
import pytest

from symwave.errors import (ConfigError, DivergenceError, DomainError,
                            OutOfRangeError)
from symwave.evolution import (KleinGordonPropagator, WaveState, admissible,
                               gaussian_state, gwp_curves, gwp_powers,
                               gwp_sigma, semilinear_solve, sigma_pq,
                               sobolev_norm_2, suggested_steps)
from symwave.geometry import (RadialFunction, RadialGrid,
                              integrate_biinvariant, w_invariance_defect)
from symwave.root_system import build_root_system
from symwave.spherical import SpectralGrid


@pytest.fixture(scope="module")
def setup_a1():
    rs = build_root_system("A", 1)
    grid = RadialGrid(rs, 12.0, 257)
    prop = KleinGordonPropagator(rs, grid)
    state = gaussian_state(rs, grid)
    return rs, grid, prop, state


# ---------------------------------------------------------------------------
# linear flow
# ---------------------------------------------------------------------------

def test_identity_at_zero(setup_a1):
    rs, grid, prop, state = setup_a1
    out = prop.propagate(state, 0.0)
    assert np.max(np.abs(out.u.values - state.u.values)) < 1e-12


def test_time_reversal(setup_a1):
    rs, grid, prop, state = setup_a1
    back = prop.propagate(prop.propagate(state, 4.2), -4.2)
    assert np.max(np.abs(back.u.values - state.u.values)) < 1e-8
    assert np.max(np.abs(back.ut.values - state.ut.values)) < 1e-8


def test_group_law(setup_a1):
    rs, grid, prop, state = setup_a1
    one = prop.propagate(prop.propagate(state, 1.1), 2.6)
    two = prop.propagate(state, 3.7)
    assert np.max(np.abs(one.u.values - two.u.values)) < 1e-8


def test_energy_conservation_over_long_window():
    # the box must contain the unit-speed propagation cone over [0, 20]
    rs = build_root_system("A", 1)
    grid = RadialGrid(rs, 26.0, 513)
    prop = KleinGordonPropagator(rs, grid)
    state = gaussian_state(rs, grid)
    E0 = prop.energy(state)
    for t in (0.5, 3.0, 9.0, 20.0):
        Et = prop.energy(prop.propagate(state, t))
        assert abs(Et - E0) / E0 < 1e-6


def test_flow_keeps_weyl_invariance(setup_a1):
    rs, grid, prop, state = setup_a1
    out = prop.propagate(state, 2.4)
    assert w_invariance_defect(out.u) < 1e-8


def test_duhamel_constant_forcing(setup_a1):
    # with f = g = 0 and F(s) independent of s, Duhamel gives
    # u(t) = (1 - cos(t Omega))/Omega^2 F in the transform domain
    rs, grid, prop, _ = setup_a1
    zero = RadialFunction(grid, np.zeros(grid.n_nodes))
    state = WaveState(u=zero, ut=zero, time=0.0)
    F = RadialFunction(grid, np.exp(-grid.nodes[:, 0] ** 2))
    t = 1.3
    times = np.linspace(0.0, t, 181)
    out = prop.propagate(state, t, forcing=(times, [F] * times.size))
    Fh = prop.to_spectral(F).values
    expected = (1.0 - np.cos(t * prop.omega)) / prop.omega ** 2 * Fh
    got = prop.to_spectral(out.u).values
    assert np.max(np.abs(got - expected)) < 1e-4 * np.max(np.abs(expected))


def test_sobolev_norm_examples(setup_a1):
    rs, grid, prop, state = setup_a1
    f = state.u
    l2 = math.sqrt(float(integrate_biinvariant(
        rs, RadialFunction(grid, np.abs(f.values) ** 2)).real))
    assert sobolev_norm_2(rs, f, 0.0) == pytest.approx(l2, rel=1e-6)
    # monotone in s since the spectrum is bounded below by |rho|^2 = 2 > 1
    n0 = sobolev_norm_2(rs, f, 0.3)
    n1 = sobolev_norm_2(rs, f, 0.9)
    assert n1 >= n0


def test_sobolev_norm_s1_vs_dirichlet_oracle():
    # ||(-Lap)^{1/2} u||^2 equals the Dirichlet form int delta |grad u|^2,
    # since -Lap_rad = delta^{-1} grad . (delta grad); finite-difference
    # gradients on a fine grid give the independent oracle
    rs = build_root_system("A", 1)
    grid = RadialGrid(rs, 9.0, 513)
    u = gaussian_state(rs, grid).u
    h = grid.spacing
    du = np.gradient(u.values.real.reshape(grid.shape), h, edge_order=2)
    dirichlet = integrate_biinvariant(
        rs, RadialFunction(grid, np.asarray(du) ** 2)).real
    assert sobolev_norm_2(rs, u, 1.0) ** 2 == pytest.approx(dirichlet, rel=1e-3)


# ---------------------------------------------------------------------------
# admissibility and regularity formulas
# ---------------------------------------------------------------------------

HAND_CHECKED = [
    # (d, p, q, admissible?)
    (4, math.inf, 2, True),       # the special corner
    (4, 2, 6, True),              # triangle corner 1/2 - 1/(d-1)
    (4, 2, 2, False),             # q = 2 off the corner
    (4, 4, 4, False),             # below the lower edge
    (4, 2, 4, True),
    (4, 3, 100, False),           # 1/p < (d-1)/2 (1/2-1/q)
    (4, 2.5, 5, False),          # 0.4 < 0.45, just below the edge
    (3, 2, math.inf, False),      # excluded endpoint in d = 3
    (3, 2, 4, True),
    (3, math.inf, 2, True),
    (3, 4, 4, True),
    (6, 2, 10 / 3, True),         # corner at 1/2 - 1/(d-1), d = 6
]


@pytest.mark.parametrize("d,p,q,expected", HAND_CHECKED)
def test_admissible_hand_checked(d, p, q, expected):
    assert admissible(d, p, q) is expected


def test_admissible_convex_for_d_ge_4():
    # admissible set is convex in (1/p, 1/q) for each d >= 4
    for d in (4, 5, 6):
        pts = [(Fraction(i, 24), Fraction(j, 24))
               for i in range(0, 13) for j in range(1, 12)]
        inside = [(u, v) for (u, v) in pts
                  if u > 0 and admissible(d, float(1 / u) if u else math.inf,
                                          float(1 / v))]
        for (u1, v1) in inside[::7]:
            for (u2, v2) in inside[::11]:
                um, vm = (u1 + u2) / 2, (v1 + v2) / 2
                if um == 0 or vm == 0:
                    continue
                assert admissible(d, float(1 / um), float(1 / vm))


def test_sigma_pq_examples():
    assert sigma_pq(5, 7.0, 2.0) == 0.0
    assert sigma_pq(4, math.inf, 4.0) == pytest.approx(1.0)
    # admissible couples keep only the first term
    d, p, q = 4, 2, 6
    assert admissible(d, p, q)
    assert sigma_pq(d, p, q) == pytest.approx((d + 1) / 2 * (0.5 - 1 / q))
    with pytest.raises(DomainError):
        sigma_pq(4, 1.5, 4.0)


def test_gwp_examples_and_continuity():
    assert gwp_sigma(3, 1.5) == pytest.approx(1e-3)          # the 0+ branch
    assert gwp_sigma(3, 3.0) == pytest.approx(0.5)           # sigma_2(gamma_c)
    for d in (3, 4, 5, 6, 8):
        g, c = gwp_powers(d), gwp_curves(d)
        assert abs(c["sigma_0"](g["gamma_1"]) - c["sigma_1"](g["gamma_1"])) < 1e-9
        assert abs(c["sigma_1"](g["gamma_2"]) - c["sigma_2"](g["gamma_2"])) < 1e-9
        assert abs(c["sigma_2"](g["gamma_c"]) - c["sigma_3"](g["gamma_c"])) < 1e-9
    with pytest.raises(OutOfRangeError):
        gwp_sigma(3, 6.0)
    with pytest.raises(OutOfRangeError):
        gwp_sigma(3, 0.5)


def test_gwp_nondecreasing():
    for d in (3, 4, 5):
        g = gwp_powers(d)
        gammas = np.linspace(g["gamma_1"] + 1e-6, g["gamma_4"], 100)
        vals = [gwp_sigma(d, float(x)) for x in gammas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gamma3_exposed_but_unused():
    g = gwp_powers(3)
    assert g["gamma_3"] > g["gamma_c"]


# ---------------------------------------------------------------------------
# semilinear solver
# ---------------------------------------------------------------------------

def test_semilinear_zero_forcing_limit(setup_a1):
    # data tiny enough that |u|^{gamma-1} u underflows: trajectory equals
    # the linear flow
    rs, grid, prop, _ = setup_a1
    state = gaussian_state(rs, grid, amplitude=1e-160)
    res = semilinear_solve(rs, state, gamma=3.0, T=1.0, steps=20,
                           sgrid=prop.sgrid)
    lin = prop.propagate(state, 1.0)
    assert np.max(np.abs(res.trajectory[-1].u.values - lin.u.values)) < 1e-170


def test_semilinear_first_iterate_homogeneity(setup_a1):
    # first Picard correction is cubic in the data at gamma = 3
    rs, grid, prop, _ = setup_a1
    r1 = semilinear_solve(rs, gaussian_state(rs, grid, amplitude=1e-2),
                          gamma=3.0, T=1.0, steps=20, sgrid=prop.sgrid)
    r2 = semilinear_solve(rs, gaussian_state(rs, grid, amplitude=5e-3),
                          gamma=3.0, T=1.0, steps=20, sgrid=prop.sgrid)
    assert r1.residuals[0] / r2.residuals[0] == pytest.approx(8.0, rel=0.05)


def test_semilinear_contracts_and_stays_weyl_invariant(setup_a1):
    rs, grid, prop, _ = setup_a1
    state = gaussian_state(rs, grid, sobolev_order=0.5, target_norm=1e-2)
    res = semilinear_solve(rs, state, gamma=3.0, T=2.0, steps=60,
                           sgrid=prop.sgrid)
    assert res.iterations <= 5
    if len(res.residuals) >= 2:
        assert res.residuals[1] / res.residuals[0] < 0.5
    assert w_invariance_defect(res.trajectory[-1].u) < 1e-8
    assert res.energies.max() <= 2.0 * res.energies[0]


def test_semilinear_validation(setup_a1):
    rs, grid, prop, state = setup_a1
    with pytest.raises(DomainError):
        semilinear_solve(rs, state, gamma=1.0, T=1.0, steps=10)
    with pytest.raises(ConfigError):
        semilinear_solve(rs, state, gamma=3.0, T=1.0, steps=1)
    with pytest.raises(ConfigError):
        semilinear_solve(rs, state, gamma=3.0, T=1.0, steps=10, max_iter=0)
    # one Picard step cannot reach tol = 1e-30: stopping above tol must raise
    with pytest.raises(DivergenceError) as exc:
        semilinear_solve(rs, state, gamma=3.0, T=1.0, steps=10, tol=1e-30,
                         max_iter=1)
    assert exc.value.data_norm > 0.0


def test_suggested_steps_resolves_phase(setup_a1):
    rs, grid, prop, _ = setup_a1
    sg = SpectralGrid(rs, 10.0, 129)
    n = suggested_steps(rs, sg, 5.0)
    om_max = math.sqrt(rs.rank * 100.0 + rs.rho_norm ** 2)
    assert 5.0 * om_max / n < math.pi / 8.0 + 1e-12
