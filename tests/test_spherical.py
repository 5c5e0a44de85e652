import itertools
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symwave.errors import InconclusiveIntegralError, UnsupportedConfigurationError
from symwave.geometry import (RadialFunction, RadialGrid, _tensor_nodes,
                              _trapezoid_weights, density_delta, phi0,
                              w_invariance_defect)
from symwave.root_system import build_root_system, weyl_group
from symwave.spherical import (SpectralFunction, SpectralGrid,
                               _near_singular, _phi_direct, _w_fold,
                               forward_transform, forward_transform_stack,
                               inverse_transform, inverse_transform_stack,
                               phi_lambda, phi_lambda_many,
                               plancherel_constant, plancherel_density,
                               radial_laplacian_apply, parseval_pair)


# ---------------------------------------------------------------------------
# spherical function values
# ---------------------------------------------------------------------------

def test_phi_at_origin_is_one(a1, a2, rng):
    for rs in (a1, a2):
        for _ in range(5):
            lam = rng.normal(size=rs.rank) * 3
            assert phi_lambda(rs, lam, np.zeros(rs.rank)) == pytest.approx(1.0)


def test_phi_rank1_closed_form(a1, rng):
    # phi_lam(H) = sin(<lam,H>)/<lam,H> * <alpha,H>/sinh<alpha,H>
    for _ in range(20):
        lam = rng.normal(size=1) * 4
        H = rng.normal(size=1) * 2
        if abs(lam[0] * H[0]) < 1e-6:
            continue
        closed = np.sin(lam[0] * H[0]) / (lam[0] * H[0]) * phi0(a1, H)
        assert phi_lambda(a1, lam, H) == pytest.approx(closed, rel=1e-12)


def test_phi_rank1_against_group_average_oracle(a1):
    # oracle: compact-group average of e^{i <Ad(k) lam, H>} reduces to the
    # 2-sphere average sin(|lam||H|)/(|lam||H|); 2000-point quadrature
    lam, H = np.array([1.7]), np.array([0.9])
    u = np.linspace(-1.0, 1.0, 2001)
    avg = np.trapezoid(np.exp(1j * abs(lam[0]) * abs(H[0]) * u), u) / 2.0
    oracle = phi0(a1, H) * avg
    assert phi_lambda(a1, lam, H) == pytest.approx(oracle, abs=1e-7)


def test_phi_at_zero_spectral_parameter_matches_phi0(a2, rng):
    for _ in range(10):
        H = rng.normal(size=2) * 2
        assert phi_lambda(a2, np.zeros(2), H) == pytest.approx(phi0(a2, H), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-6, 6), st.floats(-6, 6), st.floats(-3, 3), st.floats(-3, 3))
@example(lx=0.0078125, ly=0.015625, hx=0.015625, hy=0.015625)
def test_basic_bound(lx, ly, hx, hy):
    rs = build_root_system("A", 2)
    lam, H = np.array([lx, ly]), np.array([hx, hy])
    direct = not (_near_singular(rs, lam)[0] or _near_singular(rs, H)[0])
    # on singular sets values come from polynomial extrapolation, whose
    # noise floor exceeds the razor-thin 1e-10 margin
    slack = 1e-10 if direct else 5e-6
    assert abs(phi_lambda(rs, lam, H)) <= phi0(rs, H) * (1 + slack) + (0 if direct else 5e-6)


def _phi_closed_form_mp(rs, lam, H):
    """The closed form of phi_lam(exp H) to 60 digits.

    The Weyl group acts exactly on ambient coordinates (permutations for A,
    signed permutations for B), so the alternating sum cancels its
    low-order Taylor terms without rounding."""
    n = rs.ambient_dim
    signs = [(1,) * n] if rs.family == "A" \
        else list(itertools.product((1, -1), repeat=n))
    with mp.workdps(60):
        lam_a = [mp.fsum(mp.mpf(lam[k]) * mp.mpf(rs.a_basis[k, i])
                         for k in range(rs.rank)) for i in range(n)]
        H_a = [mp.fsum(mp.mpf(H[k]) * mp.mpf(rs.a_basis[k, i])
                       for k in range(rs.rank)) for i in range(n)]
        num = mp.mpf(0)
        for perm in itertools.permutations(range(n)):
            parity = (-1) ** sum(perm[i] > perm[j]
                                 for i in range(n) for j in range(i + 1, n))
            for eps in signs:
                det = parity * (-1) ** eps.count(-1)
                num += det * mp.expj(mp.fsum(eps[j] * lam_a[perm[j]] * H_a[j]
                                             for j in range(n)))

        def pairing(alpha, x):
            return mp.fsum(mp.mpf(a) * xi for a, xi in zip(alpha, x))
        roots = rs.positive_roots
        pi_rho = mp.fprod(pairing(a, rs.rho) for a in roots)
        pi_ilam = mp.mpc(0, 1) ** len(roots) * mp.fprod(pairing(a, lam_a) for a in roots)
        den = mp.fprod(2 * mp.sinh(pairing(a, H_a)) for a in roots)
        return complex(pi_rho / pi_ilam * num / den)


_BOUND_COUNTEREXAMPLE = (np.array([0.0078125, 0.015625]),
                         np.array([0.015625, 0.015625]))


def _joint_case(joint):
    # generic directions off every wall of A2 and B2, |lam| = |H|
    r = np.sqrt(joint)
    return (r * np.array([np.cos(0.4), np.sin(0.4)]),
            r * np.array([np.cos(1.3), np.sin(1.3)]))


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("joint", [1e-4, 1e-2, 1.0, 10.0])
def test_phi_direct_matches_high_precision_closed_form(family, joint):
    # the alternating sum cancels to order |Sigma+| in |lam||H|; the
    # double-precision evaluation must not lose those digits
    rs = build_root_system(family, 2)
    lam, H = _joint_case(joint)
    ref = _phi_closed_form_mp(rs, lam, H)
    assert abs(_phi_direct(rs, lam, H)[0, 0] - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("family,lam,H", [
    pytest.param("A", *_BOUND_COUNTEREXAMPLE, id="A-bound-counterexample"),
    *[pytest.param(f, *_joint_case(j), id=f"{f}-joint{j:g}")
      for f in "AB" for j in (1e-4, 1e-2, 1.0, 10.0)],
])
def test_phi_lambda_matches_high_precision_closed_form(family, lam, H):
    # points off the singular sets, so phi_lambda takes the closed form;
    # at |lam||H| = 1e-4 both arguments have norm 0.01, so the wall test
    # must be relative to |p| to leave them unflagged
    rs = build_root_system(family, 2)
    assert not (_near_singular(rs, lam)[0] or _near_singular(rs, H)[0])
    ref = _phi_closed_form_mp(rs, lam, H)
    assert abs(phi_lambda(rs, lam, H) - ref) <= 1e-11 * abs(ref)


def test_phi_conjugation_and_weyl_symmetry(a2, rng):
    W = weyl_group(a2)
    for _ in range(10):
        lam = rng.normal(size=2) * 2
        H = rng.normal(size=2) * 1.5
        v = phi_lambda(a2, lam, H)
        assert np.conj(v) == pytest.approx(phi_lambda(a2, -lam, H), rel=1e-10, abs=1e-12)
        for m in W.matrices[:3]:
            assert phi_lambda(a2, m @ lam, H) == pytest.approx(v, rel=1e-10, abs=1e-12)


def test_phi_singular_sets_are_removable(a2):
    lam_on = np.array([0.0, 1.3])         # root hyperplane lam_1 = 0
    lam_off = np.array([2e-4, 1.3])
    H = np.array([0.7, 0.4])
    assert phi_lambda(a2, lam_on, H) == pytest.approx(
        phi_lambda(a2, lam_off, H), abs=2e-3 * abs(phi_lambda(a2, lam_off, H)))
    H_on = np.array([0.0, 0.9])           # wall
    H_off = np.array([2e-4, 0.9])
    assert phi_lambda(a2, np.array([1.1, 0.6]), H_on) == pytest.approx(
        phi_lambda(a2, np.array([1.1, 0.6]), H_off), abs=2e-3)


# ---------------------------------------------------------------------------
# radial Laplacian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag,lam", [("A1", [1.0]), ("A2", [0.9, 0.4])])
def test_eigenfunction_identity(tag, lam):
    rs = build_root_system(tag[0], int(tag[1]))
    lam = np.array(lam)
    h = 0.02
    grid = RadialGrid(rs, h * 32, 65)
    f = RadialFunction(grid, phi_lambda_many(rs, lam, grid.nodes))
    Lf = radial_laplacian_apply(rs, f)
    E = float(lam @ lam) + rs.rho_norm ** 2
    m = grid.interior_chamber_mask(2)
    resid = np.max(np.abs(-Lf.values[m] - E * f.values[m]))
    assert resid / (E * np.max(np.abs(f.values[m]))) < 1e-3


def test_eigenfunction_residual_second_order(a1):
    lam = np.array([1.0])
    E = float(lam @ lam) + a1.rho_norm ** 2
    resids = []
    for h in (0.04, 0.02):
        grid = RadialGrid(a1, h * 32, 65)
        f = RadialFunction(grid, phi_lambda_many(a1, lam, grid.nodes))
        Lf = radial_laplacian_apply(a1, f)
        m = grid.interior_chamber_mask(2)
        resids.append(np.max(np.abs(-Lf.values[m] - E * f.values[m])))
    assert 3.5 < resids[0] / resids[1] < 4.5


def test_laplacian_annihilates_constants(a1):
    grid = RadialGrid(a1, 2.0, 33)
    f = RadialFunction(grid, np.ones(grid.n_nodes))
    Lf = radial_laplacian_apply(a1, f)
    m = grid.interior_chamber_mask(2)
    assert np.max(np.abs(Lf.values[m])) < 1e-10


def test_laplacian_grid_too_coarse(a1):
    from symwave.errors import ConfigError
    grid = RadialGrid(a1, 1.0, 7)
    with pytest.raises(ConfigError):
        radial_laplacian_apply(a1, RadialFunction(grid, np.ones(7)))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_forward_of_zero(a1):
    rgrid, sgrid = RadialGrid(a1, 6.0, 101), SpectralGrid(a1, 5.0, 101)
    f = RadialFunction(rgrid, np.zeros(rgrid.n_nodes))
    Hf = forward_transform(a1, f, sgrid)
    assert np.all(Hf.values == 0)
    frt = inverse_transform(a1, Hf, rgrid)
    assert np.all(np.abs(frt.values) < 1e-300)


def test_forward_rank1_gaussian_vs_quad_oracle(a1):
    rgrid, sgrid = RadialGrid(a1, 9.0, 257), SpectralGrid(a1, 5.0, 51)
    alpha = a1.roots_c[0, 0]
    f = RadialFunction(rgrid, np.exp(-rgrid.nodes[:, 0] ** 2))
    Hf = forward_transform(a1, f, sgrid)
    for j in (25, 31, 40):       # includes lam = 0
        lam = sgrid.nodes[j, 0]
        def integrand(u):
            phi = (np.sin(lam * u) / (lam * u) if abs(lam * u) > 1e-12 else 1.0) \
                * (alpha * u) / np.sinh(alpha * u)
            return np.sinh(alpha * u) ** 2 * np.exp(-u * u) * phi
        oracle = si.quad(integrand, 1e-12, 9.0, epsabs=1e-13, limit=400)[0]
        assert Hf.values[j].real == pytest.approx(oracle, rel=1e-7)
        assert abs(Hf.values[j].imag) < 1e-12


def test_forward_weyl_invariance(a2):
    rgrid, sgrid = RadialGrid(a2, 7.0, 71), SpectralGrid(a2, 4.0, 41)
    f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
    Hf = forward_transform(a2, f, sgrid)
    # reuse the radial defect helper by viewing the spectral data on a grid
    rg = RadialGrid(a2, 4.0, 41)
    assert w_invariance_defect(RadialFunction(rg, Hf.values)) < 1e-8


@pytest.mark.parametrize("family", ["A", "B"])
def test_forward_rank2_matches_direct_quadrature(family):
    # Oracle independent of the Weyl fold and its phase tables: the same
    # trapezoid rule written as (1/|W|) sum_H w(H) delta(H) f(H) phi_lam(H),
    # with phi_lam from phi_lambda_many.  Twenty regular spectral nodes: the
    # ten closest to a root hyperplane and ten more drawn at random.
    rs = build_root_system(family, 2)
    rgrid, sgrid = RadialGrid(rs, 7.0, 71), SpectralGrid(rs, 4.0, 41)
    r = np.linalg.norm(rgrid.nodes, axis=1)
    f = RadialFunction(rgrid, np.exp(-r ** 2) * (1.0 + 0.3 * np.cos(3.0 * r)))
    regular = np.nonzero(~_near_singular(rs, sgrid.nodes))[0]
    closeness = np.min(np.abs(sgrid.nodes[regular] @ rs.roots_c.T), axis=1)
    near = regular[np.argsort(closeness, kind="stable")[:10]]
    rest = np.setdiff1d(regular, near)
    picked = np.concatenate(
        [near, np.random.default_rng(7).choice(rest, 10, replace=False)])
    # wall nodes, where delta = 0, drop out of both sums
    delta = density_delta(rs, rgrid.nodes)
    live = delta > 0.0
    wdf = (rgrid.weights * delta * f.values)[live]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Hf = forward_transform(rs, f, sgrid).values
        oracle = np.array([wdf @ phi_lambda_many(rs, sgrid.nodes[j],
                                                 rgrid.nodes[live])
                           for j in picked]) / weyl_group(rs).order
    assert np.max(np.abs(Hf[picked] - oracle)) <= 1e-10 * np.max(np.abs(Hf))


@pytest.mark.parametrize("tag,R,n,L,m,tol", [
    ("A1", 10.0, 193, 9.0, 193, 1e-6),
    ("A2", 10.0, 121, 10.0, 109, 1e-5),
])
def test_round_trip(tag, R, n, L, m, tol):
    rs = build_root_system(tag[0], int(tag[1]))
    rgrid, sgrid = RadialGrid(rs, R, n), SpectralGrid(rs, L, m)
    f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
    frt = inverse_transform(rs, forward_transform(rs, f, sgrid), rgrid)
    err = np.max(np.abs(frt.values - f.values)) / np.max(np.abs(f.values))
    assert err < tol
    assert w_invariance_defect(frt) < 1e-8


@pytest.mark.parametrize("tag,R,n,L,m", [
    ("A1", 8.0, 65, 7.0, 61),
    ("A2", 5.0, 25, 5.0, 21),
    ("B2", 5.0, 25, 5.0, 21),
    ("C2", 5.0, 25, 5.0, 21),
])
def test_stacked_transforms_match_per_slice(tag, R, n, L, m):
    # The comparison is about stacking, not resolution, so the tail checks
    # are off (tail_tol = 1).  Both grids hold the origin, and at rank 2 the
    # spectral grid has points on root hyperplanes and the radial grid
    # points on walls, which take the extrapolated path; on B2 these lie on
    # the axes and on the diagonals.
    rs = build_root_system(tag[0], int(tag[1]))
    rgrid, sgrid = RadialGrid(rs, R, n), SpectralGrid(rs, L, m)
    for grid in (rgrid, sgrid):
        assert np.any(np.all(grid.nodes == 0.0, axis=1))
        if rs.rank == 2:
            assert np.any(_near_singular(rs, grid.nodes)
                          & np.any(grid.nodes != 0.0, axis=1))
    r2 = np.sum(rgrid.nodes ** 2, axis=1)
    l2 = np.sum(sgrid.nodes ** 2, axis=1)
    radial = np.stack([np.exp(-r2 / w ** 2) * (1.0 + 0.3j * np.cos(r2 / w))
                       for w in (0.7, 1.0, 1.4)])
    spectral = np.stack([np.exp(-l2 / s ** 2) * (1.0 - 0.2j * np.sin(l2 / s))
                         for s in (1.0, 1.6, 2.5)])
    fwd = forward_transform_stack(rs, rgrid, radial, sgrid, tail_tol=1.0)
    inv = inverse_transform_stack(rs, sgrid, spectral, rgrid, tail_tol=1.0)
    for b in range(3):
        one = forward_transform(rs, RadialFunction(rgrid, radial[b]), sgrid,
                                tail_tol=1.0).values
        assert np.max(np.abs(fwd[b] - one)) <= 1e-13 * np.max(np.abs(one))
        one = inverse_transform(rs, SpectralFunction(sgrid, spectral[b]), rgrid,
                                tail_tol=1.0).values
        assert np.max(np.abs(inv[b] - one)) <= 1e-13 * np.max(np.abs(one))


@pytest.mark.parametrize("tag", ["A2", "B2", "C2", "D2"])
def test_tensor_fold_matches_point_fold(tag):
    # The grid fold folds only the rows y_a >= 0 and fills the others by the
    # mirror identity S(s p) = det(s) S(p), with s = diag(-1, 1) or -I; that
    # identity holds for any stack, so a random complex stack that is not
    # W-invariant must give the point-by-point fold on every node.
    rs = build_root_system(tag[0], int(tag[1]))
    x, y = np.linspace(-5.0, 5.0, 33), np.linspace(-6.0, 6.0, 27)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2, x.size ** 2)) + 1j * rng.normal(size=(2, x.size ** 2))
    weights = _trapezoid_weights(x, 2)
    grid = _w_fold(rs, values, weights, x, y, True)
    points = _w_fold(rs, values, weights, x, _tensor_nodes(y, 2), False)
    assert np.max(np.abs(grid - points)) <= 1e-13 * np.max(np.abs(points))


def test_stacked_tail_check_names_the_slice(a1):
    rgrid, sgrid = RadialGrid(a1, 8.0, 65), SpectralGrid(a1, 7.0, 61)
    resolved = np.exp(-np.sum(rgrid.nodes ** 2, axis=1))
    flat = np.ones(rgrid.n_nodes)
    with pytest.raises(InconclusiveIntegralError,
                       match=r"radial tail mass \S+ exceeds 1\.0e-10 of \S+ "
                             r"in slice 1 of 3") as exc:
        forward_transform_stack(a1, rgrid, np.stack([resolved, flat, flat]), sgrid)
    assert exc.value.slice_index == 1
    assert 0.0 < exc.value.tail_bound < exc.value.accumulated
    # a slice at or below the floor is waived, whatever its tail
    forward_transform_stack(a1, rgrid, np.stack([resolved, 1e-30 * flat]), sgrid,
                            tail_floor=1e-20)
    spec = np.exp(-np.sum(sgrid.nodes ** 2, axis=1) * 4.0)
    with pytest.raises(InconclusiveIntegralError,
                       match=r"spectral tail mass \S+ exceeds 1\.0e-10 of \S+ "
                             r"in slice 0 of 2") as exc:
        inverse_transform_stack(a1, sgrid, np.stack([np.ones(sgrid.n_nodes), spec]),
                                rgrid)
    assert exc.value.slice_index == 0


def test_plancherel_density_values(a1, a2, rng):
    assert plancherel_density(a1, np.zeros(1)) == 0.0
    assert plancherel_density(a1, a1.rho_c) == pytest.approx(4.0)
    W = weyl_group(a2)
    lam = rng.normal(size=2)
    for mmat in W.matrices:
        assert plancherel_density(a2, mmat @ lam) == pytest.approx(
            plancherel_density(a2, lam), rel=1e-12)


def test_plancherel_constant_closed_form(a1, a2):
    # the closed form 4^{|Sigma+|}/(pi(rho)^2 (2 pi)^rank |W|) against a
    # reference-Gaussian round trip pinned at the origin, where phi_lam = 1:
    # the inverse transform with constant 1 gives 1/C at H = 0
    grids = {1: (11.0, 441, 11.0, 441), 2: (10.0, 161, 12.0, 161)}
    for rs in (a1, a2):
        R, n, L, m = grids[rs.rank]
        rgrid, sgrid = RadialGrid(rs, R, n), SpectralGrid(rs, L, m)
        f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
        Hf = forward_transform(rs, f, sgrid, tail_tol=1e-6)
        raw_at_zero = np.sum(sgrid.weights * Hf.values
                             * plancherel_density(rs, sgrid.nodes))
        assert plancherel_constant(rs) == pytest.approx(1.0 / raw_at_zero.real,
                                                        rel=1e-12)
    with pytest.raises(UnsupportedConfigurationError):
        plancherel_constant(build_root_system("A", 3))


def test_parseval(a1):
    rgrid, sgrid = RadialGrid(a1, 9.0, 257), SpectralGrid(a1, 8.0, 257)
    f = RadialFunction(rgrid, np.exp(-rgrid.nodes[:, 0] ** 2))
    lhs, rhs = parseval_pair(a1, f, sgrid)
    assert lhs == pytest.approx(rhs, rel=1e-5)
