import itertools
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symwave.errors import (ConfigError, InconclusiveIntegralError,
                            UnsupportedConfigurationError)
from symwave.geometry import (RadialFunction, RadialGrid, _tensor_nodes,
                              _trapezoid_weights, density_delta, phi0,
                              w_invariance_defect)
from symwave.estimates import ks_box_radius
from symwave.evolution import default_spectral_grid
from symwave.root_system import build_root_system, weyl_group
from symwave import spherical
from symwave.spherical import (SpectralFunction, SpectralGrid, _coset_fold,
                               _near_singular, _w_fold, _wall_fold,
                               _weyl_phases,
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
@example(lx=1.0, ly=0.0, hx=0.0, hy=1.1125369292536007e-308)   # H = 0 on a wall
@example(lx=1.0, ly=2.225073858507203e-309, hx=0.0, hy=1.0)     # a subnormal node
def test_basic_bound(lx, ly, hx, hy):
    rs = build_root_system("A", 2)
    lam, H = np.array([lx, ly]), np.array([hx, hy])
    # one formula for every pair, on the singular sets too
    assert abs(phi_lambda(rs, lam, H)) <= phi0(rs, H) * (1 + 1e-10)


def _phi_closed_form_mp(rs, lam, H, shift=0):
    """The closed form of phi_lam(exp H) to 40 or more significant digits.

    The Weyl group acts exactly on ambient coordinates (permutations for A;
    signed permutations for B and C, with an even number of sign changes
    for D), so the alternating sum cancels its low-order Taylor terms
    without rounding.  A nonzero ``shift`` first moves lam and H by
    shift * d, d a fixed unit vector off every wall and root hyperplane, in
    mpmath; callers pick it so that no pairing vanishes.  The working
    precision adds the digits that the cancellation costs: -log10 of each
    pairing relative to |p| (at least the shift) and m log10 |lam||H| below
    1, m = |Sigma+|."""
    n = rs.ambient_dim
    signs = [eps for eps in itertools.product((1, -1), repeat=n)
             if (rs.family != "A" or -1 not in eps)
             and (rs.family != "D" or eps.count(-1) % 2 == 0)]
    pts = np.array([lam, H], dtype=float)
    norms = np.linalg.norm(pts, axis=1)
    rel = np.abs(pts @ rs.roots_c.T) / norms[:, None]
    lost = -np.sum(np.log10(np.clip(rel, max(float(shift), 1e-300), 1.0))) \
        - rs.n_positive * np.log10(min(1.0, norms[0] * norms[1]))
    with mp.workdps(40 + int(lost)):
        d = [mp.sqrt(mp.mpf(2 * (k + 1)) / (rs.rank * (rs.rank + 1)))
             for k in range(rs.rank)]
        lam_s = [mp.mpf(lam[k]) + shift * d[k] for k in range(rs.rank)]
        H_s = [mp.mpf(H[k]) + shift * d[k] for k in range(rs.rank)]
        lam_a = [mp.fsum(lam_s[k] * mp.mpf(rs.a_basis[k, i])
                         for k in range(rs.rank)) for i in range(n)]
        H_a = [mp.fsum(H_s[k] * mp.mpf(rs.a_basis[k, i])
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


def test_phi_far_from_joint_origin_is_warning_free(a2):
    # |lam||H| = 800: e^{|lam||H|} overflows, the evaluation must not form it
    lam, H = _joint_case(800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = phi_lambda_many(a2, lam, H)
    assert np.isfinite(val)
    assert abs(val) <= phi0(a2, H)


def _wall(rs, k):
    # unit vector on the wall (or root hyperplane) of the k-th positive root
    a = rs.roots_c[k]
    return np.array([-a[1], a[0]]) / np.linalg.norm(a)


def _normal(rs, k):
    # unit normal of that wall
    return rs.roots_c[k] / np.linalg.norm(rs.roots_c[k])


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("case", ["H-wall", "lam-plane", "both"])
def test_extrapolated_phi_matches_high_precision_closed_form(family, case):
    # Removable singularities: on every wall, with |lam| and |H| in
    # {0.3, 1, 3}, the value must match the closed form taken 1e-30 off the
    # singular set.  H on a wall, lam on a root hyperplane and both take
    # the same determinant.
    rs = build_root_system(family, 2)
    n_roots = rs.roots_c.shape[0]
    worst = 0.0
    for k in range(n_roots):
        for r_lam, r_H in itertools.product((0.3, 1.0, 3.0), repeat=2):
            lam = r_lam * (_wall(rs, k) if case != "H-wall"
                           else np.array([np.cos(0.4), np.sin(0.4)]))
            H = r_H * (_wall(rs, (k + 1) % n_roots) if case != "lam-plane"
                       else np.array([np.cos(1.3), np.sin(1.3)]))
            assert _near_singular(rs, lam)[0] == (case != "H-wall")
            assert _near_singular(rs, H)[0] == (case != "lam-plane")
            ref = _phi_closed_form_mp(rs, lam, H, shift=mp.mpf("1e-30"))
            worst = max(worst, abs(phi_lambda(rs, lam, H) - ref) / abs(ref))
    assert worst <= 1e-11


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("case", ["H-wall", "lam-plane", "both"])
def test_phi_near_walls_matches_high_precision_closed_form(family, case):
    # H at distance delta |H| from a wall, lam at delta |lam| from a root
    # hyperplane, or both, down to the joint origin: on, near and off the
    # singular sets the error stays at rounding level
    rs = build_root_system(family, 2)
    n_roots = rs.roots_c.shape[0]
    lams, Hs = [], []
    for k in range(n_roots):
        for delta in (0.0, 1e-12, 1e-9, 1e-6, 5e-5, 1e-3, 0.1):
            for r_lam, r_H in itertools.product((0.01, 0.03, 0.3, 1.0, 3.0), repeat=2):
                near_plane = _wall(rs, k) + delta * _normal(rs, k)
                near_wall = _wall(rs, (k + 1) % n_roots) + delta * _normal(rs, (k + 1) % n_roots)
                lams.append(r_lam * (near_plane if case != "H-wall"
                                     else np.array([np.cos(0.4), np.sin(0.4)])))
                Hs.append(r_H * (near_wall if case != "lam-plane"
                                 else np.array([np.cos(1.3), np.sin(1.3)])))
    vals = phi_lambda_many(rs, np.array(lams), np.array(Hs))
    ref = np.array([_phi_closed_form_mp(rs, lam, H, shift=mp.mpf("1e-30"))
                    for lam, H in zip(lams, Hs)])
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-11


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _on_walls(rs, ks, g):
    # unit projection of g onto the intersection of the walls of roots ks
    Q, _ = np.linalg.qr(rs.roots_c[list(ks)].T)
    g = np.asarray(g, dtype=float)
    return _unit(g - Q @ (Q.T @ g))


# per rank >= 3 system: a vector whose projection onto any one wall keeps
# every other pairing above 0.1 |p|, and a regular vector
_GENERIC = {"A3": ([0.8, -1.4, 0.0], [0.4, 0.0, -0.5]),
            "B3": ([-1.8, 0.3, 1.4], [-1.7, 0.7, -2.7]),
            "C3": ([-1.8, 0.3, 1.4], [-1.7, 0.7, -2.7]),
            "D4": ([-0.5, 0.1, 0.0, 0.4], [0.0, 0.6, -0.2, -0.4])}


@pytest.mark.parametrize("tag", ["A3", "B3", "C3", "D4"])
def test_phi_near_one_wall_matches_closed_form_at_rank_3_and_4(tag):
    # one wall per argument, on it or near it: two nodes of the
    # determinant coincide or nearly coincide, as at rank 2
    rs = build_root_system(tag[0], int(tag[1:]))
    g_wall, g_reg = _GENERIC[tag]
    n_roots = rs.roots_c.shape[0]
    lams, Hs = [], []
    for k in range(n_roots):
        kk = (k + 1) % n_roots
        for case in ("H-wall", "lam-plane", "both"):
            for delta, (r_lam, r_H) in itertools.product(
                    (0.0, 1e-9, 1e-3), ((0.03, 1.0), (1.0, 0.3), (3.0, 3.0))):
                lam = (_on_walls(rs, [k], g_wall) + delta * _unit(rs.roots_c[k])
                       if case != "H-wall" else _unit(g_reg))
                H = (_on_walls(rs, [kk], g_wall) + delta * _unit(rs.roots_c[kk])
                     if case != "lam-plane" else _unit(g_reg))
                for p in (lam, H):
                    assert np.sort(np.abs(rs.roots_c @ p))[1] > 0.1
                lams.append(r_lam * lam)
                Hs.append(r_H * H)
    vals = phi_lambda_many(rs, np.array(lams), np.array(Hs))
    ref = np.array([_phi_closed_form_mp(rs, lam, H, shift=mp.mpf("1e-30"))
                    for lam, H in zip(lams, Hs)])
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-11


def test_phi_on_two_walls_matches_closed_form_at_rank_3():
    # an argument orthogonal to two roots (on a third wall too when their
    # sum is a root): three nodes of the determinant coincide
    rs = build_root_system("A", 3)
    g_reg = _unit(_GENERIC["A3"][1])
    worst = 0.0
    for ks in itertools.combinations(range(rs.roots_c.shape[0]), 2):
        line = _on_walls(rs, ks, [1.0, 0.3, -0.7])
        for r_lam, r_H in ((0.3, 1.0), (1.0, 1.0), (1.0, 3.0), (3.0, 0.3)):
            for lam, H in ((r_lam * g_reg, r_H * line), (r_lam * line, r_H * g_reg)):
                ref = _phi_closed_form_mp(rs, lam, H, shift=mp.mpf("1e-30"))
                worst = max(worst, abs(phi_lambda(rs, lam, H) - ref) / abs(ref))
    assert worst <= 1e-11


def _multi_wall_points(rs, g):
    # unit points on the walls of two or three roots (a line at rank 3, a
    # line or a plane at rank 4), and unit points whose pairings with two
    # roots are set to (delta1, delta2) in [1e-6, 0.05], from the generic g
    combos = [ks for n in (2, 3) for ks in itertools.combinations(range(rs.n_positive), n)
              if np.linalg.matrix_rank(rs.roots_c[list(ks)]) == n < rs.rank]
    lines = [_on_walls(rs, ks, g) for ks in combos[::max(1, len(combos) // 6)]]
    pairs = [ks for ks in combos if len(ks) == 2]
    near = []
    for ks, deltas in zip(pairs[::max(1, len(pairs) // 6)],
                          itertools.cycle([(2e-6, 0.03), (1e-3, 0.045), (0.011, 0.027)])):
        A = rs.roots_c[list(ks)]
        p = _unit(_on_walls(rs, ks, g) + A.T @ np.linalg.solve(A @ A.T, deltas))
        assert np.count_nonzero(np.abs(rs.roots_c @ p) >= 1e-6) == rs.n_positive
        assert np.count_nonzero(np.abs(rs.roots_c @ p) <= 0.05) >= 2
        near.append(p)
    return lines, near


@pytest.mark.parametrize("tag,tol", [("A3", 1e-12), ("B3", 1e-12), ("C3", 1e-12),
                                     ("A4", 1e-12), ("D4", 1e-12),
                                     ("B4", 1e-12), ("C4", 1e-12)])
def test_phi_near_two_walls_matches_closed_form(tag, tol):
    # both arguments on or near two or more walls (root hyperplanes) at
    # once, where nodes of the determinant coincide or nearly coincide
    rs = build_root_system(tag[0], int(tag[1]))
    g = np.array([1.0, 0.3, -0.7, 0.45][:rs.rank])
    lams, Hs = [], []
    for points in _multi_wall_points(rs, g):
        for k, (p, q) in enumerate(zip(points, points[1:] + points[:1])):
            r_lam, r_H = ((0.3, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 0.3))[k % 4]
            lams.append(r_lam * p)
            Hs.append(r_H * q)
    vals = phi_lambda_many(rs, np.array(lams), np.array(Hs))
    ref = np.array([_phi_closed_form_mp(rs, lam, H, shift=mp.mpf("1e-30"))
                    for lam, H in zip(lams, Hs)])
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= tol


@pytest.mark.parametrize("tag", ["A2", "B2", "C2", "D2", "A3", "B3", "C3",
                                 "A4", "B4", "C4", "D4"])
def test_phi_matches_closed_form_in_every_band(tag):
    # 12 random pairs in each band of |lam||H| up to 100, with |H| between
    # 0.1 and 8 and the rest in |lam|: the one evaluation path holds 1e-11
    # at every rank and in every band
    rs = build_root_system(tag[0], int(tag[1]))
    rng = np.random.default_rng(2718)
    lams, Hs = [], []
    for band in (1.0, 3.0, 10.0, 30.0, 100.0):
        d = rng.normal(size=(2, 12, rs.rank))
        d /= np.linalg.norm(d, axis=2, keepdims=True)
        joint = band * rng.uniform(0.3, 1.0, size=12)
        r_H = np.exp(rng.uniform(np.log(0.1), np.log(8.0), size=12))
        lams += list(d[0] * (joint / r_H)[:, None])
        Hs += list(d[1] * r_H[:, None])
    vals = phi_lambda_many(rs, np.array(lams), np.array(Hs))
    ref = np.array([_phi_closed_form_mp(rs, lam, H) for lam, H in zip(lams, Hs)])
    assert np.max(np.abs(vals - ref) / np.abs(ref)) <= 1e-11


@pytest.mark.parametrize("tag,points", [("A4", 3), ("B4", 3), ("C4", 3), ("D4", 3),
                                        ("A4", 5)])
def test_phi_table_at_rank_four_matches_closed_form(tag, points):
    # the table of `symwave phi --points 3` (lam = 1, box radius 4), whose
    # nodes lie on many walls at once, and the 5-point A4 table; the
    # oracle is taken once per Weyl orbit of nodes (sorted ambient
    # coordinates, up to sign but for the sign of their product on D)
    rs = build_root_system(tag[0], int(tag[1]))
    grid = RadialGrid(rs, 4.0, points)
    lam = np.ones(rs.rank)
    vals = phi_lambda_many(rs, lam, grid.nodes)
    ref = {}
    for H, val in zip(grid.nodes, vals):
        if not H.any():
            assert val == 1.0
            continue
        h = H @ rs.a_basis
        key = tuple(np.round(np.sort(h if rs.family == "A" else np.abs(h)), 9)) \
            + ((np.sign(np.prod(h)),) if rs.family == "D" else ())
        if key not in ref:
            ref[key] = _phi_closed_form_mp(rs, lam, H, shift=mp.mpf("1e-30"))
        assert abs(val - ref[key]) <= 1e-11 * abs(ref[key]), H


@pytest.mark.parametrize("tag", ["A1", "A2", "B2"])
def test_phi_far_out_along_rho_is_finite(tag):
    # along rho the Weyl denominator overflows from |H| of a few hundred;
    # phi0 carries its factors <alpha, H> / (2 sinh <alpha, H>), so phi
    # stays finite and within phi0 (0 at |H| = 600), without a warning
    rs = build_root_system(tag[0], int(tag[1]))
    lam, Hs = 0.7 * np.ones(rs.rank), np.outer([300.0, 600.0], rs.rho_c / rs.rho_norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, bounds = phi_lambda_many(rs, lam, Hs), phi0(rs, Hs)
    assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) <= bounds)
    ref = _phi_closed_form_mp(rs, lam, Hs[0], shift=mp.mpf("1e-30"))
    assert abs(vals[0] - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("lam,H,name", [([np.nan, 1.0], [0.3, 0.2], "lam row 0"),
                                        ([0.9, 0.4], [[0.3, 0.2], [np.inf, 0.0]], "H row 1"),
                                        ([[0.9, 0.4], [1.0, -np.inf]], [0.3, 0.2], "lam row 1")])
def test_phi_refuses_non_finite_arguments(a2, lam, H, name):
    with pytest.raises(ConfigError, match=name):
        phi_lambda_many(a2, np.array(lam), np.array(H))


@pytest.mark.parametrize("tag", ["A1", "A2", "B2"])
def test_rank_two_takes_no_extrapolation(tag):
    # walls, root hyperplanes, both and the joint origin take the same
    # determinant, which stays finite and within the basic bound
    rs = build_root_system(tag[0], int(tag[1]))
    if rs.rank == 1:
        lams = np.array([[1.7], [-0.4], [1e-5], [0.01]])
        Hs = np.array([[0.9], [-2.1], [3e-5], [0.01]])
    else:
        walls = [r * _wall(rs, k) for k in range(rs.roots_c.shape[0])
                 for r in (1e-3, 0.05, 1.3)]
        lams = np.array(walls + [[1.1, 0.6], [0.01, 0.02], [-2.0, 0.5]])
        Hs = np.array(walls + [[0.7, 0.4], [0.02, -0.01], [-0.3, 1.9]])
    table = phi_lambda_many(rs, lams[:, None, :], Hs[None, :, :])
    assert np.all(np.isfinite(table))
    assert np.all(np.abs(table) <= phi0(rs, Hs)[None, :] * (1 + 1e-10))


@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "A3", "B4"])
def test_phi_lambda_many_matches_single_points(tag):
    # One broadcast call over a table that mixes lam = 0, H = 0, regular
    # pairs, lam on a root hyperplane, H on a wall and both; at rank >= 3
    # also arguments on two walls and with two pairings near 0.03 |p|.
    rs = build_root_system(tag[0], int(tag[1]))
    if rs.rank == 1:
        lams = np.array([[0.0], [1.7], [-0.4], [1e-5]])
        Hs = np.array([[0.0], [0.9], [-2.1], [3e-5]])
    elif rs.rank > 2:
        g_wall, g_reg = (_GENERIC["A3"] if rs.rank == 3 else
                         ([1.0, 0.3, -0.7, 0.45], [0.9, -0.35, 0.6, 0.2]))
        A = rs.roots_c[[0, 1]]
        moderate = _on_walls(rs, [0, 1], g_wall) + A.T @ np.linalg.solve(A @ A.T, [0.03, 0.035])
        points = [np.zeros(rs.rank), _unit(g_reg), _on_walls(rs, [0], g_wall),
                  _on_walls(rs, [0, 1], g_wall), _on_walls(rs, [1, 2], g_reg), moderate]
        lams = np.array([r * p for r, p in zip((1.0, 1.3, 0.7, 2.0, 0.4, 1.1), points)])
        Hs = np.array([r * points[k] for r, k in zip((1.0, 0.9, 2.5, 0.6, 1.7, 1.2),
                                                     (0, 5, 4, 3, 2, 1))])
    else:
        lams = np.array([[0.0, 0.0], [1.1, 0.6], 1.3 * _wall(rs, 0),
                         0.7 * _wall(rs, 1), [-2.0, 0.5]])
        Hs = np.array([[0.0, 0.0], [0.7, 0.4], 0.9 * _wall(rs, 1),
                       2.5 * _wall(rs, 2), [-0.3, 1.9]])
    table = phi_lambda_many(rs, lams[:, None, :], Hs[None, :, :])
    assert table.shape == (lams.shape[0], Hs.shape[0])
    single = np.array([[phi_lambda(rs, lam, H) for H in Hs] for lam in lams])
    assert np.max(np.abs(table - single)) <= 1e-13 * np.max(np.abs(single))
    assert np.all(table[:, 0] == 1.0)
    assert np.all(table[0, 1:] == phi0(rs, Hs[1:]))


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
    m = grid.interior_chamber_mask()
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
        m = grid.interior_chamber_mask()
        resids.append(np.max(np.abs(-Lf.values[m] - E * f.values[m])))
    assert 3.5 < resids[0] / resids[1] < 4.5


def test_laplacian_annihilates_constants(a1):
    grid = RadialGrid(a1, 2.0, 33)
    f = RadialFunction(grid, np.ones(grid.n_nodes))
    Lf = radial_laplacian_apply(a1, f)
    m = grid.interior_chamber_mask()
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


@pytest.mark.parametrize("tag,R,n,L,m,tol,width", [
    pytest.param(*row, id="-".join(map(str, row[:6]))
                 + (f"-width{row[6]:g}" if row[6] != 1.0 else ""))
    for row in [
        ("A1", 10.0, 193, 9.0, 193, 1e-6, 1.0),
        ("A2", 10.0, 121, 10.0, 109, 1e-5, 1.0),
        ("B2", 10.0, 121, 12.0, 109, 1e-12, 1.0),
        ("C2", 10.0, 121, 12.0, 109, 1e-12, 1.0),
        # the fold's moments cancel near the origin only if x -> -x maps
        # the phase axes' nodes exactly onto each other; the raw linspace
        # axes, 3.6e-15 off, give 2e-12 here
        ("C2", 10.0, 121, 12.0, 109, 1e-12, 1.15),
    ]])
def test_round_trip(tag, R, n, L, m, tol, width):
    rs = build_root_system(tag[0], int(tag[1]))
    rgrid, sgrid = RadialGrid(rs, R, n), SpectralGrid(rs, L, m)
    f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1) / width ** 2))
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
    # points on walls, which take the wall limit; on B2 these lie on
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


def _point_fold(rs, values, weights, axis, pts, elements=None):
    # sum_w det(w) sum_x weights values_b(x) exp(i <p, w x>) over the Weyl
    # group, or over the (matrix, sign) pairs ``elements``, with
    # exp(i <w^T p, x>) = prod_k exp(i (w^T p)_k x_k) exponentiated per
    # point, Weyl element and node coordinate
    n, ij = axis.size, "ij"[:rs.rank]
    V = (weights * values).reshape((-1,) + (n,) * rs.rank)
    spec = f"b{ij}," + ",".join("p" + c for c in ij) + "->bp"
    W = weyl_group(rs)
    return sum(sign * np.einsum(spec, V, *np.exp(1j * (pts @ mat).T[:, :, None] * axis),
                                optimize=True)
               for mat, sign in elements or zip(W.matrices, W.signs))


def _fold_case(tag):
    # a random complex stack on grid axes, which are exactly antisymmetric
    rs = build_root_system(tag[0], int(tag[1]))
    x, y = RadialGrid(rs, 5.0, 33).axis, SpectralGrid(rs, 6.0, 27).axis
    rng = np.random.default_rng(3)
    size = (2, x.size ** rs.rank)
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    return rs, x, y, values, _trapezoid_weights(x, rs.rank)


def _fold(rs, values, weights, x, y, idx=None, normals=None):
    # the transforms' fold of a stack from the axis x onto the grid over y,
    # or, given idx and normals, its wall derivatives: the stack is folded
    # over W0 once and each representative's phase tables built once
    U, reps, mirror = _coset_fold(rs, values, weights)
    tables = [_weyl_phases(mat, y, x) for mat, _ in reps] if rs.rank == 2 else []
    if idx is None:
        return _w_fold(U, reps, mirror, x, y, tables)
    return _wall_fold(U, reps, mirror, x, y.size, tables, idx, normals)


@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "C2", "D2"])
def test_tensor_fold_matches_point_fold(tag):
    # The grid fold folds only the rows y_a >= 0 and fills the others by the
    # mirror identity S(s p) = det(s) S(p), with s = -1, diag(-1, 1) or -I;
    # that identity holds for any stack, so a random complex stack that is
    # not W-invariant must give the point-by-point fold on every node.  At
    # rank 1 the identity coset is the whole sum.
    rs, x, y, values, weights = _fold_case(tag)
    grid = _fold(rs, values, weights, x, y)
    points = _point_fold(rs, values, weights, x, _tensor_nodes(y, rs.rank))
    assert np.max(np.abs(grid - points)) <= 1e-13 * np.max(np.abs(points))


def test_forward_transform_folds_the_stack_once(a2, monkeypatch):
    # the grid fold and the wall limits share one coset fold per transform
    calls = {"_coset_fold": 0, "_cosets": 0}
    for name in calls:
        func = getattr(spherical, name)
        monkeypatch.setattr(spherical, name, lambda *args, name=name, func=func:
                            calls.__setitem__(name, calls[name] + 1) or func(*args))
    rgrid, sgrid = RadialGrid(a2, 5.0, 25), SpectralGrid(a2, 5.0, 21)
    f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
    forward_transform(a2, f, sgrid, tail_tol=1.0)
    assert len(_wall_nodes(a2, sgrid)[0]) > 0
    assert calls == {"_coset_fold": 1, "_cosets": 1}


@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "C2", "D2"])
def test_cosets_cover_the_weyl_group_once(tag):
    # The products r s over the representatives and the signed
    # permutations W0 are the Weyl group, each element once, with
    # det(r s) = det(r) det(s); the mirror is a diagonal element of W0
    # with s_00 = -1.
    rs = build_root_system(tag[0], int(tag[1]))
    W = weyl_group(rs)
    W0 = [(np.round(mat), sign) for mat, sign in zip(W.matrices, W.signs)
          if np.all(np.abs(mat - np.round(mat)) <= 1e-12)]
    _, reps, (mirror, mirror_sign) = _coset_fold(rs, np.zeros((1, 5 ** rs.rank)),
                                                 np.ones(5 ** rs.rank))
    assert len(reps) == (3 if tag == "A2" else 1)
    assert np.array_equal(reps[0][0], np.eye(rs.rank)) and reps[0][1] == 1
    hits = np.zeros(W.order, dtype=int)
    for r, r_sign in reps:
        for s, s_sign in W0:
            dist = np.max(np.abs(W.matrices - r @ s), axis=(1, 2))
            j = int(np.argmin(dist))
            assert dist[j] <= 1e-12
            assert W.signs[j] == r_sign * s_sign
            hits[j] += 1
    assert np.all(hits == 1)
    assert any(np.array_equal(mirror, s) and mirror_sign == sign for s, sign in W0)
    assert mirror[0, 0] == -1 and np.array_equal(mirror, np.diag(np.diag(mirror)))


@pytest.mark.parametrize("tag", ["A2", "B2", "C2", "D2"])
def test_coset_fold_is_exactly_odd_or_even_under_the_mirror(tag):
    # U is summed over half of W0 and its mirror image added by an index
    # flip, so U(-x_0, x_1) = -U(x_0, x_1) holds bit for bit where the
    # mirror is diag(-1, 1), and U(-x) = U(x) on D2, whose mirror is -I
    rs, x, y, values, weights = _fold_case(tag)
    U, _, (mirror, sign) = _coset_fold(rs, values, weights)
    if tag == "D2":
        assert np.array_equal(mirror, -np.eye(2)) and sign == 1
        assert np.all(U[:, ::-1, ::-1] == U)
    else:
        assert np.array_equal(mirror, np.diag([-1.0, 1.0])) and sign == -1
        assert np.all(U[:, ::-1] == -U)


@pytest.mark.parametrize("parity", [-1, 1, 0])
def test_half_axis_fold_matches_point_fold(parity):
    # a stack odd (-1) or even (1) in x_0, or of neither parity (0, split in
    # two), folded over the half axis x_0 >= 0 against 2i sin and 2 cos,
    # gives the point sum over the whole axis for each A2 representative;
    # the even stack keeps a nonzero x_0 = 0 column, which 2 cos counts twice
    rs, x, y, values, weights = _fold_case("A2")
    n = x.size
    V = (weights * values).reshape(-1, n, n)
    V = V + parity * V[:, ::-1] if parity else V
    assert parity < 0 or np.all(V[:, n // 2] != 0)
    ia, ib = np.arange(y.size)[:, None], np.arange(y.size)[None, :]
    halves = spherical._half_axis(V, parity)
    assert len(halves) == (2 if parity == 0 else 1)
    for mat, _ in spherical._cosets(rs)[1]:
        tables = _weyl_phases(mat, y, x)
        got = sum(spherical._axis_fold(tables, ia, ib, h, odd) for h, odd in halves)
        want = _point_fold(rs, V.reshape(V.shape[0], -1), 1.0, x, _tensor_nodes(y, 2),
                           [(mat, 1)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("tag", ["A1", "A2", "B2", "C2", "D2"])
def test_general_representatives_alone_take_the_axis_fold(tag, monkeypatch):
    # Only the two cosets of A2 without a signed permutation go through the
    # per-axis phase matrices; the identity coset, the whole sum on every
    # other family, takes one real table over x_0 and one product over x_1.
    rs, x, y, values, weights = _fold_case(tag)
    calls = []
    fold = spherical._axis_fold
    monkeypatch.setattr(spherical, "_axis_fold",
                        lambda *args: calls.append(1) or fold(*args))
    _fold(rs, values, weights, x, y)
    assert len(calls) == (2 if tag == "A2" else 0)


@pytest.mark.parametrize("block", [1, 3, 10 ** 6])
def test_fold_does_not_depend_on_the_block(monkeypatch, block):
    # each block of output rows forms its own phase matrices from the same
    # tables; a point's value must not depend on which rows share its block
    rs, x, y, values, weights = _fold_case("A2")
    idx = np.random.default_rng(5).choice(y.size ** 2, 40, replace=False)
    normals = np.tile([0.6, 0.8], (idx.size, 1))
    default = (_fold(rs, values, weights, x, y),
               _fold(rs, values, weights, x, y, idx, normals))
    monkeypatch.setattr(spherical, "_FOLD_BLOCK", block)
    assert np.all(_fold(rs, values, weights, x, y) == default[0])
    assert np.all(_fold(rs, values, weights, x, y, idx, normals) == default[1])


def _traced_peak(call):
    # (call(), the peak of memory traced while it ran, in bytes)
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a2_transform_memory_is_bounded(a2):
    # the coset fold forms its phase tables a block of output rows at a
    # time and frees them before the next block, and its x_0 tables are
    # real over the half axis, so on the largest benchmark grid pair
    # (161/131) each transform traces a peak of about 8.3 MB; one complex
    # phase matrix over all folded output points would take 22 MB
    # (forward) or 27 MB (inverse) alone
    rgrid, sgrid = RadialGrid(a2, 10.0, 161), SpectralGrid(a2, 10.0, 131)
    f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
    Hf, fwd = _traced_peak(lambda: forward_transform(a2, f, sgrid))
    _, inv = _traced_peak(lambda: inverse_transform(a2, Hf, rgrid))
    assert fwd <= 10e6 and inv <= 10e6, (fwd, inv)


@pytest.mark.parametrize("tag", ["A2", "B2", "C2", "D2"])
def test_wall_fold_matches_point_derivative(tag):
    # d_n S(p) from the moment stacks against the point fold of the stacks
    # i <w^T n, x> values, term by term, at random nodes and unit vectors
    rs, x, y, values, weights = _fold_case(tag)
    rng = np.random.default_rng(5)
    idx = rng.choice(y.size ** 2, 40, replace=False)
    angle = rng.uniform(0.0, 2.0 * np.pi, idx.size)
    normals = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    pts, nodes = _tensor_nodes(y, 2)[idx], _tensor_nodes(x, 2)
    W = weyl_group(rs)
    oracle = sum(sign * np.einsum(
        "bx,px,px->bp", weights * values, 1j * normals @ mat @ nodes.T,
        np.exp(1j * pts @ mat @ nodes.T)) for mat, sign in zip(W.matrices, W.signs))
    wall = _fold(rs, values, weights, x, y, idx, normals)
    assert np.max(np.abs(wall - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def _wall_nodes(rs, grid):
    # indices of the nodes on exactly one wall (or root hyperplane) and the
    # unit normals of those walls
    on = np.abs(grid.nodes @ rs.roots_c.T) <= 1e-12 * grid.box_radius
    j, k = np.nonzero(on & (np.count_nonzero(on, axis=1) == 1)[:, None])
    return j, rs.roots_c[k] / np.linalg.norm(rs.roots_c[k], axis=1)[:, None]


_WALL_SET_GRIDS = [(10.0, 81, 11.0, 89), (10.0, 121, 10.0, 109),
                   (10.0, 161, 10.0, 131), (10.0, 121, 12.0, 109),
                   (5.0, 25, 5.0, 21)]


def test_grid_axes_are_exactly_antisymmetric(a1):
    # The coset fold maps x -> -x onto the nodes and fills half the output
    # through the mirror, so every grid axis must equal -axis[::-1] bit for
    # bit; a linspace is off by ulps on most sizes, 4/21 among them.  The
    # sizes are the benchmark's, the command line's defaults (with the
    # solver's default spectral grids) and the wall-set grids.
    sizes = [(10.0, 129), (10.0, 193), (10.0, 257), (9.0, 129), (9.0, 193),
             (9.0, 257), (16.0, 321), (10.5, 321), (4.0, 65), (4.0, 49),
             (4.0, 25), (4.0, 21), (12.0, 257), (12.0, 97), (12.0, 109)]
    sizes += [(ks_box_radius(a1, t), 257) for t in (2.0, 40.0)]
    sizes += [s for R, n, L, m in _WALL_SET_GRIDS for s in ((R, n), (L, m))]
    for R, n in sizes:
        rgrid = RadialGrid(a1, R, n)
        for grid in (rgrid, SpectralGrid(a1, R, n), default_spectral_grid(a1, rgrid)):
            assert np.all(grid.axis[::-1] == -grid.axis), (R, n)


@pytest.mark.parametrize("tag", ["A2", "B2", "C2", "D2"])
def test_singular_nodes_are_origin_or_on_one_wall(tag):
    # The transforms take the wall limit on the grid, so on the benchmark,
    # command-line and stacked-test grids every node near a singular set
    # must be the origin or lie on exactly one wall, and every such node is
    # near one.
    rs = build_root_system(tag[0], int(tag[1]))
    for R, n, L, m in _WALL_SET_GRIDS:
        for grid in (RadialGrid(rs, R, n), SpectralGrid(rs, L, m)):
            expected = np.all(grid.nodes == 0.0, axis=1)
            expected[_wall_nodes(rs, grid)[0]] = True
            np.testing.assert_array_equal(_near_singular(rs, grid.nodes), expected)


def test_transform_refuses_grid_near_singular_set_off_the_walls(a2):
    rgrid = RadialGrid(a2, 5.0, 25)
    f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
    with pytest.raises(ConfigError, match=r"box radius 1e-05 and 5 points per axis"):
        forward_transform(a2, f, SpectralGrid(a2, 1e-5, 5), tail_tol=1.0)


@pytest.mark.parametrize("tag", ["A2", "B2", "C2", "D2"])
def test_wall_values_match_richardson_limit(tag):
    # Both transforms of W-invariant data are W-invariant, so their value
    # v(eps) at p + eps n, n the unit normal of the wall through the node
    # p, is even in eps, and (4 v(eps/2) - v(eps)) / 3 leaves O(eps^4).
    # Off the grid the same trapezoid sums are written with phi_lambda_many:
    # Hf(lam) = (1/|W|) sum_H w delta f phi_lam(H) and
    # f(H) = C sum_lam w pi^2 g phi_lam(H), over the regular nodes only, as
    # delta and pi^2 vanish on the others.
    rs = build_root_system(tag[0], int(tag[1]))
    rgrid, sgrid = RadialGrid(rs, 6.0, 41), SpectralGrid(rs, 6.0, 31)
    r = np.linalg.norm(rgrid.nodes, axis=1)
    lam = np.linalg.norm(sgrid.nodes, axis=1)
    f = np.exp(-r ** 2) * (1.0 + 0.3 * np.cos(3.0 * r))
    g = np.exp(-lam ** 2 / 4.0) * (1.0 - 0.2j * np.sin(lam))
    fwd = forward_transform(rs, RadialFunction(rgrid, f), sgrid, tail_tol=1.0).values
    inv = inverse_transform(rs, SpectralFunction(sgrid, g), rgrid,
                            tail_tol=1.0).values
    live_H = ~_near_singular(rs, rgrid.nodes)
    live_lam = ~_near_singular(rs, sgrid.nodes)
    H, lams = rgrid.nodes[live_H], sgrid.nodes[live_lam]
    wdf = (rgrid.weights * density_delta(rs, rgrid.nodes) * f)[live_H] \
        / weyl_group(rs).order
    wpg = plancherel_constant(rs) \
        * (sgrid.weights * plancherel_density(rs, sgrid.nodes) * g)[live_lam]
    for grid, values, off_grid in (
            (sgrid, fwd, lambda p: phi_lambda_many(rs, p[:, None], H) @ wdf),
            (rgrid, inv, lambda p: phi_lambda_many(rs, lams, p[:, None]) @ wpg)):
        j, normals = _wall_nodes(rs, grid)
        v1, v2 = (off_grid(grid.nodes[j] + eps * normals) for eps in (3e-3, 1.5e-3))
        limit = (4.0 * v2 - v1) / 3.0
        assert np.max(np.abs(values[j] - limit)) <= 1e-10 * np.max(np.abs(values))


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


def test_transforms_refuse_rank_three_before_the_tail_check():
    # a 5-point A3 grid fails the tail check of either transform at the
    # default tail_tol, so the rank must be refused first
    a3 = build_root_system("A", 3)
    rgrid, sgrid = RadialGrid(a3, 2.0, 5), SpectralGrid(a3, 2.0, 5)
    ones = np.ones((1, 5 ** 3), dtype=complex)
    with pytest.raises(UnsupportedConfigurationError, match="rank <= 2"):
        forward_transform_stack(a3, rgrid, ones, sgrid)
    with pytest.raises(UnsupportedConfigurationError, match="rank <= 2"):
        inverse_transform_stack(a3, sgrid, ones, rgrid)


def test_parseval(a1):
    rgrid, sgrid = RadialGrid(a1, 9.0, 257), SpectralGrid(a1, 8.0, 257)
    f = RadialFunction(rgrid, np.exp(-rgrid.nodes[:, 0] ** 2))
    lhs, rhs = parseval_pair(a1, f, sgrid)
    assert lhs == pytest.approx(rhs, rel=1e-5)
