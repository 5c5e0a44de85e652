import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symwave.errors import UnsupportedConfigurationError
from symwave.geometry import weyl_denominator
from symwave.root_system import (build_root_system, fold_into_chamber, pi,
                                 root_system_from_tag, weyl_group)


@pytest.mark.parametrize("family,rank,n_roots,dim", [
    ("A", 1, 1, 3),
    ("A", 2, 3, 8),
    ("B", 2, 4, 10),
    ("C", 2, 4, 10),
    ("D", 2, 2, 6),
    ("A", 3, 6, 15),
    ("B", 3, 9, 21),
    ("D", 4, 12, 28),
])
def test_root_counts_and_dimension(family, rank, n_roots, dim):
    rs = build_root_system(family, rank)
    assert rs.n_positive == n_roots
    assert rs.dim_X == dim
    assert rs.dim_X == rs.rank + 2 * rs.n_positive


def test_a2_roots_enumerated_exactly():
    rs = build_root_system("A", 2)
    got = {tuple(r) for r in rs.positive_roots}
    want = {(1.0, -1.0, 0.0), (1.0, 0.0, -1.0), (0.0, 1.0, -1.0)}
    assert got == want


def test_b2_roots_enumerated_exactly():
    rs = build_root_system("B", 2)
    got = {tuple(r) for r in rs.positive_roots}
    want = {(1.0, -1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)}
    assert got == want


def test_rho_is_root_sum_and_reduced():
    for tag in ["A1", "A2", "B2", "C3", "D3"]:
        rs = root_system_from_tag(tag)
        assert np.allclose(rs.rho, rs.positive_roots.sum(axis=0))
        # reduced: no two positive roots parallel with the same sign
        unit = rs.positive_roots / np.linalg.norm(rs.positive_roots, axis=1)[:, None]
        for i in range(len(unit)):
            for j in range(i + 1, len(unit)):
                assert not np.allclose(unit[i], unit[j])


def test_unsupported_configurations():
    with pytest.raises(UnsupportedConfigurationError):
        build_root_system("E", 8)
    with pytest.raises(UnsupportedConfigurationError):
        build_root_system("A", 5)
    with pytest.raises(UnsupportedConfigurationError):
        build_root_system("D", 1)
    with pytest.raises(UnsupportedConfigurationError):
        root_system_from_tag("Q7")


@pytest.mark.parametrize("tag,order,n_neg", [
    ("A1", 2, 1), ("A2", 6, 3), ("B2", 8, 4), ("A3", 24, 12), ("B4", 384, 192),
])
def test_weyl_group_orders_and_signs(tag, order, n_neg):
    rs = root_system_from_tag(tag)
    W = weyl_group(rs)
    assert W.order == order
    assert int(np.sum(W.signs == -1)) == n_neg
    for m in W.matrices:
        assert np.allclose(m @ m.T, np.eye(rs.rank), atol=1e-12)


def test_weyl_closure_and_root_permutation():
    rs = build_root_system("B", 2)
    W = weyl_group(rs)
    keys = {(np.round(m, 10) + 0.0).tobytes() for m in W.matrices}
    roots = rs.roots_c
    for m in W.matrices:
        for m2 in W.matrices[:4]:
            assert (np.round(m @ m2, 10) + 0.0).tobytes() in keys
        # every root maps to plus or minus a positive root
        for alpha in roots:
            image = m @ alpha
            hits = [np.allclose(image, r) or np.allclose(image, -r) for r in roots]
            assert any(hits)


def test_pi_trivial_and_at_rho(a1, a2):
    assert pi(a1, np.zeros(1)) == 0.0
    assert pi(a1, a1.rho_c) == pytest.approx(2.0, abs=1e-14)
    # A2: pi(rho) = 2*2*4
    assert pi(a2, a2.rho_c) == pytest.approx(16.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.floats(-3, 3), st.floats(-3, 3))
def test_pi_anti_invariance(widx, x, y):
    rs = build_root_system("A", 2)
    W = weyl_group(rs)
    lam = np.array([x, y])
    m, s = W.matrices[widx], W.signs[widx]
    assert pi(rs, m @ lam) == pytest.approx(s * pi(rs, lam), abs=1e-10, rel=1e-10)


def test_weyl_preserves_rho_norm(b2):
    W = weyl_group(b2)
    for m in W.matrices:
        assert np.linalg.norm(m @ b2.rho_c) == pytest.approx(b2.rho_norm)


def test_dimension_parity():
    for tag in ["A1", "A2", "A3", "B2", "B3", "C4", "D2", "D3"]:
        rs = root_system_from_tag(tag)
        assert (rs.dim_X % 2 == 1) == (rs.rank % 2 == 1)


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.2, 2.2), st.floats(-2.2, 2.2))
def test_weyl_denominator_identity(x, y):
    # sum_w det(w) e^{<w rho, H>} = prod_alpha 2 sinh<alpha, H> on |H| <= 5
    rs = build_root_system("A", 2)
    W = weyl_group(rs)
    H = np.array([x, y])
    lhs = sum(s * np.exp(rs.rho_c @ (m @ H)) for m, s in zip(W.matrices, W.signs))
    rhs = weyl_denominator(rs, H)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_fold_into_chamber(a2, rng):
    for _ in range(25):
        H = rng.normal(size=2) * 3
        folded = fold_into_chamber(a2, H)
        assert a2.in_closed_chamber(folded, tol=1e-12)
        assert np.linalg.norm(folded) == pytest.approx(np.linalg.norm(H))
    # a stack folds row by row, as each row alone; a complex row moves by one
    # Weyl element w, the one that takes its real part into the chamber
    local = np.random.default_rng(7)
    for rs in (a2, build_root_system("B", 3)):
        W = weyl_group(rs).matrices
        X, Y = local.normal(size=(2, 40, rs.rank)) * 3
        real = fold_into_chamber(rs, X)
        assert real.shape == X.shape and rs.in_closed_chamber(real, tol=1e-12)
        assert all(np.array_equal(r, fold_into_chamber(rs, x)) for r, x in zip(real, X))
        folded = fold_into_chamber(rs, X + 1j * Y)
        assert folded.dtype == complex and np.allclose(folded.real, real, rtol=0, atol=1e-12)
        wX, wY = (np.einsum("wij,nj->nwi", W, v) for v in (X, Y))
        same_w = (np.all(np.abs(wX - real[:, None]) < 1e-12, axis=2)
                  & np.all(np.abs(wY - folded.imag[:, None]) < 1e-12, axis=2))
        assert np.all(same_w.any(axis=1)), rs.tag
