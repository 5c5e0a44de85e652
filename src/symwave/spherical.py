"""Spherical functions, the spherical Fourier transform pair with the
complex-case polynomial Plancherel density, and the radial Laplacian.

Spherical functions are evaluated through the complex-case closed form

    phi_lam(exp H) = (pi(rho)/pi(i lam)) * sum_w det(w) e^{i<w lam, H>}
                                          / sum_w det(w) e^{<w rho, H>},

normalized so phi_lam(0) = 1, by one path at every rank: in ambient
coordinates the Weyl sum is a determinant det[f(x_j y_k)], and dividing
by pi(lam) and the Weyl denominator leaves, beside phi0(H), the
determinant of the bivariate divided differences of f(xy) (``_phi_det``).
Nodes that nearly coincide form clusters whose divided differences come
from a matrix function of their bidiagonal matrices (Opitz; McCurdy, Ng
and Parlett 1984); across clusters the differences divide out explicitly.
``phi_lambda_many`` takes lam and H broadcast against each other;
``phi_lambda`` is its one-point case.

Transforms are plain trapezoid sums over tensor grids, applied to a stack of
B slices at once (``forward_transform_stack``, ``inverse_transform_stack``);
``forward_transform`` and ``inverse_transform`` are the B = 1 case.  The
transform pair is defined for rank <= 2, and both refuse rank >= 3 before
any other check.  The Weyl sum is folded once per transform over the cosets
of the subgroup W0 of signed permutations (Weyl elements within 1e-12 of an
integer matrix), which map the input and output grids onto themselves, as
grid axes are exactly antisymmetric: the weighted stack is antisymmetrised
over W0 by index flips and transposes, and the result U is summed once per
coset representative (``_coset_fold``); its image under a mirror of W0 is
added by an index flip, so U has an exact parity.  Every coset folds the
same half stacks of U over x_0 >= 0 (``_half_axis``) against 2i sin or
2 cos, a half-range sine or cosine transform: U is odd in x_0 on A1, A2,
B2 and C2, and D2 takes its even and odd parts.  The identity coset is
separable, so it contracts x_0 by real matrix products against one real
table and, at rank 2, x_1 by one complex product; that is the whole sum at
rank 1 and on B2, C2 and D2.  The two other cosets of A2 contract x_0 by
one real matrix product per output row, and x_1 by a rowwise dot against
complex phases (``_axis_fold``); the phase tables of each representative
are built once per transform.  Only the output rows y_a >= 0 are folded;
the others follow from S(s p) = det(s) S(p) for a diagonal s in W0 with
s_00 = -1.  The transform is evaluated on the whole output grid and
divided by pi(lam) or by the Weyl denominator, each a product of one
factor per positive root.  On the wall (root hyperplane) of one root the
alternating sum and that product both vanish, and the value there is
their limit along the wall's normal: the normal derivative of the
alternating sum, folded at the wall nodes only from the two first-moment
stacks of the same U over the representatives, each stack by its parity
in x_0, over the product with the vanishing factor replaced by its normal
derivative.  The origin takes its exact value, and a grid with any other
node near a singular set is refused.  Each slice passes its own tail
check, and a failure names the slice.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ConfigError, InconclusiveIntegralError,
                     UnsupportedConfigurationError)
from .geometry import (TAIL_TOL, RadialFunction, RadialGrid, _TensorFunction,
                       _TensorGrid, density_delta, integrate_biinvariant, phi0,
                       weyl_denominator)
from .root_system import RootSystem, pi, pi_many, weyl_group

SINGULAR_EPS = 1e-4
_FOLD_BLOCK = 8              # output rows per block of the A2 coset fold
# phi's nodes closer than this many times their number over the other
# variable's largest node share a cluster; at most 1 in the entries of
# Z / 4^s, 10 Taylor terms of cos sqrt Z leave 1/20! < 1e-18
_CLUSTER_GAP, _COS_TERMS = 0.125, 10


class SpectralGrid(_TensorGrid):
    """Uniform tensor grid over [-L, L]^rank in the spectral variable."""


class SpectralFunction(_TensorFunction):
    """Samples of a function of the spectral variable over a SpectralGrid."""


def plancherel_density(rs: RootSystem, lam: np.ndarray) -> np.ndarray:
    """pi(lam)^2, the inversion weight for complex groups."""
    return pi_many(rs, np.asarray(lam, dtype=float)) ** 2


def _near_singular(rs: RootSystem, pts: np.ndarray) -> np.ndarray:
    """Grid nodes near a wall (H) or a root hyperplane (lam), where the
    transform's fold S(p) and its denominator both nearly vanish; the
    transforms accept only the origin and nodes on exactly one wall there.

    The test is a single pairing below SINGULAR_EPS (absolute, which keeps
    the origin flagged) or a product of all pairings below 1e-6 |p|^m,
    m = |Sigma+|, which also flags a compound of small pairings."""
    pts = np.atleast_2d(pts)
    pair = np.abs(pts @ rs.roots_c.T)
    norm = np.linalg.norm(pts, axis=1) ** rs.n_positive
    return (np.min(pair, axis=1) < SINGULAR_EPS) \
        | (np.prod(pair, axis=1) < 1e-6 * norm)


def _phase(mu: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """The (M, n) matrix exp(i mu_j x_k), exponentiated in place."""
    E = np.multiply.outer(mu, 1j * axis)
    return np.exp(E, out=E)


def _cosets(rs: RootSystem) -> tuple:
    """The bookkeeping of ``_coset_fold``: (half, reps, mirror).

    A Weyl matrix whose entries are within 1e-12 of 0 or +-1 is snapped to
    exact integers; these s form the subgroup W0 of signed permutations.
    ``reps`` holds one representative per coset r W0 as a (matrix, sign)
    pair, the identity first; ``mirror`` is an element (s, det s) of W0
    that is diagonal with s_00 = -1 (-1 at rank 1, diag(-1, 1) on A2, B2
    and C2, -I on D2); ``half`` holds one element of W0 from each pair
    {s, s mirror}."""
    def snap(mat):
        s = np.round(mat)
        return s if np.all(np.abs(mat - s) <= 1e-12) else None

    W = weyl_group(rs)
    W0 = [(s, sign) for mat, sign in zip(W.matrices, W.signs)
          if (s := snap(mat)) is not None]
    reps = [(np.eye(rs.rank), 1)]
    for mat, sign in zip(W.matrices, W.signs):
        if all(snap(r.T @ mat) is None for r, _ in reps):   # a new coset
            reps.append((mat, sign))
    mirror = next((s, sign) for s, sign in W0
                  if s[0, 0] == -1 and not np.any(s[0, 1:]))
    # s mirror is s with its first column negated
    half = [(s, sign) for s, sign in W0 if np.sum(s[:, 0]) > 0]
    return half, reps, mirror


def _coset_fold(rs: RootSystem, values: np.ndarray,
                weights: np.ndarray) -> tuple:
    """Split the Weyl group W over its subgroup W0 of signed permutations
    (``_cosets``), each of which maps a tensor grid symmetric about 0 onto
    itself.  Substituting x -> s x in the fold gives S_{ws}[V] = S_w[V o s],
    so for any stack V

        sum_w det(w) S_w[V] = sum_r det(r) S_r[U],
        U = sum_{s in W0} det(s) V o s,

    one representative r per coset r W0.  Returns U, the weighted stack
    weights * values (B, n^rank) antisymmetrised over W0 by index flips and
    transposes, shaped (B, n) or (B, n, n); the representatives as
    (matrix, sign) pairs, the identity first; and the mirror (s, det s).
    U is summed over one element of each pair {s, s mirror}, and its image
    under the mirror is then added by an index flip, so U o s = det(s) U
    holds bit for bit: U is odd in x_0 on A1, A2, B2 and C2 and even
    under -I on D2.
    """
    def compose(G, s):
        # (G o s)(x) = G(s x): axis j of x feeds the coordinate that column
        # j of s maps it to, so s transposes G when it swaps coordinates
        # and reverses axis j where that column's entry is -1
        G = G if s[0, 0] != 0 else G.transpose(0, 2, 1)
        return G[(slice(None),) + tuple(np.s_[::int(np.sum(col))] for col in s.T)]

    half, reps, (s, sign) = _cosets(rs)
    n = values.shape[1] if rs.rank == 1 else math.isqrt(values.shape[1])
    V = (weights * values).reshape((-1,) + (n,) * rs.rank)
    U = np.zeros_like(V)
    for h, h_sign in half:
        (np.add if h_sign > 0 else np.subtract)(U, compose(V, h), out=U)
    U = (np.add if sign > 0 else np.subtract)(U, compose(U, s))
    return U, reps, (s, sign)


def _w_fold(U: np.ndarray, reps: list, mirror: tuple, x: np.ndarray,
            y: np.ndarray, tables: list) -> np.ndarray:
    """sum_w det(w) sum_x weights(x) values_b(x) exp(i <p, w x>) for each
    slice b of the stack and each node p of the tensor grid over the 1D
    axis ``y``, in ``_tensor_nodes`` order; returns (B, m^rank).  It takes
    what ``_coset_fold`` returns for the stack: U (B, n) or (B, n, n) over
    the axis ``x``, the representatives ``reps`` and the ``mirror``; at
    rank 2 ``tables`` holds each representative's ``_weyl_phases`` tables.
    Both axes are grid axes, exactly antisymmetric.

    W0 maps the output grid onto itself, and substituting w -> s^-1 w
    gives S(s p) = det(s) S(p), so only the rows y_a >= 0 are folded and
    the others are filled through the mirror.  Every coset folds the same
    ``_half_axis`` parts of U over x_0 >= 0, against 2i sin or 2 cos: U is
    odd in x_0 on A1, A2, B2 and C2, and D2 takes its even and odd parts.
    The identity coset is separable: x_0 is contracted by two real matrix
    products against one real sine or cosine table, and at rank 2 x_1 by
    one complex product against exp(i y_b x_1); at rank 1 and on B2, C2
    and D2 that is the whole sum.  The two other representatives of A2
    fold the rows y_a >= 0 through ``_axis_fold``, one real matrix product
    per output row.
    """
    s, sign = mirror
    m, lo = y.shape[0], y.shape[0] // 2      # rows y[lo:] >= 0 are folded
    k = x.shape[0] // 2                       # x_0 = 0 at index k
    parts = _half_axis(U, sign if np.all(np.diag(s)[1:] == 1) else 0)
    half = 0.0
    for h, odd in parts:                      # the identity coset over x_0
        T = (np.sin if odd else np.cos)(np.multiply.outer(x[k + odd:], y[lo:]))
        re, im = (np.moveaxis(part, 1, -1) @ T for part in (h.real, h.imag))
        half = half + (2j * re - 2.0 * im if odd else 2.0 * re + 2j * im)
    del T, re, im                 # freed before the other cosets' blocks
    if U.ndim == 3:                  # x_1 against the identity's exp(i y_b x_1)
        half = np.swapaxes(half, 1, 2) @ tables[0][1][1].T
    for (mat, rsign), tab in zip(reps[1:], tables[1:]):
        for h, odd in parts:
            half += rsign * _axis_fold(tab, np.arange(lo, m)[:, None],
                                       np.arange(m)[None, :], h, odd).reshape(half.shape)
    low = half[(slice(None), slice(None, None, -1))
               + tuple(np.s_[::int(d)] for d in np.diag(s)[1:])]
    out = np.concatenate([sign * low[:, :lo], half], axis=1)
    return out.reshape(U.shape[0], -1)


def _wall_fold(U: np.ndarray, reps: list, mirror: tuple, x: np.ndarray, m: int,
               tables: list, idx: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The derivative d_n S(p) of the rank-2 fold S of ``_w_fold`` along the
    unit vector n, at the output nodes ``idx`` (flat indices into the tensor
    grid of m nodes per axis), each with its own n, a row of ``normals``;
    returns (B, len(idx)).  U, ``reps``, ``mirror``, the axis ``x`` and
    ``tables`` are those of ``_w_fold``.

    Over the cosets of ``_coset_fold``, S = sum_r det(r) S_r[U], so

        d_n S(p) = sum_r det(r) sum_k (n r)_k
                   sum_x U_b(x) i x_k exp(i <r^T p, x>)

    is the fold of the two moment stacks i x_k U over the representatives
    only, contracted per point with (n r)_k.  Each moment goes to
    ``_axis_fold`` by its parity in x_0 (``_half_axis``): where the mirror
    is diag(-1, 1), U is odd in x_0, so i x_0 U is even and i x_1 U odd; on
    D2, whose mirror is -I, each moment is split into its even and odd
    parts.  The phases come from each representative's tables at the nodes'
    grid indices, passed as one row: one product per moment part and
    representative."""
    s, sign = mirror
    parity = sign if s[1, 1] == 1 else 0     # U(-x_0, x_1) = parity U(x_0, x_1)
    moments = (_half_axis(U * (1j * x[:, None]), -parity),
               _half_axis(U * (1j * x), parity))
    ia, ib = np.divmod(idx, m)
    out = np.zeros((U.shape[0], idx.shape[0]), dtype=complex)
    for (mat, rsign), tab in zip(reps, tables):
        c = normals @ mat                  # (n r)_k per point
        for k, parts in enumerate(moments):
            for h, odd in parts:
                out += rsign * c[:, k] * _axis_fold(tab, ia[None], ib[None], h, odd)
    return out


def _half_axis(stack: np.ndarray, parity: int) -> list:
    """The half stacks over x_0 >= 0 whose folds against 2i sin or 2 cos
    (``_w_fold``, ``_axis_fold``) add up to the fold of ``stack`` (B, n) or
    (B, n, n) over the whole x_0 axis, as (half, odd) pairs.  ``parity`` is
    +-1 where stack(-x_0, x_1) = parity stack(x_0, x_1) and 0 where the
    stack has no parity in x_0; such a stack is split into its even and odd
    parts.  An odd half starts at x_0 > 0 (sin 0 = 0); an
    even half starts at x_0 = 0 with that column halved, which is exact,
    as 2 cos(c_0 x_0) counts it twice."""
    k = stack.shape[1] // 2                   # x_0 = 0 at index k
    pos, neg = stack[:, k:], stack[:, k::-1]  # at x_0 >= 0 and at -x_0
    parts = ([(pos, parity < 0)] if parity
             else [((pos + neg) / 2.0, False), ((pos - neg) / 2.0, True)])
    return [(h[:, 1:], True) if odd else
            (np.concatenate([h[:, :1] / 2.0, h[:, 1:]], axis=1), False)
            for h, odd in parts]


def _weyl_phases(mat: np.ndarray, out_axis: np.ndarray, axis: np.ndarray) -> list:
    """The per-coordinate tables (exp(i w_0k y x), exp(i w_1k y x)), k < 2,
    of the Weyl matrix ``mat``, over y in ``out_axis`` (m nodes) and x in
    ``axis`` (n nodes): x >= 0 only for k = 0, (m, (n + 1)/2), and the whole
    axis for k = 1, (m, n).  At p = (y_a, y_b), (w^T p)_k = w_0k y_a + w_1k y_b,
    so the phase exp(i (w^T p)_k x) is row a of the first table times row b
    of the second; for k = 0 ``_axis_fold`` keeps the product's real part,
    cos(c_0 x_0), or its imaginary part, sin(c_0 x_0)."""
    half = axis[axis.shape[0] // 2:]
    return [(_phase(mat[0, k] * out_axis, ax), _phase(mat[1, k] * out_axis, ax))
            for k, ax in ((0, half), (1, axis))]


def _axis_fold(tables: list, ia: np.ndarray, ib: np.ndarray,
               stack: np.ndarray, odd: bool) -> np.ndarray:
    """sum_x stack_b(x) T(p, x_0) E_1(p, x_1) for each slice b of a half
    stack (B, K, n) from ``_half_axis``, which carries the quadrature
    weights, and each point p = (y[ia], y[ib]) of the index arrays broadcast
    against each other (rank 2); returns (B, points), row-major over the
    broadcast shape.  With T = 2i sin(c_0(p) x_0) over x_0 > 0 (``odd``) or
    T = 2 cos(c_0(p) x_0) over x_0 >= 0, this is the fold over the whole
    x_0 axis of a stack of that parity.

    T and E_1 = exp(i c_1(p) x_1) are products of rows of the
    ``_weyl_phases`` tables, formed for ``_FOLD_BLOCK`` rows of the
    broadcast shape at a time.  Each row of points contracts x_0 by one
    real product (points, K) @ (K, 2Bn), the complex slices viewed as real
    and set side by side, and x_1 by a rowwise dot.  The product's shape
    does not depend on the block, so neither does a point's value."""
    shape = np.broadcast_shapes(ia.shape, ib.shape)
    (a0, b0), (a1, b1) = tables
    B, K, n = stack.shape
    c, d = (t[:, 1:] if odd else t for t in (a0, b0))       # x_0 > 0 or >= 0
    V = np.ascontiguousarray(stack.transpose(1, 0, 2)).view(float).reshape(K, -1)
    out = np.empty((B,) + shape, dtype=complex)
    for lo in range(0, shape[0], _FOLD_BLOCK):
        rows = np.s_[lo:lo + _FOLD_BLOCK]
        ja, jb = (i[rows] if i.shape[0] > 1 else i for i in (ia, ib))
        if odd:                             # Im and Re of the row product
            T = c.real[ja] * d.imag[jb]
            T += c.imag[ja] * d.real[jb]
        else:
            T = c.real[ja] * d.real[jb]
            T -= c.imag[ja] * d.imag[jb]
        E1 = a1[ja] * b1[jb]
        for r in range(T.shape[0]):
            P = (T[r] @ V).view(complex).reshape(-1, B, n)
            out[:, lo + r] = np.einsum("ji,jbi->bj", E1[r], P)
        del T, E1, P           # freed before the next block's tables are formed
    out *= 2j if odd else 2.0
    return out.reshape(B, -1)


def _cos_sin(Z: np.ndarray) -> np.ndarray:
    """[C(Z) S(Z)] side by side (K, N, 2N) for real matrices Z (K, N, N),
    C(z) = cos sqrt z and S(z) = sin sqrt z / sqrt z: Taylor polynomials of
    _COS_TERMS terms at Z / 4^s, s the least integer that brings the sum of
    |entries| to at most 1, in powers of (Z / 4^s)^2, then C(4Z) = 2 C(Z)^2
    - I and S(4Z) = S(Z) C(Z), s times.  It takes no triangular shortcut,
    where scipy's expm goes wrong on near-confluent triangular blocks."""
    K, N = Z.shape[:2]
    s = np.ceil(np.log2(np.maximum(np.abs(Z).reshape(K, -1).sum(axis=1), 1.0))
                / 2.0).astype(int)
    order = np.argsort(-s, kind="stable")      # the s > i come first
    s, W = s[order], Z[order] / -np.exp2(2 * s[order])[:, None, None]
    eye = np.tile(np.eye(N), 2)
    coef = np.repeat([[1.0 / math.factorial(2 * j + o) for o in (0, 1)]
                      for j in range(_COS_TERMS)], N, axis=1)   # of W^j in C, S
    WW, W2 = np.concatenate([W, W], axis=2), W @ W
    X = eye * coef[-2] + WW * coef[-1]
    for j in range(_COS_TERMS - 4, -1, -2):
        X = W2 @ X + WW * coef[j + 1] + eye * coef[j]
    for i in range(s[0] if s.size else 0):
        m = np.count_nonzero(s > i)
        X[:m] = X[:m, :, :N] @ X[:m]
        X[:m, :, :N] = 2.0 * X[:m, :, :N] - np.eye(N)
    return X[np.argsort(order)]


def _cluster_block(U: np.ndarray, V: np.ndarray, family: str) -> list:
    """The divided differences f(xy)[u_0..u_a; v_0..v_b] (K, p, q) over
    node clusters U (K, p) and V (K, q): the first row of f(J_U (x) J_V),
    J the upper bidiagonal matrix of a cluster's nodes (Opitz).  For A,
    f(z) = e^(iz): with T = J_U (x) J_V less its mean diagonal c, the row
    is that of e^(ic) (C(T^2) + i S(T^2) T).  For B and C it is the row of
    S(J_U (x) J_V), and D takes that of C(J_U (x) J_V) first."""
    (K, p), q = U.shape, V.shape[1]
    J = [np.zeros((K, m, m)) for m in (p, q)]
    for Jz, z in zip(J, (U, V)):
        Jz[:, range(z.shape[1]), range(z.shape[1])] = z
        Jz[:, range(z.shape[1] - 1), range(1, z.shape[1])] = 1.0
    T = np.einsum("kac,kbd->kabcd", *J).reshape(K, p * q, p * q)
    if family == "A":
        c = np.trace(T, axis1=1, axis2=2) / (p * q)
        T[:, range(p * q), range(p * q)] -= c[:, None]
        CS = _cos_sin(T @ T)[:, 0]
        rows = [(CS[:, :p * q] + 1j * np.einsum("kj,kjm->km", CS[:, p * q:], T))
                * np.exp(1j * c)[:, None]]
    else:
        CS = _cos_sin(T)[:, 0]
        rows = ([CS[:, :p * q]] if family == "D" else []) + [CS[:, p * q:]]
    return [r.reshape(K, p, q) for r in rows]


def _unique_rows(a: np.ndarray) -> tuple:
    """The distinct rows of a (K, m) and the index of each row among them."""
    order = np.lexsort(a.T)
    a = a[order]
    new = np.append(True, np.any(a[1:] != a[:-1], axis=1))
    which = np.empty(order.size, dtype=int)
    which[order] = np.cumsum(new) - 1
    return a[new], which


def _phi_det(rs: RootSystem, lam: np.ndarray, H: np.ndarray) -> np.ndarray:
    """phi at pairs (P, rank) with lam != 0 and H != 0.

    In ambient coordinates l, h of lam, H the Weyl numerator is
    det[e^(i l_j h_k)] for A, det[2i sin(l_j h_k)] for B and C, and half of
    det[2 cos(l_j h_k)] + det[2i sin(l_j h_k)] for D.  With nodes (x, y) =
    (l, h) and f(z) = e^(iz) for A, and (x, y) = (l^2, h^2) and f = S or C
    otherwise (sin(lh) = lh S(l^2 h^2)), pi(lam) and the Weyl denominator
    leave phi = phi0(H) F / F(0), F = det[f(x_j y_k)] / (V(x) V(y)) with V
    the Vandermonde determinant (D: F_C + i^n prod l prod h F_S).  F is the
    determinant of the divided differences of f(xy), F(0) = prod_a [z^a] f,
    and symmetric in the x and in the y: each sorted pair is evaluated once.

    l and h are scaled to the same largest node, which leaves F alone.
    Sorted l (|l| for B, C, D) closer than _CLUSTER_GAP times their number
    (of l and -l for B, C, D, over which cancellations compound) over max|h|
    form one cluster, and likewise for h.  F = det M / (V'(x) V'(y)), V'
    over pairs in different clusters only, M holding f(x_j y_k)
    and, on each block of two clusters, their divided differences
    (``_cluster_block``, batched by block shape).  phi0 carries the factors
    <alpha, H> / (2 sinh <alpha, H>), so phi is 0 where they underflow."""
    D = rs.family == "D"
    l, h = lam @ rs.a_basis, H @ rs.a_basis
    n = l.shape[1]
    if rs.family == "A":
        taylor = [1j ** a / math.factorial(a) for a in range(n)]
    else:
        odd = 1j ** n * np.prod(l * h, axis=1) if D else None
        l, h = np.abs(l), np.abs(h)
        taylor = [(-1.0) ** a / math.factorial(2 * a + (not D)) for a in range(n)]
    nodes, which = _unique_rows(np.concatenate([np.sort(l, axis=1), np.sort(h, axis=1)], axis=1))
    g = np.sqrt(np.max(np.abs(nodes[:, n:]), axis=1, keepdims=True)) \
        / np.sqrt(np.max(np.abs(nodes[:, :n]), axis=1, keepdims=True))
    l, h = nodes[:, :n] * g, nodes[:, n:] / g
    if rs.family == "A":
        x, y, M = l, h, [np.exp(1j * l[:, :, None] * h[:, None, :])]
    else:
        lh = l[:, :, None] * h[:, None, :]
        x, y, M = l * l, h * h, ([np.cos(lh)] if D else []) + [np.sinc(lh / np.pi)]
    reach = np.max(np.abs(l), axis=1, keepdims=True) / _CLUSTER_GAP
    head = [np.diff(z, axis=1, prepend=-np.inf) * reach >= (n if rs.family == "A" else 2 * n)
            for z in (l, h)]
    label = [np.cumsum(hd, axis=1) for hd in head]
    size = [np.where(hd, np.sum(lb[:, :, None] == lb[:, None, :], axis=2), 0)
            for hd, lb in zip(head, label)]    # of the cluster a node starts
    j, k = np.triu_indices(n, 1)
    cross = np.prod([np.divide(1.0, z[:, k] - z[:, j], out=np.ones((len(z), j.size)),
                               where=lb[:, j] != lb[:, k])
                     for z, lb in zip((x, y), label)], axis=(0, 2))   # 1 / (V'(x) V'(y))
    pair, a, b = np.nonzero(size[0][:, :, None] * size[1][:, None, :] > 1)
    shape = size[0][pair, a] * (n + 1) + size[1][pair, b]     # (p, q) of a block
    for pq in np.unique(shape):
        at = shape == pq
        rows = pair[at, None]
        iu, iv = a[at, None] + np.arange(pq // (n + 1)), b[at, None] + np.arange(pq % (n + 1))
        for m, block in zip(M, _cluster_block(x[rows, iu], y[rows, iv], rs.family)):
            m[rows[:, :, None], iu[:, :, None], iv[:, None, :]] = block
    F = (np.linalg.det(M[0]) * cross)[which]
    if D:
        F = F + odd * (np.linalg.det(M[1]) * cross)[which]
    return phi0(rs, H) * F / np.prod(taylor)


def phi_lambda_many(rs: RootSystem, lam: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Spherical functions phi_lam(exp H) for lam and H broadcast against
    each other over their leading axes (the last axis is the rank): one lam
    against many H, many lam against one H, or lam[:, None] against H[None]
    for a table.

    Every pair with lam != 0 and H != 0 takes the one path of ``_phi_det``
    at every rank, on, near or far from walls (root hyperplanes) and near
    the joint origin alike.  H = 0 gives exactly 1, lam = 0 gives phi0(H),
    and a row of lam or H that is not finite raises ConfigError."""
    lam, H = np.asarray(lam, dtype=float), np.asarray(H, dtype=float)
    for name, p in (("lam", lam.reshape(-1, rs.rank)), ("H", H.reshape(-1, rs.rank))):
        if not np.isfinite(p).all():
            bad = np.flatnonzero(~np.isfinite(p).all(axis=1))[0]
            raise ConfigError(f"{name} row {bad} is not finite: {p[bad]}")
    lam, H = np.broadcast_arrays(lam, H)
    shape = lam.shape[:-1]
    lam, H = lam.reshape(-1, rs.rank), H.reshape(-1, rs.rank)
    lam_n, H_n = np.linalg.norm(lam, axis=1), np.linalg.norm(H, axis=1)
    live = (lam_n >= 1e-14) & (H_n >= 1e-14)
    out = np.empty(lam.shape[0], dtype=complex)
    if live.any():
        out[live] = _phi_det(rs, lam[live], H[live])
    out[lam_n < 1e-14] = phi0(rs, H[lam_n < 1e-14])
    out[H_n < 1e-14] = 1.0
    return out.reshape(shape)


def phi_lambda(rs: RootSystem, lam: np.ndarray, H: np.ndarray) -> complex:
    """Spherical function phi_lam(exp H) at one pair: the one-point case of
    ``phi_lambda_many``; exact 1 at H = 0."""
    return complex(phi_lambda_many(rs, np.reshape(lam, rs.rank),
                                   np.reshape(H, rs.rank)))


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------

def _patched(rs: RootSystem, grid, values: np.ndarray, weights: np.ndarray,
             axis: np.ndarray, constant: float, root_factor,
             at_origin: np.ndarray) -> np.ndarray:
    """Values (B, grid.n_nodes) on the tensor grid ``grid`` of

        pi(rho) / i^m * constant * S(p) / prod_{beta>0} root_factor(<beta, p>),

    m = |Sigma+|, S the fold (``_w_fold``) of the stack ``values`` (B, n^rank)
    with ``weights`` over the tensor grid with 1D nodes ``axis``;
    ``root_factor`` is the identity (pi(p)) or sinh (the Weyl denominator
    over 2^m), each of slope 1 at 0.  The stack is folded over W0 once
    (``_coset_fold``), and each representative's phase tables are built
    once, for the grid fold and the wall limits alike.

    On the wall <alpha, p> = 0 of one root both S and the product vanish,
    and the value is their limit along the unit normal n = alpha/|alpha|,
    d_n S(p) (``_wall_fold``) over the product with the vanishing factor
    replaced by its normal derivative |alpha|.  The origin takes the B
    exact values ``at_origin``.  Any other node near a singular set raises
    ConfigError."""
    pts = grid.nodes
    origin = np.linalg.norm(pts, axis=1) < 1e-14
    on = np.abs(pts @ rs.roots_c.T) <= 1e-12 * grid.box_radius
    wall = (np.count_nonzero(on, axis=1) == 1) & ~origin
    bad = np.nonzero(_near_singular(rs, pts) & ~wall & ~origin)[0]
    if bad.size:
        raise ConfigError(
            f"node {pts[bad[0]]} of the grid of box radius {grid.box_radius:g} "
            f"and {grid.points_per_axis} points per axis lies near a singular "
            "set but on no single wall")
    j, k = np.nonzero(on & wall[:, None])     # none at rank 1: only the origin
    slope = np.linalg.norm(rs.roots_c[k], axis=1)
    U, reps, mirror = _coset_fold(rs, values, weights)
    tables = [_weyl_phases(mat, grid.axis, axis) for mat, _ in reps] if rs.rank == 2 else []
    out = _w_fold(U, reps, mirror, axis, grid.axis, tables)
    if j.size:
        out[:, j] = _wall_fold(U, reps, mirror, axis, grid.points_per_axis, tables,
                               j, rs.roots_c[k] / slope[:, None])
    fac = root_factor(pts @ rs.roots_c.T)
    fac[j, k] = slope
    fac[origin] = 1.0
    out *= pi(rs, rs.rho_c) / (1j ** rs.n_positive) * constant / np.prod(fac, axis=1)
    out[:, origin] = at_origin[:, None]
    return out


def _as_stack(values: np.ndarray, grid) -> np.ndarray:
    """A stack of slices (B, n_nodes) of complex values on ``grid``."""
    v = np.asarray(values, dtype=complex)
    if v.ndim != 2 or v.shape[1] != grid.n_nodes:
        raise ConfigError(f"stack of shape {v.shape} does not match a grid of "
                          f"{grid.n_nodes} nodes")
    return v


def _check_pair(rs: RootSystem, *grids) -> None:
    """Refuse grids built for another root system, and rank >= 3, where the
    transform pair is not defined; checked before any tail check."""
    if any(g.rs is not rs for g in grids):
        raise ConfigError("grids belong to a different root system")
    if rs.rank > 2:
        raise UnsupportedConfigurationError(
            "the transform pair is defined for rank <= 2")


def _check_tail(kind: str, values: np.ndarray, weights: np.ndarray,
                shell_mask: np.ndarray, tail_tol: float,
                tail_floor: float) -> None:
    """Raise for the first slice of the masses weights |values| (B, N) whose
    shell part exceeds ``tail_tol`` of its total; slices of total mass at
    most ``tail_floor`` are waived."""
    bound = np.abs(values)
    bound *= weights
    total = bound.sum(axis=1)
    shell = bound[:, shell_mask].sum(axis=1)
    bad = np.nonzero((total > tail_floor) & (shell > tail_tol * total))[0]
    if bad.size:
        b = int(bad[0])
        raise InconclusiveIntegralError(
            f"{kind} tail mass {shell[b]:.3e} exceeds {tail_tol:.1e} of "
            f"{total[b]:.3e} in slice {b} of {bound.shape[0]}",
            tail_bound=float(shell[b]), accumulated=float(total[b]),
            slice_index=b)


def forward_transform_stack(rs: RootSystem, rgrid: RadialGrid,
                            values: np.ndarray, grid: SpectralGrid,
                            tail_tol: float = TAIL_TOL,
                            tail_floor: float = 0.0) -> np.ndarray:
    """Spherical transform of each slice of a stack of values (B, N) on
    ``rgrid``, returned as values (B, M) on ``grid``.

    Each slice passes its own tail check; see ``forward_transform``."""
    _check_pair(rs, rgrid, grid)
    values = _as_stack(values, rgrid)
    wdp = rgrid.weights * density_delta(rs, rgrid.nodes) * phi0(rs, rgrid.nodes)
    _check_tail("radial", values, wdp, rgrid.shell_mask(), tail_tol, tail_floor)
    order, n_pos = weyl_group(rs).order, rs.n_positive
    wts = rgrid.weights * weyl_denominator(rs, rgrid.nodes)
    return _patched(rs, grid, values, wts, rgrid.axis,
                    1.0 / (order * 4.0 ** n_pos), lambda a: a,
                    at_origin=values @ wdp / order)


def inverse_transform_stack(rs: RootSystem, sgrid: SpectralGrid,
                            values: np.ndarray, grid: RadialGrid,
                            tail_tol: float = TAIL_TOL,
                            tail_floor: float = 0.0) -> np.ndarray:
    """Inverse transform of each slice of a stack of values (B, M) on
    ``sgrid``, returned as values (B, N) on ``grid``.

    Each slice passes its own tail check; see ``inverse_transform``."""
    _check_pair(rs, sgrid, grid)
    values = _as_stack(values, sgrid)
    wp = sgrid.weights * plancherel_density(rs, sgrid.nodes)
    _check_tail("spectral", values, wp, sgrid.shell_mask(), tail_tol, tail_floor)
    C = plancherel_constant(rs)
    wts = sgrid.weights * pi_many(rs, sgrid.nodes)
    return _patched(rs, grid, values, wts, sgrid.axis,
                    C / 2.0 ** rs.n_positive, np.sinh, at_origin=C * (values @ wp))


def forward_transform(rs: RootSystem, f: RadialFunction, grid: SpectralGrid,
                      tail_tol: float = TAIL_TOL,
                      tail_floor: float = 0.0) -> SpectralFunction:
    """Spherical Fourier transform Hf(lam) = int_{a+} delta f phi_lam dH.

    The radial shell of the box may hold at most ``tail_tol`` of the mass
    int delta |f| phi0, or InconclusiveIntegralError is raised.
    ``tail_floor`` is an absolute mass below which the tail check is waived
    (for functions that are negligible relative to some reference flow)."""
    vals = forward_transform_stack(rs, f.grid, f.values[None], grid,
                                   tail_tol, tail_floor)
    return SpectralFunction(grid, vals[0])


def inverse_transform(rs: RootSystem, g: SpectralFunction, grid: RadialGrid,
                      tail_tol: float = TAIL_TOL,
                      tail_floor: float = 0.0) -> RadialFunction:
    """Inverse transform f(H) = C_rs int Hf(lam) phi_lam(H) pi(lam)^2 dlam,
    with the same tail check on the spectral box as ``forward_transform``."""
    vals = inverse_transform_stack(rs, g.grid, g.values[None], grid,
                                   tail_tol, tail_floor)
    return RadialFunction(grid, vals[0])


def plancherel_constant(rs: RootSystem) -> float:
    """Inversion constant making inverse(forward(.)) the identity, in closed
    form: 4^{|Sigma+|} / (pi(rho)^2 (2 pi)^rank |W|).

    The transform pair is defined for rank <= 2; a reference-Gaussian round
    trip pinned at the origin reproduces the constant (see the tests)."""
    _check_pair(rs)
    return float(4.0 ** rs.n_positive / (
        pi(rs, rs.rho_c) ** 2
        * (2.0 * np.pi) ** rs.rank * weyl_group(rs).order))


def parseval_pair(rs: RootSystem, f: RadialFunction, grid: SpectralGrid) -> tuple:
    """(int_{a+} delta |f|^2, C int |Hf|^2 pi^2) for consistency checks."""
    lhs = integrate_biinvariant(rs, RadialFunction(f.grid, np.abs(f.values) ** 2))
    Hf = forward_transform(rs, f, grid)
    rhs = plancherel_constant(rs) * float(np.sum(
        grid.weights * np.abs(Hf.values) ** 2 * plancherel_density(rs, grid.nodes)))
    return float(lhs.real), rhs


# ---------------------------------------------------------------------------
# radial Laplacian
# ---------------------------------------------------------------------------

def radial_laplacian_apply(rs: RootSystem, f: RadialFunction) -> RadialFunction:
    """Second-order finite-difference radial part of the Laplace-Beltrami
    operator, Delta_flat + sum_{alpha>0} 2 coth<alpha,H> d_alpha.

    Output values are valid on interior chamber nodes at least 2h from every
    root wall and from the box boundary; elsewhere they are NaN.
    """
    grid = f.grid
    if grid.points_per_axis < 9:
        raise ConfigError("grid too coarse for finite differences (need n >= 9)")
    h = grid.spacing
    rank = grid.rs.rank
    F = f.tensor()
    lap = np.zeros_like(F)
    grads = []
    for ax in range(rank):
        plus = np.roll(F, -1, axis=ax)
        minus = np.roll(F, 1, axis=ax)
        lap += (plus - 2.0 * F + minus) / h ** 2
        grads.append((plus - minus) / (2.0 * h))
    grad = np.stack([g.ravel() for g in grads], axis=-1)   # (N, rank)
    pair = grid.nodes @ rs.roots_c.T                       # (N, n_roots)
    valid = grid.interior_chamber_mask()
    coth = np.zeros_like(pair)
    coth[valid] = 1.0 / np.tanh(pair[valid])
    first_order = 2.0 * np.sum(coth * (grad @ rs.roots_c.T), axis=1)
    out = lap.ravel() + first_order
    out[~valid] = np.nan
    return RadialFunction(grid, out)
