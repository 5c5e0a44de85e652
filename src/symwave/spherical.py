"""Spherical functions, the spherical Fourier transform pair with the
complex-case polynomial Plancherel density, and the radial Laplacian.

Spherical functions are evaluated through the complex-case closed form

    phi_lam(exp H) = (pi(rho)/pi(i lam)) * sum_w det(w) e^{i<w lam, H>}
                                          / sum_w det(w) e^{<w rho, H>},

an alternating sum over the Weyl group divided by the Weyl denominator
prod 2 sinh<alpha,H>, normalized so phi_lam(0) = 1.  The alternating sum
annihilates every polynomial of degree below m = |Sigma+|, so near the joint
origin (small |lam||H|) it is formed from the exponential remainders
e^z - sum_{j<m} z^j/j!, whose dropped terms would otherwise cancel in
floating point.  There is one evaluation path: ``phi_lambda_many`` takes
lam and H broadcast against each other, evaluates every regular pair in
one ``_phi_direct`` call, every pair with H on exactly one wall (and lam
regular) in one more by the exact limit along the wall's normal, every pair
with lam on exactly one root hyperplane (and H regular) in one more by the
exact limit along that hyperplane's normal, and every other pair within
1e-4 of a singular set (both arguments singular, or one near but off its
singular set) in one more, by 6-point polynomial extrapolation along a
fixed generic direction; ``phi_lambda`` is its one-point case.

Transforms are plain trapezoid sums over tensor grids, applied to a stack of
B slices at once (``forward_transform_stack``, ``inverse_transform_stack``);
``forward_transform`` and ``inverse_transform`` are the B = 1 case.  The
transform pair is defined for rank <= 2.  The Weyl sum is folded over the
cosets of the subgroup W0 of signed permutations (Weyl elements within
1e-12 of an integer matrix), which map the input and output grids onto
themselves once their 1D axes are made exactly antisymmetric: the weighted
stack is antisymmetrised over W0 by index flips and transposes, and the
result U is summed once per coset representative (``_coset_fold``).  At
rank 1, W0 = W and U is odd, so the fold is one real sine table over the
positive half-axis and two real matrix products.  At rank 2 the identity
coset is A @ U @ B^T per slice, the whole sum on B2, C2 and D2; the two
other cosets of A2 go through per-coordinate phase tables, a matrix
product and a rowwise dot (see ``_w_fold``).  Only the output rows y_a >= 0
are folded; the others follow from S(s p) = det(s) S(p) for a diagonal s
in W0 with s_00 = -1.  The transform is evaluated on the whole output grid
and divided by pi(lam) or by the Weyl denominator, each a product of one
factor per positive root.  On the wall (root hyperplane) of one root the
alternating sum and that product both vanish, and the value there is their
limit along the wall's normal: the normal derivative of the alternating
sum, folded from the two first-moment stacks of U over the representatives
at the wall nodes only, over the product with the vanishing factor
replaced by its normal derivative.  The origin takes its exact value, and
a grid with any other node near a singular set is refused.
Each slice passes its own tail check, and a failure names the slice.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ConfigError, InconclusiveIntegralError,
                     UnsupportedConfigurationError)
from .geometry import (TAIL_TOL, RadialFunction, RadialGrid, _TensorFunction,
                       _TensorGrid, _tensor_nodes, density_delta,
                       integrate_biinvariant, phi0, weyl_denominator)
from .root_system import RootSystem, pi_many, weyl_group

SINGULAR_EPS = 1e-4
_EXTRAP_K = 6
# Below the switch of _phi_direct successive remainder-series terms shrink by
# a factor under 0.4, so 40 terms leave a tail far below double precision.
_REMAINDER_TERMS = 40


class SpectralGrid(_TensorGrid):
    """Uniform tensor grid over [-L, L]^rank in the spectral variable."""


class SpectralFunction(_TensorFunction):
    """Samples of a function of the spectral variable over a SpectralGrid."""


def plancherel_density(rs: RootSystem, lam: np.ndarray) -> np.ndarray:
    """pi(lam)^2, the inversion weight for complex groups."""
    return pi_many(rs, np.asarray(lam, dtype=float)) ** 2


def _lagrange_to_zero(k: np.ndarray) -> np.ndarray:
    """Lagrange weights extrapolating samples at offsets k to 0."""
    w = np.array([np.prod(-k[k != ki]) / np.prod(ki - k[k != ki]) for ki in k])
    w.flags.writeable = False
    return w


_EXTRAP_WEIGHTS = _lagrange_to_zero(np.arange(1, _EXTRAP_K + 1, dtype=float))


def _near_singular(rs: RootSystem, pts: np.ndarray) -> np.ndarray:
    """Points near a wall (H) or a root hyperplane (lam), where the
    alternating-sum evaluation cancels too hard.

    Cancellation severity scales with the product of all root pairings
    relative to |p|^m, m = |Sigma+|, so both a single tiny pairing and a
    compound of small ones are flagged.  The single-pairing test is
    absolute, which keeps the origin flagged.  Each argument is judged on
    its own; the cancellation when lam and H are both small is handled
    inside ``_phi_direct``."""
    pts = np.atleast_2d(pts)
    pair = np.abs(pts @ rs.roots_c.T)
    norm = np.linalg.norm(pts, axis=1) ** rs.n_positive
    return (np.min(pair, axis=1) < SINGULAR_EPS) \
        | (np.prod(pair, axis=1) < 1e-6 * norm)


def _phase(mu: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """The (M, n) matrix exp(i mu_j x_k), exponentiated in place."""
    E = np.multiply.outer(mu, 1j * axis)
    return np.exp(E, out=E)


def _coset_fold(rs: RootSystem, values: np.ndarray,
                weights: np.ndarray) -> tuple:
    """Split the Weyl group W over its subgroup W0 of signed permutations.

    A Weyl matrix whose entries are within 1e-12 of 0 or +-1 is snapped to
    exact integers; these s form W0, and each maps a tensor grid symmetric
    about 0 onto itself.  Substituting x -> s x in the fold gives
    S_{ws}[V] = S_w[V o s], so for any stack V

        sum_w det(w) S_w[V] = sum_r det(r) S_r[U],
        U = sum_{s in W0} det(s) V o s,

    one representative r per coset r W0.  Returns U, the weighted stack
    weights * values (B, n^rank) antisymmetrised over W0 by index flips and
    transposes, shaped (B, n) or (B, n, n); the representatives as
    (matrix, sign) pairs, the identity first; and the mirror, an element
    (s, det s) of W0 that is diagonal with s_00 = -1 (-1 at rank 1,
    diag(-1, 1) on A2, B2 and C2, -I on D2).
    """
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
    n = values.shape[1] if rs.rank == 1 else math.isqrt(values.shape[1])
    V = (weights * values).reshape((-1,) + (n,) * rs.rank)
    U = np.zeros_like(V)
    for s, sign in W0:
        # (V o s)(x) = V(s x): axis j of x feeds the coordinate that column
        # j of s maps it to, so s transposes V when it swaps coordinates
        # and reverses axis j where that column's entry is -1
        G = V if s[0, 0] != 0 else V.transpose(0, 2, 1)
        G = G[(slice(None),) + tuple(np.s_[::int(np.sum(col))] for col in s.T)]
        (np.add if sign > 0 else np.subtract)(U, G, out=U)
    return U, reps, mirror


def _symmetric(axis: np.ndarray) -> np.ndarray:
    """The 1D grid ``axis`` made exactly antisymmetric under reversal, within
    an ulp of its nodes: a linspace over [-L, L] is only symmetric to a few
    ulps, and the coset fold needs x -> -x to map nodes onto nodes."""
    return (axis - axis[::-1]) / 2.0


def _w_fold(rs: RootSystem, values: np.ndarray, weights: np.ndarray,
            axis: np.ndarray, out_axis: np.ndarray) -> np.ndarray:
    """sum_w det(w) sum_x weights(x) values_b(x) exp(i <p, w x>) for each
    slice b of the stack ``values`` (B, n^rank) and each node p of the
    tensor grid over the 1D axis ``out_axis``, in ``_tensor_nodes`` order;
    returns (B, m^rank).

    The inner sum runs over the tensor grid with 1D nodes ``axis``.  Both
    axes are taken exactly antisymmetric (``_symmetric``), and the sum is
    folded over the cosets of the signed permutations W0 (``_coset_fold``):
    the W0-antisymmetrised stack U is summed once per coset representative.
    W0 also maps the output grid onto itself, and substituting w -> s^-1 w
    gives S(s p) = det(s) S(p), so only the rows y_a >= 0 are folded and
    the others are filled through the mirror.

    At rank 1, W0 = W and U is odd, so S(y) = 2i sum_{x>0} U(x) sin(y x):
    one real sine table over the positive half-axis and two real matrix
    products.  At rank 2 the identity coset is A @ U @ B^T per slice, from
    one phase table per output coordinate; that is the whole sum on B2, C2
    and D2.  On A2 the other two representatives go through the per-axis
    phase matrices of ``_weyl_phases`` on the folded rows.
    """
    U, reps, (s, sign) = _coset_fold(rs, values, weights)
    x, y = _symmetric(axis), _symmetric(out_axis)
    lo = y.shape[0] // 2                     # rows y[lo:] >= 0 are folded
    if rs.rank == 1:
        k = x.shape[0] // 2 + 1              # x[k:] > 0; U(0) = 0
        T = np.sin(np.multiply.outer(x[k:], y[lo:]))
        half = 2j * (U[:, k:].real @ T) - 2.0 * (U[:, k:].imag @ T)
    else:
        half = _phase(y[lo:], x) @ U @ _phase(y, x).T
        for mat, rsign in reps[1:]:
            E = _weyl_phases(mat, y, x, np.s_[lo:, None], np.s_[:])
            half += rsign * _axis_fold(E, U).reshape(half.shape)
            del E
    low = half[(slice(None), slice(None, None, -1))
               + tuple(np.s_[::int(d)] for d in np.diag(s)[1:])]
    out = np.concatenate([sign * low[:, :lo], half], axis=1)
    return out.reshape(values.shape[0], -1)


def _wall_fold(rs: RootSystem, values: np.ndarray, weights: np.ndarray,
               axis: np.ndarray, out_axis: np.ndarray, idx: np.ndarray,
               normals: np.ndarray) -> np.ndarray:
    """The derivative d_n S(p) of the rank-2 fold S of ``_w_fold`` along the
    unit vector n, at the output nodes ``idx`` (flat indices into the tensor
    grid over ``out_axis``), each with its own n, a row of ``normals``;
    returns (B, len(idx)).

    Over the cosets of ``_coset_fold``, S = sum_r det(r) S_r[U], so

        d_n S(p) = sum_r det(r) sum_k (n r)_k
                   sum_x U_b(x) i x_k exp(i <r^T p, x>)

    is the fold of the two moment stacks i x_k U over the representatives
    only, contracted per point with (n r)_k.  Their phases are the
    per-coordinate tables of ``_weyl_phases`` on the exactly antisymmetric
    axes, indexed by each node's grid indices."""
    U, reps, _ = _coset_fold(rs, values, weights)
    x, y = _symmetric(axis), _symmetric(out_axis)
    B = U.shape[0]
    moments = np.empty((2, B) + U.shape[1:], dtype=complex)
    np.multiply(U, 1j * x[:, None], out=moments[0])
    np.multiply(U, 1j * x, out=moments[1])
    del U
    moments = moments.reshape(2 * B, -1)
    ia, ib = np.divmod(idx, y.shape[0])
    out = np.zeros((B, idx.shape[0]), dtype=complex)
    for mat, sign in reps:
        E = _weyl_phases(mat, y, x, ia, ib)
        F = _axis_fold(E, moments).reshape(2, B, -1)
        c = normals @ mat                  # (n r)_k per point
        out += sign * (c[:, 0] * F[0] + c[:, 1] * F[1])
    return out


def _weyl_phases(mat: np.ndarray, out_axis: np.ndarray, axis: np.ndarray,
                 ia: np.ndarray, ib: np.ndarray) -> list:
    """The per-axis phase matrices exp(i (w^T p)_k x), k < 2, of the Weyl
    matrix ``mat`` at the output points p = (out_axis[ia], out_axis[ib]),
    with the indices ``ia`` and ``ib`` (integer arrays, or slices that keep
    the tables' rows as views) broadcast against each other; each is
    (points, n), in row-major order of the broadcast shape.

    (w^T p)_k = w_0k y_a + w_1k y_b, so each is the product of rows of the
    tables exp(i w_0k y x) and exp(i w_1k y x) over y in ``out_axis``
    (m x n): points * n complex multiplies in place of as many
    exponentials.
    """
    n = axis.shape[0]
    return [(_phase(mat[0, k] * out_axis, axis)[ia]
             * _phase(mat[1, k] * out_axis, axis)[ib]).reshape(-1, n)
            for k in range(2)]


def _axis_fold(E: list, stack: np.ndarray) -> np.ndarray:
    """sum_x stack_b(x) E_0(p, x_0) E_1(p, x_1) for each slice b of a stack
    (B, n, n) or (B, n^2) that already carries the quadrature weights, and
    each output point p of a rank-2 fold: the phase matrices E_k (M, n),
    shared by all slices, are contracted first with the grid's x_0 axis by
    a matrix product and then with its x_1 axis by a rowwise dot."""
    E0, E1 = E
    M, n = E0.shape
    out = np.empty((stack.shape[0], M), dtype=complex)
    for b, v in enumerate(stack):
        T = E0 @ v.reshape(n, n)                    # (M, n)
        out[b] = np.einsum("ji,ji->j", E1, T)
    return out


def _exp_remainder(z: np.ndarray, m: int) -> np.ndarray:
    """e^z - sum_{j<m} z^j/j! summed from its power series (Horner form)."""
    s = np.ones_like(z)
    for j in range(m + _REMAINDER_TERMS - 1, m, -1):
        s = 1.0 + z * s / j
    return z ** m / math.factorial(m) * s


def _near_joint_origin(s: np.ndarray, m: int) -> np.ndarray:
    """Where the remainder-series bound S_m(s) = sum_{j>=m} s^j/j! is below 1.

    S_m(s) = e^s - sum_{j<m} s^j/j!, a finite sum for the integer m, and the
    test is written as e^{-s} (1 + sum_{j<m} s^j/j!) > 1 so that nothing
    overflows at large s."""
    term = np.ones_like(s)
    head = term.copy()
    for j in range(1, m):
        term = term * s / j
        head += term
    return np.exp(-s) * (head + 1.0) > 1.0


def _phi_direct(rs: RootSystem, lam: np.ndarray, H: np.ndarray,
                wall: np.ndarray | None = None,
                plane: np.ndarray | None = None) -> np.ndarray:
    """Closed-form evaluation on generic pairs; lam (P, r), H (P, r) -> (P,).

    The numerator sum_w det(w) e^{i<w lam, H>} vanishes to order m = |Sigma+|
    in |lam||H|, because the alternating sum kills every polynomial of degree
    below m.  Pairs near the joint origin therefore sum the remainders
    e^z - sum_{j<m} z^j/j! instead, which is exact in exact arithmetic.  The
    series is used where its bound S_m(s) = e^s - sum_{j<m} s^j/j!, s =
    |lam||H| >= |z|, stays below 1 = |e^z| (``_near_joint_origin``), so the
    remainders are no larger than the exponentials they replace; elsewhere
    e^z is summed directly.  The sum runs one Weyl element at a time, so
    memory stays O(P).

    With ``wall`` (P,), the index of a positive root alpha per pair whose
    wall H lies on, the value is the limit along the unit normal
    n = alpha/|alpha|: the numerator becomes its normal derivative
    sum_w det(w) i<w lam, n> e^{i<w lam, H>} and the Weyl denominator its
    normal derivative, with 2 sinh<alpha, H> replaced by 2|alpha|.  With
    ``plane`` (P,), the index of the root whose hyperplane lam lies on, the
    limit is taken in lam instead: the numerator becomes
    sum_w det(w) i<w n, H> e^{i<w lam, H>} and pi(i lam) becomes
    i^m |alpha| prod_{beta != alpha} <beta, lam>.  Either way the remainder
    of order m differentiates to the remainder of order m - 1, which near
    the joint origin takes the same switch at m - 1.
    """
    W = weyl_group(rs)
    index = wall if plane is None else plane
    order = rs.n_positive if index is None else rs.n_positive - 1
    joint = np.linalg.norm(lam, axis=1) * np.linalg.norm(H, axis=1)
    near = _near_joint_origin(joint, order)
    far = ~near
    if index is not None:
        slope = np.linalg.norm(rs.roots_c[index], axis=1)
        normal = rs.roots_c[index] / slope[:, None]
    num = np.zeros(lam.shape[0], dtype=complex)
    term = np.empty(lam.shape[0], dtype=complex)
    for mat, sign in zip(W.matrices, W.signs):
        # <w lam, H> elementwise: a matrix product rounds differently for
        # different P, and near a wall the alternating sum magnifies that
        wlam = np.sum(lam[:, None, :] * mat, axis=-1)
        z = 1j * np.sum(wlam * H, axis=-1)
        term[far] = np.exp(z[far])
        term[near] = _exp_remainder(z[near], order)
        if wall is not None:
            term *= 1j * np.sum(wlam * normal, axis=-1)
        elif plane is not None:
            term *= 1j * np.sum(np.sum(normal[:, None, :] * mat, axis=-1) * H, axis=-1)
        num += sign * term
    pi_rho = float(np.prod(rs.pairings(rs.rho_c)))
    lam_fac = rs.pairings(lam)
    den_fac = 2.0 * np.sinh(rs.pairings(H))
    if wall is not None:
        den_fac[np.arange(H.shape[0]), wall] = 2.0 * slope
    elif plane is not None:
        lam_fac[np.arange(lam.shape[0]), plane] = slope
    pi_ilam = (1j ** rs.n_positive) * np.prod(lam_fac, axis=-1)
    return pi_rho / pi_ilam * num / np.prod(den_fac, axis=-1)


def _ray_offsets(pts: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The extrapolation nodes p + k tau u, k = 1.._EXTRAP_K, of the points
    p (P, rank) along a fixed generic direction u, with one step per point
    ``tau`` (P,); returns (P, _EXTRAP_K, rank)."""
    golden = (1 + 5 ** 0.5) / 2
    u = np.array([golden ** (-k) for k in range(pts.shape[1])])
    u = u / np.linalg.norm(u)
    ks = np.arange(1, _EXTRAP_K + 1)
    return pts[:, None, :] + (tau[:, None] * ks)[:, :, None] * u


def phi_lambda_many(rs: RootSystem, lam: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Spherical functions phi_lam(exp H) for lam and H broadcast against
    each other over their leading axes (the last axis is the rank): one lam
    against many H, many lam against one H, or lam[:, None] against H[None]
    for a table.

    Regular pairs take ``_phi_direct`` in one call.  A pair with lam near a
    root hyperplane or H near a wall is a removable singularity.  Where only
    H is flagged and lies on exactly one wall (pairing at most 1e-12 |H|),
    ``_phi_direct`` takes the exact limit along the wall's normal, all such
    pairs in one call; where only lam is flagged and lies on exactly one
    root hyperplane (pairing at most 1e-12 |lam|), it takes the limit along
    that hyperplane's normal, in one more.  For every other singular pair
    (both flagged, or near but off a singular set) the singular
    arguments move along the generic ray by k tau, k = 1..6,
    tau = 0.05 / max(|lam|, |H|, 1), and the value is extrapolated to k = 0,
    all of them in one more call.  H = 0 gives exactly 1 and lam = 0 gives
    phi0(H).
    """
    lam, H = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(H, dtype=float))
    shape = lam.shape[:-1]
    lam, H = lam.reshape(-1, rs.rank), H.reshape(-1, rs.rank)
    lam_n, H_n = np.linalg.norm(lam, axis=1), np.linalg.norm(H, axis=1)
    lam_sing, H_sing = _near_singular(rs, lam), _near_singular(rs, H)
    out = np.empty(lam.shape[0], dtype=complex)
    regular = ~lam_sing & ~H_sing
    out[regular] = _phi_direct(rs, lam[regular], H[regular])
    on_H = np.abs(rs.pairings(H)) <= 1e-12 * H_n[:, None]
    on_lam = np.abs(rs.pairings(lam)) <= 1e-12 * lam_n[:, None]
    wall = (H_sing & ~lam_sing & (H_n >= 1e-14)
            & (np.count_nonzero(on_H, axis=1) == 1))
    plane = (lam_sing & ~H_sing & (lam_n >= 1e-14)
             & (np.count_nonzero(on_lam, axis=1) == 1))
    out[wall] = _phi_direct(rs, lam[wall], H[wall],
                            wall=np.argmax(on_H[wall], axis=1))
    out[plane] = _phi_direct(rs, lam[plane], H[plane],
                             plane=np.argmax(on_lam[plane], axis=1))
    todo = np.nonzero(~regular & ~wall & ~plane & (lam_n >= 1e-14) & (H_n >= 1e-14))[0]
    tau = 0.05 / np.maximum(np.maximum(lam_n[todo], H_n[todo]), 1.0)

    def path(p, sing):
        return np.where(sing[todo, None, None], _ray_offsets(p[todo], tau),
                        p[todo, None, :]).reshape(-1, rs.rank)
    vals = _phi_direct(rs, path(lam, lam_sing), path(H, H_sing))
    out[todo] = vals.reshape(-1, _EXTRAP_K) @ _EXTRAP_WEIGHTS
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
    over 2^m), each of slope 1 at 0.  S is evaluated on the exactly
    antisymmetric axis (``_symmetric``), and so is the product: near the
    origin both vanish to order m, and a shift of 1e-15 between their
    nodes would move the ratio by about m 1e-15 / |p|.

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
    out = _w_fold(rs, values, weights, axis, grid.axis)
    if j.size:
        out[:, j] = _wall_fold(rs, values, weights, axis, grid.axis, j,
                               rs.roots_c[k] / slope[:, None])
    fac = root_factor(_tensor_nodes(_symmetric(grid.axis), rs.rank)
                      @ rs.roots_c.T)          # at the nodes S was taken at
    fac[j, k] = slope
    fac[origin] = 1.0
    pi_rho = float(np.prod(rs.pairings(rs.rho_c)))
    out *= pi_rho / (1j ** rs.n_positive) * constant / np.prod(fac, axis=1)
    out[:, origin] = at_origin[:, None]
    return out


def _as_stack(values: np.ndarray, grid) -> np.ndarray:
    """A stack of slices (B, n_nodes) of complex values on ``grid``."""
    v = np.asarray(values, dtype=complex)
    if v.ndim != 2 or v.shape[1] != grid.n_nodes:
        raise ConfigError(f"stack of shape {v.shape} does not match a grid of "
                          f"{grid.n_nodes} nodes")
    return v


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
    if rgrid.rs is not rs or grid.rs is not rs:
        raise ConfigError("grids belong to a different root system")
    if rs.rank > 2:
        raise UnsupportedConfigurationError(
            "the transform pair is defined for rank <= 2")
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
    if sgrid.rs is not rs or grid.rs is not rs:
        raise ConfigError("grids belong to a different root system")
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
    if rs.rank > 2:
        raise UnsupportedConfigurationError(
            "the transform pair is defined for rank <= 2")
    return float(4.0 ** rs.n_positive / (
        np.prod(rs.pairings(rs.rho_c)) ** 2
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
