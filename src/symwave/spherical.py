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
floating point.  Points within 1e-4 of a singular set (lam on a root
hyperplane, H on a wall) are handled by 6-point polynomial extrapolation
along a fixed generic direction.

Transforms are plain trapezoid sums over tensor grids, applied to a stack of
B slices at once (``forward_transform_stack``, ``inverse_transform_stack``);
``forward_transform`` and ``inverse_transform`` are the B = 1 case.  At rank
1 the signed Weyl images fold into one phase matrix, applied to the whole
stack as a single matrix product.  The transform pair is defined for
rank <= 2.  At rank 2 the output points are the nodes of a tensor grid
symmetric about 0.  A Weyl element whose entries are within 1e-12 of 0 or
+-1 is snapped to an integer signed permutation s, which maps that grid onto
itself, and the alternating sum S of any stack obeys S(s p) = det(s) S(p):
only the rows y_a >= 0 are folded, and the others are filled through a
diagonal s with s_00 = -1 (diag(-1, 1) on A2, B2 and C2).  A
signed-permutation element is contracted with each slice V as A @ V @ B^T
from one phase table per output coordinate; the other elements (4 of 6 on
A2) go through per-coordinate phase tables multiplied out on the folded
rows, a matrix product and a rowwise dot (see ``_w_fold``).  The transform
is evaluated on the whole output grid, and only its regular points are
divided by pi(lam) or by the Weyl denominator.  Points on a singular set
are patched from off-grid points, whose phases are exponentiated point by
point.
Each slice passes its own tail check, and a failure names the slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import gammainc

from .errors import (ConfigError, InconclusiveIntegralError,
                     UnsupportedConfigurationError)
from .geometry import (TAIL_TOL, RadialFunction, RadialGrid, _tensor_nodes,
                       _trapezoid_weights, density_delta, phi0,
                       weyl_denominator)
from .root_system import RootSystem, pi_many, weyl_group

SINGULAR_EPS = 1e-4
_EXTRAP_K = 6
# Below the switch of _phi_direct successive remainder-series terms shrink by
# a factor under 0.4, so 40 terms leave a tail far below double precision.
_REMAINDER_TERMS = 40


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform tensor grid over [-L, L]^rank in the spectral variable."""

    rs: RootSystem
    box_radius: float
    points_per_axis: int
    axis: np.ndarray = field(repr=False, default=None)
    nodes: np.ndarray = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        m = self.points_per_axis
        if m < 3 or m % 2 == 0:
            raise ConfigError("points_per_axis must be odd and >= 3")
        if self.box_radius <= 0:
            raise ConfigError("box_radius must be positive")
        axis = np.linspace(-self.box_radius, self.box_radius, m)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "nodes", _tensor_nodes(axis, self.rs.rank))
        object.__setattr__(self, "weights", _trapezoid_weights(axis, self.rs.rank))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.rs.rank

    def shell_mask(self) -> np.ndarray:
        edge = np.isclose(np.abs(self.nodes), self.box_radius)
        return np.any(edge, axis=1)


@dataclass(frozen=True)
class SpectralFunction:
    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        if v.shape[0] != self.grid.n_nodes:
            raise ConfigError("values length does not match grid")
        object.__setattr__(self, "values", v)

    def tensor(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def plancherel_density(rs: RootSystem, lam: np.ndarray) -> np.ndarray:
    """pi(lam)^2, the inversion weight for complex groups."""
    return pi_many(rs, np.asarray(lam, dtype=float)) ** 2


def _generic_direction(rank: int) -> np.ndarray:
    golden = (1 + 5 ** 0.5) / 2
    u = np.array([golden ** (-k) for k in range(rank)])
    return u / np.linalg.norm(u)


def _lagrange_to_zero(k: np.ndarray) -> np.ndarray:
    """Lagrange weights extrapolating samples at offsets k to 0."""
    w = np.array([np.prod(-k[k != ki]) / np.prod(ki - k[k != ki]) for ki in k])
    w.flags.writeable = False
    return w


_EXTRAP_WEIGHTS = _lagrange_to_zero(np.arange(1, _EXTRAP_K + 1, dtype=float))


def _min_abs_pairing(rs: RootSystem, pts: np.ndarray) -> np.ndarray:
    return np.min(np.abs(np.atleast_2d(pts) @ rs.roots_c.T), axis=1)


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


def _w_fold(rs: RootSystem, values: np.ndarray, weights: np.ndarray,
            axis: np.ndarray, pts: np.ndarray, tensor: bool) -> np.ndarray:
    """sum_w det(w) sum_x weights(x) values_b(x) exp(i <p, w x>) for each
    slice b of the stack ``values`` (B, n^rank) and each output point p;
    returns (B, P).

    The inner sum runs over the tensor grid with 1D nodes ``axis``.  The
    output points are the rows of ``pts`` (P, rank), or with ``tensor`` the
    nodes of the tensor grid over the 1D axis ``pts``, in ``_tensor_nodes``
    order; that axis must be symmetric about 0, as every grid's is.  At rank
    1 the signed Weyl images and the weights fold into one P x n matrix,
    applied to the whole stack as a single matrix product.  At rank 2 off
    the grid, each Weyl element's per-axis phase matrices exp(i (w^T p)_k x)
    are exponentiated point by point and contracted by ``_axis_fold``.

    On the rank-2 grid two symmetries of the grid cut the work.  A Weyl
    element s whose entries are within 1e-12 of 0 or +-1 is a signed
    permutation; snapped to exact integers it maps the output grid onto
    itself, and substituting w -> s^-1 w in the sum gives
    S(s p) = det(s) S(p) for any stack.  Every rank-2 Weyl group holds a
    diagonal s with s_00 = -1 (diag(-1, 1) on A2, B2 and C2, -I on D2), so
    only the rows y_a >= 0 are folded and the others are filled from them.
    For a signed permutation w the phase exp(i <p, w x>) is the product of
    one (rows x n) table in y_a and one (m x n) table in y_b, each in one
    coordinate of x, so its sum is A @ V @ B^T per slice, with V^T when w
    swaps the coordinates.  The other elements (4 of 6 on A2) go through
    the per-axis phase matrices of ``_weyl_phases`` on the folded rows.
    """
    W = weyl_group(rs)
    if rs.rank == 1:
        pts = np.reshape(pts, (-1, 1))     # a rank-1 tensor grid is its axis
        P = np.zeros((pts.shape[0], axis.shape[0]), dtype=complex)
        for mat, sign in zip(W.matrices, W.signs):
            E = _phase((pts @ mat)[:, 0], axis)
            E *= sign
            P += E
            del E                 # one phase matrix alive at a time
        P *= weights
        return values @ P.T
    if not tensor:
        return sum(sign * _axis_fold([_phase(mu, axis) for mu in (pts @ mat).T],
                                     values, weights)
                   for mat, sign in zip(W.matrices, W.signs))
    n, m = axis.shape[0], pts.shape[0]
    lo = m // 2                          # rows pts[lo:] >= 0 are folded
    rows = pts[lo:]
    V = (weights * values).reshape(-1, n, n)
    half = np.zeros((values.shape[0], m - lo, m), dtype=complex)
    mirror = None
    for mat, sign in zip(W.matrices, W.signs):
        s = np.round(mat)
        if np.any(np.abs(mat - s) > 1e-12):
            E = _weyl_phases(mat, rows, pts, axis)
            half += sign * _axis_fold(E, values, weights).reshape(half.shape)
            del E
            continue
        if s[0, 0] == -1 and s[0, 1] == 0:
            mirror = s, sign
        k = int(np.flatnonzero(s[0])[0])     # y_a pairs with x_k, y_b with x_(1-k)
        A = _phase(s[0, k] * rows, axis)
        B = _phase(s[1, 1 - k] * pts, axis)
        half += sign * (A @ (V if k == 0 else V.transpose(0, 2, 1)) @ B.T)
    s, sign = mirror
    low = half[:, ::-1, ::-1] if s[1, 1] == -1 else half[:, ::-1]
    out = np.concatenate([sign * low[:, :lo], half], axis=1)
    return out.reshape(values.shape[0], -1)


def _weyl_phases(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 axis: np.ndarray) -> list:
    """The per-axis phase matrices exp(i (w^T p)_k x), k < 2, of the Weyl
    matrix ``mat`` on the tensor grid of output points p = (y_a, y_b),
    y_a in ``rows`` and y_b in ``cols``, each (rows * cols, n) in row-major
    order.

    (w^T p)_k = w_0k y_a + w_1k y_b, so each is the product of the tables
    exp(i w_0k y_a x) (rows x n) and exp(i w_1k y_b x) (cols x n), broadcast
    against each other: rows * cols * n complex multiplies in place of as
    many exponentials.
    """
    n = axis.shape[0]
    return [(_phase(mat[0, k] * rows, axis)[:, None, :]
             * _phase(mat[1, k] * cols, axis)[None, :, :]).reshape(-1, n)
            for k in range(2)]


def _axis_fold(E: list, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_x weights(x) values_b(x) E_0(p, x_0) E_1(p, x_1) for each slice b
    and output point p of a rank-2 fold: the phase matrices E_k (M, n),
    shared by all slices, are contracted first with the grid's x_0 axis by
    a matrix product and then with its x_1 axis by a rowwise dot."""
    E0, E1 = E
    M, n = E0.shape
    out = np.empty((values.shape[0], M), dtype=complex)
    for b, v in enumerate(values):
        T = E0 @ (weights * v).reshape(n, n)        # (M, n)
        out[b] = np.einsum("ji,ji->j", E1, T)
    return out


def _exp_remainder(z: np.ndarray, m: int) -> np.ndarray:
    """e^z - sum_{j<m} z^j/j! summed from its power series (Horner form)."""
    s = np.ones_like(z)
    for j in range(m + _REMAINDER_TERMS - 1, m, -1):
        s = 1.0 + z * s / j
    return z ** m / math.factorial(m) * s


def _phi_direct(rs: RootSystem, lam: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Closed-form evaluation on generic points; lam (M,r), H (N,r) -> (M,N).

    The numerator sum_w det(w) e^{i<w lam, H>} vanishes to order m = |Sigma+|
    in |lam||H|, because the alternating sum kills every polynomial of degree
    below m.  Pairs near the joint origin therefore sum the remainders
    e^z - sum_{j<m} z^j/j! instead, which is exact in exact arithmetic.  The
    series is used where its bound sum_{j>=m} s^j/j! = e^s P(m, s), s =
    |lam||H| >= |z|, stays below 1 = |e^z|, so the remainders are no larger
    than the exponentials they replace; elsewhere e^z is summed directly.
    """
    W = weyl_group(rs)
    lam = np.atleast_2d(lam)
    H = np.atleast_2d(H)
    n_pos = rs.n_positive
    joint = np.outer(np.linalg.norm(lam, axis=1), np.linalg.norm(H, axis=1))
    near = gammainc(n_pos, joint) < np.exp(-joint)
    num = np.zeros((lam.shape[0], H.shape[0]), dtype=complex)
    for mat, sign in zip(W.matrices, W.signs):
        num += sign * np.exp(1j * (lam @ mat.T) @ H.T)
    rows, cols = np.nonzero(near)
    z = 1j * np.einsum("wij,kj,ki->wk", W.matrices, lam[rows], H[cols])
    num[rows, cols] = W.signs @ _exp_remainder(z, n_pos)
    den = weyl_denominator(rs, H)
    pi_rho = float(np.prod(rs.pairings(rs.rho_c)))
    pi_ilam = (1j ** n_pos) * pi_many(rs, lam)
    return (pi_rho / pi_ilam)[:, None] * num / den[None, :]


def phi_lambda(rs: RootSystem, lam: np.ndarray, H: np.ndarray) -> complex:
    """Spherical function phi_lam(exp H); exact 1 at H = 0."""
    lam = np.asarray(lam, dtype=float).reshape(rs.rank)
    H = np.asarray(H, dtype=float).reshape(rs.rank)
    if np.linalg.norm(H) < 1e-14:
        return 1.0 + 0.0j
    lam_sing = bool(_near_singular(rs, lam)[0])
    H_sing = bool(_near_singular(rs, H)[0])
    if np.linalg.norm(lam) < 1e-14:
        return complex(phi0(rs, H))
    if not lam_sing and not H_sing:
        return complex(_phi_direct(rs, lam, H)[0, 0])
    # removable singularity: polynomial extrapolation along a generic ray
    u = _generic_direction(rs.rank)
    scale = max(np.linalg.norm(lam), np.linalg.norm(H), 1.0)
    tau = 0.05 / scale
    ks = np.arange(1, _EXTRAP_K + 1)
    lam_path = lam[None, :] + (tau * ks)[:, None] * u[None, :] if lam_sing \
        else np.repeat(lam[None, :], _EXTRAP_K, axis=0)
    H_path = H[None, :] + (tau * ks)[:, None] * u[None, :] if H_sing \
        else np.repeat(H[None, :], _EXTRAP_K, axis=0)
    vals = np.array([_phi_direct(rs, lam_path[i], H_path[i])[0, 0]
                     for i in range(_EXTRAP_K)])
    return complex(_EXTRAP_WEIGHTS @ vals)


def phi_lambda_many(rs: RootSystem, lam: np.ndarray, H_pts: np.ndarray) -> np.ndarray:
    """phi_lam at many H for one lam, with singular points patched."""
    lam = np.asarray(lam, dtype=float).reshape(rs.rank)
    H_pts = np.atleast_2d(np.asarray(H_pts, dtype=float))
    if np.linalg.norm(lam) < 1e-14:
        return phi0(rs, H_pts).astype(complex)
    out = np.empty(H_pts.shape[0], dtype=complex)
    ok = ~_near_singular(rs, H_pts)
    if _near_singular(rs, lam)[0]:
        ok[:] = False
    if np.any(ok):
        out[ok] = _phi_direct(rs, lam, H_pts[ok])[0]
    for i in np.nonzero(~ok)[0]:
        out[i] = phi_lambda(rs, lam, H_pts[i])
    return out


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------

def _forward_parts(rs: RootSystem, rgrid: RadialGrid, values: np.ndarray):
    """The fold and the normalisation of the trapezoid spherical transform of
    a stack of values (B, N) on rgrid, for ``_patched``.

    Uses Hf = pi(rho) S(lam) / (i^m pi(lam) |W| 4^m) with
    S(lam) = sum_w det(w) sum_H  wts f D e^{i<w lam, H>},  m = |Sigma+|;
    the normalisation is finite only off the root hyperplanes.
    """
    wts = rgrid.weights * weyl_denominator(rs, rgrid.nodes)
    n_pos = rs.n_positive
    pi_rho = float(np.prod(rs.pairings(rs.rho_c)))
    order = weyl_group(rs).order

    def norm(lam):
        return pi_rho / ((1j ** n_pos) * pi_many(rs, lam) * order * 4.0 ** n_pos)
    return partial(_w_fold, rs, values, wts, rgrid.axis), norm


def _inverse_parts(rs: RootSystem, sgrid: SpectralGrid, values: np.ndarray,
                   constant: float):
    """The fold and the normalisation of the inverse transform of a stack
    (B, M) on sgrid, for ``_patched``; the normalisation is finite only off
    the walls."""
    wts = sgrid.weights * pi_many(rs, sgrid.nodes)
    n_pos = rs.n_positive
    pi_rho = float(np.prod(rs.pairings(rs.rho_c)))

    def norm(H):
        return constant * pi_rho / ((1j ** n_pos) * weyl_denominator(rs, H))
    return partial(_w_fold, rs, values, wts, sgrid.axis), norm


def _patched(rs: RootSystem, grid, fold, norm, box_scale: float,
             at_origin: np.ndarray) -> np.ndarray:
    """Values (B, grid.n_nodes) on the tensor grid ``grid``: ``fold``
    ((pts, tensor) -> (B, points), as ``_w_fold``) times ``norm``
    (points (P, rank) -> (P,)).

    The fold is evaluated on the whole grid, but ``norm`` only on its
    regular points.  Points near a singular set are patched by extrapolation
    from off-grid points along a generic ray, and the origin takes the B
    exact values ``at_origin``."""
    pts = grid.nodes
    sing = _near_singular(rs, pts)
    origin = np.linalg.norm(pts, axis=1) < 1e-14
    regular = ~sing & ~origin
    out = fold(grid.axis, True)
    out[:, regular] *= norm(pts[regular])
    out[:, origin] = at_origin[:, None]
    todo = np.nonzero(sing & ~origin)[0]
    if todo.size:
        u = _generic_direction(rs.rank)
        tau = 0.05 / max(box_scale, 1.0)
        ks = np.arange(1, _EXTRAP_K + 1)
        shifted = (pts[todo][:, None, :]
                   + (tau * ks)[None, :, None] * u[None, None, :])
        shifted = shifted.reshape(-1, rs.rank)
        vals = fold(shifted, False) * norm(shifted)
        out[:, todo] = vals.reshape(-1, todo.size, _EXTRAP_K) @ _EXTRAP_WEIGHTS
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
    at_origin = values @ wdp / weyl_group(rs).order
    return _patched(rs, grid, *_forward_parts(rs, rgrid, values),
                    box_scale=rgrid.box_radius, at_origin=at_origin)


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
    at_origin = C * (values @ wp)
    return _patched(rs, grid, *_inverse_parts(rs, sgrid, values, C),
                    box_scale=sgrid.box_radius, at_origin=at_origin)


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
    from .geometry import integrate_biinvariant
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
    valid = grid.interior_chamber_mask(2)
    coth = np.zeros_like(pair)
    coth[valid] = 1.0 / np.tanh(pair[valid])
    first_order = 2.0 * np.sum(coth * (grad @ rs.roots_c.T), axis=1)
    out = lap.ravel() + first_order
    out[~valid] = np.nan
    return RadialFunction(grid, out)
