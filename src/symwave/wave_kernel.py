"""Wave-propagator kernels through the complex-case radial reduction.

For bi-invariant kernels the spectral integral over the flat part collapses,
after averaging the spherical function over the compact group, to a
one-dimensional integral against the Euclidean shell integral

    S_d(r, s) = (2 pi)^{d/2} r^{d/2} s^{(2-d)/2} J_{(d-2)/2}(r s),

so every kernel value is phi0(H) times an oscillatory half-line integral in
the spectral radius r with phase t sqrt(r^2 + |rho|^2).  Quadrature is split
into a finite region handled by phase-folded Filon panels (exact
linear-phase Legendre moments, residual phase folded into the amplitude)
and an analytic power tail: beyond the point where the cutoff is identically
one, the Bessel factor is split by its large-argument expansion into
e^{+-isr} branches, every remaining smooth factor is expanded in powers of
1/r, and the integrals of the powers against e^{i(t+-s)r} are evaluated in
double precision by numerical steepest descent: a Gauss-Laguerre rule on a
ray into the complex plane, after a short real-axis segment where the
frequency is too low for the ray alone.  Nothing is ever hard-truncated.

The kernel functions take one point H (rank,) or a stack (N, rank); the
point is the N = 1 case of the same code.  A call evaluates one radial
integral per distinct |H| in its stack and keeps nothing between calls.
All the integrals of one (t, piece) are one batched pass: the panel edges
of every |H| step in lockstep, the panels of all of them go through the
Filon engine in blocks of at most ``_FILON_BLOCK``, and the |H|-independent
tail series is built once.  Every per-|H| result is computed row by row and
summed in panel order, so an |H| gets the same bits alone as in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg
from scipy.special import gamma as _cgamma
from scipy.special import jv as _scipy_jv
from scipy.special import spherical_jn as _spherical_jn

from .errors import ConfigError, InconclusiveIntegralError, PoleError
from .geometry import phi0
from .root_system import RootSystem

TAIL_REL_TOL = 1e-8
_SERIES_LEN = 18
_GL_N = 16
_RAY_NODES = 60
_SEG_NODES = 20


# ---------------------------------------------------------------------------
# smooth cutoff pair
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _psi_table():
    """Dense table of the bump-quotient smooth step on [0, 1].

    Built on first use rather than at import (about 12 ms), so the spectral
    workflows, which never evaluate a cutoff, do not pay for it."""
    n = 200_001
    u = np.linspace(0.0, 1.0, n)
    b = np.zeros(n)
    inner = (u > 0) & (u < 1)
    b[inner] = np.exp(-1.0 / (u[inner] * (1.0 - u[inner])))
    cum = np.concatenate([[0.0], np.cumsum((b[1:] + b[:-1]) / 2.0 * (u[1] - u[0]))])
    return u, 1.0 - cum / cum[-1]          # 1 at s=0, 0 at s=1


def smooth_step(s: np.ndarray) -> np.ndarray:
    """Smooth decreasing step: 1 for s <= 0, 0 for s >= 1, C-infinity."""
    s = np.asarray(s, dtype=float)
    u, F = _psi_table()
    return np.interp(s, u, F, left=1.0, right=0.0)


def smooth_step_alt(s: np.ndarray) -> np.ndarray:
    """Second admissible smooth step, for cutoff-independence checks."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    out[s <= 0.0] = 1.0
    out[s >= 1.0] = 0.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    out[mid] = 1.0 / (1.0 + np.exp(1.0 / (1.0 - sm) - 1.0 / sm))
    return out


def chi_pair(r: np.ndarray, variant: str = "bump") -> tuple:
    """Partition of unity (chi0, chiinf): chi0 = 1 on |r|<=1, 0 on |r|>=2,
    built on the step of ``variant``, "bump" or "alt"."""
    steps = {"bump": smooth_step, "alt": smooth_step_alt}
    if variant not in steps:
        raise ConfigError(f"unknown cutoff variant {variant!r}; expected 'bump' or 'alt'")
    c0 = steps[variant](np.abs(np.asarray(r, dtype=float)) - 1.0)
    return c0, 1.0 - c0


# ---------------------------------------------------------------------------
# Bessel machinery
# ---------------------------------------------------------------------------

def _bessel_a(nu: float, m: int) -> np.ndarray:
    """Hankel expansion coefficients a_0..a_{m-1} for order nu."""
    a = np.empty(m)
    a[0] = 1.0
    fournu2 = 4.0 * nu * nu
    for k in range(1, m):
        a[k] = a[k - 1] * (fournu2 - (2 * k - 1) ** 2) / (k * 8.0)
    return a


def bessel_j(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) for nu >= 0, x >= 0, evaluated by ``scipy.special.jv``.

    The wrapper adds the domain check and returns a float for scalar input.
    The name stays because it is public API (exported by ``symwave``) and
    ``perfbench/tracer.py`` instruments it by name.  ``shell_integral`` calls
    it for even dim_X only; for odd dim_X it uses the elementary
    half-integer form (DLMF 10.49) through ``spherical_jn``."""
    x = np.asarray(x, dtype=float)
    if nu < 0 or np.any(x < 0):
        raise ConfigError("bessel_j requires nu >= 0 and x >= 0")
    out = _scipy_jv(nu, x)
    return float(out) if x.ndim == 0 else out


def sphere_area(d: int) -> float:
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def shell_integral(rs: RootSystem, r: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """int_{|lam|=r} e^{-i<x,lam>} dsigma(lam) with |x| = s, in dimension
    d = dim_X; equals the sphere area times r^{d-1} at s = 0.

    ``s`` is a scalar or an array broadcast against ``r``; the result has
    the broadcast shape, and is a float when both are scalars.  For odd d
    the Bessel factor is J_{(d-2)/2}(z) = sqrt(2z/pi) j_{(d-3)/2}(z)."""
    d = rs.dim_X
    nu = (d - 2) / 2.0
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    if np.any(s < 0):
        raise ConfigError("s must be >= 0")
    z = r * s
    out = np.empty(z.shape)
    small = z <= 0.5
    if np.any(small):
        # scaled series Gamma(nu+1) (z/2)^{-nu} J_nu(z), finite at z = 0
        zs = z[small]
        term = np.ones_like(zs)
        acc = term.copy()
        q = (zs / 2.0) ** 2
        for k in range(1, 14):
            term = -term * q / (k * (nu + k))
            acc += term
        out[small] = sphere_area(d) * r[small] ** (d - 1) * acc
    big = ~small
    if np.any(big):
        zl = z[big]
        if d % 2:
            bes = np.sqrt(2.0 * zl / np.pi) * _spherical_jn((d - 3) // 2, zl)
        else:
            bes = bessel_j(nu, zl)
        out[big] = ((2.0 * np.pi) ** (d / 2.0) * r[big] ** (d / 2.0)
                    * s[big] ** ((2.0 - d) / 2.0) * bes)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureControls:
    panels: int = 128                 # width divisor: 2x panels = half widths

    def __post_init__(self):
        if self.panels < 64:
            raise ConfigError("panels must be >= 64")


@dataclass(frozen=True)
class KernelParams:
    t: float
    sigma: complex
    rho_tilde: float | None = None    # defaults to |rho| at use time
    quad: QuadratureControls = field(default_factory=QuadratureControls)

    def __post_init__(self):
        if self.t == 0.0:
            raise ConfigError("t must be nonzero")

    def resolved_rho_tilde(self, rs: RootSystem) -> float:
        rt = rs.rho_norm if self.rho_tilde is None else self.rho_tilde
        if rt < rs.rho_norm * (1.0 - 1e-12):
            raise ConfigError("rho_tilde must be >= |rho|")
        return rt


def _gamma_pole_distance(z: complex) -> float:
    n = max(0, int(round(-z.real)))
    return min(abs(z + m) for m in {max(0, n - 1), n, n + 1})


# ---------------------------------------------------------------------------
# panel quadrature (finite oscillatory pieces)
# ---------------------------------------------------------------------------

_GL_X, _GL_W = _leg.leggauss(_GL_N)
# row n maps samples at the Gauss nodes to the n-th Legendre coefficient,
# times the nonzero part of the moment factor 2 i^n (real for even n,
# imaginary for odd n)
_GL_M = np.array([(-1.0) ** (n // 2) * (2 * n + 1) * _GL_W * _leg.legval(_GL_X, np.eye(n + 1)[n])
                  for n in range(_GL_N)])
_FILON_BLOCK = 1024          # panels per Filon block


def _build_panels(a, b, s, t: float, rho_norm: float,
                  width_scale: float) -> tuple:
    """Panel edges on [a_k, b_k] for every key k at once, with t > 0 and
    a_k >= 0; a, b and s (the key's |H|) broadcast to (K,).  Returns
    (edges, owner): the edges of key k are ``edges[owner == k]``, ascending,
    and keys come in order.

    Each step is the scalar recurrence r -> min(r + max(w(r) scale, 1e-9), b)
    run in lockstep over the keys still short of their b.  The width w is
    bounded by the local scale, 20 rad of phase plus shell oscillation, the
    phase curvature and the shell period.  The curvature goes through
    Python's float power, the C library's pow, because numpy's vectorised
    power differs from it in the last bit on some inputs; so the edges
    equal those of the scalar recurrence bit for bit."""
    a, b, s = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                    for v in (a, b, s)))
    rho2 = rho_norm ** 2
    stop = b - 1e-14 * np.maximum(1.0, b)
    live = np.flatnonzero(a < stop)
    r, sl, bl, stopl = a[live], s[live], b[live], stop[live]
    cap = 6.0 / (sl + 1e-30)
    parts, owners = [a], [np.arange(a.size)]
    while live.size:
        q = r * r + rho2
        rate = t * r / np.sqrt(q) + sl
        curv = t * rho2 / np.array([x ** 1.5 for x in q.tolist()])
        w = np.where(r < 2.5 * rho_norm,
                     np.minimum(0.5 * np.maximum(r, 0.3 * rho_norm), rho_norm / 3.0), 0.5 * r)
        w = np.minimum(np.minimum(w, cap),
                       np.minimum(20.0 / (rate + 1e-30), np.sqrt(0.8 / (curv + 1e-30))))
        r = np.minimum(r + np.maximum(w * width_scale, 1e-9), bl)
        parts.append(r)
        owners.append(live)
        if len(parts) > 400_000:
            raise InconclusiveIntegralError("panel count exploded")
        more = r < stopl
        if not more.all():
            live, r, sl, bl, stopl, cap = (x[more] for x in (live, r, sl, bl, stopl, cap))
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return np.concatenate(parts)[order], owner[order]


def _rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m summed term by term.  A BLAS product's rows change in the last
    bit with the number of rows; these depend on their own row only."""
    out = x[:, 0, None] * m[0]
    for j in range(1, len(m)):
        out += x[:, j, None] * m[j]
    return out


def _filon_sums(amp_fn, phase_fn, dphase_fn, edges: np.ndarray,
                owner: np.ndarray, out: np.ndarray) -> None:
    """Add to out[k] the phase-folded Filon-Legendre sum over the panels
    between consecutive edges of the same owner k (edges and owner as
    returned by ``_build_panels``, owner mapped to indices of out).

    Per panel the phase is linearized at the midpoint; the residual phase is
    folded into the amplitude samples, so the only error is the Legendre
    resolution of the folded amplitude.  Linear-phase moments are exact:
    int_-1^1 P_n(x) e^{i kappa x} dx = 2 i^n j_n(kappa), with j_n from
    ``scipy.special.spherical_jn`` on the signed kappa (it applies
    j_n(-kappa) = (-1)^n j_n(kappa) itself), accurate for every kappa.
    ``amp_fn(nodes, k)`` gets the (P, 16) Gauss nodes and the owner of each
    panel.  Panels go in blocks of at most ``_FILON_BLOCK``: a profile can
    hold 10^5 panels, and unblocked work arrays would take hundreds of MB.
    Every step is row by row and ``np.add.at`` adds the panels in order, so
    out[k] does not depend on the block boundaries or on other owners.
    """
    inner = np.flatnonzero(owner[1:] == owner[:-1])
    for start in range(0, inner.size, _FILON_BLOCK):
        i = inner[start:start + _FILON_BLOCK]
        lo, hi, k = edges[i], edges[i + 1], owner[i]
        mids = (hi + lo) / 2.0
        hws = (hi - lo) / 2.0
        nodes = mids[:, None] + hws[:, None] * _GL_X
        phi, dphi = phase_fn(mids), dphase_fn(mids)
        A = amp_fn(nodes, k) * np.exp(1j * (phase_fn(nodes) - phi[:, None]
                                            - dphi[:, None] * (nodes - mids[:, None])))
        jn = _spherical_jn(np.arange(_GL_N), (dphi * hws)[:, None])
        G = _rowwise(jn[:, 0::2], _GL_M[0::2]) + 1j * _rowwise(jn[:, 1::2], _GL_M[1::2])
        np.add.at(out, k, hws * np.exp(1j * phi) * np.sum(A * G, axis=1))


# ---------------------------------------------------------------------------
# analytic power tail
# ---------------------------------------------------------------------------

def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)[:_SERIES_LEN]


def _series_binom(alpha: complex, c: float) -> np.ndarray:
    """Coefficients of (1 + c u)^alpha in u = r^-2, mapped onto powers r^-k."""
    out = np.zeros(_SERIES_LEN, dtype=complex)
    coef = 1.0 + 0.0j
    q = 0
    while 2 * q < _SERIES_LEN:
        out[2 * q] = coef
        coef *= (alpha - q) / (q + 1) * c
        q += 1
    return out


def _series_exp(a: np.ndarray) -> np.ndarray:
    """exp of a power series with vanishing constant term."""
    out = np.zeros(_SERIES_LEN, dtype=complex)
    out[0] = 1.0
    term = np.zeros(_SERIES_LEN, dtype=complex)
    term[0] = 1.0
    for p in range(1, _SERIES_LEN):
        term = _series_mul(term, a) / p
        out += term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


def _phase_correction_series(rho_norm: float, t: float) -> np.ndarray:
    """Series of exp(i t (sqrt(r^2+rho^2) - r)) in powers of 1/r."""
    g = np.zeros(_SERIES_LEN, dtype=complex)
    coef = 0.5
    q = 1
    while 2 * q - 1 < _SERIES_LEN:
        g[2 * q - 1] = coef * rho_norm ** (2 * q)
        coef *= (0.5 - q) / (q + 1)
        q += 1
    return _series_exp(1j * t * g)


# Gauss-Laguerre rule of the steepest-descent ray and Gauss-Legendre rule of
# one real-axis panel
_RAY_X, _RAY_W = np.polynomial.laguerre.laggauss(_RAY_NODES)
_SEG_X, _SEG_W = _leg.leggauss(_SEG_NODES)


def _power_tail_orders(p0: complex, xi: float, R: float, K: int) -> np.ndarray:
    """M_k = int_R^inf r^{-(p0+k)} e^{i xi r} dr for k = 0..K-1, by numerical
    steepest descent (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006).

    From a start R1 >= R the path turns onto the ray
    r = R1 + i sgn(xi) x/|xi|, on which e^{i xi r} = e^{i xi R1} e^{-x}, and a
    60-node Gauss-Laguerre rule in x integrates the powers; for Re p <= 1
    this is the analytic continuation in p.  The rule needs the branch point
    r = 0 far from the ray on the scale 1/|xi|: |xi| R1 >= 10, and
    |xi| R1 >= 0.6 |p| for the largest order, which otherwise loses digits
    at |xi| R1 = 10 once |p| exceeds about 20.  Where |xi| R is below that,
    a Gauss-Legendre segment on the real axis covers [R, R1] first, on
    geometric panels of ratio <= 2 that each span at most 1 rad of phase.
    Every order shares the nodes: the powers are base^{-p0} times running
    products of 1/base.  For Re p0 < 1 and |xi| R << 1 segment and ray
    cancel, and the relative error grows from ~1e-13 to ~1e-10 at
    p0 = -5 + i.  Below |xi| = 1e-13 the zero-frequency continuation
    R^{1-p}/(p-1) is returned.
    """
    if abs(xi) < 1e-13:
        out = np.empty(K, dtype=complex)
        for k in range(K):
            p = p0 + k
            if abs(p - 1.0) < 1e-9:
                raise InconclusiveIntegralError(
                    "power tail divergent at zero asymptotic frequency")
            out[k] = R ** (1.0 - p) / (p - 1.0)
        return out
    scale = 1.0 / abs(xi)                     # one radian of phase
    R1 = max(R, max(10.0, 0.6 * abs(p0 + (K - 1))) * scale)
    rot = math.copysign(1.0, xi) * 1j * scale
    base = R1 + rot * _RAY_X
    w = rot * np.exp(1j * xi * R1) * _RAY_W
    if R1 > R:
        J = math.ceil(math.log2(scale / R)) if R < scale else 0
        start = R * 2.0 ** J                  # panels from here are <= 1 rad
        edges = np.concatenate([R * 2.0 ** np.arange(J), np.linspace(
            start, R1, math.ceil((R1 - start) / scale) + 1)])
        mid = (edges[1:] + edges[:-1]) / 2.0
        hw = (edges[1:] - edges[:-1]) / 2.0
        r = (mid[:, None] + hw[:, None] * _SEG_X).ravel()
        base = np.concatenate([r, base])
        w = np.concatenate([(hw[:, None] * _SEG_W).ravel() * np.exp(1j * xi * r), w])
    powers = np.empty((K, base.size), dtype=complex)
    powers[0] = w * base ** (-p0)
    powers[1:] = 1.0 / base
    np.cumprod(powers, axis=0, out=powers)
    return powers.sum(axis=1)


def _tail_series(rs: RootSystem, sigma: complex, rho_tilde: float, t: float) -> tuple:
    """The |H|-independent parts of the tail: the series of
    (r^2 + rho_tilde^2)^{-sigma/2} e^{i t (sqrt(r^2+rho^2) - r)} in 1/r, and
    the Hankel coefficients of the shell's Bessel order."""
    common = _series_mul(_series_binom(-sigma / 2.0, rho_tilde ** 2),
                         _phase_correction_series(rs.rho_norm, t))
    return common, _bessel_a((rs.dim_X - 2) / 2.0, _SERIES_LEN)


def _tail_value(rs: RootSystem, sigma: complex, t: float, s: float, R: float,
                series: tuple) -> tuple:
    """Analytic value of the high-frequency integrand tail on [R, inf), from
    the ``_tail_series`` of (sigma, rho_tilde, t)."""
    d = rs.dim_X
    nu = (d - 2) / 2.0
    common, a = series
    if s == 0.0:
        coeffs = sphere_area(d) * common
        p0 = sigma - (d - 1.0)
        M = _power_tail_orders(p0, t, R, _SERIES_LEN)
        return complex(np.sum(coeffs * M)), abs(coeffs[-1] * M[-1])
    total = 0.0 + 0.0j
    err = 0.0
    theta = nu * np.pi / 2.0 + np.pi / 4.0
    p0 = sigma - (d - 1.0) / 2.0
    for pm in (+1.0, -1.0):
        br = a * (pm * 1j) ** np.arange(_SERIES_LEN) * s ** (-np.arange(_SERIES_LEN, dtype=float))
        coeffs = _series_mul(common, br)
        pref = ((2.0 * np.pi) ** ((d - 1) / 2.0)
                * np.exp(-1j * pm * theta) * s ** ((1.0 - d) / 2.0))
        M = _power_tail_orders(p0, t + pm * s, R, _SERIES_LEN)
        total += pref * complex(np.sum(coeffs * M))
        err += abs(pref) * (abs(coeffs[-1] * M[-1])
                            + abs(a[-1]) * (R * s) ** (-_SERIES_LEN + 0.5)
                            * abs(M[0]) * s ** (-0.5))
    return total, err


# ---------------------------------------------------------------------------
# the spectral-radius integrals
# ---------------------------------------------------------------------------

def _radial_profile(rs: RootSystem, p: KernelParams, piece: str, s: np.ndarray,
                    chi_variant: str) -> np.ndarray:
    """Spectral integral of one piece at the radii s (N,),

        int_0^inf chi(r/|rho|) (r^2+rt^2)^{-sigma/2} e^{i t phi(r)} S_d(r,s) dr

    with chi = chi0 (piece 'low') or chiinf (piece 'high'), once per distinct
    ``round(|H|, 12)`` (Python's round; ``np.round`` is one ulp off on some
    radii).  The key matters on the light cone |H| = t, where the high piece
    moves by up to 1.5 relative under a 1e-13 shift of |H| and every sweep
    has a node.  For t < 0 the conjugate problem at (-t, conj sigma) is
    solved and conjugated back.

    All keys go through one batched pass (``_profile_pass``): lockstep panel
    edges, one Filon engine over the panels of every key in blocks of at
    most ``_FILON_BLOCK`` (a profile can hold 10^5 panels, and unblocked work
    arrays reach hundreds of MB), and the tail series built once.
    """
    keys, inverse = np.unique([round(x, 12) for x in s.tolist()], return_inverse=True)
    t, sigma = float(p.t), complex(p.sigma)
    if t < 0:
        t, sigma = -t, sigma.conjugate()
    try:
        vals = _profile_pass(rs, sigma, p.resolved_rho_tilde(rs), t, keys,
                             128.0 / p.quad.panels, piece, chi_variant)
    except InconclusiveIntegralError as exc:
        if p.t > 0:
            raise
        raise InconclusiveIntegralError(
            f"{exc}, the conjugate of the problem at t = {p.t:.6g}, sigma = {complex(p.sigma):.6g}",
            tail_bound=exc.tail_bound, accumulated=exc.accumulated) from None
    return (vals.conj() if p.t < 0 else vals)[inverse]


def _profile_pass(rs: RootSystem, sigma: complex, rho_tilde: float, t: float,
                  s: np.ndarray, width_scale: float, piece: str,
                  chi_variant: str) -> np.ndarray:
    """The integrals of ``_radial_profile`` at the distinct radii s (K,), t > 0.

    The low piece is one set of panels on [0, 2|rho|].  The high piece has
    panels on [|rho|, R_k] and the analytic tail beyond R_k; each key whose
    tail error estimate is not below ``TAIL_REL_TOL`` of its mass moves R_k
    out by 1.7, and only those keys get panels on the new stretch."""
    assert t > 0
    rho_norm = rs.rho_norm
    out = np.zeros(s.size, dtype=complex)

    def amp(r, k):
        c0, cinf = chi_pair(r / rho_norm, chi_variant)
        return ((c0 if piece == "low" else cinf) * (r * r + rho_tilde ** 2) ** (-sigma / 2.0)
                * shell_integral(rs, r, s[k][:, None]))

    def add_panels(keys, a, b):
        edges, owner = _build_panels(a, b, s[keys], t, rho_norm, width_scale)
        _filon_sums(amp, lambda r: t * np.sqrt(r * r + rho_norm ** 2),
                    lambda r: t * r / np.sqrt(r * r + rho_norm ** 2),
                    edges, keys[owner], out)

    pending = np.arange(s.size)
    if piece == "low":
        add_panels(pending, 0.0, 2.0 * rho_norm)
        return out

    def context(k):
        return f"{piece} piece at t = {t:.6g}, |H| = {s[k]:.6g}, sigma = {sigma:.6g}"

    s_eff = np.where(s < 1e-4, 0.0, s)
    R = np.maximum(max(2.0 * rho_norm, 2.0 * rho_tilde, t * rho_norm ** 2),
                   12.0 / np.where(s_eff > 0.0, s_eff, np.inf))
    far = np.flatnonzero(R > 5e6)
    if far.size:
        raise InconclusiveIntegralError(
            f"analytic-tail start R = {R[far[0]]:.2e} out of reach ({context(far[0])})")
    add_panels(pending, rho_norm, R)
    series = _tail_series(rs, sigma, rho_tilde, t)
    last, stopped = {}, []
    for _ in range(12):
        short = []
        for k in pending.tolist():
            tail, tail_err = _tail_value(rs, sigma, t, s_eff[k], R[k], series)
            mass = abs(out[k]) + abs(tail)
            if tail_err <= TAIL_REL_TOL * max(mass, 1e-300):
                out[k] += tail
            else:
                last[k] = (tail_err, mass)
                short.append(k)
        pending = np.array(short, dtype=int)
        reach = 1.7 * R[pending] <= 5e6
        stopped += pending[~reach].tolist()
        pending = pending[reach]
        if not pending.size:
            break
        add_panels(pending, R[pending], 1.7 * R[pending])
        R[pending] *= 1.7
    failing = stopped + pending.tolist()
    if failing:
        k = min(failing)
        tail_err, mass = last[k]
        raise InconclusiveIntegralError(
            f"tail estimate {tail_err:.2e} above {TAIL_REL_TOL:.0e} of mass {mass:.2e}; "
            f"panels reached R = {R[k]:.2e} ({context(k)})",
            tail_bound=tail_err, accumulated=mass)
    return out


def _kernel(rs: RootSystem, p: KernelParams, H: np.ndarray, piece: str,
            chi_variant: str):
    """Kernel piece at one point (rank,) or a stack (N, rank) of chamber
    points.  Each row's phi0 and |H| come from a (1, rank) product of its
    own, and all arithmetic is on (N,) arrays (numpy's scalar complex
    product can differ in the last bit), so a point gets the same bits
    alone as in any stack."""
    sigma = complex(p.sigma)
    if piece != "low":
        z = (rs.dim_X + 1) / 2.0 - sigma
        if _gamma_pole_distance(z) < 1e-8:
            raise PoleError(f"sigma within 1e-8 of a Gamma pole (argument {z})")
    H = np.asarray(H, dtype=float)
    single = H.ndim < 2
    rows = H.reshape(1 if single else len(H), 1, rs.rank)
    outside = np.flatnonzero(~np.all(rows[:, 0] @ rs.simple_c.T >= -1e-9, axis=1))
    if outside.size:
        i = outside[0]
        raise ConfigError(f"{'H' if single else f'H[{i}]'} = {rows[i, 0].tolist()} "
                          "is outside the closed positive chamber")
    w = phi0(rs, rows)[:, 0]
    s = np.sqrt(rows @ rows.transpose(0, 2, 1))[:, 0, 0]
    if piece != "high_reg":
        vals = w * _radial_profile(rs, p, "low", s, chi_variant)
    if piece != "low":
        high = (w * (np.exp(sigma ** 2) / _cgamma(z))
                * _radial_profile(rs, p, "high", s, chi_variant))
        vals = high if piece == "high_reg" else vals + _cgamma(z) * np.exp(-sigma ** 2) * high
    return complex(vals[0]) if single else vals


def kernel_low(rs: RootSystem, p: KernelParams, H: np.ndarray,
               chi_variant: str = "bump"):
    """Low-frequency kernel piece; compactly supported cutoff, no
    regularization factor."""
    return _kernel(rs, p, H, "low", chi_variant)


def kernel_high_regularized(rs: RootSystem, p: KernelParams, H: np.ndarray,
                            chi_variant: str = "bump"):
    """Regularized high-frequency kernel
    phi0(H) e^{sigma^2}/Gamma((d+1)/2 - sigma) * (spectral integral)."""
    return _kernel(rs, p, H, "high_reg", chi_variant)


def kernel_total(rs: RootSystem, p: KernelParams, H: np.ndarray,
                 chi_variant: str = "bump"):
    """Full kernel: low piece plus the unregularized high piece
    Gamma((d+1)/2 - sigma) e^{-sigma^2} * (regularized high piece)."""
    return _kernel(rs, p, H, "total", chi_variant)


def kernel_piece(rs: RootSystem, p: KernelParams, H: np.ndarray, piece: str,
                 chi_variant: str = "bump"):
    """Kernel piece "low", "high_reg" or "total" at one point H (rank,), as a
    complex number, or at a stack H (N, rank), as an (N,) array."""
    if piece not in ("low", "high_reg", "total"):
        raise ConfigError(f"unknown kernel piece {piece!r}")
    return _kernel(rs, p, H, piece, chi_variant)


def with_doubled_panels(p: KernelParams) -> KernelParams:
    return replace(p, quad=replace(p.quad, panels=p.quad.panels * 2))
