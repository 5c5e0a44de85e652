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
1/r, and each power integrates against e^{i(t+-s)r} in closed form through
the generalized exponential integral.  Nothing is ever hard-truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import mpmath
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


# ---------------------------------------------------------------------------
# smooth cutoff pair
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _psi_table():
    """Dense table of the bump-quotient smooth step on [0, 1]."""
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
    """Partition of unity (chi0, chiinf): chi0 = 1 on |r|<=1, 0 on |r|>=2."""
    step = smooth_step if variant == "bump" else smooth_step_alt
    c0 = step(np.abs(np.asarray(r, dtype=float)) - 1.0)
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
    The name stays because it is public API (exported by ``symwave``), it is
    the one Bessel call of ``shell_integral``, and ``perfbench/tracer.py``
    instruments it by name."""
    x = np.asarray(x, dtype=float)
    if nu < 0 or np.any(x < 0):
        raise ConfigError("bessel_j requires nu >= 0 and x >= 0")
    out = _scipy_jv(nu, x)
    return float(out) if x.ndim == 0 else out


def sphere_area(d: int) -> float:
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def shell_integral(rs: RootSystem, r: np.ndarray, s: float) -> np.ndarray:
    """int_{|lam|=r} e^{-i<x,lam>} dsigma(lam) with |x| = s, in dimension
    d = dim_X; equals the sphere area times r^{d-1} at s = 0."""
    d = rs.dim_X
    nu = (d - 2) / 2.0
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if s < 0:
        raise ConfigError("s must be >= 0")
    z = r * s
    out = np.empty_like(r)
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
    if np.any(~small):
        rl = r[~small]
        out[~small] = ((2.0 * np.pi) ** (d / 2.0) * rl ** (d / 2.0)
                       * s ** ((2.0 - d) / 2.0) * bessel_j(nu, rl * s))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureControls:
    r_max: float | None = None        # lower bound for the analytic-tail start
    panels: int = 128                 # width divisor: 2x panels = half widths
    oracle_mode: bool = False

    def __post_init__(self):
        if self.panels < 64:
            raise ConfigError("panels must be >= 64")

    def validate_for(self, rho_norm: float, t: float) -> None:
        if self.r_max is not None and self.r_max < 4.0 * max(rho_norm, 1.0 / abs(t)):
            raise ConfigError("r_max below 4*max(|rho|, 1/|t|)")


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

@lru_cache(maxsize=1)
def _gl_tables():
    x, w = np.polynomial.legendre.leggauss(_GL_N)
    L = np.empty((_GL_N, _GL_N))
    for nn in range(_GL_N):
        c = np.zeros(nn + 1)
        c[nn] = 1.0
        L[nn] = (2 * nn + 1) / 2.0 * w * _leg.legval(x, c)
    return x, w, L


def _build_panels(a: float, b: float, width_fn, width_scale: float) -> np.ndarray:
    edges = [a]
    r = a
    while r < b - 1e-14 * max(1.0, b):
        w = max(width_fn(r) * width_scale, 1e-9)
        r = min(r + w, b)
        edges.append(r)
        if len(edges) > 400_000:
            raise InconclusiveIntegralError("panel count exploded")
    return np.asarray(edges)


def _filon_integrate(amp_fn, phase_fn, dphase_fn, edges: np.ndarray) -> complex:
    """Sum of phase-folded Filon-Legendre panels.

    Per panel the phase is linearized at the midpoint; the residual phase is
    folded into the amplitude samples, so the only error is the Legendre
    resolution of the folded amplitude.  Linear-phase moments are exact:
    int_-1^1 P_n(x) e^{i kappa x} dx = 2 i^n j_n(kappa), with j_n from
    ``scipy.special.spherical_jn`` on the signed kappa (it applies
    j_n(-kappa) = (-1)^n j_n(kappa) itself), accurate for every kappa.
    """
    x, _, L = _gl_tables()
    mids = (edges[1:] + edges[:-1]) / 2.0
    hws = (edges[1:] - edges[:-1]) / 2.0
    nodes = mids[:, None] + hws[:, None] * x[None, :]
    flat = nodes.ravel()
    A = amp_fn(flat).reshape(nodes.shape).astype(complex)
    Phi = phase_fn(flat).reshape(nodes.shape)
    kappa = dphase_fn(mids) * hws
    resid = Phi - phase_fn(mids)[:, None] - dphase_fn(mids)[:, None] * (nodes - mids[:, None])
    A *= np.exp(1j * resid)
    coef = A @ L.T                       # (panels, n) Legendre coefficients
    n = np.arange(_GL_N)
    moments = 2.0 * 1j ** n[None, :] * _spherical_jn(n[None, :], kappa[:, None])
    vals = hws * np.exp(1j * phase_fn(mids)) * np.sum(coef * moments, axis=1)
    return complex(np.sum(vals))


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


def _expint_value(p: complex, xi: float, R: float) -> complex:
    with mpmath.workdps(30):
        e = mpmath.expint(mpmath.mpc(p), mpmath.mpc(-1j * xi * R))
        return complex(mpmath.power(R, 1 - mpmath.mpc(p)) * e)


def _power_tail_orders(p0: complex, xi: float, R: float, K: int) -> np.ndarray:
    """M_k = int_R^inf r^{-(p0+k)} e^{i xi r} dr for k = 0..K-1.

    One generalized exponential integral seeds a three-term recurrence from
    integration by parts, M(p+1) = (i xi M(p) + R^{-p} e^{i xi R}) / p, run
    upward when |xi| R is moderate and downward (the numerically stable
    direction for fast oscillation, where the upward form cancels) when
    |xi| R is large.
    """
    out = np.empty(K, dtype=complex)
    if abs(xi) < 1e-13:
        for k in range(K):
            p = p0 + k
            if abs(p - 1.0) < 1e-9:
                raise InconclusiveIntegralError(
                    "power tail divergent at zero asymptotic frequency")
            out[k] = R ** (1.0 - p) / (p - 1.0)
        return out
    bdry = np.exp(1j * xi * R)
    if abs(xi) * R <= 2.0 * (K + abs(p0) + 5.0):
        out[0] = _expint_value(p0, xi, R)
        for k in range(1, K):
            p = p0 + (k - 1)
            out[k] = (1j * xi * out[k - 1] + R ** (-p) * bdry) / p
    else:
        out[K - 1] = _expint_value(p0 + (K - 1), xi, R)
        for k in range(K - 2, -1, -1):
            p = p0 + k
            out[k] = (p * out[k + 1] - R ** (-p) * bdry) / (1j * xi)
    return out


def _tail_value(rs: RootSystem, sigma: complex, rho_tilde: float, t: float,
                s: float, R: float) -> tuple:
    """Analytic value of the high-frequency integrand tail on [R, inf)."""
    d = rs.dim_X
    nu = (d - 2) / 2.0
    rho_norm = rs.rho_norm
    common = _series_mul(_series_binom(-sigma / 2.0, rho_tilde ** 2),
                         _phase_correction_series(rho_norm, t))
    total = 0.0 + 0.0j
    err = 0.0
    if s == 0.0:
        coeffs = sphere_area(d) * common
        p0 = sigma - (d - 1.0)
        M = _power_tail_orders(p0, t, R, _SERIES_LEN)
        total = complex(np.sum(coeffs * M))
        err = abs(coeffs[-1] * M[-1])
        return total, err
    a = _bessel_a(nu, _SERIES_LEN)
    theta = nu * np.pi / 2.0 + np.pi / 4.0
    p0 = sigma - (d - 1.0) / 2.0
    for pm in (+1.0, -1.0):
        br = a * (pm * 1j) ** np.arange(_SERIES_LEN) * s ** (-np.arange(_SERIES_LEN, dtype=float))
        coeffs = _series_mul(common, br.astype(complex))
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

def _radial_integral(rs: RootSystem, sigma: complex, rho_tilde: float,
                     t: float, s: float, quad: QuadratureControls,
                     piece: str, chi_variant: str = "bump") -> complex:
    """int_0^inf chi(r/|rho|) (r^2+rt^2)^{-sigma/2} e^{i t phi(r)} S_d(r,s) dr
    with chi = chi0 (piece 'low') or chiinf (piece 'high'); t > 0."""
    assert t > 0
    rho_norm = rs.rho_norm

    def phase(r):
        return t * np.sqrt(r * r + rho_norm ** 2)

    def dphase(r):
        return t * r / np.sqrt(r * r + rho_norm ** 2)

    def d2phase(r):
        return t * rho_norm ** 2 / (r * r + rho_norm ** 2) ** 1.5

    def amp(r, which):
        c0, cinf = chi_pair(r / rho_norm, chi_variant)
        chi = c0 if which == "low" else cinf
        return (chi * (r * r + rho_tilde ** 2) ** (-sigma / 2.0)
                * shell_integral(rs, r, s))

    width_scale = 128.0 / quad.panels

    def width(r):
        rate = abs(dphase(r)) + s
        w = min(0.5 * max(r, 0.3 * rho_norm), rho_norm / 3.0 if r < 2.5 * rho_norm else 0.5 * r)
        w = min(w, 20.0 / (rate + 1e-30))
        w = min(w, math.sqrt(0.8 / (abs(d2phase(r)) + 1e-30)))
        return min(w, 6.0 / (s + 1e-30))

    if piece == "low":
        edges = _build_panels(0.0, 2.0 * rho_norm, width, width_scale)
        return _filon_integrate(lambda r: amp(r, "low"), phase, dphase, edges)

    s_eff = 0.0 if s < 1e-4 else s
    R_split = max(2.0 * rho_norm, 2.0 * rho_tilde, t * rho_norm ** 2)
    if quad.r_max is not None:
        R_split = max(R_split, quad.r_max)
    if s_eff > 0.0:
        R_split = max(R_split, 12.0 / s_eff)
    if R_split > 5e6:
        raise InconclusiveIntegralError(
            f"analytic-tail start {R_split:.2e} out of reach; s too small")
    finite = _filon_integrate(lambda r: amp(r, "high"), phase, dphase,
                              _build_panels(rho_norm, R_split, width, width_scale))
    # push the analytic-tail start outward until its own error estimate is
    # negligible against the accumulated mass
    for _ in range(12):
        tail, tail_err = _tail_value(rs, sigma, rho_tilde, t, s_eff, R_split)
        mass = abs(finite) + abs(tail)
        if tail_err <= TAIL_REL_TOL * max(mass, 1e-300):
            return finite + tail
        R_next = 1.7 * R_split
        if R_next > 5e6:
            break
        finite += _filon_integrate(lambda r: amp(r, "high"), phase, dphase,
                                   _build_panels(R_split, R_next, width, width_scale))
        R_split = R_next
    raise InconclusiveIntegralError(
        f"tail estimate {tail_err:.2e} above {TAIL_REL_TOL:.0e} of mass {mass:.2e}",
        tail_bound=tail_err, accumulated=mass)


def _oracle_integral(rs: RootSystem, sigma: complex, rho_tilde: float,
                     t: float, s: float, piece: str,
                     r_big: float = 4e4) -> complex:
    """Brute-force dense reference integrator: plain Gauss panels sized to a
    quarter-period of the fastest oscillation, with a smooth roll-off over
    the last octave instead of a hard truncation.  Shares nothing with the
    production tail machinery."""
    assert t > 0
    rho_norm = rs.rho_norm
    x, w = np.polynomial.legendre.leggauss(20)

    def integrand(r):
        c0, cinf = chi_pair(r / rho_norm)
        chi = c0 if piece == "low" else cinf
        vals = (chi * (r * r + rho_tilde ** 2) ** (-sigma / 2.0)
                * shell_integral(rs, r, s)
                * np.exp(1j * t * np.sqrt(r * r + rho_norm ** 2)))
        if piece != "low":
            vals = vals * smooth_step(2.0 * r / r_big - 1.0)
        return vals

    b = 2.0 * rho_norm if piece == "low" else r_big
    rate = t + s + 0.1
    n_panels = int(np.ceil(b * rate / (np.pi / 4.0)))
    edges = np.linspace(0.0, b, n_panels + 1)
    mids = (edges[1:] + edges[:-1]) / 2.0
    hws = (edges[1:] - edges[:-1]) / 2.0
    total = 0.0 + 0.0j
    chunk = 200_000
    for i0 in range(0, mids.size, chunk):
        m = mids[i0:i0 + chunk, None]
        h = hws[i0:i0 + chunk, None]
        nodes = (m + h * x[None, :]).ravel()
        vals = integrand(nodes).reshape(-1, x.size)
        total += complex(np.sum(h[:, 0] * (vals @ w)))
    return total


@lru_cache(maxsize=200_000)
def _kernel_radial_cached(tag: str, piece: str, t: float, sigma: complex,
                          rho_tilde: float, s: float,
                          quad: QuadratureControls, chi_variant: str) -> complex:
    from .root_system import root_system_from_tag
    rs = root_system_from_tag(tag)
    if t < 0:
        return complex(np.conj(_kernel_radial_cached(
            tag, piece, -t, np.conj(sigma), rho_tilde, s, quad, chi_variant)))
    if quad.oracle_mode:
        return _oracle_integral(rs, sigma, rho_tilde, t, s, piece)
    return _radial_integral(rs, sigma, rho_tilde, t, s, quad, piece, chi_variant)


def _spectral_factor(rs: RootSystem, p: KernelParams, H: np.ndarray,
                     piece: str, chi_variant: str) -> complex:
    H = np.asarray(H, dtype=float).reshape(rs.rank)
    if not rs.in_closed_chamber(H, tol=1e-9):
        raise ConfigError("H must lie in the closed positive chamber")
    p.quad.validate_for(rs.rho_norm, p.t)
    s = float(np.linalg.norm(H))
    return _kernel_radial_cached(rs.tag, piece, float(p.t), complex(p.sigma),
                                 p.resolved_rho_tilde(rs), round(s, 12),
                                 p.quad, chi_variant)


def kernel_low(rs: RootSystem, p: KernelParams, H: np.ndarray,
               chi_variant: str = "bump") -> complex:
    """Low-frequency kernel piece; compactly supported cutoff, no
    regularization factor."""
    return complex(phi0(rs, np.asarray(H, dtype=float))
                   * _spectral_factor(rs, p, H, "low", chi_variant))


def kernel_high_regularized(rs: RootSystem, p: KernelParams, H: np.ndarray,
                            chi_variant: str = "bump") -> complex:
    """Regularized high-frequency kernel
    phi0(H) e^{sigma^2}/Gamma((d+1)/2 - sigma) * (spectral integral)."""
    z = (rs.dim_X + 1) / 2.0 - complex(p.sigma)
    if _gamma_pole_distance(z) < 1e-8:
        raise PoleError(f"sigma within 1e-8 of a Gamma pole (argument {z})")
    pref = np.exp(complex(p.sigma) ** 2) / _cgamma(z)
    return complex(phi0(rs, np.asarray(H, dtype=float)) * pref
                   * _spectral_factor(rs, p, H, "high", chi_variant))


def kernel_total(rs: RootSystem, p: KernelParams, H: np.ndarray,
                 chi_variant: str = "bump") -> complex:
    """Full kernel: low piece plus the unregularized high piece."""
    z = (rs.dim_X + 1) / 2.0 - complex(p.sigma)
    if _gamma_pole_distance(z) < 1e-8:
        raise PoleError(f"sigma within 1e-8 of a Gamma pole (argument {z})")
    unreg = _cgamma(z) * np.exp(-complex(p.sigma) ** 2)
    return complex(kernel_low(rs, p, H, chi_variant)
                   + unreg * kernel_high_regularized(rs, p, H, chi_variant))


_PIECES = {"low": kernel_low, "high_reg": kernel_high_regularized,
           "total": kernel_total}


def kernel_piece(rs: RootSystem, p: KernelParams, H: np.ndarray, piece: str,
                 chi_variant: str = "bump") -> complex:
    try:
        fn = _PIECES[piece]
    except KeyError:
        raise ConfigError(f"unknown kernel piece {piece!r}") from None
    return fn(rs, p, H, chi_variant)


def with_doubled_panels(p: KernelParams) -> KernelParams:
    return replace(p, quad=replace(p.quad, panels=p.quad.panels * 2))
