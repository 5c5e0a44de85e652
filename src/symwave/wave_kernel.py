"""Wave-propagator kernels through the complex-case radial reduction.

For bi-invariant kernels the spectral integral over the flat part collapses,
after averaging the spherical function over the compact group, to a
one-dimensional integral against the Euclidean shell integral

    S_d(r, s) = (2 pi)^{d/2} r^{d/2} s^{(2-d)/2} J_{(d-2)/2}(r s)
              = |S^{d-1}| r^{d-1} 0F1(; d/2; -(r s)^2/4),

evaluated through ``hyp0f1`` for even d and ``spherical_jn`` for odd d,
so every kernel value is phi0(H) times an oscillatory half-line integral in
the spectral radius r with phase t sqrt(r^2 + |rho|^2).  For the total
kernel that integral has no cutoff; only the low and high pieces weigh it
by chi0 or chiinf = 1 - chi0 on the step ``KernelParams.cutoff``.
Quadrature is split into a finite region handled by phase-folded Filon
panels and an analytic power tail.  A Filon panel linearises the phase at
its midpoint with a frequency kappa rounded to a multiple of 1/16, so that
one block of panels needs exact linear-phase Legendre moments only at its
few distinct kappa; the rest of the phase, including the rounding and the
factor e^{-i Im(sigma)/2 ln(r^2+rt^2)}, is folded into the amplitude
samples.  Below r|H| = 40 and below 2|rho|, where the cutoffs vary, the
pre-fold amplitude is real and holds J_nu(r|H|), so a panel is no wider
than the shell's period.  Past that cut the shell is split into its Hankel
branches, J_nu = (H1_nu + H2_nu)/2: a panel carries the slowly varying
hankel1e amplitude and its conjugate against the phase plus and minus
|H| r, and only the local scale and the phase curvature bound its width.
Beyond the panels' end R, where chiinf = 1 and the high integrand is the
total's, the Bessel factor is split by its large-argument expansion into
e^{+-isr} branches, every remaining smooth factor is expanded in powers of
1/r, and the integrals of the powers against e^{i(t+-s)r} are evaluated in
double precision: numerical steepest descent (a Gauss-Laguerre rule on a
ray into the complex plane, after a short real-axis segment where the
frequency is too low for the ray alone) gives one power per branch, and
the integration-by-parts recurrence of the generalized exponential
integral gives the others.  The first R is at least the radius c(sigma)
rho_tilde at which the omitted terms of the series of
(1 + rho_tilde^2/r^2)^{-sigma/2} fall below the tail tolerance
(``_tail_start``), so few keys need a second round.  Nothing is ever
hard-truncated.

``kernel_piece`` is the one kernel entry: it takes one point H (rank,) or
a stack (N, rank) anywhere in a, and the point is the N = 1 case of the
same code.  Each row may carry its own time t, so a sweep over times is one
call.  A call evaluates one radial integral per distinct key
(t, round(|H|, 12)) in its stack and keeps nothing between calls.
All the integrals of one piece and one sign of t are one batched pass:
the panel edges of every key step in lockstep, the panels of all of them
go through the Filon engine in blocks of at most ``_FILON_BLOCK``, the
|H|-independent tail series is built once per distinct t, and the tails
of all keys still pending are one call per extension round: one order
per branch of every key is integrated on its ray nodes and segment panels,
in blocks of at most ``_TAIL_BLOCK`` rows, and the recurrence gives the
others.  Every per-key result is computed row by row and summed in panel
order, so a key gets the same bits alone as in any stack, whatever the
other keys' times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InconclusiveIntegralError, PoleError
from .geometry import phi0
from .root_system import RootSystem

TAIL_REL_TOL = 1e-8
# how far below TAIL_REL_TOL the first tail start puts the binomial series'
# first omitted term (``_tail_start``).  Measured on the benchmark's A2
# small-time sweep (seeds 0 and 7, 352 keys): 10 sends 11 keys to a second
# round of panels and tail, 30 none, with 2,754 and 2,807 panels, and the
# pass took 26.5 and 24.7 ms (best of 24 in process on 2 vCPUs); 100 builds
# 2,908 panels.
_TAIL_START_MARGIN = 30.0
_SERIES_LEN = 18
_GL_N = 16
_RAY_NODES = 60
_SEG_NODES = 20


# ---------------------------------------------------------------------------
# kernel-only tables
# ---------------------------------------------------------------------------

class _KernelTables(NamedTuple):
    gamma: Callable                   # scipy.special functions
    jv: Callable
    hyp0f1: Callable
    hankel1e: Callable
    spherical_jn: Callable
    psi_u: np.ndarray                 # smooth step F(u) tabulated on [0, 1]
    psi_F: np.ndarray
    gl_x: np.ndarray                  # Filon panel nodes and moment rows
    gl_m: np.ndarray
    ray_x: np.ndarray                 # steepest-descent ray rule
    ray_w: np.ndarray
    seg_x: np.ndarray                 # real-axis segment rule
    seg_w: np.ndarray


@lru_cache(maxsize=1)
def _kernel_tables() -> _KernelTables:
    """Everything only the kernel path needs, built once on its first use.

    That is the ``scipy.special`` import (about 0.3 s on 2 vCPUs and 19 MB
    of resident memory) with the functions ``gamma``, ``jv`` (for
    ``bessel_j``), ``hyp0f1`` (the even-d shell), ``hankel1e`` (its
    Hankel branches) and ``spherical_jn`` (the odd-d shell and the Filon
    moments), and the ``numpy.polynomial`` one (0.75 MB), the
    dense table of the bump-quotient smooth step, the Gauss-Legendre rule
    and moment rows of the Filon panels, and the Gauss-Laguerre ray and
    Gauss-Legendre segment rules of the tail.  The spectral workflows
    (spherical functions, transforms, the solvers) never call it and never
    load either package.  ``smooth_step`` calls it, so the first
    ``chi_pair`` pays the whole cost."""
    from numpy.polynomial import laguerre as _lag, legendre as _leg
    from scipy.special import gamma, hankel1e, hyp0f1, jv, spherical_jn

    n = 200_001
    u = np.linspace(0.0, 1.0, n)
    b = np.zeros(n)
    inner = (u > 0) & (u < 1)
    b[inner] = np.exp(-1.0 / (u[inner] * (1.0 - u[inner])))
    cum = np.concatenate([[0.0], np.cumsum((b[1:] + b[:-1]) / 2.0 * (u[1] - u[0]))])
    gl_x, gl_w = _leg.leggauss(_GL_N)
    # row n maps samples at the Gauss nodes to the n-th Legendre coefficient,
    # times the nonzero part of the moment factor 2 i^n (real for even n,
    # imaginary for odd n)
    gl_m = np.array([(-1.0) ** (n // 2) * (2 * n + 1) * gl_w * _leg.legval(gl_x, np.eye(n + 1)[n])
                     for n in range(_GL_N)])
    return _KernelTables(gamma, jv, hyp0f1, hankel1e, spherical_jn,
                         u, 1.0 - cum / cum[-1],          # 1 at s=0, 0 at s=1
                         gl_x, gl_m,
                         *_lag.laggauss(_RAY_NODES),
                         *_leg.leggauss(_SEG_NODES))


# ---------------------------------------------------------------------------
# smooth cutoff pair
# ---------------------------------------------------------------------------

def smooth_step(s: np.ndarray) -> np.ndarray:
    """Smooth decreasing step: 1 for s <= 0, 0 for s >= 1, C-infinity."""
    s = np.asarray(s, dtype=float)
    tab = _kernel_tables()
    return np.interp(s, tab.psi_u, tab.psi_F, left=1.0, right=0.0)


def smooth_step_alt(s: np.ndarray) -> np.ndarray:
    """Second admissible smooth step, for cutoff-independence checks."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    out[s <= 0.0] = 1.0
    out[s >= 1.0] = 0.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    # the logistic 1/(1 + e^a) through e^{-|a|}, which cannot overflow
    a = 1.0 / (1.0 - sm) - 1.0 / sm
    e = np.exp(-np.abs(a))
    out[mid] = np.where(a > 0.0, e, 1.0) / (1.0 + e)
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
    ``perfbench/tracer.py`` instruments it by name.  The kernel path does
    not call it: ``shell_integral`` evaluates even dim_X through
    ``hyp0f1`` and odd dim_X through the elementary half-integer form
    (DLMF 10.49) of ``spherical_jn``, and past the Filon cut of
    ``_build_panels`` both parities use ``hankel1e`` (``_shell_branch``)."""
    x = np.asarray(x, dtype=float)
    if nu < 0 or np.any(x < 0):
        raise ConfigError("bessel_j requires nu >= 0 and x >= 0")
    out = _kernel_tables().jv(nu, x)
    return float(out) if x.ndim == 0 else out


def sphere_area(d: int) -> float:
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def shell_integral(rs: RootSystem, r: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """int_{|lam|=r} e^{-i<x,lam>} dsigma(lam) with |x| = s, in dimension
    d = dim_X; equals the sphere area times r^{d-1} at s = 0.

    ``s`` is a scalar or an array broadcast against ``r``; the result has
    the broadcast shape, and is a float when both are scalars.  With
    z = r s it is |S^{d-1}| r^{d-1} 0F1(; d/2; -z^2/4) (DLMF 10.16.9).
    For even d that is one ``scipy.special.hyp0f1`` call at every z, 0
    included: at a negative argument it evaluates the cephes J_{(d-2)/2},
    which costs 0.15-0.23 us per node against 0.24-1.3 us for AMOS's
    ``jv(3, z)``, and sqrt(fl(z^2)/4) 2 gives back z exactly.  For odd d
    the Bessel factor is J_{(d-2)/2}(z) = sqrt(2z/pi) j_{(d-3)/2}(z): one
    ``spherical_jn`` node costs 0.04 us against 0.2 us for
    ``hyp0f1(3/2, -z^2/4)``, and below z = 0.5 a 13-term series of
    0F1 keeps the value finite at z = 0."""
    d = rs.dim_X
    nu = (d - 2) / 2.0
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    if np.any(s < 0):
        raise ConfigError("s must be >= 0")
    z = r * s
    if d % 2 == 0:
        out = sphere_area(d) * r ** (d - 1) * _kernel_tables().hyp0f1(d / 2.0, -(z * z) / 4.0)
        return float(out) if out.ndim == 0 else out
    out = np.empty(z.shape)
    small = z <= 0.5
    if np.any(small):
        # scaled series Gamma(nu+1) (z/2)^{-nu} J_nu(z) = 0F1(; nu+1; -z^2/4)
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
        bes = np.sqrt(2.0 * zl / np.pi) * _kernel_tables().spherical_jn((d - 3) // 2, zl)
        out[big] = ((2.0 * np.pi) ** (d / 2.0) * r[big] ** (d / 2.0)
                    * s[big] ** ((2.0 - d) / 2.0) * bes)
    return float(out) if out.ndim == 0 else out


def _shell_branch(rs: RootSystem, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The amplitude g, slowly varying for large r s, of the e^{irs} branch
    of ``shell_integral`` = 2 Re(g e^{irs}) at r s > 0: as J_nu is the mean
    of H1_nu(z) = hankel1e(nu, z) e^{iz} and its conjugate,
    g = (1/2) (2 pi)^{d/2} r^{d/2} s^{(2-d)/2} hankel1e(nu, r s)."""
    d = rs.dim_X
    f = 0.5 * (2.0 * np.pi) ** (d / 2.0) * r ** (d / 2.0) * s ** ((2.0 - d) / 2.0)
    return f * _kernel_tables().hankel1e((d - 2) / 2.0, r * s)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelParams:
    t: float
    sigma: complex
    rho_tilde: float | None = None    # defaults to |rho| at use time
    panels: int = 128                 # width divisor: 2x panels = half widths
    cutoff: str = "bump"              # the step of ``chi_pair``: "bump" or "alt"

    def __post_init__(self):
        for name in ("t", "sigma", "rho_tilde", "panels"):
            x = getattr(self, name)
            if x is not None and not np.isfinite(x):
                raise ConfigError(f"{name} = {x!r} is not finite")
        if self.t == 0.0:
            raise ConfigError("t must be nonzero")
        if self.panels < 64:
            raise ConfigError("panels must be >= 64")

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

_FILON_BLOCK = 1024          # panels per Filon block
_TAIL_BLOCK = 1024           # rows per steepest-descent block of the tail (about 1 MB)
# r|H| from which Filon panels carry the shell's Hankel branches.  Measured
# on the benchmark's kernel sweeps: 80 leaves 11% more panels, while 10 and
# 20 split A2 panels whose hankel1e (about 0.6 us per node at order 3)
# costs more than the nodes they save.
_SPLIT_Z0 = 40.0
_MAX_PANEL_STEPS = 400_000   # lockstep steps before a panel build gives up


def _build_panels(a, b, s, t, rho_norm: float, width_scale: float) -> tuple:
    """Panel edges on [a_k, b_k] for every key k at once, with t_k > 0 and
    a_k >= 0; a, b, s (the key's |H|) and t (its time) broadcast to (K,).
    Returns (edges, owner, wave): the edges of key k are ``edges[owner == k]``,
    ascending, and keys come in order; wave[i] is the shell frequency that
    the panel from edges[i] carries in its phase: s_k where that edge lies
    at or past the key's cut (less 1e-14 relative), and 0 before it and on
    each key's last edge, from which no panel starts.

    Each step is the scalar recurrence r -> min(r + max(w(r) scale, 1e-9), c)
    run in lockstep over the keys still short of their b; a build that
    outruns ``_MAX_PANEL_STEPS`` names a key still live and carries its
    index as ``slice_index``.  Every key is cut at r = max(Z0/s_k, 2|rho|)
    (``_SPLIT_Z0``), which becomes an edge when it
    lies inside (a_k, b_k): c is the cut before it and b_k past it.  Before
    the cut the width w is bounded by the local scale, 20 rad of phase plus
    shell oscillation, the phase curvature and the shell period 6/s_k.
    Past it the panels carry the shell's two Hankel branches, whose
    oscillation e^{+-i s_k r} is linear phase that the Filon moments absorb,
    so only the local scale and the curvature bound them.  Such panels are
    too wide for the cutoff's ramp, which ends at 2|rho| (A1, t = 40,
    |H| = 60: 1e-4 relative with a cut inside the ramp, 1.5e-9 without).
    The curvature's q^{3/2} is q sqrt(q), not a power: numpy's vectorised
    power differs from the C library's pow in the last bit on some inputs,
    while sqrt and the product are rounded correctly by both, so the edges
    equal those of the scalar recurrence bit for bit."""
    a, b, s, t = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                       for v in (a, b, s, t)))
    rho2 = rho_norm ** 2
    cut = np.minimum(b, np.maximum(_SPLIT_Z0 / np.maximum(s, 1e-300), 2.0 * rho_norm))

    def near(x):
        return x - 1e-14 * np.maximum(1.0, x)

    live = np.flatnonzero(a < near(b))
    r, sl, tl, bl, stopl, cutl, pastl = (x[live] for x in (a, s, t, b, near(b), cut, near(cut)))
    cap = 6.0 / (sl + 1e-30)
    parts, owners = [a], [np.arange(a.size)]
    while live.size:
        q = r * r + rho2
        sq = np.sqrt(q)
        rate = tl * r / sq + sl
        curv = tl * rho2 / (q * sq)
        w = np.where(r < 2.5 * rho_norm,
                     np.minimum(0.5 * np.maximum(r, 0.3 * rho_norm), rho_norm / 3.0), 0.5 * r)
        w = np.minimum(w, np.sqrt(0.8 / (curv + 1e-30)))
        past = r >= pastl
        w = np.where(past, w, np.minimum(w, np.minimum(cap, 20.0 / (rate + 1e-30))))
        r = np.minimum(r + np.maximum(w * width_scale, 1e-9), np.where(past, bl, cutl))
        parts.append(r)
        owners.append(live)
        if len(parts) > _MAX_PANEL_STEPS:
            k = live[0]
            raise InconclusiveIntegralError(
                f"panel count exploded: over {_MAX_PANEL_STEPS} lockstep steps at t = {t[k]:.6g} "
                f"for |H| = {s[k]:.6g} on [{a[k]:.6g}, {b[k]:.6g}]", slice_index=int(k))
        more = r < stopl
        if not more.all():
            live, r, sl, tl, bl, stopl, cutl, pastl, cap = (
                x[more] for x in (live, r, sl, tl, bl, stopl, cutl, pastl, cap))
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    owner, edges = owner[order], np.concatenate(parts)[order]
    last = np.append(owner[1:] != owner[:-1], True)
    wave = np.where((edges >= near(cut)[owner]) & ~last, s[owner], 0.0)
    return edges, owner, wave


def _rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m summed term by term.  A BLAS product's rows change in the last
    bit with the number of rows; these depend on their own row only."""
    out = x[:, 0, None] * m[0]
    for j in range(1, len(m)):
        out += x[:, j, None] * m[j]
    return out


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b in real arithmetic.  numpy's complex product gives other last
    bits when it reuses a temporary operand of 256 KiB or more for the
    result, so a row's bits could depend on the size of the stack around
    it.  Real products and sums are rounded once each whatever the loop,
    and so is numpy's real times complex product, which multiplies each
    part of b by a."""
    if not np.iscomplexobj(a):
        return a * b
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| through the real hypot, for the same reason as ``_cmul``."""
    return np.hypot(z.real, z.imag)


def _filon_sums(amp_fn, phase_fn, dphase_fn, edges: np.ndarray, owner: np.ndarray,
                wave: np.ndarray, out: np.ndarray) -> None:
    """Add to out[k] the phase-folded Filon-Legendre sum over the panels
    between consecutive edges of the same owner k (edges, owner and wave as
    returned by ``_build_panels``, owner mapped to indices of out).

    A panel with wave[i] = 0 is one row: amp_fn against e^{i phase_fn}.  A
    panel with wave[i] = w > 0 splits a real amplitude f = 2 Re(g e^{iwr})
    into two rows, g against e^{i(phase + wr)} and conj(g) against
    e^{i(phase - wr)}; amp_fn returns g for it.
    Per row the phase is linearised at the midpoint with the frequency
    kappa' = rint(16 kappa)/16, kappa = (phase'(mid) +- w) * half-width,
    which is exact in binary.  The whole residual, phase(nodes) - phase(mid)
    - kappa' x at the Gauss nodes x, is folded into the amplitude samples,
    so the only error is the Legendre resolution of the folded amplitude;
    the rounding adds a linear phase of at most 1/32 rad, which degree 15
    resolves far below rounding.  Linear-phase moments are exact:
    int_-1^1 P_n(x) e^{i kappa x} dx = 2 i^n j_n(kappa), with j_n from
    ``scipy.special.spherical_jn``, accurate for every kappa.  Each block
    takes the distinct kappa' of its own rows (``np.unique``), computes
    one moment row per kappa' and indexes the rows back to the panels: the
    A1 high profile at t = 40 over 40 radii needs 100 moment rows for its
    3,045 unsplit panels, and 712 for the 754 rows of its 377 split panels,
    whose wide panels rarely share a kappa'.  The table lives for one block
    only, so nothing bounds kappa and nothing is kept between calls.
    ``amp_fn(nodes, k, split)`` gets the (P, 16) Gauss nodes, the owner of
    each panel and the mask wave > 0; ``phase_fn(r, k)`` and
    ``dphase_fn(r, k)`` get the (P,) midpoints or the (P, 16) nodes and the
    owners, so that the phase can depend on the key (its time t_k).
    Panels go in blocks of at most ``_FILON_BLOCK``: a profile can hold 10^5 panels, and unblocked work
    arrays would take hundreds of MB.  Every step is row by row, a split
    panel's two rows are summed before its value goes out, and
    ``np.add.at`` adds the panels in order, so out[k] does not depend on
    the block boundaries or on other owners.  For that, the products of
    the folded amplitude are written in real arithmetic: numpy's complex
    product gave the same row other last bits in different blocks.
    """
    tab = _kernel_tables()
    inner = np.flatnonzero(owner[1:] == owner[:-1])
    for start in range(0, inner.size, _FILON_BLOCK):
        i = inner[start:start + _FILON_BLOCK]
        lo, hi, k, w = edges[i], edges[i + 1], owner[i], wave[i]
        mids = (hi + lo) / 2.0
        hws = (hi - lo) / 2.0
        nodes = mids[:, None] + hws[:, None] * tab.gl_x
        split = np.flatnonzero(w)
        amp = amp_fn(nodes, k, w > 0.0)
        phi, dphi, phin = phase_fn(mids, k), dphase_fn(mids, k), phase_fn(nodes, k)
        if split.size:        # the e^{-iwr} rows of the split panels go last
            rows = np.concatenate([np.arange(i.size), split])
            w = np.concatenate([w, -w[split]])
            amp = np.concatenate([amp, amp[split].conj()])
            hws, mids, nodes = hws[rows], mids[rows], nodes[rows]
            phi, dphi, phin = phi[rows] + w * mids, dphi[rows] + w, phin[rows] + w[:, None] * nodes
        kappa, which = np.unique(np.rint(16.0 * dphi * hws) / 16.0, return_inverse=True)
        A = _cmul(amp, np.exp(1j * (phin - phi[:, None] - kappa[which, None] * tab.gl_x)))
        jn = tab.spherical_jn(np.arange(_GL_N), kappa[:, None])
        Gr = _rowwise(jn[:, 0::2], tab.gl_m[0::2])[which]
        Gi = _rowwise(jn[:, 1::2], tab.gl_m[1::2])[which]
        Ar, Ai = A.real, A.imag
        S = np.sum(Ar * Gr - Ai * Gi, axis=1) + 1j * np.sum(Ar * Gi + Ai * Gr, axis=1)
        v = hws * np.exp(1j * phi) * S
        v[split] += v[i.size:]
        np.add.at(out, k, v[:i.size])


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


def _power_tail_orders(p0, xi, R) -> np.ndarray:
    """M[j, k] = int_{R_j}^inf r^{-(p0_j+k)} e^{i xi_j r} dr for k < _SERIES_LEN,
    one row per (p0_j, xi_j, R_j) of the broadcast inputs, by numerical
    steepest descent (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006).

    One order per row is integrated, and the others follow from the
    integration-by-parts recurrence between the orders (``_descent_orders``).
    From a start R1 >= R the path turns onto the ray
    r = R1 + i sgn(xi) x/|xi|, on which e^{i xi r} = e^{i xi R1} e^{-x}, and a
    60-node Gauss-Laguerre rule in x integrates the power; for Re p <= 1
    this is the analytic continuation in p.  The rule needs the branch point
    r = 0 far from the ray on the scale 1/|xi|: |xi| R1 >= 10, and
    |xi| R1 >= 0.6 |p| for the largest order, which otherwise loses digits
    at |xi| R1 = 10 once |p| exceeds about 20.  Where |xi| R is below that,
    a Gauss-Legendre segment on the real axis covers [R, R1] first, on
    geometric panels of ratio <= 2 that each span at most 1 rad of phase.
    Against mpmath ``expint`` every order is within 5e-14 relative for
    |Im p0| <= 1 and |xi| R <= 1e3, also where Re p < 0 and |xi| R << 1.
    Past that the rounding of xi R in the phase sets the error (7e-13 at
    |xi| R = 1e4), and with |Im p0| near 3 at |xi| R << 1 it reaches 2e-11.
    Below |xi| = 1e-13 the zero-frequency continuation R^{1-p}/(p-1) is
    returned.

    The rows go through ``_descent_orders`` in blocks of at most
    ``_TAIL_BLOCK``, so that its (rows, 60) work arrays stay near 1 MB
    however many keys a profile has.
    """
    p0, xi, R = np.broadcast_arrays(np.atleast_1d(np.asarray(p0, dtype=complex)),
                                    np.atleast_1d(np.asarray(xi, dtype=float)),
                                    np.atleast_1d(np.asarray(R, dtype=float)))
    M = np.empty((xi.size, _SERIES_LEN), dtype=complex)
    zero = np.abs(xi) < 1e-13
    if zero.any():
        p = p0[zero, None] + np.arange(_SERIES_LEN)
        if np.any(np.abs(p - 1.0) < 1e-9):
            raise InconclusiveIntegralError(
                "power tail divergent at zero asymptotic frequency")
        M[zero] = R[zero, None] ** (1.0 - p) / (p - 1.0)
    rows = np.flatnonzero(~zero)
    for b in range(0, rows.size, _TAIL_BLOCK):
        at = rows[b:b + _TAIL_BLOCK]
        M[at] = _descent_orders(p0[at], xi[at], R[at])
    return M


def _descent_orders(p0: np.ndarray, xi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The rows of ``_power_tail_orders`` at xi != 0, from one quadrature
    per row and the recurrence between the orders.

    Since M_q = R^{1-q} E_q(-i xi R) (DLMF 8.19.12), integration by parts
    gives i xi M_q = q M_{q+1} - B_q with B_q = R^{-q} e^{i xi R}.  Each row
    integrates one seed order k* = clip(rint(|xi| R - Re p0), 0, 17) on the
    ray and segment panels.  The orders above come from the upward step
    M_{q+1} = (i xi M_q + B_q)/q, which scales an error by |xi| R/|q|, and
    those below from the downward step M_q = (q M_{q+1} - B_q)/(i xi), which
    scales it by |q|/(|xi| R); k* is where both factors are about 1.  Where
    |xi| R << 1 an upward step from q also cancels by a factor |q|, so when
    an order has |q| < 1/8, k* is at least the order above it.  Then an
    upward step loses at most a factor 8, and the downward steps from
    Re q* < 9/8 at most (|xi| R)^(-1/8), where they cancel as the upward
    steps would (raising k* from |q| < 1/2 read 2.6e-10 at p0 = -2.51).
    B_{q+1} is B_q/R.

    The ray nodes of all rows are one (rows, 60) array; the segment panels
    of the rows that need them are concatenated, 20 nodes each.  A node's
    r^-q comes from the real log|r| and arg r, as one exp, cos and sin.  A
    row is reduced on its own, by a fixed-length sum per ray row or panel
    and ``np.add.reduceat`` over its own panels, and every complex product
    and quotient is written in real arithmetic (as in ``_cmul``), so a row
    gets the same bits alone as in any stack."""
    tab = _kernel_tables()
    n = _SERIES_LEN
    seed = np.rint(np.abs(xi) * R - p0.real)
    zero = -np.minimum(np.rint(p0.real), 0.0)      # the order nearest q = 0
    seed = np.where(np.abs(p0 + zero) < 0.125, np.maximum(seed, zero + 1), seed)
    seed = np.clip(seed, 0, n - 1).astype(int)
    q = p0 + seed

    def quad(q, lr, th, w, phase=0.0):
        # sum over each row of the nodes r = e^{lr + i th} (real weights w)
        # of r^-q e^{i phase}, as (real, imag) parts; q is one order per row
        m = w * np.exp(q.imag[:, None] * th - q.real[:, None] * lr)
        b = phase - q.real[:, None] * th - q.imag[:, None] * lr
        return (m * np.cos(b)).sum(axis=1), (m * np.sin(b)).sum(axis=1)

    scale = 1.0 / np.abs(xi)                  # one radian of phase
    R1 = np.maximum(R, np.maximum(10.0, 0.6 * np.abs(p0 + (n - 1))) * scale)
    step = np.copysign(scale, xi)
    u = (step / R1)[:, None] * tab.ray_x      # the ray nodes are R1 (1 + i u)
    sr, si = quad(q, np.log(R1)[:, None] + 0.5 * np.log1p(u * u), np.arctan(u), tab.ray_w)
    # times the ray's dr/dx e^{i xi R1} = i step e^{i xi R1}
    pr, pi = -step * np.sin(xi * R1), step * np.cos(xi * R1)
    sr, si = sr * pr - si * pi, sr * pi + si * pr
    seg = np.flatnonzero(R1 > R)
    if seg.size:
        Rs, scale, R1 = R[seg], scale[seg], R1[seg]
        J = np.array([math.ceil(math.log2(x)) if x > 1.0 else 0 for x in (scale / Rs).tolist()])
        start = np.ldexp(Rs, J)               # panels from here are <= 1 rad
        lin = np.ceil((R1 - start) / scale).astype(int)
        size = J + lin + 1                    # edges per row
        first = np.cumsum(size) - size
        owner = np.repeat(np.arange(seg.size), size)
        i = np.arange(size.sum()) - first[owner] - J[owner]
        # edges R 2^j for j < J, then those of linspace(start, R1, lin + 1)
        edges = i * ((R1 - start) / lin)[owner] + start[owner]
        geo = i < 0
        edges[geo] = np.ldexp(Rs[owner[geo]], i[geo] + J[owner[geo]])
        edges[first + size - 1] = R1
        inner = np.flatnonzero(owner[1:] == owner[:-1])
        row = seg[owner[inner]]
        mid = (edges[inner + 1] + edges[inner]) / 2.0
        hw = (edges[inner + 1] - edges[inner]) / 2.0
        r = mid[:, None] + hw[:, None] * tab.seg_x
        pr, pi = quad(q[row], np.log(r), 0.0, hw[:, None] * tab.seg_w, xi[row, None] * r)
        at = first - np.arange(seg.size)
        sr[seg] += np.add.reduceat(pr, at)
        si[seg] += np.add.reduceat(pi, at)

    # M[0] and M[1] hold the real and imaginary parts, one row per order
    M = np.zeros((2, n, xi.size))
    M[:, seed, np.arange(xi.size)] = sr, si
    lnR, arg = np.log(R), xi * R
    mag, cr, ci = np.exp(-p0.real * lnR), np.cos(p0.imag * lnR), -np.sin(p0.imag * lnR)
    B = np.empty((2, n, xi.size))
    B[0, 0] = mag * (cr * np.cos(arg) - ci * np.sin(arg))
    B[1, 0] = mag * (cr * np.sin(arg) + ci * np.cos(arg))
    for k in range(1, n):
        B[:, k] = B[:, k - 1] / R
    c, d = p0.real, p0.imag
    for k in range(n - 1):                    # upward from k*
        ur, ui = B[0, k] - xi * M[1, k], B[1, k] + xi * M[0, k]
        den = (c + k) ** 2 + d * d
        np.divide(ur * (c + k) + ui * d, den, out=M[0, k + 1], where=seed <= k)
        np.divide(ui * (c + k) - ur * d, den, out=M[1, k + 1], where=seed <= k)
    for k in range(n - 2, -1, -1):            # downward from k*
        vr = (c + k) * M[0, k + 1] - d * M[1, k + 1] - B[0, k]
        vi = (c + k) * M[1, k + 1] + d * M[0, k + 1] - B[1, k]
        np.divide(vi, xi, out=M[0, k], where=seed > k)
        np.divide(-vr, xi, out=M[1, k], where=seed > k)
    return M[0].T + 1j * M[1].T


def _tail_series(rs: RootSystem, sigma: complex, rho_tilde: float, t: float) -> tuple:
    """The |H|-independent parts of the tail: the series of
    (r^2 + rho_tilde^2)^{-sigma/2} e^{i t (sqrt(r^2+rho^2) - r)} in 1/r, and
    the Hankel coefficients of the shell's Bessel order."""
    common = _series_mul(_series_binom(-sigma / 2.0, rho_tilde ** 2),
                         _phase_correction_series(rs.rho_norm, t))
    return common, _bessel_a((rs.dim_X - 2) / 2.0, _SERIES_LEN)


def _tail_start(sigma: complex) -> float:
    """The factor c >= 2 of rho_tilde from which the tail series of
    (1 + rho_tilde^2/r^2)^{-sigma/2} has converged: its first omitted term,
    binom(-sigma/2, 9) (rho_tilde/r)^18, is ``TAIL_REL_TOL`` /
    ``_TAIL_START_MARGIN`` of the leading 1 at r = c rho_tilde.  A tolerance
    below the rounding unit, which no tail can meet, counts as that unit,
    so that c stays finite (about 9 at sigma = 2+i)."""
    omitted = abs(math.prod((-sigma / 2.0 - q) / (q + 1) for q in range(_SERIES_LEN // 2)))
    tol = max(TAIL_REL_TOL, float(np.finfo(float).eps)) / _TAIL_START_MARGIN
    return max(2.0, (omitted / tol) ** (1.0 / _SERIES_LEN))


def _tail_values(rs: RootSystem, sigma: complex, t, s: np.ndarray, R: np.ndarray,
                 series: tuple) -> tuple:
    """Analytic values of the high-frequency integrand tail on [R_k, inf) at
    the radii s_k and times t_k (K,), and their error estimates, from the
    ``_tail_series`` of (sigma, rho_tilde, t_k); returns (tail (K,), err (K,)).
    ``series`` is (common, a) with common one (18,) row, or one row per key
    (K, 18); a scalar t and one row broadcast to every key.

    A key with s_k = 0 has one power series against e^{i t_k r}; any other
    has the two Hankel branches e^{+-i s_k r} of its Bessel factor.  The
    orders of every branch of every key come from one ``_power_tail_orders``
    call.  A branch's series is the truncated product of the key's common
    series with a_n (+-i)^n s^-n, that is sum_n s^-n T[n] with an (18, 18)
    matrix T per branch and key, zero below the diagonal.  It is summed term
    by term over n, and the row T[n] of every key is formed in the step of
    its term, so that no (K, 18, 18) array is held.  Everything else is
    elementwise in real arithmetic or a fixed-length row sum, so a key gets
    the same bits alone as in any stack."""
    d = rs.dim_X
    common, a = series
    t = np.broadcast_to(np.asarray(t, dtype=float), s.shape)
    common = np.broadcast_to(common, (s.size, _SERIES_LEN))
    zero, shell = np.flatnonzero(s == 0.0), np.flatnonzero(s != 0.0)
    n0, n1 = zero.size, shell.size
    sk, Rk, tk, ck = s[shell], R[shell], t[shell], common[shell]
    M = _power_tail_orders(
        np.repeat([sigma - (d - 1.0), sigma - (d - 1.0) / 2.0], [n0, 2 * n1]),
        np.concatenate([t[zero], tk + sk, tk - sk]),
        np.concatenate([R[zero], Rk, Rk]))
    tail = np.zeros(s.size, dtype=complex)
    err = np.zeros(s.size)
    coeffs = sphere_area(d) * common[zero]
    tail[zero] = _cmul(coeffs, M[:n0]).sum(axis=1)
    err[zero] = _cabs(_cmul(coeffs[:, -1], M[:n0, -1]))
    orders = np.arange(_SERIES_LEN)
    theta = (d - 2) / 2.0 * np.pi / 2.0 + np.pi / 4.0
    spow = sk[:, None] ** (-orders.astype(float))
    for pm, Mb in ((+1.0, M[n0:n0 + n1]), (-1.0, M[n0 + n1:])):
        an = a * (pm * 1j) ** orders
        row = an[0] * ck               # T[n, m] = a_n (+-i)^n common[m - n] for m >= n
        coeffs = spow[:, 0, None] * row
        for n in orders[1:]:
            row = an[n] * ck[:, :_SERIES_LEN - n]
            coeffs[:, n:] += spow[:, n, None] * row
        pref = ((2.0 * np.pi) ** ((d - 1) / 2.0) * np.exp(-1j * pm * theta)
                * sk ** ((1.0 - d) / 2.0))
        tail[shell] += _cmul(pref, _cmul(coeffs, Mb).sum(axis=1))
        err[shell] += _cabs(pref) * (_cabs(_cmul(coeffs[:, -1], Mb[:, -1]))
                                     + abs(a[-1]) * (Rk * sk) ** (-_SERIES_LEN + 0.5)
                                     * _cabs(Mb[:, 0]) * sk ** (-0.5))
    return tail, err


# ---------------------------------------------------------------------------
# the spectral-radius integrals
# ---------------------------------------------------------------------------

def _radial_profile(rs: RootSystem, p: KernelParams, piece: str, s: np.ndarray,
                    t: np.ndarray | None = None) -> np.ndarray:
    """Spectral integral of one piece at the radii s and the times t (N,),

        int_0^inf chi(r/|rho|) (r^2+rt^2)^{-sigma/2} e^{i t phi(r)} S_d(r,s) dr

    with chi = chi0 (piece 'low') or chiinf (piece 'high') on the step
    ``p.cutoff``, or chi = 1 (piece 'total', which reads no cutoff), once
    per distinct key (t, ``round(|H|, 12)``) (Python's round; ``np.round``
    is one ulp off on some radii), with t = ``p.t`` on every row when none
    is given.  The rounding matters on the light cone |H| = t, where the
    high piece moves by up to 1.5 relative under a 1e-13 shift of |H| and
    every sweep has a node.  The keys with t > 0 are one batched pass
    (``_profile_pass``); for the keys with t < 0 the conjugate problem at
    (-t, conj sigma) is one more pass, conjugated back.  A pass that fails
    raises with the first row of the key at fault as ``slice_index``.
    """
    times = np.full(s.shape, float(p.t)) if t is None else t
    keys, inverse = np.unique(np.stack([times, [round(x, 12) for x in s.tolist()]]),
                              axis=1, return_inverse=True)
    inverse = inverse.ravel()
    sigma = complex(p.sigma)
    vals = np.empty(keys.shape[1], dtype=complex)
    for sign in (1.0, -1.0):
        mine = np.flatnonzero(np.sign(keys[0]) == sign)
        if not mine.size:
            continue
        try:
            v = _profile_pass(rs, sigma if sign > 0 else sigma.conjugate(), p.resolved_rho_tilde(rs),
                              sign * keys[0, mine], keys[1, mine], 128.0 / p.panels, piece, p.cutoff)
        except InconclusiveIntegralError as exc:
            row = int(np.flatnonzero(inverse == mine[exc.slice_index])[0])
            conj = "" if sign > 0 else (f", the conjugate of the problem at t = {times[row]:.6g}, "
                                        f"sigma = {sigma:.6g}")
            raise InconclusiveIntegralError(f"{exc}{conj}", tail_bound=exc.tail_bound,
                                            accumulated=exc.accumulated, slice_index=row) from None
        vals[mine] = v if sign > 0 else v.conj()
    return vals[inverse]


def _profile_pass(rs: RootSystem, sigma: complex, rho_tilde: float, t: np.ndarray,
                  s: np.ndarray, width_scale: float, piece: str,
                  cutoff: str) -> np.ndarray:
    """The integrals of ``_radial_profile`` at the distinct keys (t_k, s_k)
    (K,), every t_k > 0.

    The low piece is one set of panels on [0, 2|rho|].  The high and total
    pieces have panels on [|rho|, R_k] and [0, R_k], and the same analytic
    tail beyond R_k.  The first R_k is the largest of 2|rho| (where
    chiinf = 1), c(sigma) rho_tilde (``_tail_start``: the binomial series
    of (1 + rho_tilde^2/r^2)^{-sigma/2} has converged there to
    ``TAIL_REL_TOL`` / ``_TAIL_START_MARGIN``), t_k |rho|^2 (the phase
    series) and 12/|H|.  The tail series is built once per distinct t_k.
    Each round evaluates the tails of all pending keys, whatever their time,
    in one ``_tail_values`` call and checks them against ``TAIL_REL_TOL`` as
    arrays; each key whose tail error estimate is not below that share of
    its mass moves R_k out by 1.7, and only those keys get panels on the
    new stretch.  Every error names the t, |H| and sigma of a key at fault
    and carries its index as ``slice_index``.

    The panels see the real amplitude chi (r^2+rt^2)^{-Re sigma/2} S_d(r, s),
    with chi from ``chi_pair`` on the step ``cutoff`` (the total calls none:
    its chi is 1), and the phase t_k sqrt(r^2+|rho|^2) - (Im sigma/2)
    ln(r^2+rt^2), which carries the rest of (r^2+rt^2)^{-sigma/2}: one
    complex power per node fewer.  Past the cut of ``_build_panels`` the
    shell factor is ``_shell_branch`` instead, the e^{+isr} branch (the low
    piece ends before any cut).  The panel widths stay those of the t-phase
    alone; the log term's small curvature is folded like the rest."""
    assert np.all(t > 0)
    rho_norm = rs.rho_norm
    out = np.zeros(s.size, dtype=complex)

    def at(x, k, r):
        # x of each panel's owner, shaped against its (P,) or (P, 16) radii
        return x[k].reshape(k.shape + (1,) * (r.ndim - 1))

    def amp(r, k, split):
        f = (r * r + rho_tilde ** 2) ** (-sigma.real / 2.0)
        if piece != "total":
            c0, cinf = chi_pair(r / rho_norm, cutoff)
            f = (c0 if piece == "low" else cinf) * f
        if not split.any():
            return f * shell_integral(rs, r, s[k][:, None])
        g = np.empty(r.shape, dtype=complex)
        g[~split] = f[~split] * shell_integral(rs, r[~split], s[k[~split]][:, None])
        g[split] = f[split] * _shell_branch(rs, r[split], s[k[split]][:, None])
        return g

    def add_panels(keys, a, b):
        try:
            edges, owner, wave = _build_panels(a, b, s[keys], t[keys], rho_norm, width_scale)
        except InconclusiveIntegralError as exc:
            raise InconclusiveIntegralError(f"{exc} ({piece} piece, sigma = {sigma:.6g})",
                                            slice_index=int(keys[exc.slice_index])) from None
        _filon_sums(amp,
                    lambda r, k: (at(t, k, r) * np.sqrt(r * r + rho_norm ** 2)
                                  - sigma.imag / 2.0 * np.log(r * r + rho_tilde ** 2)),
                    lambda r, k: (at(t, k, r) * r / np.sqrt(r * r + rho_norm ** 2)
                                  - sigma.imag * r / (r * r + rho_tilde ** 2)),
                    edges, keys[owner], wave, out)

    pending = np.arange(s.size)
    if piece == "low":
        add_panels(pending, 0.0, 2.0 * rho_norm)
        return out

    def context(k):
        return f"{piece} piece at t = {t[k]:.6g}, |H| = {s[k]:.6g}, sigma = {sigma:.6g}"

    s_eff = np.where(s < 1e-4, 0.0, s)
    R = np.maximum(np.maximum(max(2.0 * rho_norm, _tail_start(sigma) * rho_tilde), t * rho_norm ** 2),
                   12.0 / np.where(s_eff > 0.0, s_eff, np.inf))
    far = np.flatnonzero(R > 5e6)
    if far.size:
        raise InconclusiveIntegralError(
            f"analytic-tail start R = {R[far[0]]:.2e} out of reach ({context(far[0])})",
            slice_index=int(far[0]))
    add_panels(pending, 0.0 if piece == "total" else rho_norm, R)
    times, which = np.unique(t, return_inverse=True)
    series = [_tail_series(rs, sigma, rho_tilde, x) for x in times.tolist()]
    common, a = np.array([c for c, _ in series]), series[0][1]
    last_err, last_mass = np.zeros(s.size), np.zeros(s.size)
    stopped = []
    for _ in range(12):
        try:
            tail, tail_err = _tail_values(rs, sigma, t[pending], s_eff[pending], R[pending],
                                          (common[which[pending]], a))
        except InconclusiveIntegralError as exc:    # a zero-frequency key: |H| = t
            k = pending[np.argmin(np.abs(t[pending] - s_eff[pending]))]
            raise InconclusiveIntegralError(f"{exc}; R = {R[k]:.2e} ({context(k)})",
                                            slice_index=int(k)) from None
        mass = _cabs(out[pending]) + _cabs(tail)
        done = tail_err <= TAIL_REL_TOL * np.maximum(mass, 1e-300)
        out[pending[done]] += tail[done]
        pending, tail_err, mass = pending[~done], tail_err[~done], mass[~done]
        last_err[pending], last_mass[pending] = tail_err, mass
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
        raise InconclusiveIntegralError(
            f"tail estimate {last_err[k]:.2e} above {TAIL_REL_TOL:.0e} of mass {last_mass[k]:.2e}; "
            f"panels reached R = {R[k]:.2e} ({context(k)})",
            tail_bound=last_err[k], accumulated=last_mass[k], slice_index=k)
    return out


def kernel_piece(rs: RootSystem, p: KernelParams, H: np.ndarray, piece: str,
                 t: np.ndarray | None = None):
    """Kernel piece at one point H (rank,), as a complex number, or at a stack
    H (N, rank), as an (N,) array.  The pieces are

        "low"       phi0(H) times the spectral integral of ``_radial_profile``
                    with the cutoff chi0, no regularization factor;
        "high_reg"  the regularized high-frequency kernel
                    phi0(H) e^{sigma^2}/Gamma((d+1)/2 - sigma) times the
                    integral with chiinf = 1 - chi0;
        "total"     phi0(H) times the integral with no cutoff, in one pass:
                    "low" plus Gamma((d+1)/2 - sigma) e^{-sigma^2} "high_reg".

    Only "low" and "high_reg" read ``p.cutoff``.  ``t`` gives each row its
    own time, an (N,) array next to a stack (one value for one point); every
    row takes ``p.t`` when it is None.  A call evaluates one radial integral
    per distinct key (t, round(|H|, 12)) and all the keys of one sign of t
    in one batched pass, so a sweep over times is one call: a row gets the
    value of the call with ``p.t`` set to its time.  A time is checked as
    ``p.t`` is: NaN, infinite or zero is refused with a ``ConfigError``
    naming the row, before any panel is built.  Each piece is
    phi0(H) psi(|H|), a Weyl-invariant function, so H may be any point of a
    whose norm |H| is finite; any other row (NaN or infinite entries, or a
    norm that overflows) is refused likewise.  Each row's phi0 and |H| come
    from a (1, rank) product of its own, and all arithmetic is on (N,)
    arrays (numpy's scalar complex product can differ in the last bit), so
    a point gets the same bits alone as in any stack."""
    if piece not in ("low", "high_reg", "total"):
        raise ConfigError(f"unknown kernel piece {piece!r}")
    sigma = complex(p.sigma)
    if piece != "low":
        z = (rs.dim_X + 1) / 2.0 - sigma
        if _gamma_pole_distance(z) < 1e-8:
            raise PoleError(f"sigma within 1e-8 of a Gamma pole (argument {z})")
    H = np.asarray(H, dtype=float)
    single = H.ndim < 2
    rows = H.reshape(1 if single else len(H), 1, rs.rank)
    s = np.sqrt(rows @ rows.transpose(0, 2, 1))[:, 0, 0]
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        i = bad[0]
        raise ConfigError(f"{'H' if single else f'H[{i}]'} = {rows[i, 0].tolist()} "
                          "has no finite norm")
    if t is not None:
        t = np.asarray(t, dtype=float).reshape(-1)
        if t.size != s.size:
            raise ConfigError(f"t has {t.size} entries for {s.size} rows of H")
        bad = np.flatnonzero(~np.isfinite(t) | (t == 0.0))
        if bad.size:
            i, x = bad[0], float(t[bad[0]])
            raise ConfigError(f"{'t' if single else f't[{i}]'} = {x!r} "
                              + ("is not finite" if x != 0.0 else "must be nonzero"))
    w = phi0(rs, rows)[:, 0]
    if piece == "high_reg":
        w = w * (np.exp(sigma ** 2) / _kernel_tables().gamma(z))
    profile = _radial_profile(rs, p, "high" if piece == "high_reg" else piece, s, t)
    vals = w * profile          # a named operand: numpy takes no in-place path
    return complex(vals[0]) if single else vals
