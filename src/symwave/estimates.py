"""Quantitative verification harness: phase-geometry diagnostics, weighted
kernel suprema, decay-slope regression, and the convolution functional
behind the dispersive bounds.

Operator norms are never estimated directly; the harness evaluates the
sufficient functionals (the phi0-weighted integral of a kernel power and
sup bounds against the standard envelope) and regresses their time decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, InconclusiveIntegralError, NoCriticalPointError
from .geometry import (RadialFunction, RadialGrid, integrate_biinvariant,
                       phi0, phi0_envelope)
from .root_system import RootSystem
from .wave_kernel import KernelParams, kernel_piece


def critical_point(rs: RootSystem, A: np.ndarray, t: float) -> np.ndarray:
    """Critical spectral point of psi(lam) = sqrt(|lam|^2+|rho|^2) + <A/t, lam>,
    the unique solution of (|lam|^2+|rho|^2)^{-1/2} lam = -A/t."""
    A = np.asarray(A, dtype=float).reshape(rs.rank)
    if t == 0 or np.linalg.norm(A) >= abs(t):
        raise NoCriticalPointError("requires |A| < |t|")
    a = A / t
    return -rs.rho_norm * a / math.sqrt(1.0 - float(a @ a))


def phase_psi(rs: RootSystem, A: np.ndarray, t: float, lam: np.ndarray) -> float:
    lam = np.asarray(lam, dtype=float)
    return float(np.sqrt(lam @ lam + rs.rho_norm ** 2) + (np.asarray(A) / t) @ lam)


@dataclass(frozen=True)
class DecayReport:
    regime: str                      # "small_time" | "large_time"
    times: np.ndarray
    sup_ratios: np.ndarray
    fitted_slope: float
    theoretical_slope: float
    r_squared: float
    envelope_power: float = float("nan")

    def as_dict(self) -> dict:
        return {"regime": self.regime,
                "times": [float(t) for t in self.times],
                "sup_ratios": [float(v) for v in self.sup_ratios],
                "fitted_slope": self.fitted_slope,
                "theoretical_slope": self.theoretical_slope,
                "r_squared": self.r_squared,
                "envelope_power": self.envelope_power}


def fit_decay(times, sup_ratios, regime: str = "large_time",
              theoretical_slope: float = float("nan"),
              envelope_power: float = float("nan")) -> DecayReport:
    """Least-squares slope of log sup_ratio against log t."""
    times = np.asarray(times, dtype=float)
    sup_ratios = np.asarray(sup_ratios, dtype=float)
    if times.size < 3 or np.any(np.diff(times) <= 0):
        raise DataError("need at least 3 strictly increasing times")
    if np.any(sup_ratios <= 0) or not np.all(np.isfinite(sup_ratios)):
        raise DataError("sup ratios must be positive and finite")
    x, y = np.log(times), np.log(sup_ratios)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayReport(regime=regime, times=times, sup_ratios=sup_ratios,
                       fitted_slope=float(slope),
                       theoretical_slope=theoretical_slope, r_squared=r2,
                       envelope_power=envelope_power)


def chamber_sup_grid(rs: RootSystem, radius: float, per_axis: int) -> RadialGrid:
    """Box grid of the given radius whose open-chamber nodes sample suprema."""
    return RadialGrid(rs, radius, per_axis if per_axis % 2 == 1 else per_axis + 1)


_RAY_FRACTIONS = np.array([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                           1.0, 1.125, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0])


def sup_weighted(rs: RootSystem, p: KernelParams, piece: str, N: float,
                 chamber_grid: RadialGrid, interior_only: bool = False) -> float:
    """max over chamber nodes of |kernel piece| / ((1+|H|)^N e^{-<rho,H>}).

    The box grid is augmented with nodes at |H| = (fractions of t) along the
    chamber ray through rho, so the regime boundary |H|/t = 1/2 is straddled
    at every t, including t below the grid spacing.  ``interior_only``
    restricts to |H| <= |t|/2, the inside-the-cone regime.  Kernel values
    are cached per |H|, so symmetric grids cost one radial profile per time.
    """
    nodes = chamber_grid.nodes[chamber_grid.chamber_mask]
    ray = rs.rho_c / np.linalg.norm(rs.rho_c)
    ray_r = abs(p.t) * _RAY_FRACTIONS
    ray_r = ray_r[ray_r <= chamber_grid.box_radius]
    nodes = np.vstack([nodes, ray_r[:, None] * ray[None, :]])
    if interior_only:
        nodes = nodes[np.linalg.norm(nodes, axis=1) <= abs(p.t) / 2.0]
    if nodes.shape[0] == 0:
        raise DomainError("no chamber nodes in requested regime")
    best = 0.0
    for H in nodes:
        val = abs(kernel_piece(rs, p, H, piece))
        best = max(best, val / phi0_envelope(rs, H, N))
    return best


SMALL_TIMES = np.geomspace(0.05, 0.8, 12)
LARGE_TIMES = np.geomspace(2.0, 40.0, 10)


def decay_sweep(rs: RootSystem, regime: str, sigma: complex | None = None,
                piece: str | None = None, times=None, per_axis: int | None = None,
                envelope_power: float | None = None,
                rho_tilde: float | None = None) -> DecayReport:
    """Sup-weighted kernel sweep with the standard windows and grids.

    Small time fits the regularized high piece on the critical line against
    -(d-1)/2; large time fits the full kernel in the interior regime
    against -d/2.
    """
    d, ell = rs.dim_X, rs.rank
    if regime == "small_time":
        times = SMALL_TIMES if times is None else np.asarray(times, float)
        piece = piece or "high_reg"
        sigma = sigma if sigma is not None else (d + 1) / 2.0 + 1.0j
        N = envelope_power if envelope_power is not None else rs.n_positive
        theo = -(d - 1) / 2.0
        interior = False
    elif regime == "large_time":
        times = LARGE_TIMES if times is None else np.asarray(times, float)
        piece = piece or "total"
        sigma = sigma if sigma is not None else (d + 1) / 2.0 + 1.0j
        N = envelope_power if envelope_power is not None else d - ell
        theo = -d / 2.0
        interior = True
    else:
        raise DomainError(f"unknown regime {regime!r}")
    per_axis = per_axis or (65 if ell == 1 else 49)
    sups = []
    for t in times:
        grid = chamber_sup_grid(rs, max(4.0, 2.0 * t), per_axis)
        p = KernelParams(t=float(t), sigma=sigma, rho_tilde=rho_tilde)
        sups.append(sup_weighted(rs, p, piece, N, grid, interior_only=interior))
    return fit_decay(times, sups, regime=regime, theoretical_slope=theo,
                     envelope_power=N)


def kunze_stein_bound(rs: RootSystem, kernel_samples: RadialFunction,
                      q: float) -> float:
    """The convolution functional ( int_{a+} delta phi0 |kappa|^{q/2} )^{2/q};
    the plain sup of |kappa| at q = infinity."""
    if q == math.inf:
        return float(np.max(np.abs(kernel_samples.values)))
    if q < 2:
        raise DomainError("q must lie in [2, inf]")
    grid = kernel_samples.grid
    weighted = RadialFunction(grid, phi0(rs, grid.nodes)
                              * np.abs(kernel_samples.values) ** (q / 2.0))
    try:
        val = integrate_biinvariant(rs, weighted)
    except InconclusiveIntegralError as exc:
        raise InconclusiveIntegralError(
            f"kernel power q/2 = {q / 2} fails tail control (q too close to 2 "
            f"for this kernel decay): {exc}",
            tail_bound=exc.tail_bound, accumulated=exc.accumulated) from exc
    return float(val.real ** (2.0 / q))


def kernel_on_grid(rs: RootSystem, p: KernelParams, grid: RadialGrid,
                   piece: str = "total") -> RadialFunction:
    """Sample a kernel piece on every grid node (radial in |H|, so values
    are filled from a per-|H| profile)."""
    r = np.round(np.linalg.norm(grid.nodes, axis=1), 12)
    # any chamber representative with a given |H| works; use the rho_c ray
    direction = rs.rho_c / np.linalg.norm(rs.rho_c)
    profile = {}
    vals = np.empty(grid.n_nodes, dtype=complex)
    for i, s in enumerate(r):
        if s not in profile:
            profile[s] = kernel_piece(rs, p, direction * s, piece)
        vals[i] = profile[s]
    # restore the bi-invariant H-dependence through phi0: kernel = phi0 * psi(|H|)
    base = phi0(rs, grid.nodes)
    ref = phi0(rs, direction[None, :] * r[:, None])
    vals *= base / ref
    return RadialFunction(grid, vals)


def ks_box_radius(rs: RootSystem, t: float) -> float:
    """Box radius giving the phi0-weighted kernel-power integrand a clean
    exponential tail: cone reach plus a decay margin of order 1/|rho|."""
    return max(4.0, 2.0 * abs(t)) + 36.0 / rs.rho_norm


def kunze_stein_sweep(rs: RootSystem, q: float, times, sigma: complex,
                      per_axis: int = 257, piece: str = "total",
                      rho_tilde: float | None = None) -> tuple:
    """(times, bound values) of the convolution functional along a t-sweep."""
    out = []
    for t in np.asarray(times, dtype=float):
        grid = RadialGrid(rs, ks_box_radius(rs, t), per_axis)
        p = KernelParams(t=float(t), sigma=sigma, rho_tilde=rho_tilde)
        samples = kernel_on_grid(rs, p, grid, piece)
        out.append(kunze_stein_bound(rs, samples, q))
    return np.asarray(times, dtype=float), np.asarray(out)


@dataclass(frozen=True)
class DispersiveReport:
    q: float
    sigma_q: float
    rows: list = field(default_factory=list)   # per-t dicts
    small_time: dict = field(default_factory=dict)
    large_time: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"q": self.q, "sigma_q": self.sigma_q, "rows": self.rows,
                "small_time": self.small_time, "large_time": self.large_time}


def dispersive_report(rs: RootSystem, q: float, t_list,
                      per_axis_ks: int = 129, per_axis_sup: int | None = None,
                      tol_small: float = 0.15, tol_large: float = 0.2) -> DispersiveReport:
    """Per-t dispersive functionals and their fitted decay.

    The convolution functional is applied to the low kernel piece at
    sigma = (d+1)(1/2 - 1/q); the high piece is controlled through the sup
    of the regularized family on the critical line, whose fitted small-time
    slope is interpolated with weight (1 - 2/q) before comparison with the
    theoretical -(d-1)(1/2 - 1/q).
    """
    if not (2.0 < q < math.inf):
        raise DomainError("requires 2 < q < infinity")
    d, ell = rs.dim_X, rs.rank
    sigma_q = (d + 1) * (0.5 - 1.0 / q)
    sigma_endpoint = (d + 1) / 2.0 + 1.0j
    times = np.sort(np.asarray(t_list, dtype=float))
    per_axis_sup = per_axis_sup or (65 if ell == 1 else 49)
    rows = []
    for t in times:
        grid = RadialGrid(rs, ks_box_radius(rs, t), per_axis_ks)
        p_low = KernelParams(t=float(t), sigma=complex(sigma_q))
        ks_low = kunze_stein_bound(rs, kernel_on_grid(rs, p_low, grid, "low"), q)
        p_high = KernelParams(t=float(t), sigma=sigma_endpoint)
        sup_high = sup_weighted(rs, p_high, "high_reg", rs.n_positive,
                                chamber_sup_grid(rs, max(4.0, 2.0 * t), per_axis_sup))
        rows.append({"t": float(t), "ks_low": ks_low, "sup_high_reg": sup_high})
    report = DispersiveReport(q=q, sigma_q=sigma_q, rows=rows)
    small = times[times < 1.0]
    large = times[times >= 1.0]
    if small.size >= 4:
        sups = np.array([r["sup_high_reg"] for r in rows[:small.size]])
        fit = fit_decay(small, sups, "small_time", -(d - 1) / 2.0)
        interp = (1.0 - 2.0 / q) * fit.fitted_slope
        theo = -(d - 1) * (0.5 - 1.0 / q)
        ks_vals = np.array([r["ks_low"] for r in rows[:small.size]])
        report.small_time.update({
            "endpoint_slope": fit.fitted_slope,
            "interpolated_slope": interp, "theoretical_slope": theo,
            "ks_low_max": float(ks_vals.max()),
            "verified": bool(interp <= theo + tol_small)})
    if large.size >= 4:
        ks_vals = np.array([r["ks_low"] for r in rows[-large.size:]])
        fit = fit_decay(large, ks_vals, "large_time", -d / 2.0)
        report.large_time.update({
            "ks_slope": fit.fitted_slope, "theoretical_slope": -d / 2.0,
            "verified": bool(fit.fitted_slope <= -d / 2.0 + tol_large)})
    return report
