"""Quantitative verification harness: phase-geometry diagnostics, weighted
kernel suprema, decay-slope regression, and the convolution functional
behind the dispersive bounds.

Operator norms are never estimated directly; the harness evaluates the
sufficient functionals (the phi0-weighted integral of a kernel power and
sup bounds against the standard envelope) and regresses their time decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    sigma: complex = complex("nan")   # the kernel's sigma, as ``decay_sweep`` resolved it
    per_axis: int = 0                 # the points per axis it asked of its grids, likewise

    def as_dict(self) -> dict:
        return {"regime": self.regime,
                "times": [float(t) for t in self.times],
                "sup_ratios": [float(v) for v in self.sup_ratios],
                "fitted_slope": self.fitted_slope,
                "theoretical_slope": self.theoretical_slope,
                "r_squared": self.r_squared,
                "envelope_power": self.envelope_power,
                "sigma": [self.sigma.real, self.sigma.imag],
                "per_axis": self.per_axis}


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


def _sup_nodes(rs: RootSystem, t: float, chamber_grid: RadialGrid,
               interior_only: bool) -> np.ndarray:
    """The nodes of ``sup_weighted`` at time t: the open-chamber grid nodes
    and the ray nodes at fractions of |t|, inside the cone only if asked."""
    nodes = chamber_grid.nodes[chamber_grid.chamber_mask]
    ray = rs.rho_c / np.linalg.norm(rs.rho_c)
    ray_r = abs(t) * _RAY_FRACTIONS
    ray_r = ray_r[ray_r <= chamber_grid.box_radius]
    nodes = np.vstack([nodes, ray_r[:, None] * ray[None, :]])
    if interior_only:
        nodes = nodes[np.linalg.norm(nodes, axis=1) <= abs(t) / 2.0]
    if nodes.shape[0] == 0:
        raise DomainError("no chamber nodes in requested regime")
    return nodes


def _weighted_sup(rs: RootSystem, nodes: np.ndarray, vals: np.ndarray, N: float) -> float:
    return float(np.max(np.abs(vals) / phi0_envelope(rs, nodes, N)))


def sup_weighted(rs: RootSystem, p: KernelParams, piece: str, N: float,
                 chamber_grid: RadialGrid, interior_only: bool = False) -> float:
    """max over chamber nodes of |kernel piece| / ((1+|H|)^N e^{-<rho,H>}).

    The box grid is augmented with nodes at |H| = (fractions of t) along the
    chamber ray through rho, so the regime boundary |H|/t = 1/2 is straddled
    at every t, including t below the grid spacing.  ``interior_only``
    restricts to |H| <= |t|/2, the inside-the-cone regime.  All nodes go to
    ``kernel_piece`` as one stack at the one time ``p.t``, which evaluates
    one radial integral per distinct key (t, |H|), so symmetric grids cost
    one radial profile.  ``decay_sweep`` takes the same nodes at every time
    of a sweep in one call.
    """
    nodes = _sup_nodes(rs, p.t, chamber_grid, interior_only)
    return _weighted_sup(rs, nodes, kernel_piece(rs, p, nodes, piece), N)


SMALL_TIMES = np.geomspace(0.05, 0.8, 12)
LARGE_TIMES = np.geomspace(2.0, 40.0, 10)


def _regime(rs: RootSystem, regime: str) -> tuple:
    """(default times, kernel piece, envelope power N, theoretical slope,
    inside-the-cone only) of a decay regime."""
    d = rs.dim_X
    if regime == "small_time":
        return SMALL_TIMES, "high_reg", rs.n_positive, -(d - 1) / 2.0, False
    if regime == "large_time":
        return LARGE_TIMES, "total", d - rs.rank, -d / 2.0, True
    raise DomainError(f"unknown regime {regime!r}")


def _sup_settings(rs: RootSystem, sigma: complex | None, per_axis: int | None) -> tuple:
    """(sigma, per_axis) of ``_sup_sweep``: sigma on the critical line
    (d+1)/2 + i and 65 (rank 1) or 49 points per axis, each unless given."""
    return (complex((rs.dim_X + 1) / 2.0 + 1.0j if sigma is None else sigma),
            per_axis or (65 if rs.rank == 1 else 49))


def _sup_sweep(rs: RootSystem, regime: str, times, sigma: complex | None = None,
               per_axis: int | None = None, envelope_power: float | None = None) -> list:
    """``sup_weighted`` of the regime's piece at every time of ``times``, with
    the standard settings: those of ``_sup_settings``, the regime's envelope
    power and a box of radius max(4, 2t) per time, each unless given.  The
    nodes of all the times go to ``kernel_piece`` as one stack with per-row
    times, and each time's sup is taken over its own rows."""
    _, piece, N, _, interior = _regime(rs, regime)
    sigma, per_axis = _sup_settings(rs, sigma, per_axis)
    N = N if envelope_power is None else envelope_power
    times = [float(t) for t in times]
    nodes = [_sup_nodes(rs, t, chamber_sup_grid(rs, max(4.0, 2.0 * t), per_axis), interior)
             for t in times]
    vals = _kernel_over_times(rs, sigma, times, nodes, piece)
    return [_weighted_sup(rs, H, v, N) for H, v in zip(nodes, vals)]


def _kernel_over_times(rs: RootSystem, sigma: complex, times: list, nodes: list,
                       piece: str) -> list:
    """The kernel piece at ``nodes[i]`` (n_i, rank) and time ``times[i]``, for
    every i, from one ``kernel_piece`` call on the stacked nodes with
    per-row times; returns the values split per time."""
    if not times:
        return []
    counts = [len(H) for H in nodes]
    vals = kernel_piece(rs, KernelParams(t=times[0], sigma=sigma), np.concatenate(nodes), piece,
                        t=np.repeat(times, counts))
    return np.split(vals, np.cumsum(counts)[:-1])


def decay_sweep(rs: RootSystem, regime: str, sigma: complex | None = None,
                times=None, per_axis: int | None = None,
                envelope_power: float | None = None) -> DecayReport:
    """Sup-weighted kernel sweep with the standard windows and grids.

    Small time fits the regularized high piece on the critical line against
    -(d-1)/2; large time fits the full kernel in the interior regime
    against -d/2.  All the times are one ``kernel_piece`` call, keyed by
    (t, |H|) (``_sup_sweep``).
    """
    default_times, _, N, theo, _ = _regime(rs, regime)
    times = default_times if times is None else np.asarray(times, float)
    sigma, per_axis = _sup_settings(rs, sigma, per_axis)
    sups = _sup_sweep(rs, regime, times, sigma, per_axis, envelope_power)
    report = fit_decay(times, sups, regime=regime, theoretical_slope=theo,
                       envelope_power=N if envelope_power is None else envelope_power)
    return replace(report, sigma=sigma, per_axis=per_axis)


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
    """Sample a kernel piece at the time ``p.t`` on every grid node: one
    stacked ``kernel_piece`` call on the nodes themselves, which takes H
    anywhere in a and evaluates one radial integral per distinct key
    (t, |H|) (``_radial_profile`` keys them).  A sweep over times samples
    all its grids in one call with per-row times instead
    (``_kernel_over_times``)."""
    return RadialFunction(grid, kernel_piece(rs, p, grid.nodes, piece))


def ks_box_radius(rs: RootSystem, t: float) -> float:
    """Box radius giving the phi0-weighted kernel-power integrand a clean
    exponential tail: cone reach plus a decay margin of order 1/|rho|."""
    return max(4.0, 2.0 * abs(t)) + 36.0 / rs.rho_norm


def kunze_stein_sweep(rs: RootSystem, q: float, times, sigma: complex) -> tuple:
    """(times, bound values) of the convolution functional of the full
    kernel along a t-sweep, on 257 points per axis.  The grids of all the
    times are one ``kernel_piece`` call with per-row times, keyed by
    (t, |H|)."""
    times = np.asarray(times, dtype=float)
    grids = [RadialGrid(rs, ks_box_radius(rs, t), 257) for t in times]
    vals = _kernel_over_times(rs, sigma, times.tolist(), [g.nodes for g in grids], "total")
    out = [kunze_stein_bound(rs, RadialFunction(g, v), q) for g, v in zip(grids, vals)]
    return times, np.asarray(out)


@dataclass(frozen=True)
class DispersiveReport:
    q: float
    sigma_q: float
    per_axis_ks: int                           # the Kunze-Stein grids' points per axis
    rows: list = field(default_factory=list)   # per-t dicts
    small_time: dict = field(default_factory=dict)
    large_time: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"q": self.q, "sigma_q": self.sigma_q, "per_axis_ks": self.per_axis_ks,
                "rows": self.rows, "small_time": self.small_time,
                "large_time": self.large_time}


def dispersive_report(rs: RootSystem, q: float, t_list,
                      per_axis_ks: int = 129) -> DispersiveReport:
    """Per-t dispersive functionals and their fitted decay.  The low pieces
    of all the times are one ``kernel_piece`` call, and so are the
    regularized high pieces (``_sup_sweep``).

    The convolution functional is applied to the low kernel piece at
    sigma = (d+1)(1/2 - 1/q); the high piece is controlled through the sup
    of the regularized family on the critical line, whose fitted small-time
    slope is interpolated with weight (1 - 2/q) before comparison with the
    theoretical -(d-1)(1/2 - 1/q).  The small-time slope may exceed its
    theoretical value by 0.15 and the large-time slope by 0.2.
    """
    if not (2.0 < q < math.inf):
        raise DomainError("requires 2 < q < infinity")
    d = rs.dim_X
    sigma_q = (d + 1) * (0.5 - 1.0 / q)
    times = np.sort(np.asarray(t_list, dtype=float))
    grids = [RadialGrid(rs, ks_box_radius(rs, t), per_axis_ks) for t in times]
    lows = _kernel_over_times(rs, complex(sigma_q), times.tolist(), [g.nodes for g in grids], "low")
    sups = _sup_sweep(rs, "small_time", times)
    rows = [{"t": float(t), "ks_low": kunze_stein_bound(rs, RadialFunction(g, v), q),
             "sup_high_reg": sup} for t, g, v, sup in zip(times, grids, lows, sups)]
    report = DispersiveReport(q=q, sigma_q=sigma_q, per_axis_ks=per_axis_ks, rows=rows)
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
            "verified": bool(interp <= theo + 0.15)})
    if large.size >= 4:
        ks_vals = np.array([r["ks_low"] for r in rows[-large.size:]])
        fit = fit_decay(large, ks_vals, "large_time", -d / 2.0)
        report.large_time.update({
            "ks_slope": fit.fitted_slope, "theoretical_slope": -d / 2.0,
            "verified": bool(fit.fitted_slope <= -d / 2.0 + 0.2)})
    return report
