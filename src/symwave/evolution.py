"""Spectral Klein-Gordon solver for bi-invariant data, plus the Strichartz
admissibility region and the global well-posedness regularity thresholds.

The free flow applies the multipliers cos(t Omega) and sin(t Omega)/Omega,
Omega = sqrt(|lam|^2 + |rho|^2), in the spherical-transform domain; the
inhomogeneous term uses trapezoidal time quadrature of Duhamel's formula,
and the semilinear solver iterates the classical fixed-point scheme on a
uniform time mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DivergenceError, DomainError,
                     InconclusiveIntegralError, OutOfRangeError,
                     ResolutionError)
from .geometry import RadialFunction, RadialGrid
from .root_system import RootSystem
from .spherical import (SpectralFunction, SpectralGrid, forward_transform,
                        inverse_transform, plancherel_constant,
                        plancherel_density)


@dataclass(frozen=True)
class WaveState:
    u: RadialFunction
    ut: RadialFunction
    time: float

    def __post_init__(self):
        if self.u.grid is not self.ut.grid:
            if (self.u.grid.box_radius != self.ut.grid.box_radius
                    or self.u.grid.points_per_axis != self.ut.grid.points_per_axis):
                raise ConfigError("u and ut must share one grid")


def admissible(d: int, p: float, q: float) -> bool:
    """Membership in the admissible region: the triangle
    1/p >= (d-1)/2 (1/2 - 1/q) over (0,1/2] x (0,1/2), plus the corner
    (1/p, 1/q) = (0, 1/2).  The d = 3 endpoint (1/2, 0) falls outside
    automatically since 1/q = 0 is excluded."""
    if d < 3:
        raise DomainError("requires d >= 3")
    if p < 2 or q < 2:
        return False
    u = 0.0 if p == math.inf else 1.0 / p
    v = 0.0 if q == math.inf else 1.0 / q
    if (u, v) == (0.0, 0.5):
        return True
    if not (0.0 < u <= 0.5 and 0.0 < v < 0.5):
        return False
    return u >= (d - 1) / 2.0 * (0.5 - v) - 1e-15


def sigma_pq(d: int, p: float, q: float) -> float:
    """Regularity threshold (d+1)/2 (1/2-1/q) + max(0, (d-1)/2 (1/2-1/q) - 1/p)
    on the closed square [0,1/2] x (0,1/2) plus the corner (0,1/2)."""
    u = 0.0 if p == math.inf else 1.0 / p
    v = 0.0 if q == math.inf else 1.0 / q
    inside = (0.0 <= u <= 0.5) and (0.0 < v <= 0.5)
    if not inside:
        raise DomainError(f"(1/p, 1/q) = ({u}, {v}) outside the covered square")
    return (d + 1) / 2.0 * (0.5 - v) + max(0.0, (d - 1) / 2.0 * (0.5 - v) - u)


def gwp_powers(d: int) -> dict:
    """Named breakpoints of the well-posedness power scale."""
    if d < 3:
        raise DomainError("requires d >= 3")
    gamma_1 = 1.0 + 3.0 / d
    gamma_2 = 1.0 + 2.0 / ((d - 1) / 2.0 + 2.0 / (d - 1))
    gamma_c = 1.0 + 4.0 / (d - 1)
    if d <= 5:
        gamma_3 = ((d + 6) / 2.0 + 2.0 / (d - 1)
                   + math.sqrt(4.0 * d + ((6 - d) / 2.0 + 2.0 / (d - 1)) ** 2)) / d
        gamma_4 = 1.0 + 4.0 / (d - 2)
    else:
        gamma_3 = 1.0 + 2.0 / ((d - 1) / 2.0 - 1.0 / (d - 1))
        gamma_4 = ((d - 1) / 2.0 + 3.0 / (d + 1)
                   - math.sqrt(((d - 3) / 2.0 + 3.0 / (d + 1)) ** 2
                               - 4.0 * (d - 1) / (d + 1)))
    return {"gamma_1": gamma_1, "gamma_2": gamma_2, "gamma_c": gamma_c,
            "gamma_3": gamma_3, "gamma_4": gamma_4}


def gwp_curves(d: int) -> dict:
    """The sigma(gamma) branch curves, with the first branch pinned at 0."""
    def sigma_1(g):
        return (d + 1) / 4.0 - (d + 1) * (d + 5) / (8.0 * d) / (g - (d + 1) / (2.0 * d))

    def sigma_2(g):
        return (d + 1) / 4.0 - 1.0 / (g - 1.0)

    def sigma_3(g):
        return d / 2.0 - 2.0 / (g - 1.0)

    return {"sigma_0": lambda g: 0.0, "sigma_1": sigma_1,
            "sigma_2": sigma_2, "sigma_3": sigma_3}


def gwp_sigma(d: int, gamma: float, eps: float = 1e-3) -> float:
    """Piecewise regularity threshold for small-data global well-posedness;
    the first branch ("0+") is reported as ``eps``."""
    g = gwp_powers(d)
    c = gwp_curves(d)
    if gamma <= 1.0:
        raise OutOfRangeError("gamma must exceed 1")
    if gamma > g["gamma_4"] + 1e-12:
        raise OutOfRangeError(f"gamma beyond gamma_4 = {g['gamma_4']:.6g}")
    if gamma <= g["gamma_1"]:
        return eps
    if gamma <= g["gamma_2"]:
        return c["sigma_1"](gamma)
    if gamma <= g["gamma_c"]:
        return c["sigma_2"](gamma)
    return c["sigma_3"](gamma)


# ---------------------------------------------------------------------------
# spectral propagation
# ---------------------------------------------------------------------------

def _omega(rs: RootSystem, sgrid: SpectralGrid) -> np.ndarray:
    return np.sqrt(np.sum(sgrid.nodes ** 2, axis=1) + rs.rho_norm ** 2)


def default_spectral_grid(rs: RootSystem, rgrid: RadialGrid,
                          margin: float = 0.66) -> SpectralGrid:
    """Spectral box resolving the radial grid: L = margin * pi / h."""
    L = margin * np.pi / rgrid.spacing
    m = rgrid.points_per_axis
    return SpectralGrid(rs, L, m if m % 2 == 1 else m + 1)


def suggested_steps(rs: RootSystem, sgrid: SpectralGrid, T: float) -> int:
    """Steps keeping the fastest resolved phase advance below pi/8 per step."""
    om_max = math.sqrt(rs.rank * sgrid.box_radius ** 2 + rs.rho_norm ** 2)
    return max(8, int(math.ceil(abs(T) * om_max / (math.pi / 8.0))))


class KleinGordonPropagator:
    """Caches the transform pair between one radial and one spectral grid."""

    def __init__(self, rs: RootSystem, rgrid: RadialGrid,
                 sgrid: SpectralGrid | None = None, tail_tol: float = 1e-8):
        self.rs = rs
        self.rgrid = rgrid
        self.sgrid = sgrid or default_spectral_grid(rs, rgrid)
        self.tail_tol = tail_tol
        self.omega = _omega(rs, self.sgrid)
        self._scale = 0.0   # dominant spectral mass seen so far; noise floor

    def to_spectral(self, f: RadialFunction) -> SpectralFunction:
        try:
            return forward_transform(self.rs, f, self.sgrid, tail_tol=self.tail_tol,
                                     tail_floor=1e-10 * self._scale)
        except InconclusiveIntegralError as exc:
            raise ResolutionError(f"data not resolved by the grids: {exc}") from exc

    def to_radial(self, g: SpectralFunction) -> RadialFunction:
        mass = float(np.sum(self.sgrid.weights * np.abs(g.values)
                            * plancherel_density(self.rs, self.sgrid.nodes)))
        self._scale = max(self._scale, mass)
        try:
            return inverse_transform(self.rs, g, self.rgrid, tail_tol=self.tail_tol,
                                     tail_floor=1e-10 * self._scale)
        except InconclusiveIntegralError as exc:
            raise ResolutionError(f"spectrum not resolved by the grids: {exc}") from exc

    def free_flow_spectral(self, fh: np.ndarray, gh: np.ndarray,
                           t: float) -> tuple:
        om = self.omega
        c, s = np.cos(t * om), np.sin(t * om)
        u = c * fh + s / om * gh
        ut = -om * s * fh + c * gh
        return u, ut

    def propagate(self, state: WaveState, t: float,
                  forcing=None) -> WaveState:
        """Evolve ``state`` by time t; ``forcing`` is (times, [RadialFunction])
        sampled uniformly over [state.time, state.time + t]."""
        fh = self.to_spectral(state.u).values
        gh = self.to_spectral(state.ut).values
        u, ut = self.free_flow_spectral(fh, gh, t)
        if forcing is not None:
            f_times, f_vals = forcing
            f_times = np.asarray(f_times, dtype=float) - state.time
            if f_times.size < 2 or not np.allclose(np.diff(f_times),
                                                   f_times[1] - f_times[0]):
                raise ConfigError("forcing must be sampled on a uniform mesh")
            Fh = np.stack([self.to_spectral(F).values for F in f_vals])
            om = self.omega
            dt = f_times[1] - f_times[0]
            w = np.full(f_times.size, dt)
            w[0] = w[-1] = dt / 2.0
            inside = (f_times >= min(0.0, t) - 1e-12) & (f_times <= max(0.0, t) + 1e-12)
            ker_u = np.sin((t - f_times[:, None]) * om[None, :]) / om[None, :]
            ker_ut = np.cos((t - f_times[:, None]) * om[None, :])
            sel = np.where(inside, w, 0.0)
            u = u + (sel[:, None] * ker_u * Fh).sum(axis=0)
            ut = ut + (sel[:, None] * ker_ut * Fh).sum(axis=0)
        ru = self.to_radial(SpectralFunction(self.sgrid, u))
        rut = self.to_radial(SpectralFunction(self.sgrid, ut))
        return WaveState(u=ru, ut=rut, time=state.time + t)

    def energy(self, state: WaveState) -> float:
        """Free energy ||ut||_2^2 + ||sqrt(-Lap) u||_2^2 via the transform."""
        fh = self.to_spectral(state.u).values
        gh = self.to_spectral(state.ut).values
        w = self.sgrid.weights * plancherel_density(self.rs, self.sgrid.nodes)
        C = plancherel_constant(self.rs)
        return float(C * np.sum(w * (np.abs(gh) ** 2
                                     + self.omega ** 2 * np.abs(fh) ** 2)))


def sobolev_norm_2(rs: RootSystem, u: RadialFunction, s: float,
                   sgrid: SpectralGrid | None = None) -> float:
    """|| (-Lap)^{s/2} u ||_{L^2} computed spectrally:
    ( C int (|lam|^2+|rho|^2)^s |Hu|^2 pi^2 dlam )^{1/2}."""
    prop = KleinGordonPropagator(rs, u.grid, sgrid)
    uh = prop.to_spectral(u).values
    w = prop.sgrid.weights * plancherel_density(rs, prop.sgrid.nodes)
    C = plancherel_constant(rs)
    val = C * np.sum(w * prop.omega ** (2.0 * s) * np.abs(uh) ** 2)
    return float(math.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# semilinear fixed point
# ---------------------------------------------------------------------------

def _nonlinearity(u: np.ndarray, gamma: float, mu: float) -> np.ndarray:
    return mu * np.abs(u) ** (gamma - 1.0) * u


@dataclass
class SemilinearResult:
    times: np.ndarray
    trajectory: list            # WaveState per mesh time
    residuals: list             # sup distance between successive iterates
    iterations: int
    energies: np.ndarray


def semilinear_solve(rs: RootSystem, state0: WaveState, gamma: float, T: float,
                     steps: int, mu: float = 1.0, tol: float = 1e-8,
                     max_iter: int = 50,
                     sgrid: SpectralGrid | None = None) -> SemilinearResult:
    """Picard iteration of u -> linear flow + Duhamel(F(u)) on a uniform mesh.

    F(u) = mu |u|^{gamma-1} u.  Divergence (residual growth over five
    consecutive iterations) and a last residual still above ``tol`` after
    ``max_iter`` iterations both raise DivergenceError, carrying the data
    norm as a smallness diagnostic; a returned result has converged.
    """
    if gamma <= 1.0:
        raise DomainError("gamma must exceed 1")
    if steps < 2:
        raise ConfigError("need at least 2 time steps")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    prop = KleinGordonPropagator(rs, state0.u.grid, sgrid)
    times = np.linspace(0.0, T, steps + 1)
    dt = times[1] - times[0]
    om = prop.omega
    fh = prop.to_spectral(state0.u).values
    gh = prop.to_spectral(state0.ut).values
    lin_u, lin_ut = [], []
    for t in times:
        u, ut = prop.free_flow_spectral(fh, gh, t)
        lin_u.append(u)
        lin_ut.append(ut)
    lin_u, lin_ut = np.stack(lin_u), np.stack(lin_ut)

    cur_u = lin_u.copy()
    residuals = []
    grow = 0
    for _ in range(max_iter):
        phys = np.stack([prop.to_radial(SpectralFunction(prop.sgrid, cur_u[k])).values
                         for k in range(times.size)])
        Fh = np.stack([prop.to_spectral(
            RadialFunction(prop.rgrid, _nonlinearity(phys[k], gamma, mu))).values
            for k in range(times.size)])
        new_u = lin_u.copy()
        new_ut = lin_ut.copy()
        for k in range(1, times.size):
            w = np.full(k + 1, dt)
            w[0] = w[-1] = dt / 2.0
            tk = times[k]
            ker_u = np.sin((tk - times[:k + 1, None]) * om[None, :]) / om[None, :]
            ker_ut = np.cos((tk - times[:k + 1, None]) * om[None, :])
            new_u[k] += (w[:, None] * ker_u * Fh[:k + 1]).sum(axis=0)
            new_ut[k] += (w[:, None] * ker_ut * Fh[:k + 1]).sum(axis=0)
        resid = float(np.max(np.abs(new_u - cur_u)))
        residuals.append(resid)
        cur_u = new_u
        cur_ut = new_ut
        if resid < tol:
            break
        if len(residuals) >= 2 and residuals[-1] > residuals[-2]:
            grow += 1
            if grow >= 5:
                data_norm = float(np.sqrt(prop.energy(state0)))
                raise DivergenceError(
                    f"Picard residuals grew 5 times (last {resid:.3e}); "
                    f"data likely not small enough", data_norm=data_norm)
        else:
            grow = 0
    if not resid < tol:
        data_norm = float(np.sqrt(prop.energy(state0)))
        raise DivergenceError(
            f"Picard residual {resid:.3e} still above tol {tol:.0e} after "
            f"{max_iter} iterations", data_norm=data_norm)
    trajectory = []
    energies = []
    C = plancherel_constant(rs)
    wq = prop.sgrid.weights * plancherel_density(rs, prop.sgrid.nodes)
    for k, t in enumerate(times):
        ru = prop.to_radial(SpectralFunction(prop.sgrid, cur_u[k]))
        rut = prop.to_radial(SpectralFunction(prop.sgrid, cur_ut[k]))
        trajectory.append(WaveState(u=ru, ut=rut, time=float(t)))
        energies.append(float(C * np.sum(wq * (np.abs(cur_ut[k]) ** 2
                                               + om ** 2 * np.abs(cur_u[k]) ** 2))))
    return SemilinearResult(times=times, trajectory=trajectory,
                            residuals=residuals, iterations=len(residuals),
                            energies=np.asarray(energies))


def gaussian_state(rs: RootSystem, rgrid: RadialGrid, amplitude: float = 1.0,
                   width: float = 1.0, sobolev_order: float | None = None,
                   target_norm: float | None = None) -> WaveState:
    """Gaussian bump data (f, 0), optionally rescaled so that
    ||f||_{H^sobolev_order,2} equals ``target_norm``."""
    vals = amplitude * np.exp(-np.sum(rgrid.nodes ** 2, axis=1) / width ** 2)
    f = RadialFunction(rgrid, vals)
    if target_norm is not None:
        if sobolev_order is None:
            raise ConfigError("target_norm requires sobolev_order")
        cur = sobolev_norm_2(rs, f, sobolev_order)
        f = RadialFunction(rgrid, vals * (target_norm / cur))
    zero = RadialFunction(rgrid, np.zeros(rgrid.n_nodes, dtype=complex))
    return WaveState(u=f, ut=zero, time=0.0)
