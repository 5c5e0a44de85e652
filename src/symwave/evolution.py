"""Spectral Klein-Gordon solver for bi-invariant data, plus the Strichartz
admissibility region and the global well-posedness regularity thresholds.

The free flow applies the multipliers cos(t Omega) and sin(t Omega)/Omega,
Omega = sqrt(|lam|^2 + |rho|^2), in the spherical-transform domain.  The
inhomogeneous term uses trapezoidal time quadrature of Duhamel's formula;
sin((t_k - s) Omega) = sin(t_k Omega) cos(s Omega) - cos(t_k Omega) sin(s Omega)
turns the integrals at all K mesh times into running sums, O(K M) for M
frequencies.  The semilinear solver iterates the classical fixed-point
scheme on a uniform time mesh, transforming the whole trajectory in one
stacked call per direction and iteration.
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
                        forward_transform_stack, inverse_transform,
                        inverse_transform_stack, plancherel_constant,
                        plancherel_density)


def _check_grid(grid: RadialGrid, want: RadialGrid, what: str) -> None:
    """Raise ConfigError, naming both grids, unless ``grid`` has the root
    system, box radius and points per axis of ``want``."""
    a, b = ((g.rs.tag, g.box_radius, g.points_per_axis) for g in (grid, want))
    if a != b:
        raise ConfigError("{} is on the {} grid of box radius {:.17g} with {} points per "
                          "axis, not the {} grid of box radius {:.17g} with {} points per "
                          "axis".format(what, *a, *b))


@dataclass(frozen=True)
class WaveState:
    u: RadialFunction
    ut: RadialFunction
    time: float

    def __post_init__(self):
        _check_grid(self.ut.grid, self.u.grid, "ut")


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


def gwp_sigma(d: int, gamma: float) -> float:
    """Piecewise regularity threshold for small-data global well-posedness;
    the first branch ("0+") is reported as 1e-3."""
    g = gwp_powers(d)
    c = gwp_curves(d)
    if gamma <= 1.0:
        raise OutOfRangeError("gamma must exceed 1")
    if gamma > g["gamma_4"] + 1e-12:
        raise OutOfRangeError(f"gamma beyond gamma_4 = {g['gamma_4']:.6g}")
    if gamma <= g["gamma_1"]:
        return 1e-3
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


def default_spectral_grid(rs: RootSystem, rgrid: RadialGrid) -> SpectralGrid:
    """Spectral box resolving the radial grid: L = 0.66 pi / h."""
    L = 0.66 * np.pi / rgrid.spacing
    m = rgrid.points_per_axis
    return SpectralGrid(rs, L, m if m % 2 == 1 else m + 1)


def suggested_steps(rs: RootSystem, sgrid: SpectralGrid, T: float) -> int:
    """Steps keeping the fastest resolved phase advance below pi/8 per step."""
    om_max = math.sqrt(rs.rank * sgrid.box_radius ** 2 + rs.rho_norm ** 2)
    return max(8, int(math.ceil(abs(T) * om_max / (math.pi / 8.0))))


# Relative mass below which a slice is rounding noise next to the flow.
_NOISE = 1e-10
# Largest share of a slice's mass that the transforms' box shell may hold.
_TAIL_TOL = 1e-8


class KleinGordonPropagator:
    """Klein-Gordon flow between one radial and one spectral grid.

    Caches omega and the Plancherel quadrature weights of the spectral grid.
    Both transform methods take one function or a stack of time slices, and
    their tail-check floors come from the arguments of each call.
    """

    def __init__(self, rs: RootSystem, rgrid: RadialGrid,
                 sgrid: SpectralGrid | None = None):
        self.rs = rs
        self.rgrid = rgrid
        self.sgrid = sgrid or default_spectral_grid(rs, rgrid)
        self.omega = _omega(rs, self.sgrid)
        self._wq = self.sgrid.weights * plancherel_density(rs, self.sgrid.nodes)

    def _spectral_mass(self, values: np.ndarray) -> np.ndarray:
        """Plancherel-weighted mass sum w |g| pi^2 of each slice (last axis)."""
        return np.sum(self._wq * np.abs(values), axis=-1)

    def to_spectral(self, f, tail_floor: float = 0.0):
        """Forward transform of one RadialFunction, returned as a
        SpectralFunction, or of a stack of values (B, N) on ``rgrid``,
        returned as values (B, M).  Slices of radial mass at most
        ``tail_floor`` skip the tail check."""
        try:
            if isinstance(f, RadialFunction):
                return forward_transform(self.rs, f, self.sgrid,
                                         _TAIL_TOL, tail_floor)
            return forward_transform_stack(self.rs, self.rgrid, f, self.sgrid,
                                           _TAIL_TOL, tail_floor)
        except InconclusiveIntegralError as exc:
            raise ResolutionError(f"data not resolved by the grids: {exc}",
                                  slice_index=exc.slice_index) from exc

    def to_radial(self, g):
        """Inverse transform of one SpectralFunction, returned as a
        RadialFunction, or of a stack of values (B, M) on ``sgrid``,
        returned as values (B, N).  Slices holding at most 1e-10 of the
        largest spectral mass in the call are rounding noise next to it and
        skip the tail check."""
        single = isinstance(g, SpectralFunction)
        floor = _NOISE * float(np.max(self._spectral_mass(
            g.values if single else g)))
        try:
            if single:
                return inverse_transform(self.rs, g, self.rgrid,
                                         _TAIL_TOL, floor)
            return inverse_transform_stack(self.rs, self.sgrid, g, self.rgrid,
                                           _TAIL_TOL, floor)
        except InconclusiveIntegralError as exc:
            raise ResolutionError(f"spectrum not resolved by the grids: {exc}",
                                  slice_index=exc.slice_index) from exc

    def free_flow_spectral(self, fh: np.ndarray, gh: np.ndarray, t) -> tuple:
        """(u, ut) of the free flow from (fh, gh) at time t, or one row per
        time when t is a mesh of times."""
        om = self.omega
        phase = np.multiply.outer(t, om)
        c, s = np.cos(phase), np.sin(phase)
        u = c * fh + s / om * gh
        ut = -om * s * fh + c * gh
        return u, ut

    def propagate(self, state: WaveState, t: float,
                  forcing=None) -> WaveState:
        """Evolve ``state`` by time t; ``forcing`` is (times, [RadialFunction])
        sampled uniformly over [state.time, state.time + t]."""
        _check_grid(state.u.grid, self.rgrid, "state")
        fh, gh = self.to_spectral(np.stack([state.u.values, state.ut.values]))
        u, ut = self.free_flow_spectral(fh, gh, t)
        if forcing is not None:
            f_times, f_vals = forcing
            f_times = np.asarray(f_times, dtype=float) - state.time
            slack = 1e-12 * max(1.0, abs(t))
            if (f_times.size < 2 or len(f_vals) != f_times.size
                    or abs(f_times[0]) > slack or abs(f_times[-1] - t) > slack
                    or not np.allclose(np.diff(f_times), f_times[1] - f_times[0])):
                raise ConfigError("forcing must be sampled on a uniform mesh "
                                  "from state.time to state.time + t")
            for F in f_vals:
                _check_grid(F.grid, self.rgrid, "forcing slice")
            Fh = self.to_spectral(np.stack([F.values for F in f_vals]))
            du, dut = _duhamel(f_times, self.omega, Fh)
            u, ut = u + du[-1], ut + dut[-1]
        ru, rut = self.to_radial(np.stack([u, ut]))
        return WaveState(u=RadialFunction(self.rgrid, ru),
                         ut=RadialFunction(self.rgrid, rut),
                         time=state.time + t)

    def _energies(self, uh: np.ndarray, uth: np.ndarray) -> np.ndarray:
        """Free energy C int (|ut^|^2 + Omega^2 |u^|^2) pi^2 of each slice."""
        dens = np.abs(uth) ** 2 + self.omega ** 2 * np.abs(uh) ** 2
        return plancherel_constant(self.rs) * np.sum(self._wq * dens, axis=-1)

    def energy(self, state: WaveState) -> float:
        """Free energy ||ut||_2^2 + ||sqrt(-Lap) u||_2^2 via the transform."""
        _check_grid(state.u.grid, self.rgrid, "state")
        fh, gh = self.to_spectral(np.stack([state.u.values, state.ut.values]))
        return float(self._energies(fh, gh))


def sobolev_norm_2(rs: RootSystem, u: RadialFunction, s: float,
                   sgrid: SpectralGrid | None = None) -> float:
    """|| (-Lap)^{s/2} u ||_{L^2} computed spectrally:
    ( C int (|lam|^2+|rho|^2)^s |Hu|^2 pi^2 dlam )^{1/2}."""
    prop = KleinGordonPropagator(rs, u.grid, sgrid)
    uh = prop.to_spectral(u).values
    C = plancherel_constant(rs)
    val = C * np.sum(prop._wq * prop.omega ** (2.0 * s) * np.abs(uh) ** 2)
    return float(math.sqrt(max(val, 0.0)))


# ---------------------------------------------------------------------------
# Duhamel sums and the semilinear fixed point
# ---------------------------------------------------------------------------

def _cumulative_trapezoid(g: np.ndarray, dt: float) -> np.ndarray:
    """Row k: trapezoid integral of the rows of g over mesh points 0..k."""
    out = np.cumsum(g, axis=0)
    out -= 0.5 * (g[0] + g)
    out *= dt
    return out


def _duhamel(times: np.ndarray, om: np.ndarray, Fh: np.ndarray) -> tuple:
    """Trapezoid Duhamel integrals on a uniform mesh, one row per mesh time:
    U_k = int_{t_0}^{t_k} sin((t_k - s) Omega)/Omega F(s) ds and U'_k, the
    same with cos.  sin((t_k - s) w) = sin(t_k w) cos(s w) - cos(t_k w) sin(s w)
    turns both into running sums, O(K M) for K times and M frequencies."""
    phase = np.multiply.outer(times, om)
    c, s = np.cos(phase), np.sin(phase)
    dt = times[1] - times[0]
    A = _cumulative_trapezoid(c * Fh, dt)
    B = _cumulative_trapezoid(s * Fh, dt)
    U = (s * A - c * B) / om
    Ut = c * A + s * B
    return U, Ut


def _nonlinearity(u: np.ndarray, gamma: float, mu: float) -> np.ndarray:
    return mu * np.abs(u) ** (gamma - 1.0) * u


def _on_mesh(transform, values: np.ndarray, times: np.ndarray, **kw):
    """Apply a stacked transform to time slices; a ResolutionError then
    names the mesh time of the failing slice."""
    try:
        return transform(values, **kw)
    except ResolutionError as exc:
        t = times[exc.slice_index % times.size]
        raise ResolutionError(f"at mesh time t = {t:.6g}: {exc}",
                              slice_index=exc.slice_index) from exc


def _nonlinear_duhamel(prop: KleinGordonPropagator, u: np.ndarray,
                       times: np.ndarray, gamma: float, mu: float) -> tuple:
    """Duhamel integrals of F(u) for spectral slices u (K, M) at the mesh
    times; F(u) is tail-checked against the mass of the flow it came from."""
    floor = _NOISE * float(np.max(prop._spectral_mass(u)))
    phys = _on_mesh(prop.to_radial, u, times)
    Fh = _on_mesh(prop.to_spectral, _nonlinearity(phys, gamma, mu), times,
                  tail_floor=floor)
    return _duhamel(times, prop.omega, Fh)


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

    F(u) = mu |u|^{gamma-1} u.  Each iteration transforms the whole
    trajectory in one stacked call per direction, and F(u) is tail-checked
    against the mass of the flow it came from.  Divergence (residual growth
    over five consecutive iterations) and a last residual still above
    ``tol`` after ``max_iter`` iterations both raise DivergenceError,
    carrying the data norm as a smallness diagnostic; a returned result has
    converged.
    """
    if gamma <= 1.0:
        raise DomainError("gamma must exceed 1")
    if steps < 2:
        raise ConfigError("need at least 2 time steps")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    prop = KleinGordonPropagator(rs, state0.u.grid, sgrid)
    times = np.linspace(0.0, T, steps + 1)
    K = times.size
    fh, gh = prop.to_spectral(np.stack([state0.u.values, state0.ut.values]))
    # rows 0..K-1 hold u at each mesh time, rows K..2K-1 hold ut
    lin = np.concatenate(prop.free_flow_spectral(fh, gh, times))

    cur = lin
    residuals = []
    grow = 0
    for _ in range(max_iter):
        new = np.concatenate(_nonlinear_duhamel(prop, cur[:K], times, gamma, mu))
        new += lin
        resid = float(np.max(np.abs(new[:K] - cur[:K])))
        residuals.append(resid)
        cur = new
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
    phys = _on_mesh(prop.to_radial, cur, times)
    trajectory = [WaveState(u=RadialFunction(prop.rgrid, ru),
                            ut=RadialFunction(prop.rgrid, rut), time=float(t))
                  for ru, rut, t in zip(phys[:K], phys[K:], times)]
    return SemilinearResult(times=times, trajectory=trajectory,
                            residuals=residuals, iterations=len(residuals),
                            energies=prop._energies(cur[:K], cur[K:]))


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
