"""Cartan-decomposition geometry: grids on the flat part, the integration
density, the ground spherical function and bi-invariant integration.

All chamber data is expressed in orthonormal coordinates on the flat part;
grids are uniform tensor products over a symmetric box so the origin is a
node (odd point counts enforced).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ChamberError, ConfigError, InconclusiveIntegralError
from .root_system import RootSystem, weyl_group

TAIL_TOL = 1e-10


def _tensor_nodes(axis: np.ndarray, rank: int) -> np.ndarray:
    grids = np.meshgrid(*([axis] * rank), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _trapezoid_weights(axis: np.ndarray, rank: int) -> np.ndarray:
    h = axis[1] - axis[0]
    w1 = np.full(axis.shape, h)
    w1[0] = w1[-1] = h / 2.0
    w = w1
    for _ in range(rank - 1):
        w = np.multiply.outer(w, w1)
    return w.ravel()


@dataclass(frozen=True)
class RadialGrid:
    """Uniform tensor grid over the box [-R, R]^rank in the flat part."""

    rs: RootSystem
    box_radius: float
    points_per_axis: int
    axis: np.ndarray = field(repr=False, default=None)
    nodes: np.ndarray = field(repr=False, default=None)          # (N, rank)
    weights: np.ndarray = field(repr=False, default=None)        # trapezoid
    chamber_mask: np.ndarray = field(repr=False, default=None)   # open chamber

    def __post_init__(self):
        n = self.points_per_axis
        if n < 3 or n % 2 == 0:
            raise ConfigError("points_per_axis must be odd and >= 3")
        if self.box_radius <= 0:
            raise ConfigError("box_radius must be positive")
        axis = np.linspace(-self.box_radius, self.box_radius, n)
        nodes = _tensor_nodes(axis, self.rs.rank)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", _trapezoid_weights(axis, self.rs.rank))
        pos = np.all(nodes @ self.rs.simple_c.T > 1e-12, axis=1)
        object.__setattr__(self, "chamber_mask", pos)

    @property
    def spacing(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.rs.rank

    def shell_mask(self) -> np.ndarray:
        """Nodes with some coordinate on the box boundary."""
        edge = np.isclose(np.abs(self.nodes), self.box_radius)
        return np.any(edge, axis=1)

    def interior_chamber_mask(self, margin_steps: int = 2) -> np.ndarray:
        """Chamber nodes at least ``margin_steps`` grid spacings from every
        root wall and from the box boundary."""
        h = self.spacing
        norms = np.linalg.norm(self.rs.roots_c, axis=1)
        dist = (self.nodes @ self.rs.roots_c.T) / norms   # signed wall distances
        ok = np.all(dist >= margin_steps * h - 1e-12, axis=1)
        box_ok = np.all(np.abs(self.nodes) <= self.box_radius - margin_steps * h + 1e-12,
                        axis=1)
        return ok & box_ok


@dataclass(frozen=True)
class RadialFunction:
    """Samples of a bi-invariant function over a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        if v.shape[0] != self.grid.n_nodes:
            raise ConfigError("values length does not match grid")
        object.__setattr__(self, "values", v)

    def tensor(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def w_invariance_defect(f: RadialFunction, decimals: int = 9) -> float:
    """Max |f(H) - f(wH)| over Weyl images that land back on grid nodes."""
    grid, rs = f.grid, f.grid.rs
    index = {np.round(node, decimals).tobytes(): i
             for i, node in enumerate(grid.nodes)}
    worst = 0.0
    for w in weyl_group(rs).matrices:
        mapped = grid.nodes @ w.T
        for i, m in enumerate(np.round(mapped, decimals)):
            j = index.get(m.tobytes())
            if j is not None:
                worst = max(worst, abs(f.values[i] - f.values[j]))
    return worst


def density_delta(rs: RootSystem, H: np.ndarray) -> np.ndarray:
    """Integration density prod_{alpha>0} sinh^2 <alpha, H>."""
    pair = rs.pairings(np.asarray(H, dtype=float))
    return np.prod(np.sinh(pair) ** 2, axis=-1)


def weyl_denominator(rs: RootSystem, H: np.ndarray) -> np.ndarray:
    """prod_{alpha>0} 2 sinh <alpha, H> (anti-invariant square root of delta)."""
    pair = rs.pairings(np.asarray(H, dtype=float))
    return np.prod(2.0 * np.sinh(pair), axis=-1)


def _x_over_sinh(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0 + 7.0 * xs ** 4 / 360.0
    xl = x[~small]
    out[~small] = xl / np.sinh(xl)
    return out


def phi0(rs: RootSystem, H: np.ndarray) -> np.ndarray:
    """Ground spherical function prod <alpha,H>/sinh<alpha,H>; equals 1 at 0."""
    pair = rs.pairings(np.asarray(H, dtype=float))
    return np.prod(_x_over_sinh(pair), axis=-1)


def phi0_envelope(rs: RootSystem, H: np.ndarray, N: float) -> float:
    """(1+|H|)^N exp(-<rho,H>) for H in the closed positive chamber."""
    H = np.asarray(H, dtype=float)
    if N < 0:
        raise ChamberError("envelope exponent N must be >= 0")
    if not rs.in_closed_chamber(H, tol=1e-9):
        raise ChamberError("H outside the closed positive chamber; fold by W first")
    r = np.linalg.norm(H)
    return float((1.0 + r) ** N * np.exp(-float(rs.rho_c @ H)))


def integrate_biinvariant(rs: RootSystem, f: RadialFunction,
                          tail_tol: float = TAIL_TOL) -> complex:
    """Chamber integral of delta(H) f(H) over the grid box.

    The integrand delta*f is Weyl invariant, so the chamber integral equals
    the full-box tensor-trapezoid sum divided by |W|; summing over the whole
    box avoids any chamber-boundary masking error.  Convergence is declared
    only when the outermost grid shell carries less than ``tail_tol`` of the
    accumulated absolute mass.
    """
    grid = f.grid
    if grid.rs is not rs:
        raise ConfigError("grid was built for a different root system")
    contrib = grid.weights * density_delta(rs, grid.nodes) * f.values
    total_abs = float(np.sum(np.abs(contrib)))
    shell = float(np.sum(np.abs(contrib[grid.shell_mask()])))
    if total_abs > 0 and shell > tail_tol * total_abs:
        raise InconclusiveIntegralError(
            f"outer-shell mass {shell:.3e} exceeds {tail_tol:.1e} of accumulated "
            f"mass {total_abs:.3e}; enlarge the box",
            tail_bound=shell, accumulated=total_abs)
    return complex(np.sum(contrib) / weyl_group(rs).order)


def write_radial_csv(path, f: RadialFunction) -> None:
    """CSV serialization with columns H_1..H_rank, re, im (header mandatory)."""
    rank = f.grid.rs.rank
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"H_{k + 1}" for k in range(rank)] + ["re", "im"])
        for node, v in zip(f.grid.nodes, f.values):
            w.writerow([f"{x:.17g}" for x in node]
                       + [f"{v.real:.17g}", f"{v.imag:.17g}"])


def read_radial_csv(path, grid: RadialGrid) -> RadialFunction:
    """Read values written by write_radial_csv back onto ``grid``."""
    rank = grid.rs.rank
    vals = np.empty(grid.n_nodes, dtype=complex)
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        if header[:rank] != [f"H_{k + 1}" for k in range(rank)] or header[rank:] != ["re", "im"]:
            raise ConfigError(f"unexpected CSV header {header}")
        for i, row in enumerate(rows):
            node = np.array([float(x) for x in row[:rank]])
            if i >= grid.n_nodes or not np.allclose(node, grid.nodes[i], atol=1e-12):
                raise ConfigError("CSV nodes do not match the target grid")
            vals[i] = float(row[rank]) + 1j * float(row[rank + 1])
    return RadialFunction(grid, vals)
