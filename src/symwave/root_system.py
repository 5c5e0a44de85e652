"""Classical reduced root systems at small rank and their Weyl groups.

Vectors live in two representations: the ambient realization (rows of
``positive_roots``) and coordinates with respect to an orthonormal basis of
the span, which is what every downstream grid and formula uses.  The inner
product is the standard Euclidean one on the chosen realization, so
simply-laced roots have squared length 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationTooLargeError, UnsupportedConfigurationError

_FAMILIES = ("A", "B", "C", "D")
_MAX_RANK = 4
_WEYL_CAP = 10_000


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    ambient_dim: int
    positive_roots: np.ndarray        # (n_roots, ambient_dim)
    simple_roots: np.ndarray          # (rank, ambient_dim)
    a_basis: np.ndarray               # (rank, ambient_dim), orthonormal rows
    rho: np.ndarray                   # ambient
    dim_X: int

    # coordinate versions (with respect to a_basis)
    roots_c: np.ndarray = field(repr=False, default=None)
    simple_c: np.ndarray = field(repr=False, default=None)
    rho_c: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "roots_c", self.positive_roots @ self.a_basis.T)
        object.__setattr__(self, "simple_c", self.simple_roots @ self.a_basis.T)
        object.__setattr__(self, "rho_c", self.rho @ self.a_basis.T)

    @property
    def n_positive(self) -> int:
        return self.positive_roots.shape[0]

    @property
    def rho_norm(self) -> float:
        return float(np.linalg.norm(self.rho_c))

    @property
    def tag(self) -> str:
        return f"{self.family}{self.rank}"

    def pairings(self, H: np.ndarray) -> np.ndarray:
        """<alpha, H> for every positive root; H in coordinates, shape (..., rank)."""
        return np.asarray(H, dtype=None) @ self.roots_c.T

    def in_closed_chamber(self, H: np.ndarray, tol: float = 1e-12) -> bool:
        H = np.asarray(H, dtype=float)
        return bool(np.all(self.simple_c @ H >= -tol))


@dataclass(frozen=True)
class WeylGroup:
    matrices: np.ndarray   # (|W|, rank, rank), orthogonal, coordinates
    signs: np.ndarray      # (|W|,), det = +-1
    generators: np.ndarray  # (rank, rank, rank) simple reflections

    @property
    def order(self) -> int:
        return self.matrices.shape[0]


def _positive_roots(family: str, rank: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Return (positive roots, simple roots, ambient dimension)."""
    if family == "A":
        n = rank + 1
        roots = [np.eye(n)[i] - np.eye(n)[j] for i in range(n) for j in range(n) if i < j]
        simple = [np.eye(n)[i] - np.eye(n)[i + 1] for i in range(rank)]
        return np.array(roots), np.array(simple), n
    e = np.eye(rank)
    pm = [e[i] - e[j] for i in range(rank) for j in range(rank) if i < j]
    pp = [e[i] + e[j] for i in range(rank) for j in range(rank) if i < j]
    if family == "B":
        roots = pm + pp + [e[i] for i in range(rank)]
        simple = [e[i] - e[i + 1] for i in range(rank - 1)] + [e[rank - 1]]
    elif family == "C":
        roots = pm + pp + [2 * e[i] for i in range(rank)]
        simple = [e[i] - e[i + 1] for i in range(rank - 1)] + [2 * e[rank - 1]]
    elif family == "D":
        roots = pm + pp
        simple = [e[i] - e[i + 1] for i in range(rank - 1)] + [e[rank - 2] + e[rank - 1]]
    else:  # pragma: no cover - guarded by caller
        raise UnsupportedConfigurationError(family)
    return np.array(roots), np.array(simple), rank


def _a_basis(family: str, rank: int, ambient: int) -> np.ndarray:
    if family != "A":
        return np.eye(rank)
    # orthonormal basis of the sum-zero hyperplane, Gram-Schmidt over e_i - e_{i+1}
    raw = np.array([np.eye(ambient)[i] - np.eye(ambient)[i + 1] for i in range(rank)])
    basis = []
    for v in raw:
        for b in basis:
            v = v - (v @ b) * b
        basis.append(v / np.linalg.norm(v))
    return np.array(basis)


@lru_cache(maxsize=32)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Standard realization of the reduced root system ``family``_``rank``."""
    if family not in _FAMILIES:
        raise UnsupportedConfigurationError(f"unknown family {family!r}")
    if rank < 1 or rank > _MAX_RANK:
        raise UnsupportedConfigurationError(f"rank {rank} outside supported range 1..{_MAX_RANK}")
    if family == "D" and rank < 2:
        raise UnsupportedConfigurationError("family D requires rank >= 2")
    roots, simple, ambient = _positive_roots(family, rank)
    order = np.lexsort(roots.T[::-1])
    roots = roots[order]
    rho = roots.sum(axis=0)
    dim_X = rank + 2 * len(roots)
    return RootSystem(family=family, rank=rank, ambient_dim=ambient,
                      positive_roots=roots, simple_roots=simple,
                      a_basis=_a_basis(family, rank, ambient),
                      rho=rho, dim_X=dim_X)


def root_system_from_tag(tag: str) -> RootSystem:
    """Parse a tag like "A2" or "B3"."""
    tag = tag.strip()
    if len(tag) < 2 or tag[0].upper() not in _FAMILIES or not tag[1:].isdigit():
        raise UnsupportedConfigurationError(f"bad root-system tag {tag!r}")
    return build_root_system(tag[0].upper(), int(tag[1:]))


def _reflection(alpha_c: np.ndarray) -> np.ndarray:
    a = alpha_c / np.linalg.norm(alpha_c)
    return np.eye(len(a)) - 2.0 * np.outer(a, a)


@lru_cache(maxsize=32)
def _weyl_group_cached(family: str, rank: int) -> WeylGroup:
    rs = build_root_system(family, rank)
    gens = np.array([_reflection(a) for a in rs.simple_c])
    seen = {}
    def key(m):
        return (np.round(m, 10) + 0.0).tobytes()   # +0.0 folds -0.0 into 0.0
    frontier = [np.eye(rs.rank)]
    seen[key(frontier[0])] = np.eye(rs.rank)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = g @ m
                k = key(c)
                if k not in seen:
                    if len(seen) >= _WEYL_CAP:
                        raise ConfigurationTooLargeError(
                            f"Weyl closure exceeded {_WEYL_CAP} elements")
                    seen[k] = c
                    nxt.append(c)
        frontier = nxt
    mats = np.array(sorted(seen.values(), key=key))
    signs = np.round(np.linalg.det(mats)).astype(int)
    return WeylGroup(matrices=mats, signs=signs, generators=gens)


def weyl_group(rs: RootSystem) -> WeylGroup:
    """Full Weyl group as closure of the simple reflections."""
    return _weyl_group_cached(rs.family, rs.rank)


def pi(rs: RootSystem, lam: np.ndarray) -> float:
    """The Weyl-anti-invariant polynomial prod_{alpha>0} <alpha, lam>."""
    return float(np.prod(rs.pairings(np.asarray(lam, dtype=float))))


def pi_many(rs: RootSystem, lam: np.ndarray) -> np.ndarray:
    """``pi`` evaluated on an array of spectral points, shape (..., rank)."""
    return np.prod(lam @ rs.roots_c.T, axis=-1)


def fold_into_chamber(rs: RootSystem, H: np.ndarray, max_steps: int = 200) -> np.ndarray:
    """Reflect H by simple reflections until it lies in the closed chamber."""
    H = np.asarray(H, dtype=float).copy()
    gens = [_reflection(a) for a in rs.simple_c]
    for _ in range(max_steps):
        pair = rs.simple_c @ H
        j = int(np.argmin(pair))
        if pair[j] >= -1e-14:
            return H
        H = gens[j] @ H
    raise RuntimeError("chamber folding did not terminate")  # pragma: no cover
