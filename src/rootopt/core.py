"""Domain geometry, discrete measures, the growth law, and run configuration.

Value types shared by the irrigation planner, the elliptic solvers, and the
measure-ascent optimizer.  Everything here is immutable after construction,
so instances can be shared freely between routines and threads.  The one
thing a `DiscreteMeasure` fills in after construction is a memo of values
derived from its arrays (its `Atom` tuple, its node map on the last grid
asked for); writing one twice stores the same value, and no memo takes part
in equality, hashing, repr or pickling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

__all__ = [
    "ValidationError",
    "SolverError",
    "Domain",
    "Grid",
    "Atom",
    "DiscreteMeasure",
    "GrowthFunction",
    "RunConfig",
    "mass_bound_check",
]


class ValidationError(ValueError):
    """Input data violates a structural invariant."""


class SolverError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned open rectangle with the transport source strictly outside.

    The source (the point all irrigation trees are rooted at) sits at the
    origin (0, 0); the rectangle is where the absorbing measure lives and
    where the elliptic problems are posed.  To move the source relative to
    the plot, move the rectangle.
    """

    rect_min: tuple = (0.5, -0.5)
    rect_max: tuple = (1.5, 0.5)

    def __post_init__(self):
        for name in ("rect_min", "rect_max"):
            v = getattr(self, name)
            if len(v) != 2 or not all(math.isfinite(float(t)) for t in v):
                raise ValidationError(f"{name} must be a finite 2-vector")
            object.__setattr__(self, name, (float(v[0]), float(v[1])))
        if not (self.rect_min[0] < self.rect_max[0] and self.rect_min[1] < self.rect_max[1]):
            raise ValidationError("rect_min must be strictly below rect_max componentwise")
        if self.source_distance() <= 0.0:
            raise ValidationError("origin must lie strictly outside the closed rectangle")

    def source_distance(self) -> float:
        """Distance from the origin to the closed rectangle (r0 > 0)."""
        dx = max(self.rect_min[0], 0.0, -self.rect_max[0])
        dy = max(self.rect_min[1], 0.0, -self.rect_max[1])
        return math.hypot(dx, dy)

    @property
    def width(self) -> float:
        return self.rect_max[0] - self.rect_min[0]

    @property
    def height(self) -> float:
        return self.rect_max[1] - self.rect_min[1]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on the domain rectangle.

    Nodes are indexed row-major: node k = iy * nx + ix, with ix varying
    fastest.  Axis coordinates come from a single cached linspace so that
    index -> position -> index round-trips are exact.
    """

    domain: Domain
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValidationError("grid needs nx >= 3 and ny >= 3")
        hx = self.domain.width / (self.nx - 1)
        hy = self.domain.height / (self.ny - 1)
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValidationError(
                f"grid spacing must be uniform in both directions, got hx={hx!r} hy={hy!r}")

    @property
    def h(self) -> float:
        return self.domain.width / (self.nx - 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @cached_property
    def xs(self) -> np.ndarray:
        v = np.linspace(self.domain.rect_min[0], self.domain.rect_max[0], self.nx)
        v.setflags(write=False)
        return v

    @cached_property
    def ys(self) -> np.ndarray:
        v = np.linspace(self.domain.rect_min[1], self.domain.rect_max[1], self.ny)
        v.setflags(write=False)
        return v

    def node_position(self, ix: int, iy: int) -> tuple:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ValidationError(f"node ({ix}, {iy}) outside grid {self.nx}x{self.ny}")
        return (float(self.xs[ix]), float(self.ys[iy]))

    def node_index(self, ix: int, iy: int) -> int:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ValidationError(f"node ({ix}, {iy}) outside grid {self.nx}x{self.ny}")
        return iy * self.nx + ix

    def nearest_nodes(self, positions) -> tuple:
        """Index arrays (ix, iy) of the node nearest to each row (x, y) of an
        (n, 2) position array, clamped to the grid: the one rounding rule
        from positions to nodes.  Halfway positions round to the even index."""
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        nodes = np.rint((pos - self.domain.rect_min) / self.h)
        nodes = np.clip(nodes, 0, (self.nx - 1, self.ny - 1)).astype(np.int64)
        return nodes[:, 0], nodes[:, 1]

    def nearest_node(self, x: float, y: float) -> tuple:
        """Indices (ix, iy) of the node nearest to (x, y), clamped to the grid."""
        ix, iy = self.nearest_nodes((x, y))
        return int(ix[0]), int(iy[0])

    def index_of(self, x: float, y: float) -> int:
        """Flat index of the node at exactly (x, y); error if (x, y) is off-node."""
        ix, iy = self.nearest_node(x, y)
        px, py = self.node_position(ix, iy)
        if px != x or py != y:
            raise ValidationError(f"position ({x!r}, {y!r}) is not a grid node")
        return self.node_index(ix, iy)

    def node_coordinates(self) -> np.ndarray:
        """All node positions as a read-only (n_nodes, 2) array in node
        order iy * nx + ix, built once per grid."""
        return self._coordinates

    @cached_property
    def _coordinates(self) -> np.ndarray:
        X, Y = np.meshgrid(self.xs, self.ys)
        v = np.column_stack([X.ravel(), Y.ravel()])
        v.setflags(write=False)
        return v


@dataclass(frozen=True)
class Atom:
    """Point mass of the absorbing measure."""

    position: tuple
    mass: float

    def __post_init__(self):
        p = self.position
        if len(p) != 2 or not all(math.isfinite(float(t)) for t in p):
            raise ValidationError("atom position must be a finite 2-vector")
        object.__setattr__(self, "position", (float(p[0]), float(p[1])))
        m = float(self.mass)
        if not math.isfinite(m) or m < 0.0:
            raise ValidationError(f"atom mass must be finite and >= 0, got {self.mass!r}")
        object.__setattr__(self, "mass", m)


class DiscreteMeasure:
    """Finite nonnegative atomic measure with pairwise distinct atom positions.

    The measure is two read-only, C-contiguous float arrays: `positions()`
    (n x 2) and `masses()` (n), validated once in numpy when the measure is
    built.  Every position is finite, every mass finite and >= 0, and no two
    atoms share a position; an error names the offending atom.  Build one
    with `DiscreteMeasure(atoms)` from `Atom`s or with
    `DiscreteMeasure.from_arrays(positions, masses)`.  `atoms` is the tuple
    of `Atom`s, built on first access only.  Measures with equal arrays are
    equal.

    `elliptic._node_indices` memoizes the atoms' node map on the measure,
    for the last grid it was asked for, and `elliptic._density` the lumped
    nodal density next to it (`_nodes`, a (grid, read-only index array,
    read-only density or None) triple, or None), so the state solve, the
    harvest and the adjoint of one measure locate and lump its atoms once.
    An off-grid atom is never memoized: it raises on every call.  Pickles
    carry the arrays alone.
    """

    __slots__ = ("_positions", "_masses", "_atoms", "_nodes")

    def __init__(self, atoms=()):
        atoms = tuple(atoms)
        if not all(isinstance(a, Atom) for a in atoms):
            raise ValidationError("atoms must be Atom instances")
        n = len(atoms)
        pos = np.fromiter(chain.from_iterable(map(attrgetter("position"), atoms)),
                          float, 2 * n).reshape(n, 2)
        _check_distinct(pos)
        self._hold(pos, np.fromiter(map(attrgetter("mass"), atoms), float, n), atoms)

    @classmethod
    def from_arrays(cls, positions, masses) -> "DiscreteMeasure":
        """Measure of the atoms (positions[i], masses[i]), copied and validated."""
        pos = np.array(positions, dtype=float, order="C")
        m = np.array(masses, dtype=float, order="C")
        if pos.size == 0:
            pos = pos.reshape(0, 2)
        if m.ndim != 1 or pos.shape != (len(m), 2):
            raise ValidationError(
                f"a measure needs an (n, 2) position array and n masses, "
                f"got shapes {pos.shape} and {m.shape}")
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if len(bad):
            i = int(bad[0])
            raise ValidationError(f"measure atom {i} position must be finite, "
                                  f"got {tuple(pos[i].tolist())}")
        _check_masses(m)
        _check_distinct(pos)
        return cls._trusted(pos, m)

    @classmethod
    def _trusted(cls, pos, masses) -> "DiscreteMeasure":
        """Measure holding C-contiguous arrays that already passed validation."""
        mu = cls.__new__(cls)
        mu._hold(pos, masses, None)
        return mu

    def _hold(self, pos, masses, atoms):
        pos.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "_positions", pos)
        object.__setattr__(self, "_masses", masses)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_nodes", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __reduce__(self):
        return DiscreteMeasure.from_arrays, (self._positions, self._masses)

    @property
    def atoms(self) -> tuple:
        if self._atoms is None:
            object.__setattr__(self, "_atoms", tuple(
                Atom((x, y), m) for (x, y), m in zip(self._positions.tolist(),
                                                     self._masses.tolist())))
        return self._atoms

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (np.array_equal(self._positions, other._positions)
                and np.array_equal(self._masses, other._masses))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash(((self._positions + 0.0).tobytes(), (self._masses + 0.0).tobytes()))

    def __repr__(self) -> str:
        return (f"DiscreteMeasure.from_arrays({self._positions.tolist()!r}, "
                f"{self._masses.tolist()!r})")

    @property
    def total_mass(self) -> float:
        # summed left to right like the atoms always were; np.sum pairs them
        return float(sum(self._masses.tolist()))

    def positions(self) -> np.ndarray:
        return self._positions

    def masses(self) -> np.ndarray:
        return self._masses

    def with_masses(self, masses) -> "DiscreteMeasure":
        m = np.array(masses, dtype=float, order="C")
        if m.shape != (len(self),):
            raise ValidationError("mass vector length must match atom count")
        _check_masses(m)
        return DiscreteMeasure._trusted(self._positions, m)

    def without_zero_mass(self) -> tuple:
        """(filtered measure, original indices kept)."""
        keep = self._masses > 0.0
        return (DiscreteMeasure._trusted(self._positions[keep], self._masses[keep]),
                np.flatnonzero(keep).tolist())


def _check_masses(m: np.ndarray) -> None:
    bad = np.flatnonzero(~(np.isfinite(m) & (m >= 0.0)))
    if len(bad):
        i = int(bad[0])
        raise ValidationError(
            f"measure atom {i} mass must be finite and >= 0, got {float(m[i])!r}")


def _check_distinct(pos: np.ndarray) -> None:
    """Name the first atom whose position an earlier atom already holds."""
    order = np.lexsort((pos[:, 1], pos[:, 0]))
    s = pos[order]
    twin = (s[1:] == s[:-1]).all(axis=1)
    if twin.any():
        j = int(order[1:][twin].min())
        i = int(np.flatnonzero((pos == pos[j]).all(axis=1))[0])
        raise ValidationError(f"atoms {i} and {j} share position {tuple(pos[j].tolist())}")


def _check_alpha(alpha: float) -> None:
    """Reject a branching exponent outside (0, 1], as every plan cost and
    landscape does."""
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must be in (0, 1], got {alpha!r}")


def mass_bound_check(mu: DiscreteMeasure, irrigation_cost: float, domain: Domain,
                     alpha: float) -> bool:
    """Whether total mass respects the transport budget (cost / r0) ** (1 / alpha).

    A measure reachable from the source at the given cost cannot weigh more
    than this bound, since every unit of mass travels at least r0.
    """
    _check_alpha(alpha)
    if irrigation_cost < 0.0 or not math.isfinite(irrigation_cost):
        raise ValidationError(f"irrigation cost must be finite and >= 0, got {irrigation_cost!r}")
    r0 = domain.source_distance()
    if r0 <= 0.0:
        raise ValidationError("source distance r0 must be positive")
    bound = (irrigation_cost / r0) ** (1.0 / alpha)
    return mu.total_mass <= bound + 1e-9 * max(1.0, abs(bound))


@dataclass(frozen=True)
class GrowthFunction:
    """Logistic growth law f(u) = rate * u * (1 - u / u_max).

    f vanishes at 0 and at u_max and peaks at rate * u_max / 4 in between.
    """

    u_max: float = 1.0
    rate: float = 4.0

    def __post_init__(self):
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValidationError(f"u_max must be positive, got {self.u_max!r}")
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValidationError(f"rate must be positive, got {self.rate!r}")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = self.rate * u * (1.0 - u / self.u_max)
        return out if out.ndim else float(out)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        out = self.rate * (1.0 - 2.0 * u / self.u_max)
        return out if out.ndim else float(out)

    @property
    def monotone_shift(self) -> float:
        """Smallest sigma with f(u) + sigma * u nondecreasing on [0, u_max]."""
        return self.rate


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a full planning + solving + ascent run.

    tol_residual and path_tol are relative to u_max.  spawn_mass = 0 means
    "auto": trial atoms get 5 percent of the current mean atom mass.
    """

    grid: Grid = field(default_factory=lambda: Grid(Domain(), 33, 33))
    alpha: float = 0.75
    c: float = 1.0
    growth: GrowthFunction = field(default_factory=GrowthFunction)
    tol_nonlinear: float = 1e-8
    tol_linear: float = 1e-10
    tol_residual: float = 1e-6
    max_outer_iters: int = 200
    max_plan_moves: int = 200
    step_size: float = 1.0
    spawn: bool = False
    spawn_mass: float = 0.0
    path_tol: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not self.c > 0.0:
            raise ValidationError(f"c must be positive, got {self.c!r}")
        for name in ("tol_nonlinear", "tol_linear", "tol_residual", "step_size", "path_tol"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        for name in ("max_outer_iters", "max_plan_moves"):
            if int(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if self.spawn_mass < 0.0:
            raise ValidationError("spawn_mass must be >= 0")

    @property
    def domain(self) -> Domain:
        return self.grid.domain
