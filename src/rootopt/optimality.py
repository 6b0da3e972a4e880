"""Payoff assembly, first-order optimality diagnostics, and mass ascent.

The objective is

    payoff(mu) = harvest(u*, mu) - c * plan_cost(mu),

with u* the maximal state solution and the plan cost taken over an optimized
irrigation tree.  At a maximizer the per-atom residual

    residual_a = phi(x_a) - c * alpha * Z(x_a),      phi = (1 - psi) u*,

vanishes: the marginal harvest of routing extra mass to an atom exactly pays
its marginal transport cost.  Away from the atoms the same quantity can only
favor the transport side, which is what the path inequality check samples
along tree edges.

`ascend_measure` runs projected gradient ascent on the atom masses with
backtracking on the true payoff, optional spawning of trial atoms at the most
promising grid node, and pruning of atoms whose mass underflows.  Its trials
start the planner and the state solve from the accepted evaluation, and only
the trial that is kept gets an adjoint.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .core import (DiscreteMeasure, Grid, RunConfig, SolverError,
                   ValidationError)
from .elliptic import (ScalarField, _node_indices, bilinear_interpolate, harvest,
                       phi_field, solve_adjoint, solve_state)
from .irrigation import (IrrigationTree, LandscapeValues, irrigation_cost,
                         landscape, optimize_plan)

# relative margin within which spawn scores count as tied.  On the 17x17
# spawn ascents of the benchmark (seeds 1 and 97) and the 33x33
# 100-iteration demo, the best node and its mirror image under y -> -y
# score within 3.3e-16 of each other while the measure is symmetric in y,
# and the best node leads every node but its mirror by at least 1.5e-5
_SPAWN_TIE = 1e-12

__all__ = [
    "AtomRecord",
    "OptimalityReport",
    "PathCheckReport",
    "TraceStep",
    "OptimizationTrace",
    "SupportDensityReport",
    "payoff",
    "optimality_residual",
    "path_inequality_check",
    "ascend_measure",
    "support_density_report",
]


@dataclass(frozen=True)
class AtomRecord:
    atom: int
    position: tuple
    mass: float
    phi: float
    z: float
    residual: float


@dataclass(frozen=True)
class OptimalityReport:
    """Per-atom first-order data plus the payoff split it was computed from."""

    records: tuple
    sup_residual: float
    harvest: float
    irrigation_cost: float
    c: float
    alpha: float
    iteration: int = -1

    @property
    def payoff(self) -> float:
        return self.harvest - self.c * self.irrigation_cost


def payoff(u: ScalarField | None, mu: DiscreteMeasure, tree: IrrigationTree | None,
           c: float, alpha: float) -> float:
    """harvest - c * plan cost; zero for a measure without positive mass."""
    if not c > 0.0:
        raise ValidationError(f"c must be positive, got {c!r}")
    if not (mu.masses() > 0.0).any():
        return 0.0
    if u is None or tree is None:
        raise ValidationError("a state field and a plan are required when mass is present")
    return harvest(u, mu) - c * irrigation_cost(tree, mu, alpha)


def optimality_residual(u_star: ScalarField, psi: ScalarField, z: LandscapeValues,
                        mu: DiscreteMeasure, c: float, alpha: float,
                        iteration: int = -1) -> OptimalityReport:
    """Residuals phi - c * alpha * Z at every atom with positive mass."""
    if not c > 0.0:
        raise ValidationError(f"c must be positive, got {c!r}")
    atoms = np.flatnonzero(mu.masses() > 0.0)
    phi_a = phi_field(u_star, psi).values[_node_indices(mu, u_star.grid)[atoms]]
    z_a = z.at_atoms(atoms)
    records = [AtomRecord(i, tuple(xy), m, p, za, r) for i, xy, m, p, za, r in zip(
        atoms.tolist(), mu.positions()[atoms].tolist(), mu.masses()[atoms].tolist(),
        phi_a.tolist(), z_a.tolist(), (phi_a - c * alpha * z_a).tolist())]
    sup = max((abs(r.residual) for r in records), default=0.0)
    return OptimalityReport(
        records=tuple(records),
        sup_residual=float(sup),
        harvest=harvest(u_star, mu),
        irrigation_cost=irrigation_cost(z.tree, mu, alpha),
        c=float(c),
        alpha=float(alpha),
        iteration=iteration,
    )


@dataclass(frozen=True)
class PathCheckReport:
    """Sampled check of phi <= c * alpha * Z along the plan, inside the domain."""

    n_samples: int
    n_violations: int
    max_excess: float
    tol: float

    @property
    def fraction_ok(self) -> float:
        if self.n_samples == 0:
            return 1.0
        return 1.0 - self.n_violations / self.n_samples

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def path_inequality_check(u_star: ScalarField, psi: ScalarField, tree: IrrigationTree,
                          mu: DiscreteMeasure, c: float, alpha: float,
                          tol: float = 1e-3, spacing: float | None = None) -> PathCheckReport:
    """Sample every edge at the given spacing (default: one grid cell) and
    count points where bilinear phi exceeds c * alpha * (linear Z) by more
    than tol.  Samples outside the open domain rectangle are skipped, since
    the fields only live on the rectangle."""
    if not tol > 0.0:
        raise ValidationError("tol must be positive")
    grid = u_star.grid
    spacing = grid.h if spacing is None else float(spacing)
    if not spacing > 0.0:
        raise ValidationError("spacing must be positive")
    z = landscape(tree, mu, alpha)
    phi = phi_field(u_star, psi)
    d = grid.domain
    pts_all = []
    zs_all = []
    lengths = tree.edge_lengths()
    for p, q in tree.edges():
        ln = lengths[q]
        k = max(1, int(math.ceil(ln / spacing)))
        t = np.linspace(0.0, 1.0, k + 1)
        pts = tree.positions[p] + t[:, None] * (tree.positions[q] - tree.positions[p])
        zs = z.values[p] + t * (z.values[q] - z.values[p])
        inside = ((pts[:, 0] > d.rect_min[0]) & (pts[:, 0] < d.rect_max[0])
                  & (pts[:, 1] > d.rect_min[1]) & (pts[:, 1] < d.rect_max[1]))
        pts_all.append(pts[inside])
        zs_all.append(zs[inside])
    if not pts_all or sum(len(p) for p in pts_all) == 0:
        return PathCheckReport(0, 0, 0.0, float(tol))
    pts = np.vstack(pts_all)
    zs = np.concatenate(zs_all)
    phi_hat = bilinear_interpolate(phi, pts)
    excess = phi_hat - c * alpha * zs
    n_bad = int(np.sum(excess > tol))
    return PathCheckReport(len(pts), n_bad, float(np.max(excess)), float(tol))


# ---------------------------------------------------------------------------
# mass ascent


@dataclass(frozen=True)
class TraceStep:
    """One outer iteration; solver_errors holds the message of every trial
    of the iteration that a SolverError rejected."""

    iteration: int
    measure: DiscreteMeasure
    payoff: float
    sup_residual: float
    accepted: bool
    spawned: bool
    eta: float
    solver_errors: tuple = ()


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Iteration history plus the final evaluation artifacts."""

    steps: tuple
    converged: bool
    measure: DiscreteMeasure
    tree: IrrigationTree | None
    state: ScalarField | None
    adjoint: ScalarField | None
    report: OptimalityReport | None

    @property
    def final_payoff(self) -> float:
        return self.steps[-1].payoff

    @property
    def accepted_payoffs(self):
        return [s.payoff for s in self.steps if s.accepted]


@dataclass(frozen=True, eq=False)
class _Bundle:
    """One evaluated measure.  A trial carries the plan, the state and the
    payoff; `_complete` adds the adjoint and the landscape, and `_reported`
    the first-order report."""

    mu: DiscreteMeasure
    tree: IrrigationTree | None
    u: ScalarField | None
    payoff: float
    psi: ScalarField | None = None
    z: LandscapeValues | None = None
    report: OptimalityReport | None = None

    @property
    def sup_residual(self) -> float:
        """The report's sup residual; 0.0 for a measure without positive
        mass, which has no atom to report on."""
        if self.tree is None:
            return 0.0
        if self.report is None:
            raise RuntimeError("the sup residual of a bundle whose report was not built")
        return self.report.sup_residual


def _trial(config: RunConfig, mu: DiscreteMeasure, base: _Bundle | None) -> _Bundle:
    """Plan, state and payoff of mu.  Given the accepted bundle `base`, the
    planner starts from its tree and the state solve from its state."""
    if not (mu.masses() > 0.0).any():
        return _Bundle(DiscreteMeasure(), None, None, 0.0)
    init_tree, init_u = (None, None) if base is None else (base.tree, base.u)
    tree = optimize_plan(mu, config.alpha, budget=config.max_plan_moves, init=init_tree)
    u = solve_state(config.grid, mu, config.growth, tol=config.tol_nonlinear,
                    tol_linear=config.tol_linear, init=init_u)
    return _Bundle(mu, tree, u, payoff(u, mu, tree, config.c, config.alpha))


def _complete(config: RunConfig, trial: _Bundle) -> _Bundle:
    """The trial with its adjoint and landscape, which spawn scoring reads."""
    if trial.tree is None:
        return trial
    psi = solve_adjoint(config.grid, trial.mu, trial.u, config.growth, tol=config.tol_linear)
    return replace(trial, psi=psi, z=landscape(trial.tree, trial.mu, config.alpha))


def _reported(config: RunConfig, bundle: _Bundle, iteration: int) -> _Bundle:
    """The completed bundle with its first-order report."""
    if bundle.tree is None:
        return bundle
    return replace(bundle, report=optimality_residual(bundle.u, bundle.psi, bundle.z, bundle.mu,
                                                      config.c, config.alpha, iteration))


def _spawn_scores(config: RunConfig, bundle: _Bundle, trial_mass: float) -> np.ndarray:
    """Score of every grid node as the site of an extra atom of mass
    trial_mass, -inf at the nodes of the atoms of the bundle's measure.

    A node's score is phi minus c alpha Z_ext, where Z_ext continues the
    landscape from the nearest point of the plan (projections onto edge
    interiors included) along a straight spur carrying the trial mass.  A
    node sitting on an edge therefore scores the plain path excess
    phi - c alpha Z, the same quantity the path inequality samples.  The
    nodes meet each block of edges in one (edges, nodes) broadcast of at
    most 2^14 pairs, whose temporaries stay in cache (56 edges at 17x17).
    """
    coords, tree, z = config.grid.node_coordinates(), bundle.tree, bundle.z.values
    z_ext, spur = np.full(len(coords), np.inf), trial_mass ** (config.alpha - 1.0)
    width = max(1, (1 << 14) // len(coords))  # edges per block; wider blocks spill the cache
    for lo in range(1, tree.n_nodes, width):
        p, q = tree.parents[lo:lo + width], slice(lo, lo + width)
        a = tree.positions[p][:, None, :]
        ab = tree.positions[q][:, None, :] - a
        # matmul rounds as one dot product per edge does, (ab * ab).sum(-1) does not
        ab_t = ab.transpose(0, 2, 1)
        t = np.clip((coords - a) @ ab_t / (ab @ ab_t), 0.0, 1.0)
        gap = coords - (a + t * ab)
        z_line = z[p][:, None] + t[..., 0] * (z[q] - z[p])[:, None]
        np.minimum(z_ext, (z_line + spur * np.sqrt((gap * gap).sum(-1))).min(0), out=z_ext)
    score = phi_field(bundle.u, bundle.psi).values - config.c * config.alpha * z_ext
    score[_node_indices(bundle.mu, config.grid)] = -np.inf
    return score


def _spawn_candidate(config: RunConfig, bundle: _Bundle) -> DiscreteMeasure | None:
    """Trial measure with one extra atom at the best node of `_spawn_scores`, or None.

    The best node is the lowest node index among the scores within
    _SPAWN_TIE * max(1, |top|) of the top score, so nodes that tie in exact
    arithmetic, such as the mirror images y -> -y of a measure symmetric
    about the domain's axis, are told apart by their index and not by the
    last bits of the solves."""
    mu, masses = bundle.mu, bundle.mu.masses()
    trial_mass = config.spawn_mass if config.spawn_mass > 0.0 else 0.05 * float(masses.mean())
    if trial_mass <= 0.0:
        return None
    score = _spawn_scores(config, bundle, trial_mass)
    top = float(score.max())
    if not np.isfinite(top):
        return None
    best = int(np.argmax(score >= top - _SPAWN_TIE * max(1.0, abs(top))))
    coords = config.grid.node_coordinates()
    return DiscreteMeasure.from_arrays(np.vstack([mu.positions(), coords[best]]),
                                       np.append(masses, trial_mass))


def _attempt(config: RunConfig, mu: DiscreteMeasure, cur: _Bundle,
             keep, errors: list, what: str) -> _Bundle | None:
    """The completed trial of mu if keep(its payoff, cur.payoff) holds, else
    None.  A SolverError from the trial or its completion rejects it too,
    and its message goes into `errors` as "<what>: <message>"."""
    try:
        cand = _trial(config, mu, cur)
        if keep(cand.payoff, cur.payoff):
            return _complete(config, cand)
    except SolverError as exc:
        errors.append(f"{what}: {exc}")
    return None


def _converged(config: RunConfig, mu: DiscreteMeasure, sup_residual: float,
               spawned: bool) -> bool:
    """The ascent's stop test for the iteration that ends with measure mu:
    mu is empty, or its sup residual lies below tol_residual * u_max and the
    iteration kept no spawn.  `verify` re-derives report.json's `converged`
    with it from the last trace record."""
    return not len(mu) or (sup_residual < config.tol_residual * config.growth.u_max
                           and not spawned)


def ascend_measure(config: RunConfig, mu0: DiscreteMeasure) -> OptimizationTrace:
    """Projected gradient ascent on atom masses.

    Each outer iteration takes the residuals of the accepted measure and
    tries

        mass_a <- max(0, mass_a * (1 + eta * residual_a)),

    halving eta (at most 20 times) until the payoff of the updated measure is
    no worse than the current one.  Atoms below 1e-12 of the total mass are
    pruned.  With spawning enabled, a trial atom is placed at the grid node
    with the best estimated marginal payoff and kept only if the payoff
    improves.  Accepted steps never decrease the payoff.  The loop ends

    * converged, when the sup residual is below tol_residual * u_max and no
      spawn was kept in the iteration, or when the measure empties
      (`_converged`);
    * not converged, when an iteration leaves the measure unchanged (no
      representable step makes progress);
    * not converged, when the iteration budget runs out.

    Iteration 0 plans from the star and solves the state cold.  Every later
    trial starts from the accepted evaluation: the planner from its tree
    (`optimize_plan(..., init=tree)`) and the state solve from its state
    (`solve_state(..., init=u)`, which falls back to the cold sweep when
    its Newton steps stall, touch 0 or end on an unstable state).  A
    backtrack restarts from the accepted evaluation, never from the rejected
    trial, so runs stay deterministic.  A trial needs only its plan, state
    and payoff; the adjoint and landscape are built for the trial that is
    kept.  A SolverError in any of these rejects the trial, as a lower
    payoff would, and its message goes into the step's `solver_errors`.
    The first-order report is built once per iteration, for the bundle the
    iteration keeps: an accepted spawn supersedes the mass step's bundle
    before anything reads its residuals.
    """
    mu, _ = mu0.without_zero_mass()
    if not len(mu):
        raise ValidationError("initial measure needs positive mass somewhere")
    tol_eff = config.tol_residual * config.growth.u_max
    prune_rel = 1e-12

    cur = _reported(config, _complete(config, _trial(config, mu, None)), iteration=0)
    steps = [TraceStep(0, mu, cur.payoff, cur.sup_residual, True, False, 0.0)]
    converged = False

    for it in range(1, config.max_outer_iters + 1):
        prev = cur
        accepted = spawned = False
        eta_used = 0.0
        errors = []

        if cur.sup_residual >= tol_eff:
            residuals = np.array([r.residual for r in cur.report.records])
            masses = cur.mu.masses()
            eta = config.step_size
            for _ in range(21):
                cand_m = np.maximum(0.0, masses * (1.0 + eta * residuals))
                total = float(cand_m.sum())
                cand_m[cand_m < prune_rel * max(total, 1e-300)] = 0.0
                cand_mu, _ = cur.mu.with_masses(cand_m).without_zero_mass()
                cand = _attempt(config, cand_mu, cur, operator.ge, errors,
                                f"mass step (eta {eta!r})")
                if cand is not None:
                    cur, accepted, eta_used = cand, True, eta
                    break
                eta *= 0.5

        if config.spawn and len(cur.mu):
            cand_mu = _spawn_candidate(config, cur)
            if cand_mu is not None:
                cand = _attempt(config, cand_mu, cur, operator.gt, errors, "spawn")
                if cand is not None:
                    cur, spawned = cand, True

        if cur is not prev:
            cur = _reported(config, cur, it)
        steps.append(TraceStep(it, cur.mu, cur.payoff, cur.sup_residual,
                               accepted or spawned, spawned, eta_used, tuple(errors)))

        if _converged(config, cur.mu, cur.sup_residual, spawned):
            converged = True
            break
        if cur.mu == prev.mu:
            break

    return OptimizationTrace(tuple(steps), converged, cur.mu, cur.tree,
                             cur.u, cur.psi, cur.report)


@dataclass(frozen=True)
class SupportDensityReport:
    """Occupancy of square cells by the support, per cell size."""

    rows: tuple  # (scale, occupied, total, fraction)

    def as_dicts(self):
        return [
            {"scale": s, "occupied": occ, "total": tot, "fraction": frac}
            for s, occ, tot, frac in self.rows
        ]


def support_density_report(mu: DiscreteMeasure, grid: Grid,
                           scales=None) -> SupportDensityReport:
    """Fraction of s-by-s cells of the rectangle meeting the support, for each
    cell size s.  Purely descriptive; a support that concentrates on a sparse
    set shows fractions sinking as s shrinks."""
    d = grid.domain
    if scales is None:
        scales = tuple(grid.h * 2 ** k for k in range(5))
    rows = []
    pos = mu.positions()
    masses = mu.masses()
    live = pos[masses > 0.0] if len(pos) else pos
    for s in scales:
        if not s > 0.0:
            raise ValidationError("cell sizes must be positive")
        ncx = max(1, int(math.ceil(d.width / s)))
        ncy = max(1, int(math.ceil(d.height / s)))
        cells = set()
        for x, y in live:
            cx = min(int((x - d.rect_min[0]) / s), ncx - 1)
            cy = min(int((y - d.rect_min[1]) / s), ncy - 1)
            cells.add((cx, cy))
        total = ncx * ncy
        rows.append((float(s), len(cells), total, len(cells) / total))
    return SupportDensityReport(tuple(rows))
