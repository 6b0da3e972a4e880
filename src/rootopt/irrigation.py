"""Tree-structured irrigation plans for discrete measures.

A plan is a geometric tree rooted at the transport source (node 0, fixed at
the origin).  Every non-root node stores exactly one parent, so the
single-path property holds by construction: the routing of mass is read off
the parent array.  Terminal nodes carry atoms of the target measure; steiner
nodes are free branch points with at least two children.

The transport cost of a plan is

    cost = sum over edges of  flux(edge) ** alpha * length(edge),

where flux(edge) is the total terminal mass strictly below the edge and
alpha in (0, 1] is the branching exponent.  Concavity of m ** alpha rewards
shared trunks, which is what makes branching profitable for alpha < 1.

The landscape values Z satisfy Z(root) = 0 and, along the edge from p to q,

    Z(q) = Z(p) + flux(p -> q) ** (alpha - 1) * |q - p|.

Summing mass_a * Z(terminal_a) telescopes to the plan cost exactly, and
alpha * Z(node) is the marginal cost of routing extra mass to that node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, ValidationError, _check_alpha

__all__ = [
    "IrrigationTree",
    "FluxMap",
    "LandscapeValues",
    "HolderReport",
    "ArcChordReport",
    "star_tree",
    "compute_fluxes",
    "irrigation_cost",
    "landscape",
    "cost_lower_bound",
    "optimize_plan",
    "brute_force_plan",
    "check_landscape_holder",
    "check_arc_chord",
]

ROOT = "root"
STEINER = "steiner"
TERMINAL = "terminal"

_MAX_GEOMETRY_SWEEPS = 400
_MAX_NEWTON_STEPS = 100  # per exact Fermat point
_MAX_HALVINGS = 40  # per joint Newton step


def _children_lists(parents):
    ch = [[] for _ in range(len(parents))]
    for i, p in enumerate(parents):
        if p >= 0:
            ch[p].append(i)
    return ch


def _depth_order(parents):
    """Node indices with every parent before its children; errors if not a tree."""
    n = len(parents)
    ch = _children_lists(parents)
    order = [0]
    k = 0
    while k < len(order):
        order.extend(ch[order[k]])
        k += 1
    if len(order) != n:
        raise ValidationError("parent array does not describe a tree reaching every node")
    return order


@dataclass(frozen=True, eq=False)
class IrrigationTree:
    """Immutable rooted geometric tree.

    positions  : (n, 2) node coordinates, node 0 at the origin
    parents    : (n,) parent index per node, -1 for the root
    atom_index : (n,) index of the carried atom for terminals, -1 otherwise

    The node kinds are read off these arrays (`kinds`): node 0 is the root,
    a node that carries an atom is a terminal, and every other node is a
    steiner node.

    `compute_fluxes` memoizes the fluxes of the last measure it was given
    on the tree; the memo takes no part in repr, and pickles carry the
    three arrays alone.
    """

    positions: np.ndarray
    parents: np.ndarray
    atom_index: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        par = np.array(self.parents, dtype=np.int64)
        ai = np.array(self.atom_index, dtype=np.int64)
        n = len(par)
        if pos.shape != (n, 2) or ai.shape != (n,) or n < 2:
            raise ValidationError("tree arrays must agree in length and hold >= 2 nodes")
        if not np.isfinite(pos).all():
            raise ValidationError("node positions must be finite")
        pl, al = par.tolist(), ai.tolist()  # lists beat numpy calls at plan sizes
        if pl[0] != -1 or al[0] != -1:
            raise ValidationError("node 0 must be the root, with parent -1 and no atom")
        if not (pos[0, 0] == 0.0 and pos[0, 1] == 0.0):
            raise ValidationError("the root must sit at the origin (0, 0)")
        if not 0 <= min(pl[1:]) <= max(pl[1:]) < n:
            raise ValidationError("every non-root node needs a parent inside the tree")
        if min(al) < -1:
            raise ValidationError(f"node {next(i for i, a in enumerate(al) if a < -1)} "
                                  "has atom index below -1")
        order = _depth_order(pl)
        terminals = sorted(a for a in al if a >= 0)
        if twice := [a for a, b in zip(terminals, terminals[1:]) if a == b]:
            raise ValidationError(f"atom {twice[0]} has more than one terminal")
        kids = [0] * n
        for p in pl[1:]:
            kids[p] += 1
        if lonely := [i for i in range(1, n) if al[i] < 0 and kids[i] < 2]:
            raise ValidationError(f"steiner node {lonely[0]} has fewer than two children")
        d = pos[1:] - pos[par[1:]]
        if not (squared := (d * d).sum(1)).all():  # zero where the length is
            raise ValidationError(f"edge into node {int(np.argmin(squared)) + 1} has zero length")
        for name, arr in (("positions", pos), ("parents", par), ("atom_index", ai)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_flux_memo", None)

    def __reduce__(self):
        return IrrigationTree, (self.positions, self.parents, self.atom_index)

    @functools.cached_property
    def kinds(self) -> tuple:
        """Per-node tag, one of "root", "steiner", "terminal"."""
        return (ROOT,) + tuple(TERMINAL if a >= 0 else STEINER
                               for a in self.atom_index[1:].tolist())

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    def depth_order(self) -> tuple:
        return self._order

    def children(self):
        return _children_lists(self.parents)

    def edges(self):
        """(parent, child) pairs, one per non-root node, in node order."""
        return [(int(self.parents[i]), i) for i in range(1, self.n_nodes)]

    def edge_lengths(self) -> np.ndarray:
        """Length of the parent edge per node; entry 0 is 0 for the root."""
        out = np.zeros(self.n_nodes)
        out[1:] = np.linalg.norm(self.positions[1:] - self.positions[self.parents[1:]], axis=1)
        return out

    def atom_terminals(self, n_atoms: int) -> np.ndarray:
        """Terminal node of each atom 0 .. n_atoms - 1, or -1 for an atom
        without one: the inverse of atom_index, built in one pass."""
        ai = self.atom_index
        nodes = np.flatnonzero((ai >= 0) & (ai < n_atoms))
        out = np.full(n_atoms, -1, dtype=np.int64)
        out[ai[nodes]] = nodes
        return out


@dataclass(frozen=True, eq=False)
class FluxMap:
    """Per-edge mass flux, stored per node: values[i] is the flux on the edge
    into node i (total subtree mass), and values[0] is the total inflow."""

    tree: IrrigationTree
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class LandscapeValues:
    """Landscape values per tree node; values[0] = 0 at the root."""

    tree: IrrigationTree
    values: np.ndarray
    alpha: float

    def at_atom(self, atom: int) -> float:
        return float(self.at_atoms((atom,))[0])

    def at_atoms(self, atoms) -> np.ndarray:
        """Values at the terminals of the given atoms, in their order."""
        idx = np.fromiter(map(int, atoms), np.int64)
        terminals = self.tree.atom_terminals(int(self.tree.atom_index.max()) + 1)
        known = (idx >= 0) & (idx < len(terminals))
        nodes = np.full(len(idx), -1, dtype=np.int64)
        nodes[known] = terminals[idx[known]]
        missing = np.flatnonzero(nodes < 0)
        if len(missing):
            raise ValidationError(f"atom {int(idx[missing[0]])} has no terminal in this tree")
        return self.values[nodes]


def _node_masses(tree: IrrigationTree, mu: DiscreteMeasure) -> np.ndarray:
    """Mass of the atom each node carries, once every terminal's atom is
    found in mu and every atom of mu has a terminal."""
    masses = mu.masses()
    ai = tree.atom_index
    missing = ai >= len(masses)
    if np.any(missing):
        i = int(np.argmax(missing))
        raise ValidationError(f"terminal node {i} refers to missing atom {int(ai[i])}")
    uncovered = tree.atom_terminals(len(masses)) < 0
    if np.any(uncovered):
        raise ValidationError(f"atom {int(np.argmax(uncovered))} has no terminal in the tree")
    return np.where(ai >= 0, masses[ai], 0.0)


def _fluxes(parents, atom_index, masses):
    """Flux into every node, the mass of the atoms in its subtree, with the
    total inflow at the root; masses is indexed by atom."""
    ai = np.asarray(atom_index)
    flux = np.where(ai >= 0, masses[ai], 0.0)
    for i in reversed(_depth_order(parents)[1:]):
        flux[parents[i]] += flux[i]
    return flux


def _plan_cost(pos, parents, flux, alpha):
    """Transport cost sum(flux ** alpha * length) over the edges of a plan."""
    d = pos[1:] - pos[parents[1:]]
    return float(np.sum(flux[1:] ** alpha * np.sqrt((d * d).sum(-1))))


def compute_fluxes(tree: IrrigationTree, mu: DiscreteMeasure) -> FluxMap:
    """Edge fluxes induced by routing every atom's mass to the root.

    Conservation holds at every node by construction: the flux into a node
    equals its own terminal mass plus the flux into its children.  The
    read-only flux array is memoized on the tree for the measure object mu
    (by identity, the last one given), so a plan's cost, landscape and
    report share one accumulation; a measure that does not fit the tree
    raises on every call.
    """
    memo = tree._flux_memo
    if memo is None or memo[0] is not mu:
        memo = (mu, _tree_fluxes(tree, mu))
        object.__setattr__(tree, "_flux_memo", memo)
    return FluxMap(tree, memo[1])


def _tree_fluxes(tree: IrrigationTree, mu: DiscreteMeasure) -> np.ndarray:
    """The fluxes of compute_fluxes, uncached and checked for lost mass."""
    total = float(_node_masses(tree, mu).sum())
    flux = _fluxes(tree.parents, tree.atom_index, mu.masses())
    if abs(flux[0] - total) > 1e-12 * max(1.0, total):
        raise ValidationError("flux accumulation lost mass beyond tolerance")
    flux.setflags(write=False)
    return flux


def irrigation_cost(tree: IrrigationTree, mu: DiscreteMeasure, alpha: float) -> float:
    """Transport cost sum(flux ** alpha * length) of the plan."""
    _check_alpha(alpha)
    return _plan_cost(tree.positions, tree.parents, compute_fluxes(tree, mu).values, alpha)


def landscape(tree: IrrigationTree, mu: DiscreteMeasure, alpha: float) -> LandscapeValues:
    """Landscape values along the tree.  Every edge carries a positive flux:
    every leaf is a terminal, and every atom has positive mass."""
    _check_alpha(alpha)
    flux = compute_fluxes(tree, mu).values
    lengths = tree.edge_lengths()
    z = np.zeros(tree.n_nodes)
    for i in tree.depth_order()[1:]:  # the root comes first
        z[i] = z[tree.parents[i]] + flux[i] ** (alpha - 1.0) * lengths[i]
    z.setflags(write=False)
    return LandscapeValues(tree, z, float(alpha))


def cost_lower_bound(mu: DiscreteMeasure, alpha: float) -> float:
    """Radial lower bound on any plan's cost, about the source at (0, 0).

    Integrating (mass at distance >= r) ** alpha over r >= 0 gives a finite
    sum over the sorted atom radii; no plan can beat it because the flux
    crossing the circle of radius r is at least the mass beyond it.
    """
    if not len(mu):
        return 0.0
    pos = mu.positions()
    radii = np.hypot(pos[:, 0], pos[:, 1])
    masses = mu.masses()
    order = np.argsort(radii, kind="stable")
    r_sorted = radii[order]
    m_sorted = masses[order]
    suffix = np.cumsum(m_sorted[::-1])[::-1]
    prev = np.concatenate([[0.0], r_sorted[:-1]])
    return float(np.sum((r_sorted - prev) * suffix ** alpha))


# ---------------------------------------------------------------------------
# optimality diagnostics


@dataclass(frozen=True)
class HolderReport:
    """Pairwise Lipschitz-type check on landscape values over tree nodes."""

    violations: tuple
    pairs_checked: int
    alpha: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_landscape_holder(tree: IrrigationTree, mu: DiscreteMeasure, alpha: float,
                           rel_tol: float = 1e-9) -> HolderReport:
    """Check Z(x) - Z(y) <= (1 / alpha) * flux_at(x) ** (alpha - 1) * |x - y|
    over all ordered node pairs.  Holds on cost-optimal plans."""
    z = landscape(tree, mu, alpha).values
    flux = compute_fluxes(tree, mu).values
    pos = tree.positions
    n = tree.n_nodes
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    bound = (1.0 / alpha) * (flux ** (alpha - 1.0))[:, None] * dist
    excess = z[:, None] - z[None, :] - bound
    tol = rel_tol * max(1.0, float(np.max(np.abs(z))))
    bad = np.argwhere(excess > tol)
    violations = tuple((int(i), int(j), float(excess[i, j]))
                       for i, j in bad if i != j)
    return HolderReport(violations, n * (n - 1), float(alpha))


@dataclass(frozen=True)
class ArcChordReport:
    """Arc-versus-chord check along root-to-leaf paths."""

    violations: tuple
    pairs_checked: int
    constant: float
    delta0: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_arc_chord(tree: IrrigationTree, mu: DiscreteMeasure, alpha: float,
                    delta0: float, rel_tol: float = 1e-9) -> ArcChordReport:
    """Check arc <= (1 / alpha) * (delta0 / M) ** (alpha - 1) * chord for node
    pairs on a common root-leaf path whose intermediate edges all carry flux
    above delta0.  Optimal plans cannot wiggle more than this."""
    if not delta0 > 0.0:
        raise ValidationError("delta0 must be positive")
    flux = compute_fluxes(tree, mu).values
    constant = (1.0 / alpha) * (delta0 / flux[0]) ** (alpha - 1.0)  # flux[0] = M > 0
    lengths, pos, parents = tree.edge_lengths(), tree.positions, tree.parents.tolist()
    violations, checked = [], 0
    for b in range(1, tree.n_nodes):  # every ancestor a of b, walking up
        a, arc, seg_flux = b, 0.0, np.inf
        while a > 0:
            arc, seg_flux, a = arc + lengths[a], min(seg_flux, flux[a]), parents[a]
            checked += 1
            chord = float(np.linalg.norm(pos[b] - pos[a]))
            if seg_flux > delta0 and arc > constant * chord + rel_tol * max(1.0, arc):
                violations.append((a, b, float(arc), chord))
    return ArcChordReport(tuple(violations), checked, float(constant), float(delta0))


# ---------------------------------------------------------------------------
# plan construction


def star_tree(mu: DiscreteMeasure) -> IrrigationTree:
    """Direct root-to-atom segments, node i + 1 carrying atom i."""
    n = len(mu)
    if not n:
        raise ValidationError("cannot plan for an empty measure")
    pos = np.vstack([np.zeros((1, 2)), mu.positions()])
    parents = np.concatenate([[-1], np.zeros(n, dtype=np.int64)])
    atom_index = np.arange(-1, n)
    return IrrigationTree(pos, parents, atom_index)


def _degenerate_anchor(pts, w):
    """Index of an anchor that minimizes sum w_i |s - pts_i| outright, or None.

    Anchor i wins when the pull of the anchors elsewhere, |sum_j w_j (pts_i -
    pts_j) / |pts_i - pts_j||, is at most the weight resting on pts_i."""
    for i, (xi, yi) in enumerate(pts):
        gx = gy = held = 0.0
        for (xj, yj), wj in zip(pts, w):
            if (nd := math.hypot(xi - xj, yi - yj)) == 0.0:
                held += wj
            else:
                gx += wj * (xi - xj) / nd
                gy += wj * (yi - yj) / nd
        if math.hypot(gx, gy) <= held * (1.0 + 1e-12):
            return i
    return None


def _y_junctions(x, y, w):
    """Exact minimizers of sum_i w_i |s - (x_i, y_i)| for batched anchor triples.

    x, y and w are (m, 3); returns the points' x and y arrays.  The first
    anchor that wins the degenerate test of `_degenerate_anchor` is the
    answer.  Otherwise the minimizer is the weighted Y-junction: it sees the
    side opposite anchor i under the angle theta_i with

        cos theta_i = (w_i^2 - w_j^2 - w_k^2) / (2 w_j w_k),

    so theta_i is pi minus the angle W_i opposite w_i in the triangle with
    side lengths w, and its barycentric coordinates are

        1 / (cot A_i - cot theta_i) = 1 / (cot A_i + cot W_i),

    A_i the angle of the anchor triangle at anchor i.  Both cotangents share
    a denominator per triple (twice the anchor area, four times the weight
    area), which is multiplied out.  No anchor wins only when every A_i <
    theta_i, so the coordinates are positive and finite there, near-collinear
    and near-coincident anchors included: exactly collinear or coincident
    anchors always have a winner."""
    # sides from anchor i to anchors j = i + 1 and k = i + 2 (mod 3)
    j, k = [1, 2, 0], [2, 0, 1]
    xj, yj, xk, yk = x[:, j] - x, y[:, j] - y, x[:, k] - x, y[:, k] - y
    w_j, w_k = w[:, j], w[:, k]
    len_j, len_k = np.sqrt(xj * xj + yj * yj), np.sqrt(xk * xk + yk * yk)
    c_j = w_j / np.where(len_j > 0.0, len_j, np.inf)
    c_k = w_k / np.where(len_k > 0.0, len_k, np.inf)
    pull_x, pull_y = xj * c_j + xk * c_k, yj * c_j + yk * c_k
    held = w + np.where(len_j > 0.0, 0.0, w_j) + np.where(len_k > 0.0, 0.0, w_k)
    wins = np.sqrt(pull_x * pull_x + pull_y * pull_y) <= held * (1.0 + 1e-12)

    dot = xj * xk + yj * yk
    area2 = np.abs(xj[:, 0] * yk[:, 0] - yj[:, 0] * xk[:, 0])
    wsum = w.sum(1)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where an anchor wins
        area4_w = np.sqrt(wsum * (wsum - 2.0 * w[:, 0]) * (wsum - 2.0 * w[:, 1])
                          * (wsum - 2.0 * w[:, 2]))
        lam = 1.0 / (dot * area4_w[:, None] + (w_j * w_j + w_k * w_k - w * w) * area2[:, None])
        lam_sum = lam.sum(1)
        sx, sy = (lam * x).sum(1) / lam_sum, (lam * y).sum(1) / lam_sum
    won, first = wins.any(1), (np.arange(len(w)), wins.argmax(1))
    return np.where(won, x[first], sx), np.where(won, y[first], sy)


def _y_junction(pts, w):
    """`_y_junctions` for one triple in plain floats, bit for bit: pts holds
    three (x, y) anchors and w their weights; returns the point as (x, y).
    It repeats the batched operations in their order, sums left to right."""
    (x0, y0), (x1, y1), (x2, y2) = pts
    w0, w1, w2 = w
    terms = []  # (dot, w_j^2 + w_k^2 - w_i^2) per anchor i
    for xi, yi, wi, xj, yj, wj, xk, yk, wk in ((x0, y0, w0, x1, y1, w1, x2, y2, w2),
                                               (x1, y1, w1, x2, y2, w2, x0, y0, w0),
                                               (x2, y2, w2, x0, y0, w0, x1, y1, w1)):
        dxj, dyj, dxk, dyk = xj - xi, yj - yi, xk - xi, yk - yi
        len_j, len_k = math.sqrt(dxj * dxj + dyj * dyj), math.sqrt(dxk * dxk + dyk * dyk)
        c_j = wj / len_j if len_j > 0.0 else 0.0
        c_k = wk / len_k if len_k > 0.0 else 0.0
        px, py = dxj * c_j + dxk * c_k, dyj * c_j + dyk * c_k
        held = (wi + (0.0 if len_j > 0.0 else wj)) + (0.0 if len_k > 0.0 else wk)
        if math.sqrt(px * px + py * py) <= held * (1.0 + 1e-12):
            return xi, yi
        terms.append((dxj * dxk + dyj * dyk, wj * wj + wk * wk - wi * wi))
    area2, wsum = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)), w0 + w1 + w2
    area4_w = math.sqrt(wsum * (wsum - 2.0 * w0) * (wsum - 2.0 * w1) * (wsum - 2.0 * w2))
    l0, l1, l2 = (1.0 / (dot * area4_w + wq * area2) for dot, wq in terms)
    lam_sum = l0 + l1 + l2
    return (l0 * x0 + l1 * x1 + l2 * x2) / lam_sum, (l0 * y0 + l1 * y1 + l2 * y2) / lam_sum


def _fermat_point(pts, w, start):
    """Exact minimizer of sum w_i |s - pts_i| over (x, y) anchors, as (x, y).

    The general solver, for any number of anchors.  `_optimize_positions`
    sends it every move that does not have exactly three anchors: a node
    with four or more neighbours, or a block of coincident nodes.  The
    tests take it as the independent reference of `_y_junctions`.

    A winner of the degenerate test is returned as is.  Otherwise the
    minimizer lies off every anchor, where the objective is smooth and
    strictly convex; damped Newton steps reach it from `start`, or from the
    weighted centroid when `start` sits on an anchor.  A step is halved
    while it lands above the Weiszfeld point of the same iterate, which is
    taken once the step vanishes: near an anchor the Newton model can draw
    iterates into the kink, and the Weiszfeld point steps out of it."""
    k = _degenerate_anchor(pts, w)
    if k is not None:
        return pts[k]

    def change(nx, ny):  # cost(n) - cost(s) as sum w_i (|d_i + e| - |d_i|), no cancellation
        ex, ey = nx - sx, ny - sy
        return sum(wi * ((dx + dx + ex) * ex + (dy + dy + ey) * ey)
                   / (math.hypot(dx + ex, dy + ey) + nd) for dx, dy, nd, wi in rel)

    if start in pts:
        wsum = sum(w)
        start = (sum(wi * px for wi, (px, _) in zip(w, pts)) / wsum,
                 sum(wi * py for wi, (_, py) in zip(w, pts)) / wsum)
    sx, sy = start
    tiny = 1e-15 * (max(max(abs(px), abs(py)) for px, py in pts) + 1.0)
    for _ in range(_MAX_NEWTON_STEPS):
        gx = gy = hxx = hxy = hyy = num_x = num_y = den = 0.0
        rel = []  # (s - anchor, |s - anchor|, weight) per anchor
        for (px, py), wi in zip(pts, w):
            nd = math.hypot(sx - px, sy - py)
            if nd == 0.0:
                return sx, sy  # an iterate hit an anchor exactly
            ux, uy, c = (sx - px) / nd, (sy - py) / nd, wi / nd
            rel.append((sx - px, sy - py, nd, wi))
            gx += wi * ux
            gy += wi * uy
            hxx += c * uy * uy
            hxy -= c * ux * uy
            hyy += c * ux * ux
            num_x += c * px
            num_y += c * py
            den += c
        det = hxx * hyy - hxy * hxy
        stx = sty = 0.0
        if det > 0.0:
            stx = (hxy * gy - hyy * gx) / det
            sty = (hxy * gx - hxx * gy) / det
        step = math.hypot(stx, sty)
        if det > 0.0 and step <= tiny:
            break
        wx, wy = num_x / den, num_y / den
        fw = change(wx, wy)
        t = 1.0
        while t * step > tiny:
            nx, ny = sx + t * stx, sy + t * sty
            fn = change(nx, ny)
            if fn <= fw:
                break
            t *= 0.5
        else:
            nx, ny, fn = wx, wy, fw
        if fn >= 0.0:
            break
        sx, sy = nx, ny
    return sx, sy


def _newton_direction(xy, edges, tiny):
    """({free node: its step}, [(i, top of p's block, w, dx, dy, length, the
    edge's Hessian block h = w / L (I - u u^T) as h_xx, h_xy, h_yy) per edge
    of nonzero length]) of the joint Newton step of `_optimize_positions`
    at xy; None if no block is free, no gradient entry exceeds tiny or a
    pivot is singular.  edges: (i, parent, weight, i is steiner, parent is
    steiner) per edge with a steiner end, parents first.  The free blocks
    form a forest: their Hessian eliminates leaves first, with 2x2 pivots
    and no fill (George and Liu, 1981)."""
    top = list(range(n := len(xy)))  # a block's nodes take its top node's index
    sxx, sxy, syy, rx, ry = ([0.0] * n for _ in range(5))  # per block; r = -grad
    held, geo, done, step = set(), [], [], {}
    for i, p, w, si, sp in edges:
        (xi, yi), (xp, yp) = xy[i], xy[p]
        if (length := math.sqrt((dx := xi - xp) * dx + (dy := yi - yp) * dy)) > 0.0:
            ux, uy, c, q = dx * (inv := 1.0 / length), dy * inv, w * inv, top[p]
            hxx, hxy, hyy = c * (1.0 - ux * ux), -c * (ux * uy), c * (1.0 - uy * uy)
            gx, gy = w * ux, w * uy  # i tops its block: r_i starts here, as in a dense assembly
            geo.append((i, q, w, dx, dy, length, hxx, hxy, hyy))
            sxx[i], sxy[i], syy[i] = sxx[i] + hxx, sxy[i] + hxy, syy[i] + hyy
            sxx[q], sxy[q], syy[q] = sxx[q] + hxx, sxy[q] + hxy, syy[q] + hyy
            rx[i], ry[i], rx[q], ry[q] = rx[i] - gx, ry[i] - gy, rx[q] + gx, ry[q] + gy
        elif si and sp:
            top[i] = top[p]
        else:
            held.update((top[i], top[p]))  # a kink
    free = {i for i, _, _, si, _ in edges if si and top[i] not in held}
    if max((max(abs(rx[i]), abs(ry[i])) for i in free if top[i] == i), default=0.0) <= tiny:
        return None
    for i, q, _, _, _, _, hxx, hxy, hyy in reversed(geo):
        if i in free:  # i tops a block, and every block below it is eliminated
            axx, axy, ayy, bx, by = sxx[i], sxy[i], syy[i], rx[i], ry[i]
            if (det := axx * ayy - axy * axy) == 0.0:
                return None
            a, b, d = ayy / det, -axy / det, axx / det
            done.append((i, q := q if q in free else None, hxx, hxy, hyy, a, b, d, bx, by))
            if q is not None:  # with k = h S_i^-1: S_q -= k h, r_q += k r_i
                kxx, kxy = hxx * a + hxy * b, hxx * b + hxy * d
                kyx, kyy = hxy * a + hyy * b, hxy * b + hyy * d
                sxx[q], sxy[q] = sxx[q] - (kxx * hxx + kxy * hxy), sxy[q] - (kxx * hxy + kxy * hyy)
                syy[q], rx[q] = syy[q] - (kyx * hxy + kyy * hyy), rx[q] + (kxx * bx + kxy * by)
                ry[q] += kyx * bx + kyy * by
    for i, q, hxx, hxy, hyy, a, b, d, bx, by in reversed(done):  # s_i = S_i^-1 (r_i + h s_q)
        px, py = step[q] if q is not None else (0.0, 0.0)
        bx, by = bx + (hxx * px + hxy * py), by + (hxy * px + hyy * py)
        step[i] = (a * bx + b * by, b * bx + d * by)
    return {i: step[top[i]] for i in free}, geo


def _newton_step(xy, edges, tiny):
    """xy, a list of (x, y), after the joint Newton step of `_newton_direction`
    scaled by the first t = 2^-k, k < _MAX_HALVINGS, that strictly lowers the
    weighted length; xy itself when the step is skipped or no t helps."""
    if (solved := _newton_direction(xy, edges, tiny)) is None:
        return xy
    step, geo = solved
    moving = [(w, dx, dy, length, step.get(i, (0.0, 0.0)), step.get(q, (0.0, 0.0)))
              for i, q, w, dx, dy, length, _, _, _ in geo if i in step or q in step]
    for k in range(_MAX_HALVINGS):
        t, change = 0.5 ** k, 0.0
        for w, dx, dy, length, (ax, ay), (bx, by) in moving:  # |d + shift| - |d|, no cancellation
            sx, sy = t * (ax - bx), t * (ay - by)
            nx, ny = dx + sx, dy + sy
            change += w * (((2.0 * dx + sx) * sx + (2.0 * dy + sy) * sy)
                           / (math.sqrt(nx * nx + ny * ny) + length))
        if change < 0.0:
            out = list(xy)
            for i, (sx, sy) in step.items():
                out[i] = (xy[i][0] + t * sx, xy[i][1] + t * sy)
            return out
    return xy


def _gradient_cutoff(weights):
    """The rounding level 1e-14 * max w of the weighted length's gradient,
    for edge weights w = weights[1:]: below it a steiner node counts as
    stationary, in `_newton_direction` and in `_stationary` alike."""
    return 1e-14 * max(weights[1:], default=0.0)


def _optimize_positions(pos, parents, atom_index, weights, scale):
    """Minimize sum(weights * edge_length) over steiner positions.

    The steiner nodes are the non-root nodes without an atom.  The
    objective is convex in the coordinates.  Each Gauss-Seidel sweep
    moves every steiner node, in node order, to the exact weighted Fermat
    point of its neighbours: in closed form (`_y_junction`) for a move
    with three anchors, by `_fermat_point` otherwise.  Single moves stall on
    the kink where steiner nodes coincide, so a node that lands on a
    steiner neighbour then moves on with all steiner nodes joined to it by
    zero-length edges, as one block, to the Fermat point of the block's
    outside neighbours.  Sweeps stop once no node moves more than
    1e-12 * max(1, scale).  Returns the new positions.

    Sweeps converge only linearly, so each sweep is followed by one joint
    Newton step over all blocks (`_newton_step`), solved by elimination over
    the tree in plain floats; a block on a kink (a zero-length edge to a
    terminal or the root) stays.
    """
    steiner = [a < 0 and i > 0 for i, a in enumerate(np.asarray(atom_index).tolist())]
    # scaled by a power of two, which is exact and leaves the minimizer as it
    # is, so the products of weights in `_y_junction` stay in range at any mass
    w = np.asarray(weights, dtype=float)
    par, weights = np.asarray(parents).tolist(), np.ldexp(w, -np.frexp(w.max())[1]).tolist()
    edges = [(i, par[i], weights[i], steiner[i], steiner[par[i]])
             for i in _depth_order(par)[1:] if steiner[i] or steiner[par[i]]]
    tiny = _gradient_cutoff(weights)
    xy = [tuple(p) for p in np.asarray(pos, dtype=float).tolist()]
    nbrs = [[] for _ in xy]  # (neighbour, weight of the edge to it)
    for i, (p, wi) in enumerate(zip(par[1:], weights[1:]), 1):
        nbrs[i].append((p, wi))
        nbrs[p].append((i, wi))
    stars = [(i, *zip(*nbrs[i])) for i, s in enumerate(steiner) if s]  # (i, anchors, weights)

    def move(nodes, anchors, w):
        old = xy[nodes[0]]
        pts = [xy[j] for j in anchors]
        q = _y_junction(pts, w) if len(pts) == 3 else _fermat_point(pts, w, old)
        for i in nodes:
            xy[i] = q
        return math.hypot(q[0] - old[0], q[1] - old[1])

    for _ in range(_MAX_GEOMETRY_SWEEPS):
        moved = 0.0
        for i, anchors, w in stars:
            moved = max(moved, move([i], anchors, w))
            block = [i]
            for b in block:  # grows while it is read
                block.extend(j for j, _ in nbrs[b] if steiner[j]
                             and j not in block and xy[j] == xy[i])
            if len(block) > 1:
                outside = [(j, wj) for b in block for j, wj in nbrs[b] if j not in block]
                moved = max(moved, move(block, *zip(*outside)))
        xy = _newton_step(xy, edges, tiny)
        if moved <= 1e-12 * max(1.0, scale):
            break
    return np.array(xy, dtype=float)


def _contract(pos, parents, atom_index, tol):
    """Remove childless/single-child steiner nodes and zero-length edges.

    Takes and returns the plan as (positions, parents, atom_index); a
    non-root node without an atom is a steiner node."""
    pos = [(float(p[0]), float(p[1])) for p in pos]
    parents = [int(p) for p in parents]
    atom_index = [int(a) for a in atom_index]

    def delete(i):
        # caller guarantees nothing references node i anymore
        del pos[i], parents[i], atom_index[i]
        parents[:] = [q - (q > i) for q in parents]

    while True:
        ch = _children_lists(parents)
        for i in range(1, len(parents)):
            p = parents[i]
            short = math.hypot(pos[i][0] - pos[p][0], pos[i][1] - pos[p][1]) <= tol
            if atom_index[i] < 0 and (len(ch[i]) <= 1 or short):
                for k in ch[i]:
                    parents[k] = p
                delete(i)
                break
            if short:
                if not (p > 0 and atom_index[p] < 0):
                    raise ValidationError("zero-length edge between fixed nodes")
                # the terminal absorbs the branch point
                for k in ch[p]:
                    parents[k] = i
                parents[i] = parents[p]
                delete(p)
                break
        else:
            break
    return (np.array(pos, dtype=float), np.array(parents, dtype=np.int64),
            np.array(atom_index, dtype=np.int64))


def _apply_move(move, pos, parents, atom_index):
    """The plan (pos, parents, atom_index) after the attach move (u, q, p, s):
    u and q hang off a new branch point s below p, appended as the last
    node."""
    u, q, p, s = move
    parents = np.array(parents, dtype=np.int64)
    parents[u] = parents[q] = len(parents)
    return (np.vstack([pos, np.array(s)[None, :]]), np.append(parents, p),
            np.append(atom_index, -1))


def _move_costs(move, pos, parents, nm, alpha):
    """Plan cost before and after one attach move, each from a full
    recompute; nm is the mass per node, so node i carries "atom" i."""
    plan = (pos, parents, np.arange(len(parents)))
    return tuple(_plan_cost(p, par, _fluxes(par, ai, nm), alpha)
                 for p, par, ai in (plan, _apply_move(move, *plan)))


def _candidate_moves(pos, parents, flux, alpha):
    """Every topology move of the plan with its exact cost decrease.

    The one move is an attach (u, q, p, s): subtree u leaves its parent and
    hangs, with q, off a new branch point s inserted on the edge from p into
    q.  Every q outside the subtree of u is a candidate, a sibling of u
    included.  Returns (gains, move_at): the gain of every candidate in (u,
    q) order, the tie-break order, and a function from a candidate's index
    to its move.  Merging two siblings is an attach onto a sibling's edge.
    Hanging u off a node v is the attach onto the edge into v (onto any
    edge out of the root when v is the root) with s placed on v, and the
    exact Y-junction never does worse than that.

    Moving the flux phi_u of subtree u off the root path of its parent and
    onto the root path of p changes the cost of the edges on exactly one
    of the two paths.  With P[v, e] = 1 when edge e lies on the root path
    of v, Add[u, e] and Sub[u, e] the cost changes of edge e when phi_u is
    added to or taken off its flux, and op the parent of each u,

        R = (Add * (1 - P[op]) - Sub * P[op]) @ P.T + rowsum(Sub * P[op])

    holds every such change.  The attach also takes off the terms of the
    edges into u and q, whose new fluxes its own Y-junction prices, and
    every branch point s is one batch of `_y_junctions`."""
    n = len(parents)
    par = np.asarray(parents, dtype=np.int64)
    up = np.maximum(par, 0)  # the root points at itself
    fa = flux ** alpha
    ex, ey = pos[:, 0] - pos[up, 0], pos[:, 1] - pos[up, 1]
    elen = np.sqrt(ex * ex + ey * ey)
    P, pl, on_path = np.zeros((n, n)), par.tolist(), []
    for v in range(1, n):  # flat indices of P's ones, walking up from each node
        e = v
        while e > 0:
            on_path.append(v * n + e)
            e = pl[e]
    P.flat[on_path] = 1.0
    P_op = P[up]  # P[0] is all zero: the root's path holds no edge
    phi = flux[:, None]
    add = ((flux + phi) ** alpha - fa) * elen
    sub = (np.maximum(flux - phi, 0.0) ** alpha - fa) * elen
    sub_old = sub * P_op
    R = (add * (1.0 - P_op) - sub_old) @ P.T + sub_old.sum(1)[:, None]

    u, q = np.nonzero(P.T[1:, 1:] == 0.0)  # q is not in the subtree of u
    u, q = u + 1, q + 1
    f0_q = flux[q] - flux[u] * P_op[u, q]  # flux into q once u is detached
    weights = np.stack([(f0_q + flux[u]) ** alpha, f0_q ** alpha, fa[u]], 1)
    corners = np.stack([par[q], q, u], 1)
    ax, ay = pos[corners, 0], pos[corners, 1]
    # each triple's weights scaled by a power of two, which is exact and
    # leaves its point as it is, so their products stay in range at any
    # mass; column 0, the flux through the branch point, weighs the most
    sx, sy = _y_junctions(ax, ay, np.ldexp(weights, -np.frexp(weights[:, :1])[1]))
    dx, dy = sx[:, None] - ax, sy[:, None] - ay
    y_cost = (weights * np.sqrt(dx * dx + dy * dy)).sum(1)
    gains = (fa[q] * elen[q] + fa[u] * elen[u] - y_cost
             - R[u, par[q]] + P_op[u, q] * sub[u, q])

    def move_at(k):
        return int(u[k]), int(q[k]), int(par[q[k]]), (sx[k], sy[k])

    return gains, move_at


def _scan_moves(pos, parents, flux, alpha):
    """The best topology move as (gain, move), or None when no candidate
    lowers the cost by more than 1e-12 * max(1, cost), a plan without
    candidates included.  Of equal gains the first in `_candidate_moves`
    order wins, so the search is deterministic."""
    gains, move_at = _candidate_moves(pos, parents, flux, alpha)
    if not len(gains):
        return None
    k = int(np.argmax(gains))
    if not gains[k] > 1e-12 * max(1.0, _plan_cost(pos, parents, flux, alpha)):
        return None
    return float(gains[k]), move_at(k)


def _stationary(pos, parents, atom_index, weights):
    """Whether every steiner node of a contracted plan is stationary for
    the edge weights: the weighted unit vectors w_e u_e of its edges sum to
    at most `_gradient_cutoff(weights)` in each coordinate.  Contraction
    leaves no edge of zero length, so the weighted length is smooth at the
    steiner nodes and, being convex, at its minimum there."""
    d = pos[1:] - pos[parents[1:]]
    pull = d * (weights[1:] / np.sqrt((d * d).sum(1)))[:, None]
    grad = np.zeros_like(pos)
    grad[1:] = pull
    np.subtract.at(grad, parents[1:], pull)
    steiner = grad[1:][atom_index[1:] < 0]
    return bool(np.abs(steiner).max(initial=0.0) <= _gradient_cutoff(weights))


def _refit(pos, parents, atom_index, masses, alpha, scale):
    """The plan (pos, parents, atom_index) contracted, with its steiner
    geometry refit exactly to its fluxes, and contracted again.  Contracting
    first keeps a branch point that sits on a neighbour or has one child out
    of the sweeps.  A contracted plan that is already `_stationary` for its
    fluxes is returned as it is, such as a spawn trial's warm start: its new
    atom hangs off the root and changes no carried flux."""
    tol = 1e-12 * max(1.0, scale)
    pos, parents, atom_index = _contract(pos, parents, atom_index, tol)
    weights = _fluxes(parents, atom_index, masses) ** alpha
    if _stationary(pos, parents, atom_index, weights):
        return pos, parents, atom_index
    pos = _optimize_positions(pos, parents, atom_index, weights, scale)
    return _contract(pos, parents, atom_index, tol)


def _improve(pos, parents, atom_index, masses, alpha, budget, scale):
    """Apply at most `budget` best-gain topology moves to a contracted plan,
    each followed by `_refit`; stops once no move gains.  Takes and returns
    (pos, parents, atom_index)."""
    for _ in range(budget):
        best = _scan_moves(pos, parents, _fluxes(parents, atom_index, masses), alpha)
        if best is None:
            break
        plan = _apply_move(best[1], pos, parents, atom_index)
        pos, parents, atom_index = _refit(*plan, masses, alpha, scale)
    return pos, parents, atom_index


def _warm_plan(pos, parents, atom_index, mu: DiscreteMeasure, alpha, scale):
    """The plan (pos, parents, atom_index) carried over to the atoms of mu, in
    the same form.

    Terminals and atoms are matched one to one by exact position, in atom
    order, each atom taking the first free terminal in node order.  A
    terminal left without an atom becomes a steiner node, atoms left
    without a terminal hang off the root, and `_refit` follows: one
    contraction, one exact refit of the steiner geometry to the new fluxes
    and a second contraction.  Neither step raises the cost of rerouting mu
    along the carried-over tree."""
    pos = [tuple(p) for p in pos.tolist()]
    free = {}
    for i in np.flatnonzero(np.asarray(atom_index) >= 0).tolist():
        free.setdefault(pos[i], []).append(i)
    parents = [int(p) for p in parents]
    atom_index = [-1] * len(parents)
    for j, p in enumerate(map(tuple, mu.positions().tolist())):
        if free.get(p):
            atom_index[free[p].pop(0)] = j
        else:
            pos.append(p)
            parents.append(0)
            atom_index.append(j)
    return _refit(pos, parents, atom_index, mu.masses(), alpha, scale)


def optimize_plan(mu: DiscreteMeasure, alpha: float, budget: int | None = None,
                  init: IrrigationTree | None = None) -> IrrigationTree:
    """Heuristic search for a cheap plan.

    Starts from the star of direct segments, or from the plan `init` when
    one is given, and applies one kind of topology move, accepting only
    strict cost decreases: attach, which hangs a subtree off a new branch
    point inserted on an edge outside it.  Merging two children of a
    shared parent is the attach of one onto the other's edge, and hanging
    a subtree off another node is never better than attaching it onto the
    edge into that node (any edge out of the root, for the root), so the
    one move covers both.

    Every candidate is scored at once in numpy (`_scan_moves`): each new
    branch point is the exact weighted Fermat point of its three
    neighbours, in closed form (`_y_junctions`), and the flux rerouted
    along root paths is priced by one matrix product, so every gain is an
    exact cost difference.  The best gain is applied; ties go to the first
    candidate by subtree root and then by edge, each in node order, so the
    search is deterministic.  After every applied move the plan is
    contracted, its branch points are placed exactly by
    `_optimize_positions` (Gauss-Seidel sweeps, each followed by a joint
    Newton step), and collapsed ones are contracted away.  The search
    works on the plan as (positions, parents, atom_index) alone: a node
    that gains or loses an atom changes kind with it, as `IrrigationTree`
    derives kinds from `atom_index`.

    The start, the star or `init`, is carried over to mu in one way.
    `init` is typically the plan of a measure with the same atoms under
    other masses, some pruned and a few added (a step of the mass ascent).
    Its terminals are matched to the atoms of mu by exact position; a
    terminal whose atom is gone turns into a branch point and is
    contracted away where it no longer branches, and a new atom hangs
    straight off the root.  One exact refit of the branch points to the
    new fluxes precedes the move loop.  If init was planned for a measure
    nu with masses m_a and landscape Z_a, and mu gives the same atoms the
    masses m'_a (0 for an atom that mu lacks), then since t ** alpha is
    concave the carried-over tree already costs at most
    cost(init, nu) + alpha * sum((m'_a - m_a) Z_a), and every later step
    only lowers the cost, so the warm plan keeps that bound.

    For alpha = 1 the star is returned immediately: with a linear cost in the
    flux there is no reward for shared trunks and straight segments are
    optimal.  The star is built only then or without `init`; a warm start
    reads the atoms and the length scale off mu directly.
    """
    _check_alpha(alpha)
    if alpha == 1.0:
        return star_tree(mu)
    start = star_tree(mu) if init is None else init
    if not len(mu):
        raise ValidationError("cannot plan for an empty measure")
    scale = float(np.max(np.linalg.norm(mu.positions(), axis=1)))
    if budget is None:
        budget = 40 + 12 * len(mu)
    plan = _warm_plan(start.positions, start.parents, start.atom_index, mu, alpha, scale)
    return IrrigationTree(*_improve(*plan, mu.masses(), alpha, budget, scale))


def _full_topologies(n_leaves):
    """Parent arrays of every tree rooted at node 0 whose other leaves are
    1..n_leaves-1 and whose internal nodes (labels >= n_leaves) all have
    degree 3.  Leaf k >= 3 goes, as internal node n_leaves + k - 2, onto
    every edge of every tree over the leaves before it; an edge is named
    by its child node."""
    if n_leaves < 2:
        raise ValidationError("need at least two leaves")
    if n_leaves == 2:
        yield [-1, 0]
        return
    first = [-1] * (2 * n_leaves - 2)
    first[1] = first[2] = n_leaves
    first[n_leaves] = 0
    topos = [first]
    for leaf in range(3, n_leaves):
        s = n_leaves + leaf - 2
        grown = []
        for parents in topos:
            for c in [*range(1, leaf), *range(n_leaves, s)]:
                par = list(parents)
                par[s], par[c], par[leaf] = parents[c], s, s
                grown.append(par)
        topos = grown
    yield from topos


def brute_force_plan(mu: DiscreteMeasure, alpha: float) -> IrrigationTree:
    """Exhaustive plan search for up to five atoms.

    Every degree-3 topology over {source} + atoms is enumerated; for each one
    the steiner coordinates solve a convex weighted-length problem, so the
    per-topology optimum is global and the best topology wins.  Every branch
    point starts on the centroid of the source and the atoms, and
    `_optimize_positions` solves the problem from there with no seeding
    pass: its block moves pull the branch points apart, and its joint
    Newton steps finish what the sweeps approach slowly.  Degenerate optima
    (a branch point collapsing onto a neighbor) land exactly on that
    neighbor and are recovered by edge contraction, which is how star-like
    plans emerge from the enumeration.
    """
    _check_alpha(alpha)
    n = len(mu)
    if n == 0:
        raise ValidationError("cannot plan for an empty measure")
    if n > 5:
        raise ValidationError(f"exhaustive search supports at most 5 atoms, got {n}")
    term_pos = mu.positions()
    scale = float(np.max(np.hypot(term_pos[:, 0], term_pos[:, 1])))

    if n == 1:
        return star_tree(mu)

    # node order: 0 root, 1..n terminals, then the internals n + 1 .. 2n - 1,
    # numbered as `_full_topologies` labels them
    n_leaves = n + 1
    n_nodes = 2 * n_leaves - 2
    atom_index = np.array([-1, *range(n)] + [-1] * (n_nodes - n_leaves), dtype=np.int64)
    start = np.zeros((n_nodes, 2))
    start[1:n_leaves] = term_pos
    start[n_leaves:] = start[:n_leaves].mean(0)
    masses = mu.masses()
    best = None
    for parents in _full_topologies(n_leaves):
        flux = _fluxes(parents, atom_index, masses)
        pos = _optimize_positions(start, parents, atom_index, flux ** alpha, scale)
        cost = _plan_cost(pos, parents, flux, alpha)
        if best is None or cost < best[0]:
            best = (cost, pos, parents)

    _, pos, parents = best
    return IrrigationTree(*_contract(pos, parents, atom_index, tol=1e-12 * max(1.0, scale)))
