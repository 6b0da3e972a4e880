"""Finite-difference solvers for the harvest equation and its adjoint.

Discretization
--------------
Five-point Laplacian on the uniform grid with homogeneous Neumann boundary
conditions imposed through mirrored ghost nodes, so the boundary rows read
(2 u_inner - 2 u_0) / h^2 and every row of the Laplacian sums to zero.  A
point measure lumps onto its grid node with density mass / (tau h^2), where
tau h^2 is the area of the trapezoid cell covered by the node; the smaller
cells along the walls then absorb the full atom mass.  The same trapezoid
weights (1, 1/2 on edges, 1/4 at corners) symmetrize the reflected stencil,
so the scheme is self-adjoint in the tau-weighted inner product.  With this
pairing the adjoint of the scheme is the scheme itself, so the sensitivity
field from solve_adjoint differentiates the discrete crop exactly.

Every linear solve A x = b, A = -lap + diag(absorption), follows one rule.
The nodewise residual |A x - b| against the true matrix A must lie within
tol_linear * max(1, |absorption * x|, |b|) at every node.  A solve given
factors (of A itself, or of a nearby matrix such as an earlier Newton
Jacobian) back-substitutes with them and refines against A, up to
12 steps that each at least halve the worst scaled residual.  Without
factors, or when they miss, A is factorized and refined by the same rule;
if that misses too, SolverError reports the worst residual, so a singular
or ill-conditioned system fails by name instead of returning garbage.
A system is its grid and its absorption: every residual, in the sweep,
Newton, the adjoint and state_residual / adjoint_residual alike, comes from
the cached Laplacian as absorption * x - lap @ x - b, and a matrix is
assembled only inside a factorization.
Every factorization goes through _factorize, which picks its method by
the half-bandwidth of A; nodes are ordered iy * nx + ix, so that is nx.
One table (_operators) writes the stencil down as the couplings across
cell faces of M = diag(tau)(-lap): M[k, k + 1] = -ty / h^2 and
M[k, k + nx] = -tx / h^2, the face's length over h^2, and 0 at a wall.
tau is 1, 1/2 or 1/4, so M is exactly symmetric; the Laplacian and both
band paths read these couplings.  Up to nx = 161 (_BAND_MAX) _factorize
takes LAPACK's banded Cholesky of diag(tau) A (dpbtrf with kd = nx, and
dpbtrs to back-substitute).  Up to nx = 27 (_PLAIN_BAND_MAX) the band
holds diag(tau) A itself, (nx + 1) n doubles: the couplings in rows
nx - 1 and 0, tau times A's diagonal in row nx, and a solve
back-substitutes tau * b.  Wider grids first take
one level of cyclic reduction (Buzbee, Golub and Nielson, SIAM J. Numer.
Anal. 7, 1970).  The stencil couples every red node (ix + iy odd) only to
black ones, so with the red nodes first diag(tau) A = [[D_r, B],
[B^T, D_b]] with D_r diagonal, and eliminating the red nodes leaves the
black Schur complement S = D_b - B^T D_r^-1 B on the ceil(n / 2) black
nodes.  In node order S couples a black node to the black nodes at
(ix +- 2, iy), (ix +- 1, iy +- 1) and (ix, iy +- 2); any two consecutive
grid rows hold nx black nodes, so the last lie exactly nx black nodes away
and kd stays nx while the rows halve: the band factorization, O(rows kd^2),
does half the work, in (nx + 1) ceil(n / 2) doubles assembled from the
stencil's couplings.  A solve takes one dpbtrs on the black half and a
diagonal solve on the red half.  With D_r > 0, which is checked first,
diag(tau) A is congruent to diag(D_r, S), so S is positive definite
exactly when diag(tau) A is, and the argument below carries over.  A pivot
that is not positive, of D_r or of S, raises SolverError naming it as a
pivot of the reordered matrix, and no LU is tried instead.  The matrices
a cold solve factorizes are positive definite: the sweep matrix has
absorption a + sigma > 0, and Newton's Jacobians at supersolutions u on
or above the maximal solution u* dominate J(u*), since f'(u) <= f'(u*)
for concave f, and J(u*) is positive definite when u* > 0 (J(u*) u* =
rate u*^2 / u_max > 0 makes it an M-matrix).  A kept warm state passes
J u > 0, which makes its Jacobian a symmetric M-matrix, hence positive
definite; a warm Newton step that meets an indefinite Jacobian falls
back to the cold sweep, as on any SolverError.  Wider systems get one
CSC matrix and one SuperLU call with the minimum degree ordering of
A^T + A, panels of 2 columns and supernodes relaxed up to 4 columns in
place of SuperLU's defaults.  _PLAIN_BAND_MAX is the widest grid on which
one plain band factorization beat the reduction, and _BAND_MAX the widest
on which the reduction beat SuperLU, both with a cold state solve's and
its adjoint's back-substitutions and with the mass ascent's; README's
numerical notes give the measured ratios, and those of the SuperLU
settings against its defaults.  On every path an exactly singular
matrix raises SolverError.

State equation
--------------
    lap(u) + f(u) - u * mu = 0,   0 <= u <= u_max,  Neumann walls.

Solved by a monotone fixed-point sweep started at the constant supersolution
u = u_max.  Each sweep solves the shifted linear problem

    (-lap + mu/h^2 + sigma) g = f(u_k) + sigma u_k,

with sigma chosen so that f(u) + sigma u is nondecreasing on [0, u_max].
Write F(u) = a u - lap u - f(u), the residual of the linear solve
A u = f(u) for A = -lap + diag(a), so that u is a supersolution where
F(u) >= 0.  The shift makes the sweep order-preserving: from a
supersolution u_k it gives a supersolution g <= u_k, the iterates decrease
monotonically, and the limit is the maximal solution (mirroring the
sub/supersolution construction).  Without the shift the sweep started at
u_max would jump straight to the trivial zero branch, since f(u_max) = 0.
The shifted matrix is the same for every sweep of a given measure, so the
first sweep factorizes it and every later sweep solves with those factors,
one back-substitution unless the residual needs refining.  f is evaluated
once per adopted iterate, for its residual and the next right-hand side.
Since sigma = rate = -f'(u_max), that matrix is the negated Jacobian at
u_max: the sweep is the chord iteration at u_max and contracts only
linearly (README's numerical notes give the measured rate).

Every sweep after the first therefore tries a secant point between its
iterate g and the previous sweep's g_prev, the one-step Anderson mixing of
the sweep map (Walker and Ni, SIAM J. Numer. Anal. 49, 2011),

    u~ = g + c (g - g_prev),   c = (r . r_prev - r . r) / |r - r_prev|^2,

where r = g - u_k is the sweep's step and r_prev the previous one, so c
minimizes |r + c (r - r_prev)|.  It is tried only when c > 0, so that u~
lies below g, for c, c / 2 and c / 4.  A trial point is measured only
once it is certified: u~ > 0 at every node, and F(g) + J(g) (u~ - g) >= 0
at every node for the Jacobian J(g) = -lap + diag(a - f'(g)), checked
against the residual that g's own measurement gave.  It replaces g only
when its scaled residual is lower.  The certificate makes u~ a positive
supersolution, since f is concave: F(u~) >= F(g) + J(g) (u~ - g) >= 0.
A positive supersolution v lies on or above the maximal solution u*,
since f(s) / s strictly decreases: if t = min v / u* were below 1, then
t u* would be a strict subsolution touching v from below at some node,
and there the M-matrix stencil would give F(v) <= F(t u*) < 0,
contradicting F(v) >= 0.  So every
point the sweep measures stays on or above the maximal solution, its limit
is unchanged, and no fallback is needed.  Uncertified, the step does
undershoot: on the first random measure of the fields workload (6 atoms
at 65x65) it lands 4.5e-5 below the maximal solution.  README's numerical
notes give the back-substitutions that the secant points save.

The sweeps stop at the first adopted iterate whose scaled residual is
within sqrt(tol), since one Newton step roughly squares the residual, at
the first sweep that leaves more than 0.9 of the previous sweep's residual
(slow contraction, as near extinction), or when they run out, and damped
Newton steps finish the solve, starting from the residual the last sweep
measured.  Each Newton step keeps the residual by
which its line search accepted the next iterate, so no iterate's residual
is evaluated twice.  By concavity of f, Newton from an iterate above the
maximal solution stays above it.  The sweep's factors are freed
before Newton factorizes.  Each Newton step solves the negated Jacobian
-lap + diag(a - f'(u)) at its iterate to tol_linear.  Given the state of
a nearby measure, the same Newton steps start from it instead (a warm
solve) and the sweep runs only when they stall, touch 0 or end on an
unstable state.  On grids up to nx = 23 (_EXACT_NEWTON_MAX) every step
of a warm solve factorizes its own Jacobian, which README's numerical
notes show is cheaper there than refining with the first step's factors.
In a cold solve, and in a warm one on a wider grid, the first step
factorizes and later steps solve with those factors, which are replaced
only when they miss.
The adjoint matrix is the Jacobian at the converged state, so a state that
Newton finished carries Newton's last factors to solve_adjoint, which
refines with them.  Only a state that a sweep brings within tol itself,
before Newton can start, carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .core import DiscreteMeasure, Grid, GrowthFunction, SolverError, ValidationError

# sweeps allowed before Newton finishes the state solve from the last one,
# if the sweeps neither reach sqrt(tol) nor contract by less than 0.9 first
_MAX_SWEEPS = 400
# refinement steps allowed per set of factors, each of which must at least
# halve the worst scaled residual
_MAX_REFINE = 12
# largest half-bandwidth (nx) factorized by LAPACK's banded Cholesky; wider
# systems go to SuperLU (see the module docstring)
_BAND_MAX = 161
# largest half-bandwidth whose band holds diag(tau) A itself; wider grids
# up to _BAND_MAX factorize the red-black reduction's Schur complement
_PLAIN_BAND_MAX = 27
# widest grid (nx) on which a warm state solve factorizes the Jacobian of
# every Newton step; wider warm solves and every cold solve refine later
# steps with the first step's factors: the widest grid on which that was
# the faster choice in timed spawn ascents (README's numerical notes)
_EXACT_NEWTON_MAX = 23

__all__ = [
    "ScalarField",
    "NodalMeasure",
    "laplacian_matrix",
    "quadrature_weights",
    "lump_measure",
    "solve_state",
    "state_residual",
    "harvest",
    "growth_bound_lambda",
    "solve_adjoint",
    "adjoint_residual",
    "phi_field",
    "bilinear_interpolate",
]


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values on a grid, stored flat in node order (iy * nx + ix)."""

    grid: Grid
    values: np.ndarray
    # factors of the Jacobian at a Newton iterate near these values, which
    # solve_state hands on to solve_adjoint; not part of the field's data
    _factors: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float).ravel()
        if v.shape != (self.grid.n_nodes,):
            raise ValidationError(
                f"field needs {self.grid.n_nodes} values, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def as_matrix(self) -> np.ndarray:
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True, eq=False)
class NodalMeasure:
    """Atom masses lumped onto grid nodes (weights, not densities)."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        if w.shape != (self.grid.n_nodes,):
            raise ValidationError("weight vector length must match the grid")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and >= 0")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def density(self) -> np.ndarray:
        # mass per covered cell area; boundary cells are half size, corners quarter
        return self.weights / (quadrature_weights(self.grid) * self.grid.h ** 2)


@lru_cache(maxsize=16)
def _operators(grid: Grid):
    """The stencil table: the Laplacian lap (CSC, no stored zeros), the
    weights tau, the positions of lap's diagonal in lap.data, and the
    couplings east[k] = M[k, k + 1] and north[k] = M[k, k + nx] of the
    module docstring, +0.0 where there is no neighbour.  lap is -M / tau
    off the diagonal and -4 / h^2 on it: powers of 2 times 1 / h^2."""
    nx, ny, h2 = grid.nx, grid.ny, grid.h ** 2
    tx = np.ones(nx)
    tx[0] = tx[-1] = 0.5
    ty = np.ones(ny)
    ty[0] = ty[-1] = 0.5
    tau = np.kron(ty, tx)
    east, north = np.zeros((ny, nx)), np.zeros((ny, nx))
    east[:, :-1] = -ty[:, None] / h2
    north[:-1] = -tx / h2
    east, north = east.ravel(), north.ravel()
    lap = sp.diags([-north[:-nx] / tau[nx:], -east[:-1] / tau[1:],
                    np.full(grid.n_nodes, -4.0 / h2), -east[:-1] / tau[:-1],
                    -north[:-nx] / tau[:-nx]], [-nx, -1, 0, 1, nx], format="csc")
    cols = np.repeat(np.arange(grid.n_nodes), np.diff(lap.indptr))
    diagonal = np.flatnonzero(lap.indices == cols)  # positions in lap.data
    for arr in (tau, east, north):
        arr.setflags(write=False)
    return lap, tau, diagonal, east, north


def laplacian_matrix(grid: Grid) -> sp.csc_matrix:
    """Reflected five-point Laplacian; every row sums to zero."""
    return _operators(grid)[0]


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Trapezoid node weights (relative cell areas) that symmetrize the stencil."""
    return _operators(grid)[1]


def _node_indices(mu: DiscreteMeasure, grid: Grid) -> np.ndarray:
    """Flat node index of every atom, in atom order, as a read-only array;
    atoms must sit exactly on nodes.  Memoized on the measure for the last
    grid asked for, so every solve and harvest of one measure shares one
    map; an off-grid atom raises on every call."""
    memo = mu._nodes
    if memo is not None and memo[0] == grid:
        return memo[1]
    idx = _locate_nodes(mu, grid)
    idx.setflags(write=False)
    object.__setattr__(mu, "_nodes", (grid, idx, None))
    return idx


def _locate_nodes(mu: DiscreteMeasure, grid: Grid) -> np.ndarray:
    """The node map of _node_indices, uncached: each atom's nearest node
    (Grid.nearest_nodes), which must reproduce the atom's coordinates
    exactly."""
    pos = mu.positions()
    ix, iy = grid.nearest_nodes(pos)
    off = np.flatnonzero((grid.xs[ix] != pos[:, 0]) | (grid.ys[iy] != pos[:, 1]))
    if len(off):
        i = int(off[0])
        x, y = pos[i].tolist()
        raise ValidationError(
            f"atom {i} is not on a grid node: position ({x!r}, {y!r}) is not a grid node")
    return iy * grid.nx + ix


def lump_measure(mu: DiscreteMeasure, grid: Grid) -> NodalMeasure:
    """Place each atom's mass on its grid node; atoms must sit exactly on nodes."""
    w = np.zeros(grid.n_nodes)
    np.add.at(w, _node_indices(mu, grid), mu.masses())
    return NodalMeasure(grid, w)


def _density(mu: DiscreteMeasure, grid: Grid) -> np.ndarray:
    """lump_measure(mu, grid).density() as a read-only array, memoized on the
    measure next to its node map for the same grid, so the state solve, the
    adjoint and the residuals of one measure lump it once."""
    idx = _node_indices(mu, grid)
    a = mu._nodes[2]
    if a is None:
        a = lump_measure(mu, grid).density()
        a.setflags(write=False)
        object.__setattr__(mu, "_nodes", (grid, idx, a))
    return a


def _system(grid: Grid, absorption: np.ndarray) -> sp.csc_matrix:
    """-lap + diag(absorption) as a CSC matrix, for SuperLU: a negated copy
    of the cached Laplacian with absorption added to its diagonal entries."""
    lap, _, diagonal = _operators(grid)[:3]
    mat = -lap
    mat.data[diagonal] += absorption
    return mat


def _band_system(grid: Grid, absorption: np.ndarray) -> np.ndarray:
    """diag(tau)(-lap + diag(absorption)) in upper band storage for dpbtrf,
    an (nx + 1) x n array in Fortran order whose column j holds entry
    (i, j), i <= j, in row nx + i - j: the diagonal in row nx, the
    couplings east[j - 1] in row nx - 1 and north[j - nx] in row 0."""
    nx = grid.nx
    lap, tau, diagonal, east, north = _operators(grid)
    band = np.zeros((nx + 1, grid.n_nodes), order="F")
    band[nx] = tau * (absorption - lap.data[diagonal])
    band[nx - 1, 1:] = east[:-1]
    band[0, nx:] = north[:-nx]
    return band


def _linear_misfit(grid: Grid, absorption, x, rhs):
    """Nodewise A x - b for A = -lap + diag(absorption), from the cached
    Laplacian, and the worst |A x - b| over max(1, |absorption x|, |b|)."""
    ax = absorption * x
    res = ax - (laplacian_matrix(grid) @ x + rhs)
    scale = np.maximum(1.0, np.maximum(np.abs(ax), np.abs(rhs)))
    return res, float(np.max(np.abs(res) / scale))


class _BandCholesky:
    """Cholesky factors, from LAPACK's dpbtrf, of diag(tau) A for a matrix
    A of half-bandwidth nx, given as _band_system fills it; solve
    back-substitutes tau * rhs with dpbtrs, as SuperLU's factors solve
    A x = rhs with their own solve."""

    def __init__(self, band: np.ndarray, tau: np.ndarray):
        self.c, info = lapack.dpbtrf(band, overwrite_ab=1)
        if info > 0:  # not positive definite, or exactly singular
            raise SolverError(f"Cholesky factorization failed: pivot {info} is not positive")
        self.tau = tau

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return lapack.dpbtrs(self.c, self.tau * rhs, overwrite_b=1)[0]


@lru_cache(maxsize=16)
def _red_black(grid: Grid):
    """The black nodes (ix + iy even) and the red ones, each in node order,
    as a slice when nx is odd and an index array when it is even, and the
    couplings east and north of _operators, each padded with 2 nx zeros in
    front and nx behind, so entry 2 nx + k + s holds the coupling at node
    k + s for every shift s from -2 nx to nx that the reduction reads."""
    nx, n = grid.nx, grid.n_nodes
    if nx % 2:  # node parity is colour: black nodes are the even ones
        black, red = slice(0, n, 2), slice(1, n, 2)
    else:
        colour = (np.arange(n) // nx + np.arange(n)) % 2
        black, red = np.flatnonzero(colour == 0), np.flatnonzero(colour)
    east, north = (np.concatenate([np.zeros(2 * nx), c, np.zeros(nx)])
                   for c in _operators(grid)[3:])
    for arr in (black, red, east, north):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return black, red, east, north


def _shift(nodes, offset: int):
    """The nodes k + offset for the nodes k of a _red_black slice or index
    array, in the same form."""
    if isinstance(nodes, slice):
        return slice(nodes.start + offset, nodes.stop + offset, nodes.step)
    return nodes + offset


def _reduced_system(grid: Grid, absorption: np.ndarray):
    """One level of cyclic reduction of M = diag(tau)(-lap + diag(absorption)):
    with the red nodes first, M = [[D_r, B], [B^T, D_b]] with D_r diagonal,
    since red nodes couple only to black ones.  Returns the black Schur
    complement S = D_b - B^T D_r^-1 B in upper band storage for dpbtrf
    over the black nodes in node order, an (nx + 1) x ceil(n / 2) array in
    Fortran order, and 1 / D_r at the red nodes, zero at the black ones.
    S couples a black node to the black nodes at (ix +- 2, iy),
    (ix, iy +- 2) and (ix +- 1, iy +- 1).  So its entries sit in band row
    nx (the diagonal), row nx - 1 and row 0 (the black node two grid rows
    earlier lies nx black nodes earlier), and, for the diagonal neighbours,
    in rows nx - ceil(nx / 2) and nx - floor(nx / 2) for odd nx; for even nx
    in rows nx/2 - 1 and nx/2 on even grid rows and nx/2 and nx/2 + 1 on
    odd ones.  A red pivot that is not positive raises
    SolverError naming it: pivot k of the reordered M, for the node's place
    k among the red nodes."""
    nx, ny, n = grid.nx, grid.ny, grid.n_nodes
    black, red, east, north = _red_black(grid)
    lap, tau, diagonal = _operators(grid)[:3]
    d = tau * (absorption - lap.data[diagonal])
    dr = d[red]
    bad = np.flatnonzero(~(dr > 0.0))
    if len(bad):
        raise SolverError(f"Cholesky factorization failed: pivot {bad[0] + 1} is not positive")
    inv = np.zeros(n + 3 * nx)
    inv[_shift(red, 2 * nx)] = 1.0 / dr

    def at(values, s):  # values at node k + s for every black node k
        return values[_shift(black, 2 * nx + s)]

    # the couplings to the red neighbours east, west, north and south, and
    # 1 / D_r there
    e0, e1, n0, n1 = at(east, 0), at(east, -1), at(north, 0), at(north, -nx)
    t0, t1, tn0, tn1 = at(inv, 1), at(inv, -1), at(inv, nx), at(inv, -nx)
    band = np.zeros((nx + 1, (n + 1) // 2), order="F")
    band[nx] = d[black] - e0 * e0 * t0 - e1 * e1 * t1 - n0 * n0 * tn0 - n1 * n1 * tn1
    band[nx - 1] = -at(east, -2) * e1 * t1
    band[0] = -at(north, -2 * nx) * n1 * tn1
    # the black nodes at (ix - 1, iy - 1) and (ix + 1, iy - 1), each by
    # way of the two red neighbours it shares with the node
    sw = -(at(east, -nx - 1) * n1 * tn1 + at(north, -nx - 1) * e1 * t1)
    se = -(at(east, -nx) * n1 * tn1 + at(north, -nx + 1) * e0 * t0)
    # added, not stored: on the narrowest grids one of their rows is row
    # nx - 1, where the other entry of each column is then zero
    h = nx // 2
    if nx % 2:
        band[h] += sw
        band[h + 1] += se
    else:  # a black row holds h nodes; the offsets depend on its parity
        rows = band.T.reshape(ny, h, nx + 1)
        sw, se = sw.reshape(ny, h), se.reshape(ny, h)
        rows[0::2, :, h - 1] += sw[0::2]
        rows[1::2, :, h] += sw[1::2]
        rows[0::2, :, h] += se[0::2]
        rows[1::2, :, h + 1] += se[1::2]
    return band, inv[2 * nx:2 * nx + n]


class _RedBlackCholesky:
    """Factors of diag(tau) A after one level of cyclic reduction
    (_reduced_system): dpbtrf of the black Schur complement S.  solve
    returns A^-1 rhs: with v = A_rr^-1 rhs on the red nodes and 0 on the
    black ones, S x_b = tau_b (rhs_b - A_br v) by one dpbtrs, then
    x_r = A_rr^-1 (rhs_r - A_rb x_b); both products come from the cached
    Laplacian, whose diagonal they do not reach.  tau_r cancels from the
    red rows, so A_rr^-1 = tau_r D_r^-1 exactly.  A Schur pivot that is not
    positive raises SolverError numbered after the red pivots."""

    def __init__(self, grid: Grid, absorption: np.ndarray):
        band, inv = _reduced_system(grid, absorption)
        self.c, info = lapack.dpbtrf(band, overwrite_ab=1)
        if info > 0:  # S, and so diag(tau) A, is not positive definite
            pivot = grid.n_nodes - band.shape[1] + info
            raise SolverError(f"Cholesky factorization failed: pivot {pivot} is not positive")
        lap, tau = _operators(grid)[:2]
        self.lap, self.black = lap, _red_black(grid)[0]
        self.tau_black = tau[self.black]
        self.inv = inv * tau  # A_rr^-1 on the red nodes, 0 on the black ones

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = (rhs + self.lap @ (rhs * self.inv))[self.black] * self.tau_black
        x = np.zeros(len(rhs))
        x[self.black] = lapack.dpbtrs(self.c, y, overwrite_b=1)[0]
        x += (rhs + self.lap @ x) * self.inv
        return x


def _superlu(mat: sp.csc_matrix):
    """SuperLU factors of a CSC matrix with the stencil's pattern."""
    try:
        # the stencil's pattern is symmetric, so the ordering works on
        # A^T + A; panels of 2 columns and supernodes relaxed up to 4
        # columns, in place of SuperLU's defaults, leave the fill as it is
        # and factorize faster (README's numerical notes)
        return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", panel_size=2, relax=4)
    except RuntimeError as e:  # exactly singular
        raise SolverError(f"sparse factorization failed: {e}") from None


def _factorize(grid: Grid, absorption: np.ndarray):
    """Factors of A = -lap + diag(absorption), the one place a matrix is
    assembled; their solve(b) returns A^-1 b.  Nodes are ordered
    iy * nx + ix, so the half-bandwidth is nx, and the method follows from
    nx alone.  Up to nx = _PLAIN_BAND_MAX the banded Cholesky of
    diag(tau) A costs O(n nx^2) in (nx + 1) n doubles; up to _BAND_MAX the
    red-black reduction leaves the black Schur complement, with the same
    kd = nx over half the rows, so its banded Cholesky costs half as much
    in (nx + 1) ceil(n / 2) doubles; on either band path a pivot that is
    not positive raises SolverError.  Wider grids go to SuperLU, which
    undercuts the band there (see the module docstring)."""
    if grid.nx <= _PLAIN_BAND_MAX:
        return _BandCholesky(_band_system(grid, absorption), quadrature_weights(grid))
    if grid.nx <= _BAND_MAX:
        return _RedBlackCholesky(grid, absorption)
    return _superlu(_system(grid, absorption))


def _refine(grid, absorption, lu, rhs, tol_linear):
    """Back-substitute rhs with `lu`, then refine against the true matrix
    -lap + diag(absorption) while the worst scaled residual misses
    tol_linear, for at most _MAX_REFINE steps that each at least halve it;
    returns x, A x - b and the worst scaled residual."""
    x = lu.solve(rhs)
    res, worst = _linear_misfit(grid, absorption, x, rhs)
    for _ in range(_MAX_REFINE):
        if worst <= tol_linear:
            break
        prev = worst
        x = x - lu.solve(res)
        res, worst = _linear_misfit(grid, absorption, x, rhs)
        if not worst <= 0.5 * prev:
            break
    return x, res, worst


def _solve(grid, absorption, rhs, tol_linear, lu=None):
    """Solve A x = rhs, A = -lap + diag(absorption), to the nodewise
    residual tol_linear * max(1, |absorption x|, |rhs|); returns x and the
    factors that solved it.  Refines with the factors `lu` when given (those
    of A itself, or of a nearby matrix); without them, or when they miss,
    factorizes A and refines with its factors by the same rule.  If those
    miss too, SolverError names the worst residual."""
    if lu is not None:
        x, _, worst = _refine(grid, absorption, lu, rhs, tol_linear)
        if worst <= tol_linear:
            return x, lu
    lu = _factorize(grid, absorption)
    x, res, worst = _refine(grid, absorption, lu, rhs, tol_linear)
    if not worst <= tol_linear:
        raise SolverError(
            f"linear solve missed tolerance {tol_linear:g}; worst residual "
            f"{float(np.max(np.abs(res))):.3e}")
    return x, lu


def _state_misfit(grid: Grid, a, f, u):
    """F(u) = a u - lap u - f(u), the residual of the linear solve
    A u = f(u) for A = -lap + diag(a), its worst value scaled as
    _linear_misfit scales it, by max(1, |a u|, |f(u)|), and f(u)."""
    fu = f(u)
    return (*_linear_misfit(grid, a, u, fu), fu)


def _newton(grid: Grid, a: np.ndarray, f: GrowthFunction, u: np.ndarray, tol: float,
            tol_linear: float, positive: bool = False, misfit=None, exact: bool = False):
    """Damped Newton steps u - t J(u)^-1 F(u) on F(u) = a u - lap u - f(u) = 0
    from u, with J = -lap + diag(a - f'(u)); returns the first iterate
    within tol and the last factors used (None if u itself is), or None
    with `positive` as soon as an iterate has a node at 0.  `misfit`
    is _state_misfit at u when the caller has it; each later iterate's is
    the one its line search accepted it by.  Each step solves the Jacobian
    at its iterate to tol_linear: with `exact` it factorizes that Jacobian,
    otherwise it refines with the previous step's factors and factorizes
    only when they miss."""
    lu = None
    for _ in range(80):
        if positive and not u.min() > 0.0:
            return None
        res, rmax, _ = misfit or _state_misfit(grid, a, f, u)
        if rmax <= tol:
            return u, lu
        jac = a - f.derivative(u)
        delta, lu = _solve(grid, jac, res, tol_linear, None if exact else lu)
        step = 1.0
        while step >= 1.0 / 4096.0:
            u_try = np.clip(u - step * delta, 0.0, f.u_max)
            misfit = _state_misfit(grid, a, f, u_try)
            if misfit[1] < rmax:
                u = u_try
                break
            step *= 0.5
        else:
            raise SolverError(f"state solve stalled, residual {rmax:.3e}")
    raise SolverError(f"state solve did not converge, residual {rmax:.3e}")


def _secant(grid: Grid, a, f: GrowthFunction, g: np.ndarray, misfit, d: np.ndarray, c: float):
    """The secant point g + c d, or g, with its _state_misfit.  A trial
    point, for c, c / 2 and c / 4, is measured only when it is certified: it
    is positive at every node and the linearization of the residual at g
    keeps it a supersolution, F(g) + c J(g) d >= 0 at every node for
    F(u) = a u - lap u - f(u) and J(g) = -lap + diag(a - f'(g)); it is
    adopted when its scaled residual is below g's."""
    res, rmax, _ = misfit
    jd = f.derivative(g)
    np.subtract(a, jd, out=jd)
    jd *= d
    jd -= laplacian_matrix(grid) @ d
    for _ in range(3):
        trial = d * c
        trial += g
        if trial.min() > 0.0 and np.all(res + c * jd >= 0.0):
            measured = _state_misfit(grid, a, f, trial)
            if measured[1] < rmax:
                return trial, measured
        c *= 0.5
    return g, misfit


def _sweep(grid: Grid, a: np.ndarray, f: GrowthFunction, tol: float, tol_linear: float):
    """Shifted monotone sweeps from u = u_max, each followed, from the
    second on, by a certified secant step (_secant); returns the last
    adopted iterate and its _state_misfit, whose f(u) the next sweep's
    right-hand side reuses.  With g the sweep's iterate, r = g - u its step
    and r_prev, g_prev the previous sweep's, the secant point is
    g + c (g - g_prev) with c = (r . r_prev - r . r) / |r - r_prev|^2,
    tried only when c > 0; every point measured is a positive
    supersolution, so it lies on or above the maximal solution.  The
    sweeps stop at the first adopted iterate within tol, at the first
    within sqrt(tol), for Newton to finish, at the first sweep that leaves
    more than 0.9 of the previous residual, or when they run out.  Besides
    the iterate and its misfit, only r_prev with its square and a copy of
    g_prev, which the secant step overwrites with g - g_prev, live from
    one sweep to the next.  The shifted matrix is factorized once and its
    factors live only here."""
    sigma = f.monotone_shift
    shifted = a + sigma
    lu = None
    u = np.full(grid.n_nodes, f.u_max)
    fu = f(u)
    hand_over = max(tol, math.sqrt(tol))
    rmax_prev = math.inf
    g_prev = np.empty(grid.n_nodes)  # the previous sweep's iterate, a copy
    r_prev = None  # and its step
    for _ in range(_MAX_SWEEPS):
        x, lu = _solve(grid, shifted, fu + sigma * u, tol_linear, lu)
        g = np.clip(x, 0.0, f.u_max, out=x)
        misfit = _state_misfit(grid, a, f, g)
        r, u = g - u, g
        # einsum, not BLAS's dot, whose rounding depends on its thread count
        rr = float(np.einsum("i,i", r, r))
        if r_prev is not None:
            # the weight c that minimizes |r + c (r - r_prev)|, taken when
            # c > 0 so that the secant point lies below g
            r_rp = float(np.einsum("i,i", r, r_prev))
            denom = rr - 2.0 * r_rp + rr_prev
            if r_rp > rr and denom > 0.0:
                d = np.subtract(g, g_prev, out=g_prev)
                u, misfit = _secant(grid, a, f, g, misfit, d, (r_rp - rr) / denom)
        np.copyto(g_prev, g)
        r_prev, rr_prev = r, rr
        rmax, fu = misfit[1:]
        # within tol, close enough for Newton, or contracting too slowly: at
        # uniform density a a chord sweep contracts by 2a / (a + rate),
        # which tends to 1 near extinction
        if rmax <= hand_over or rmax > 0.9 * rmax_prev:
            break
        rmax_prev = rmax
    return u, misfit


def _carrying(grid: Grid, u: np.ndarray, lu) -> ScalarField:
    """The state u as a field that hands the factors lu on to solve_adjoint."""
    state = ScalarField(grid, u)
    object.__setattr__(state, "_factors", lu)
    return state


def solve_state(grid: Grid, mu: DiscreteMeasure, f: GrowthFunction,
                tol: float = 1e-8, tol_linear: float = 1e-10,
                init: ScalarField | None = None) -> ScalarField:
    """Maximal solution of lap(u) + f(u) - u mu = 0 with Neumann walls.

    Runs the monotone sweep from u = u_max and lets damped Newton steps
    finish from its last iterate, so the answer is the sweep's limit, the
    maximal solution.  Each atom is absorbed over its node's cell, so the
    nodal density is w / (tau h^2) and the half cells along the walls feel
    their full mass.  The shifted sweep matrix -lap + a + sigma, the chord
    Jacobian at u_max, is factorized once per call and every sweep solves
    with those factors.  After each sweep but the first a secant point
    g + c (g - g_prev) is tried, at c, c / 2 and c / 4 for the c > 0 that
    minimizes the mixed step |r + c (r - r_prev)|; it is measured only
    when it is positive and the residual linearized at g certifies it a
    supersolution, and kept when its scaled residual is lower.  Since f is
    concave and f(u) / u strictly decreases, a certified point lies on or
    above the maximal solution, so the sweep keeps its monotone invariant
    and its limit (see the module docstring).  The sweeps stop at the
    first adopted iterate within sqrt(tol), at the first sweep that leaves
    more than 0.9 of the previous residual, or when they run out, and
    Newton finishes.
    Newton factorizes the Jacobian of its first step and solves later
    steps' own Jacobians with those factors.  Every linear
    solve meets the nodewise residual tol_linear against its true matrix by
    the module's one rule: refine with the factors at hand, and factorize
    the true matrix when there are none or they miss.  The discrete residual
    a u - lap_h u - f(u) is driven below tol * max(1, |a u|, |f(u)|) at
    every node; failure to converge raises SolverError carrying the last
    residual.

    With `init` (a state on the same grid, say the solution for a nearby
    measure) the damped Newton steps start from init instead, clipped to
    [0, u_max].  On a grid of nx <= _EXACT_NEWTON_MAX (23) every one of
    these steps factorizes its own Jacobian instead of refining with the
    first step's factors, which costs more there.  Every
    nonnegative solution is either 0 or positive at every node, and since
    f(u) / u strictly decreases, the positive solution
    is unique (Brezis and Oswald, Nonlinear Anal. 10, 1986).  A Newton limit
    u is kept when it is positive and stable: J u > 0 at every node for the
    Jacobian J = -lap + diag(a - f'(u)).  The positive solution always
    passes, since there J u = f(u) - f'(u) u = rate u^2 / u_max up to the
    residual, while a near-zero state that meets tol only by being tiny
    fails wherever a positive solution exists.  When an iterate (init
    included) has a node at 0, when Newton stalls or fails, or when the
    limit is not stable, the cold sweep from u_max runs instead and its
    answer is returned unchanged.

    A state that Newton finished privately carries Newton's last factors,
    which solve_adjoint refines with; a state that a sweep brought within
    tol before Newton started carries none.
    """
    a = _density(mu, grid)
    u_max = f.u_max
    if not np.any(a):
        return ScalarField(grid, np.full(grid.n_nodes, u_max))
    lap = laplacian_matrix(grid)
    if init is not None:
        if init.grid != grid:
            raise ValidationError("initial state lives on a different grid")
        try:
            found = _newton(grid, a, f, np.clip(init.values, 0.0, u_max), tol, tol_linear,
                            positive=True, exact=grid.nx <= _EXACT_NEWTON_MAX)
        except SolverError:
            found = None
        if found is not None:
            u, lu = found
            # J = -lap + diag(a - f'(u)) has nonpositive off-diagonals, so J u > 0
            # at every node makes it a nonsingular M-matrix: u is then a stable
            # solution, not a near-zero state that meets tol only by being tiny
            # while the zero solution is unstable and a positive one exists
            if np.all((a - f.derivative(u)) * u - lap @ u > 0.0):
                return _carrying(grid, u, lu)
    u, misfit = _sweep(grid, a, f, tol, tol_linear)
    # the sweep's factors are freed by now; damped Newton finishes, and
    # returns a sweep iterate already within tol as it is, with no factors
    return _carrying(grid, *_newton(grid, a, f, u, tol, tol_linear, misfit=misfit))


def state_residual(u: ScalarField, mu: DiscreteMeasure, f: GrowthFunction) -> float:
    """Worst nodewise |a u - lap u - f(u)| / max(1, |a u|, |f(u)|): the
    quantity solve_state drives below its tol."""
    return _state_misfit(u.grid, _density(mu, u.grid), f, u.values)[1]


def adjoint_residual(psi: ScalarField, u_star: ScalarField, mu: DiscreteMeasure,
                     f: GrowthFunction) -> float:
    """Worst nodewise |A psi - a| / max(1, |(a - f'(u*)) psi|, |a|) with
    A = -lap + diag(a - f'(u*)): the quantity solve_adjoint keeps within
    its tol."""
    a = _density(mu, psi.grid)
    coeff = a - f.derivative(u_star.values)
    return _linear_misfit(psi.grid, coeff, psi.values, a)[1]


def harvest(u: ScalarField, mu: DiscreteMeasure) -> float:
    """Total crop sum(mass_a * u(node_a)); zero for the empty measure."""
    if not len(mu):
        return 0.0
    idx = _node_indices(mu, u.grid)
    return float(np.dot(mu.masses(), u.values[idx]))


def growth_bound_lambda(f: GrowthFunction, delta0: float) -> float:
    """Infimum of the lam with f'(u) (lam u + 1) < lam f(u) on [delta0, u_max].

    For the logistic law the condition reads lam > (u_max - 2u) / u^2,
    whose right side decreases in u on (0, u_max], so u = delta0 binds and
    the bound is max(0, (u_max - 2 delta0) / delta0^2).  delta0 is clamped
    to [1e-12 u_max, u_max].
    """
    delta = min(max(delta0, 1e-12 * f.u_max), f.u_max)
    return max(0.0, (f.u_max - 2.0 * delta) / delta ** 2)


def _adjoint_bounds(f: GrowthFunction, u_min: float):
    """(cap, slack): the adjoint lies in [0, cap], cap = lam * u_max + 1 with
    lam = growth_bound_lambda(f, u_min) for the state's minimum u_min, up to
    a slack of 1e-9 at either end.  solve_adjoint, verify's adjoint check
    and the adjoint command's bound all read it here."""
    return growth_bound_lambda(f, u_min) * f.u_max + 1.0, 1e-9


def solve_adjoint(grid: Grid, mu: DiscreteMeasure, u_star: ScalarField,
                  f: GrowthFunction, tol: float = 1e-10) -> ScalarField:
    """Solve lap(psi) + f'(u*) psi - psi mu = -mu for the harvest sensitivity.

    Uses the same cell-area lumping as the state solve, which makes
    (1 - psi) u* the exact derivative of the discrete crop with respect to
    each nodal mass.  The system -lap + diag(a - f'(u*)) is Newton's Jacobian
    at u*, so it is solved by the module's one linear-solve rule with the
    factors that u_star carries from solve_state's last Newton step, warm
    or cold, on any grid: refine with them, and factorize the true matrix
    only when they miss or when there are none.  After a warm solve on a
    grid of nx <= _EXACT_NEWTON_MAX those are the factors of the Jacobian
    one Newton step before u*, and refining with them takes two or three
    back-substitutions.  Either way the solve meets the nodewise residual
    tol against its true matrix.
    Post-checks: psi lies in [0, cap] of _adjoint_bounds(f, min(u*)), up to
    its slack.
    """
    if u_star.grid != grid:
        raise ValidationError("state field lives on a different grid")
    a = _density(mu, grid)
    coeff = a - f.derivative(u_star.values)
    psi = _solve(grid, coeff, a, tol, u_star._factors)[0]
    cap, slack = _adjoint_bounds(f, u_star.min())
    if np.min(psi) < -slack:
        raise SolverError(f"adjoint went negative: min psi = {float(np.min(psi)):.3e}")
    if np.max(psi) > cap + slack:
        raise SolverError(
            f"adjoint exceeded its bound {cap:.6g}: max psi = {float(np.max(psi)):.6g}")
    return ScalarField(grid, psi)


def phi_field(u_star: ScalarField, psi: ScalarField) -> ScalarField:
    """Harvest-sensitivity field (1 - psi) u*."""
    if u_star.grid != psi.grid:
        raise ValidationError("fields live on different grids")
    return ScalarField(u_star.grid, (1.0 - psi.values) * u_star.values)


def bilinear_interpolate(field: ScalarField, points) -> np.ndarray:
    """Bilinear interpolation of a nodal field at points inside the rectangle."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    g = field.grid
    d = g.domain
    pad = 1e-12 * max(1.0, g.h)
    if (np.any(pts[:, 0] < d.rect_min[0] - pad) or np.any(pts[:, 0] > d.rect_max[0] + pad)
            or np.any(pts[:, 1] < d.rect_min[1] - pad) or np.any(pts[:, 1] > d.rect_max[1] + pad)):
        raise ValidationError("interpolation points must lie inside the domain rectangle")
    fx = np.clip((pts[:, 0] - d.rect_min[0]) / g.h, 0.0, g.nx - 1.0)
    fy = np.clip((pts[:, 1] - d.rect_min[1]) / g.h, 0.0, g.ny - 1.0)
    ix = np.minimum(fx.astype(np.int64), g.nx - 2)
    iy = np.minimum(fy.astype(np.int64), g.ny - 2)
    tx = fx - ix
    ty = fy - iy
    v = field.as_matrix()
    return ((1 - tx) * (1 - ty) * v[iy, ix] + tx * (1 - ty) * v[iy, ix + 1]
            + (1 - tx) * ty * v[iy + 1, ix] + tx * ty * v[iy + 1, ix + 1])
