import math
import pickle
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import rootopt as ro
from rootopt import elliptic as ell

from conftest import manufactured_problem, random_grid_measure, spawn_ascent


@pytest.fixture(scope="module")
def grid17():
    return ro.Grid(ro.Domain(), 17, 17)


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Records every factorization through elliptic._factorize (its
    absorption), whichever path serves it, and every back-substitution (its right-hand
    side) through the factors it returns, a weak reference to each set of
    factors, and how many earlier sets were still alive when each
    factorization started."""
    calls = SimpleNamespace(factorize=[], solve=[], factors=[], alive=[])
    real = ell._factorize

    class CountingFactors:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls.solve.append(rhs)
            return self.lu.solve(rhs)

    def factorize(grid, absorption):
        calls.factorize.append(absorption)
        calls.alive.append(sum(ref() is not None for ref in calls.factors))
        lu = CountingFactors(real(grid, absorption))
        calls.factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(ell, "_factorize", factorize)
    return calls


@pytest.fixture()
def splu_kwargs(monkeypatch):
    """The keyword arguments of every SuperLU factorization."""
    kwargs = []
    real = ell.spla.splu

    def splu(mat, **kw):
        kwargs.append(kw)
        return real(mat, **kw)

    monkeypatch.setattr(ell, "spla", SimpleNamespace(splu=splu))
    return kwargs


@pytest.fixture()
def sweep_log(monkeypatch):
    """Records every linear solve (its absorption) and every point that
    _state_misfit measures (a copy, with its misfit), in call order.
    `adopted()` gives the iterate each sweep adopted, with its misfit: the
    sweeps are the solves that share the first solve's (shifted)
    absorption, and a sweep adopts the least-residual point measured after
    its solve and before the next solve, that is its own iterate or a
    secant point that measured lower."""
    log = []
    solve, misfit = ell._solve, ell._state_misfit

    def recording_solve(grid, absorption, rhs, tol_linear, lu=None):
        log.append(("solve", absorption))
        return solve(grid, absorption, rhs, tol_linear, lu)

    def recording_misfit(grid, a, f, u):
        measured = misfit(grid, a, f, u)
        log.append(("misfit", u.copy(), measured))
        return measured

    def adopted():
        shifted = next(entry[1] for entry in log if entry[0] == "solve")
        sweeps = []
        for entry in log:
            if entry[0] == "solve":
                sweeps.append([] if entry[1] is shifted else None)
            elif sweeps and sweeps[-1] is not None:
                sweeps[-1].append(entry[1:])
        return [min(points, key=lambda p: p[1][1]) for points in sweeps if points is not None]

    monkeypatch.setattr(ell, "_solve", recording_solve)
    monkeypatch.setattr(ell, "_state_misfit", recording_misfit)
    return SimpleNamespace(log=log, adopted=adopted)


def fields_random0():
    """The first random measure of the seed-1 `fields` benchmark workload:
    6 atoms on distinct nodes of the 65x65 grid, masses from U(0.1, 0.8)."""
    grid = ro.Grid(ro.Domain(), 65, 65)
    rng = np.random.default_rng(1)
    coords = grid.node_coordinates()
    nodes = sorted(rng.choice(len(coords), size=6, replace=False))
    return grid, ro.DiscreteMeasure(tuple(
        ro.Atom((float(coords[i, 0]), float(coords[i, 1])), float(rng.uniform(0.1, 0.8)))
        for i in nodes))


def uniform_measure(grid, m0):
    """One atom per node with mass m0 times its cell area: density m0 everywhere."""
    coords = grid.node_coordinates()
    tau = ro.quadrature_weights(grid)
    return ro.DiscreteMeasure(tuple(
        ro.Atom((float(x), float(y)), m0 * float(t) * grid.h ** 2)
        for (x, y), t in zip(coords, tau)))


class TestOperators:
    def test_laplacian_annihilates_constants(self, grid17):
        lap = ro.laplacian_matrix(grid17)
        assert np.max(np.abs(lap @ np.ones(grid17.n_nodes))) < 1e-12

    def test_weighted_laplacian_symmetric(self, grid17):
        lap = ro.laplacian_matrix(grid17)
        tau = ro.quadrature_weights(grid17)
        sym = sp.diags(tau) @ lap
        assert abs(sym - sym.T).max() < 1e-12

    def test_quadrature_total_area(self, grid17):
        tau = ro.quadrature_weights(grid17)
        area = grid17.domain.width * grid17.domain.height
        assert float(tau.sum()) * grid17.h ** 2 == pytest.approx(area, rel=1e-14)

    def test_laplacian_exact_on_quadratic(self, grid17):
        # interior rows of the five-point stencil reproduce lap(x^2) = 2
        coords = grid17.node_coordinates()
        vals = coords[:, 0] ** 2
        lap = ro.laplacian_matrix(grid17) @ vals
        inner = lap.reshape(grid17.ny, grid17.nx)[1:-1, 1:-1]
        assert np.max(np.abs(inner - 2.0)) < 1e-9


class TestLumping:
    def test_atom_off_node_names_the_atom(self, grid17):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5),
                                 ro.Atom((1.0001, 0.0), 0.5)))
        with pytest.raises(ro.ValidationError, match="atom 1 is not on a grid node"):
            ro.lump_measure(mu, grid17)

    def test_masses_land_on_their_nodes(self, grid17):
        rng = np.random.default_rng(2)
        mu = random_grid_measure(rng, grid17, 5)
        lumped = ro.lump_measure(mu, grid17)
        assert lumped.weights.sum() == pytest.approx(mu.total_mass, rel=1e-15)
        idx = [grid17.index_of(*a.position) for a in mu.atoms]
        assert all(lumped.weights[i] > 0 for i in idx)
        assert np.count_nonzero(lumped.weights) == 5

    def test_matches_the_per_atom_loop_bit_for_bit(self):
        """The vectorized lumping against a plain loop over grid.index_of,
        walls and corners included."""
        rng = np.random.default_rng(12)
        for n in (9, 17, 65):
            grid = ro.Grid(ro.Domain(), n, n)
            for k in (1, 7, grid.n_nodes // 3, grid.n_nodes):
                mu = random_grid_measure(rng, grid, k, mass_range=(1e-6, 50.0))
                expected = np.zeros(grid.n_nodes)
                for a in mu.atoms:
                    expected[grid.index_of(*a.position)] += a.mass
                assert np.array_equal(ro.lump_measure(mu, grid).weights, expected)

    def test_density_scaling(self, grid17):
        # interior cells have area h^2, corner cells a quarter of that
        mu = ro.DiscreteMeasure((ro.Atom(grid17.node_position(8, 8), 0.5),
                                 ro.Atom(grid17.node_position(0, 0), 0.5)))
        lumped = ro.lump_measure(mu, grid17)
        k = grid17.node_index(8, 8)
        assert lumped.density()[k] == pytest.approx(0.5 / grid17.h ** 2, rel=1e-15)
        corner = grid17.node_index(0, 0)
        assert lumped.density()[corner] == pytest.approx(2.0 / grid17.h ** 2, rel=1e-15)


class TestLinearSolver:
    """elliptic._solve, the one path of every linear solve: refine with the
    factors at hand, factorize only without them or when they miss, and
    raise SolverError when fresh factors miss too."""

    @staticmethod
    def solve(grid, coeff, rhs, tol_linear, lu=None):
        return ell._solve(grid, coeff, rhs, tol_linear, lu)

    @pytest.mark.parametrize("n", [17, ell._BAND_MAX + 1], ids=["banded", "superlu"])
    def test_singular_system_raises(self, n):
        """Zero absorption leaves the pure-Neumann Laplacian, which has no
        solution for a right-hand side of non-zero mean; on either side of
        _BAND_MAX the solve fails by name."""
        grid = ro.Grid(ro.Domain(), n, n)
        with pytest.raises(ro.SolverError):
            self.solve(grid, np.zeros(grid.n_nodes), np.ones(grid.n_nodes), 1e-10)

    @pytest.mark.parametrize("n", [17, ell._BAND_MAX + 1], ids=["banded", "superlu"])
    def test_zero_pivot_raises(self, n):
        """A matrix with the stencil's pattern and every entry 0 is exactly
        singular: dpbtrf reports a pivot that is not positive and SuperLU
        raises, and both become SolverError.  The matrix is assembled the
        way _factorize assembles it on each path, in upper band storage or
        as a CSC matrix."""
        grid = ro.Grid(ro.Domain(), n, n)
        zeros = np.zeros(grid.n_nodes)
        with pytest.raises(ro.SolverError, match="factorization failed"):
            if n <= ell._BAND_MAX:
                band = ell._band_system(grid, zeros)
                band[:] = 0.0
                ell._BandCholesky(band, ro.quadrature_weights(grid))
            else:
                mat = ell._system(grid, zeros)
                mat.data[:] = 0.0
                ell._superlu(mat)

    def test_indefinite_system_names_the_pivot(self, grid17):
        """-lap - 1 has the negative eigenvalue -1 (its eigenvector is
        constant), so the banded Cholesky meets a pivot that is not positive
        and SolverError names it: pivot k, where the leading k x k block of
        diag(tau)(-lap - 1) is the first that is not positive definite."""
        assert grid17.nx <= ell._BAND_MAX
        absorption = np.full(grid17.n_nodes, -1.0)
        with pytest.raises(ro.SolverError,
                           match=r"^Cholesky factorization failed: pivot \d+ is not positive$"
                           ) as err:
            ell._factorize(grid17, absorption)
        k = int(str(err.value).split()[4])
        dense = ro.quadrature_weights(grid17)[:, None] * ell._system(grid17, absorption).toarray()
        assert np.linalg.eigvalsh(dense[:k - 1, :k - 1])[0] > 0.0
        assert np.linalg.eigvalsh(dense[:k, :k])[0] <= 0.0

    @pytest.fixture()
    def back_substitutions(self, linalg_calls):
        """Counts every back-substitution through the factors _factorize returns."""
        return linalg_calls.solve

    @staticmethod
    def adjoint_system(grid, m0):
        """The adjoint system at uniform density m0 (see test_newton_finish_near_extinction):
        its absorption a - f'(u) and right-hand side a."""
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        mu = uniform_measure(grid, m0)
        u = ro.solve_state(grid, mu, f, tol=1e-12)
        a = ro.lump_measure(mu, grid).density()
        return a - f.derivative(u.values), a

    def test_solve_within_tolerance_is_not_refined(self, grid17, back_substitutions):
        coeff, rhs = self.adjoint_system(grid17, 1.0)
        back_substitutions.clear()
        x = self.solve(grid17, coeff, rhs, 1e-12)[0]
        assert len(back_substitutions) == 1
        assert ell._linear_misfit(grid17, coeff, x, rhs)[1] <= 1e-12

    def test_missed_tolerance_is_refined_and_passes(self, grid17, back_substitutions):
        """Near extinction (density 3.7, rate 4) the first back-substitution
        with the module's own factors leaves a scaled residual of about
        2.4e-12; one refinement step with the same factors brings it under
        tol_linear = 1e-12."""
        coeff, rhs = self.adjoint_system(grid17, 3.7)
        first = ell._factorize(grid17, coeff).solve(rhs)
        assert ell._linear_misfit(grid17, coeff, first, rhs)[1] > 1e-12
        back_substitutions.clear()
        x = self.solve(grid17, coeff, rhs, 1e-12)[0]
        assert len(back_substitutions) == 2
        assert ell._linear_misfit(grid17, coeff, x, rhs)[1] <= 1e-12

    def test_unreachable_tolerance_names_the_worst_residual(self, grid17,
                                                             back_substitutions):
        """Fresh factors refine by the same halving rule as carried ones: at
        density 2.5 the first step halves the worst scaled residual, the
        second does not, and the solve gives up after three
        back-substitutions."""
        coeff, rhs = self.adjoint_system(grid17, 2.5)
        lu = ell._factorize(grid17, coeff)
        first = lu.solve(rhs)
        res, worst = ell._linear_misfit(grid17, coeff, first, rhs)
        assert ell._linear_misfit(grid17, coeff, first - lu.solve(res), rhs)[1] <= 0.5 * worst
        back_substitutions.clear()
        with pytest.raises(ro.SolverError,
                           match=r"missed tolerance 1e-20; worst residual \d\.\d{3}e-\d+"):
            self.solve(grid17, coeff, rhs, 1e-20)
        assert len(back_substitutions) == 3

    def test_carried_and_fresh_factors_both_miss(self, grid17, linalg_calls):
        """Factors of -lap + 50 and a tolerance no solve can meet: the carried
        factors miss, the true matrix is factorized exactly once, and its
        factors miss too."""
        coeff, rhs = self.adjoint_system(grid17, 1.0)
        far = ell._factorize(grid17, np.full(grid17.n_nodes, 50.0))
        linalg_calls.factorize.clear()
        with pytest.raises(ro.SolverError,
                           match=r"missed tolerance 1e-20; worst residual \d\.\d{3}e-\d+"):
            self.solve(grid17, coeff, rhs, 1e-20, lu=far)
        assert len(linalg_calls.factorize) == 1

    @staticmethod
    def ascent_factorizations(grid, linalg_calls):
        """A cold state solve, an adjoint that factorizes its own matrix, and
        an ascent-style trial (a warm solve after a mass change, then its
        adjoint), all through _factorize."""
        f = ro.GrowthFunction()
        mu = random_grid_measure(np.random.default_rng(3), grid, 6, mass_range=(0.2, 1.0))
        u = ro.solve_state(grid, mu, f)
        ro.solve_adjoint(grid, mu, ell.ScalarField(grid, u.values), f)
        assert len(linalg_calls.factorize) == 3
        nu = mu.with_masses(mu.masses() * 1.2)
        ro.solve_adjoint(grid, nu, ro.solve_state(grid, nu, f, init=u), f)
        assert len(linalg_calls.factorize) > 3

    def test_past_the_band_every_factorization_uses_the_fitted_settings(
            self, linalg_calls, splu_kwargs):
        """On the first grid whose half-bandwidth nx exceeds _BAND_MAX, every
        factorization is a SuperLU call with the ordering, panel width and
        supernode relaxation fitted to the five-point stencil."""
        n = ell._BAND_MAX + 1
        self.ascent_factorizations(ro.Grid(ro.Domain(), n, n), linalg_calls)
        assert len(splu_kwargs) == len(linalg_calls.factorize)
        fitted = {"permc_spec": "MMD_AT_PLUS_A", "panel_size": 2, "relax": 4}
        assert all(kw == fitted for kw in splu_kwargs)

    def test_narrow_band_never_calls_superlu(self, grid17, linalg_calls, splu_kwargs):
        """At 17x17 the same solves factorize with the banded Cholesky alone."""
        self.ascent_factorizations(grid17, linalg_calls)
        assert not splu_kwargs

    def test_docs_name_the_refinement_cap(self):
        """README and the module docstring state the cap that _refine keeps."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for text in (readme, ell.__doc__):
            assert f"{ell._MAX_REFINE} steps that each at least halve" in " ".join(text.split())

    def test_cold_solve_hands_over_below_sqrt_tol(self, grid17, linalg_calls, sweep_log):
        """A cold state solve: the sweep matrix is the negated Jacobian at
        u_max (a chord iteration); the sweeps carry one factorization of it
        and stop at the first adopted iterate (a sweep's own or a certified
        secant point) within sqrt(tol); Newton factorizes once and the
        state carries its factors, with which the adjoint refines in at most
        three back-substitutions and no factorization."""
        f = ro.GrowthFunction()
        assert f.monotone_shift == -f.derivative(f.u_max)
        tol = 1e-10
        mu = random_grid_measure(np.random.default_rng(3), grid17, 6, mass_range=(0.2, 1.0))
        u = ro.solve_state(grid17, mu, f, tol=tol)
        sweeps = [v for v, _ in sweep_log.adopted()]
        residuals = [ell.state_residual(ell.ScalarField(grid17, v), mu, f) for v in sweeps]
        assert len(sweeps) > 5
        assert all(r > math.sqrt(tol) for r in residuals[:-1])
        assert tol < residuals[-1] <= math.sqrt(tol)
        assert len(linalg_calls.factorize) == 2  # the shifted matrix, then Newton's Jacobian
        assert u._factors is not None
        assert ell.state_residual(u, mu, f) <= tol
        linalg_calls.factorize.clear()
        linalg_calls.solve.clear()
        psi = ro.solve_adjoint(grid17, mu, u, f)
        assert not linalg_calls.factorize
        assert len(linalg_calls.solve) <= 3
        assert ell.adjoint_residual(psi, u, mu, f) <= 1e-10

    @pytest.mark.parametrize("case", ["random0", "manufactured129"])
    def test_cold_state_and_adjoint_back_substitute_at_most_16_times(self, case,
                                                                     linalg_calls):
        """The first random measure of the seed-1 `fields` workload at 65x65
        and the manufactured measure at 129x129: a cold state solve and its
        adjoint take 2 factorizations (the sweep matrix, then Newton's
        Jacobian) and at most 16 back-substitutions (measured 12 each;
        24 before the secant steps)."""
        f = ro.GrowthFunction()
        if case == "random0":
            grid, mu = fields_random0()
        else:
            grid = ro.Grid(ro.Domain(), 129, 129)
            mu = manufactured_problem(grid, f)[0]
        u = ro.solve_state(grid, mu, f)
        psi = ro.solve_adjoint(grid, mu, u, f)
        assert len(linalg_calls.factorize) == 2
        assert len(linalg_calls.solve) <= 16
        assert ell.state_residual(u, mu, f) <= 1e-8
        assert ell.adjoint_residual(psi, u, mu, f) <= 1e-10

    @pytest.mark.parametrize("m0", [None, 3.96])
    def test_sweep_factors_die_before_newton_factorizes(self, grid17, linalg_calls, m0):
        """Cold solves that Newton finishes, after the sweeps reach sqrt(tol)
        (a random measure) or a sweep leaves more than 0.9 of the previous
        residual (uniform density 3.96 with rate 4): no
        earlier factors are alive when the sweep's or Newton's first
        factorization starts, so the sweep's factors and work arrays are
        freed before Newton's.  (Newton may refactorize later, while its own
        earlier factors are alive.)"""
        if m0 is None:
            f = ro.GrowthFunction()
            mu = random_grid_measure(np.random.default_rng(3), grid17, 6, mass_range=(0.2, 1.0))
        else:
            f = ro.GrowthFunction(u_max=1.0, rate=4.0)
            mu = uniform_measure(grid17, m0)
        u = ro.solve_state(grid17, mu, f, tol=1e-10)
        assert u._factors is not None
        assert linalg_calls.alive[:2] == [0, 0]


class TestBandedAndSparseLU:
    """_factorize serves systems of half-bandwidth nx <= _BAND_MAX with
    LAPACK's banded Cholesky and wider ones with SuperLU.  On grids on both
    sides of the constant, both paths solve the module's three kinds of
    matrix to tol_linear and give the same solution."""

    @staticmethod
    def systems(grid):
        """The sweep matrix with its first right-hand side, a Newton Jacobian
        at the supersolution min(1.01 u*, u_max) of the converged state u*,
        as the cold path factorizes it (negative absorption at some nodes,
        yet definite), with the state residual there, and the adjoint matrix
        at the converged state with the lumped density: (absorption, rhs)
        each."""
        f = ro.GrowthFunction()
        mu = random_grid_measure(np.random.default_rng(5), grid, 6, mass_range=(0.2, 1.0))
        a = ro.lump_measure(mu, grid).density()
        top = np.full(grid.n_nodes, f.u_max)
        u = ro.solve_state(grid, mu, f, tol=1e-10)
        sup = np.minimum(1.01 * u.values, f.u_max)
        return {
            "sweep": (a + f.monotone_shift, f(top) + f.monotone_shift * top),
            "jacobian": (a - f.derivative(sup), ell._state_misfit(grid, a, f, sup)[0]),
            "adjoint": (a - f.derivative(u.values), a),
        }

    def test_docs_name_the_band_limit(self):
        """README and the module docstring state the half-bandwidth up to
        which _factorize takes the banded Cholesky."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for text in (readme, ell.__doc__):
            flat = " ".join(text.replace("`", "").split())
            assert f"Up to nx = {ell._BAND_MAX} " in flat

    @pytest.mark.parametrize("n", [17, 33, 45, ell._BAND_MAX + 1])
    def test_both_paths_meet_tol_and_agree(self, n, monkeypatch):
        grid = ro.Grid(ro.Domain(), n, n)
        tol_linear = 1e-10
        for kind, (coeff, rhs) in self.systems(grid).items():
            if kind == "jacobian":
                assert np.any(coeff < 0.0)
            solutions = []
            for band_max in (n, n - 1):  # the banded Cholesky, then SuperLU
                monkeypatch.setattr(ell, "_BAND_MAX", band_max)
                x = ell._solve(grid, coeff, rhs, tol_linear)[0]
                assert ell._linear_misfit(grid, coeff, x, rhs)[1] <= tol_linear, kind
                solutions.append(x)
            gap = np.abs(solutions[0] - solutions[1]) / np.maximum(1.0, np.abs(solutions[1]))
            assert np.max(gap) <= 100 * tol_linear, kind


class TestSystemFromGrid:
    """A system is its grid and its absorption: residuals come from the
    cached Laplacian as absorption * x - lap @ x - b, and a matrix is
    assembled only to factorize it."""

    @staticmethod
    def exact_residual(grid, absorption, x, rhs):
        """A x - b for A = -lap + diag(absorption), rounded once per node:
        every product is split exactly into two doubles (Dekker's
        TwoProduct) and each node's terms are summed by math.fsum."""
        def split(v):
            c = 134217729.0 * v  # 2^27 + 1
            hi = c - (c - v)
            return hi, v - hi

        def two_product(a, b):
            p = a * b
            (ah, al), (bh, bl) = split(a), split(b)
            return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl

        lap = ro.laplacian_matrix(grid).tocsr()
        p, e = two_product(-lap.data, x[lap.indices])
        q, d = two_product(absorption, x)
        ptr = lap.indptr
        return np.array([math.fsum([*p[ptr[i]:ptr[i + 1]], *e[ptr[i]:ptr[i + 1]],
                                    q[i], d[i], -rhs[i]])
                         for i in range(grid.n_nodes)])

    @pytest.mark.parametrize("n", [17, 65, 129])
    def test_stencil_residual_rounds_like_the_csc_product(self, n):
        """At the adjoint solution of a random 6-atom measure, the residual
        from the stencil and the residual through the assembled CSC matrix
        both stay within the a priori rounding bound
        gamma_8 (|A| |x| + |b|) of the exactly rounded residual at every
        node (measured: at most 0.16 of it), and the stencil's worst error,
        scaled as _linear_misfit scales it, is within twice the CSC's
        (measured 1.1e-13 against 2.2e-13 at 17x17, 1.4e-12 against 4.5e-12
        at 65x65, 5.5e-12 against 1.4e-11 at 129x129)."""
        grid = ro.Grid(ro.Domain(), n, n)
        coeff, rhs = TestBandedAndSparseLU.systems(grid)["adjoint"]
        x = ell._solve(grid, coeff, rhs, 1e-10)[0]
        exact = self.exact_residual(grid, coeff, x, rhs)
        stencil = ell._linear_misfit(grid, coeff, x, rhs)[0]
        csc = ell._system(grid, coeff) @ x - rhs
        lap = ro.laplacian_matrix(grid)
        gamma = 8 * 2.0 ** -53 / (1 - 8 * 2.0 ** -53)
        bound = gamma * (np.abs(coeff * x) + abs(lap) @ np.abs(x) + np.abs(rhs))
        scale = np.maximum(1.0, np.maximum(np.abs(coeff * x), np.abs(rhs)))
        errors = {}
        for name, res in (("stencil", stencil), ("csc", csc)):
            assert np.all(np.abs(res - exact) <= bound), name
            errors[name] = np.max(np.abs(res - exact) / scale)
        assert errors["stencil"] <= 2.0 * errors["csc"]

    @pytest.mark.parametrize("n", [9, 17, 33, ell._BAND_MAX])
    def test_band_storage_is_the_csc_scatter(self, n):
        """The band storage that _factorize fills from the cached stencil
        equals, bit for bit, the upper triangle of diag(tau) times the CSC
        matrix of _system, scattered entry by entry into LAPACK's upper
        layout (entry (i, j), i <= j, in row nx + i - j of column j), for
        absorptions of either sign; diag(tau)(-lap) is exactly symmetric."""
        grid = ro.Grid(ro.Domain(), n, n)
        tau = ro.quadrature_weights(grid)
        scaled = (sp.diags(tau) @ -ro.laplacian_matrix(grid)).tocsc()
        assert (scaled != scaled.T).nnz == 0
        absorption = np.random.default_rng(n).uniform(-5.0, 50.0, grid.n_nodes)
        mat = (sp.diags(tau) @ ell._system(grid, absorption)).tocsc()
        cols = np.repeat(np.arange(grid.n_nodes), np.diff(mat.indptr))
        upper = mat.indices <= cols
        scattered = np.zeros((n + 1, grid.n_nodes))
        scattered[n + mat.indices[upper] - cols[upper], cols[upper]] = mat.data[upper]
        band = ell._band_system(grid, absorption)
        assert band.flags.f_contiguous and band.shape == scattered.shape
        assert band.tobytes() == scattered.tobytes()

    def test_residuals_build_no_matrix(self, grid17, monkeypatch):
        """A cold and a warm state solve at 17x17, the adjoint and both
        residual checks assemble no CSC matrix."""
        built = []
        system = ell._system
        monkeypatch.setattr(ell, "_system", lambda *args: built.append(1) or system(*args))
        f = ro.GrowthFunction()
        mu = random_grid_measure(np.random.default_rng(3), grid17, 6, mass_range=(0.2, 1.0))
        u = ro.solve_state(grid17, mu, f)
        nu = mu.with_masses(mu.masses() * 1.2)
        v = ro.solve_state(grid17, nu, f, init=u)
        psi = ro.solve_adjoint(grid17, nu, v, f)
        assert ell.state_residual(v, nu, f) <= 1e-8
        assert ell.adjoint_residual(psi, v, nu, f) <= 1e-10
        assert not built


class TestStateSolve:
    def test_empty_measure_gives_carrying_capacity(self, grid17):
        f = ro.GrowthFunction()
        u = ro.solve_state(grid17, ro.DiscreteMeasure(), f)
        assert u.min() == u.max() == f.u_max

    def test_uniform_absorption_constant_solution(self, grid17):
        """Constant density m0 (cell-area masses) turns the PDE algebraic:
        f(u) = m0 u, so u = u_max (1 - m0 / rate)."""
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        m0 = 1.0
        mu = uniform_measure(grid17, m0)
        u = ro.solve_state(grid17, mu, f, tol=1e-12)
        expected = f.u_max * (1.0 - m0 / f.rate)
        assert np.max(np.abs(u.values - expected)) < 1e-8

    def test_newton_finish_near_extinction(self, grid17, linalg_calls):
        """Uniform density m0 just below the rate leaves u = u_max (1 - m0 / rate)
        close to zero, where a sweep contracts the error only by about
        2 m0 / (m0 + rate) = 0.995 > 0.9; the sweeps hand over early and
        Newton finishes."""
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        m0 = 3.96
        mu = uniform_measure(grid17, m0)
        tol = 1e-12
        u = ro.solve_state(grid17, mu, f, tol=tol).values
        # the sweep matrix, then at least one Jacobian for the Newton steps
        assert len(linalg_calls.factorize) > 1
        a = ro.lump_measure(mu, grid17).density()
        res = ro.laplacian_matrix(grid17) @ u + f(u) - a * u
        scale = np.maximum(1.0, np.maximum(np.abs(a * u), np.abs(f(u))))
        assert np.max(np.abs(res) / scale) <= tol
        assert np.max(np.abs(u - f.u_max * (1.0 - m0 / f.rate))) < 1e-10

    @staticmethod
    def count_sweeps(monkeypatch):
        """Records the absorption of every linear solve; the sweeps are the
        solves that share the first one's (shifted) absorption."""
        absorptions = []
        solve = ell._solve

        def recording(grid, absorption, rhs, tol_linear, lu=None):
            absorptions.append(absorption)
            return solve(grid, absorption, rhs, tol_linear, lu)

        monkeypatch.setattr(ell, "_solve", recording)
        return lambda: sum(a is absorptions[0] for a in absorptions)

    def test_exhausted_sweeps_hand_over_to_newton(self, grid17, monkeypatch):
        """With the sweep cap cut to 3, a random measure (about 0.6 per
        sweep) neither reaches sqrt(tol) nor contracts slowly before the
        sweeps run out; Newton finishes from the third sweep and lands on
        the uncapped answer."""
        f = ro.GrowthFunction()
        mu = random_grid_measure(np.random.default_rng(3), grid17, 6, mass_range=(0.2, 1.0))
        tol = 1e-12
        uncapped = ro.solve_state(grid17, mu, f, tol=tol)
        sweeps = self.count_sweeps(monkeypatch)
        monkeypatch.setattr(ell, "_MAX_SWEEPS", 3)
        u = ro.solve_state(grid17, mu, f, tol=tol)
        assert sweeps() == 3
        assert u._factors is not None
        assert ell.state_residual(u, mu, f) <= tol
        assert np.max(np.abs(u.values - uncapped.values)) < 1e-10 * f.u_max

    @pytest.mark.parametrize("m0", [3.9, 4.1])
    def test_slow_sweeps_hand_over_near_extinction(self, grid17, monkeypatch, m0):
        """Uniform densities 3.9 (alive) and 4.1 (extinct) with rate 4: a
        sweep contracts by about 0.987, so the sweeps hand over to Newton
        within 50 sweeps instead of running to the cap, and at tol 1e-10
        the answer is the exact one: u_max (1 - m0 / rate) within 1e-8, or
        below 1e-8 u_max once extinct."""
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        sweeps = self.count_sweeps(monkeypatch)
        u = ro.solve_state(grid17, uniform_measure(grid17, m0), f, tol=1e-10)
        assert sweeps() <= 50
        exact = f.u_max * max(0.0, 1.0 - m0 / f.rate)
        if exact > 0.0:
            assert np.max(np.abs(u.values - exact)) < 1e-8
        else:
            assert u.max() < 1e-8 * f.u_max

    @staticmethod
    def swept_reference(grid, mu, f, tol=1e-12):
        """The shifted monotone iteration alone, from u_max until the scaled
        state residual is within tol: every sweep solves
        (-lap + a + sigma) u_next = f(u) + sigma u with scipy's own
        factorization of that matrix, neither refined nor handed to Newton."""
        a = ro.lump_measure(mu, grid).density()
        lap = ro.laplacian_matrix(grid)
        sigma = f.monotone_shift
        sweep = spla.factorized((-lap + sp.diags(a + sigma)).tocsc())
        u = np.full(grid.n_nodes, f.u_max)
        for _ in range(20000):
            u = np.clip(sweep(f(u) + sigma * u), 0.0, f.u_max)
            fu = f(u)
            scale = np.maximum(1.0, np.maximum(np.abs(a * u), np.abs(fu)))
            if np.max(np.abs(lap @ u + fu - a * u) / scale) <= tol:
                return u
        raise AssertionError("the reference sweep did not reach tol")

    def test_cold_solve_is_the_maximal_solution(self, grid17, monkeypatch):
        """Newton finishing from a sweep iterate still lands on the maximal
        solution: random measures (every third one heavy, mass 2 to 8),
        uniform densities 3.9 and 3.96 near extinction, and uniform
        densities 3.5 to 4.1 across the extinction threshold at rate 4.
        The cold solve agrees with the sweep-only reference within
        1e-7 u_max (at tol 1e-10: near the threshold the state error is
        the residual over rate - density), exactly the extinct references
        stay extinct, and by concavity of f every iterate, sweep or Newton,
        stays above the reference up to rounding (measured -1.4e-12)."""
        rng = np.random.default_rng(14)
        cases = []
        for k in range(9):
            heavy = k % 3 == 2
            cases.append((ro.GrowthFunction(), random_grid_measure(
                rng, grid17, int(rng.integers(1, 10)),
                mass_range=(2.0, 8.0) if heavy else (0.05, 1.0))))
        logistic4 = ro.GrowthFunction(u_max=1.0, rate=4.0)
        for m0 in (3.5, 3.8, 3.9, 3.96, 4.05, 4.1):
            cases.append((logistic4, uniform_measure(grid17, m0)))
        iterates = []
        misfit = ell._state_misfit

        def recording(grid, a, f, u):
            iterates.append(u.copy())
            return misfit(grid, a, f, u)

        monkeypatch.setattr(ell, "_state_misfit", recording)
        extinct = 0
        for f, mu in cases:
            ref = self.swept_reference(grid17, mu, f)
            iterates.clear()
            u = ro.solve_state(grid17, mu, f, tol=1e-10).values
            assert np.max(np.abs(u - ref)) <= 1e-7 * f.u_max
            assert (u.max() < 1e-6 * f.u_max) == (ref.max() < 1e-6 * f.u_max)
            assert min(np.min(v - ref) for v in iterates) >= -1e-9 * f.u_max
            extinct += ref.max() < 1e-6 * f.u_max
        assert extinct >= 2

    def test_certified_secant_points_stay_above_the_maximal_solution(self, sweep_log,
                                                                     monkeypatch):
        """The first random measure of the seed-1 `fields` workload at
        65x65.  Every point that _state_misfit measures in a cold solve
        (sweep iterates, certified secant points, Newton iterates) stays
        above the sweep-only reference up to rounding, and every iterate a
        sweep adopts is a supersolution: a u - lap u - f(u) >= 0 at every
        node, up to the rounding of the stencil (measured: below 0
        everywhere).  The certificate is what keeps them there: a sweep that
        adopts its secant point whenever it measures lower, uncertified,
        undershoots the reference by 4.5e-5."""
        grid, mu = fields_random0()
        f = ro.GrowthFunction()
        ref = self.swept_reference(grid, mu, f, tol=1e-11)
        lap = ro.laplacian_matrix(grid)
        a = ro.lump_measure(mu, grid).density()
        ro.solve_state(grid, mu, f)
        measured = [entry[1] for entry in sweep_log.log if entry[0] == "misfit"]
        assert min(np.min(v - ref) for v in measured) >= -1e-9 * f.u_max
        adopted = sweep_log.adopted()
        assert len(adopted) > 3
        gamma = 8 * 2.0 ** -53 / (1 - 8 * 2.0 ** -53)
        for v, (res, _, fu) in adopted:
            assert np.all(-res <= gamma * (abs(lap) @ v + np.abs(fu) + a * v))

        def uncertified(grid, a, f, g, misfit, d, c):
            trial = g + c * d
            trial_misfit = ell._state_misfit(grid, a, f, trial)
            return (trial, trial_misfit) if trial_misfit[1] < misfit[1] else (g, misfit)

        sweep_log.log.clear()
        monkeypatch.setattr(ell, "_secant", uncertified)
        ro.solve_state(grid, mu, f)
        measured = [entry[1] for entry in sweep_log.log if entry[0] == "misfit"]
        assert min(np.min(v - ref) for v in measured) < -4e-5 * f.u_max

    def test_each_iterate_is_measured_once(self, grid17, monkeypatch):
        """A cold solve that Newton finishes and a warm one: the sweep hands
        Newton its last residual, and each Newton step keeps the residual
        its line search accepted, so no iterate is measured twice."""
        f = ro.GrowthFunction()
        mu = random_grid_measure(np.random.default_rng(3), grid17, 6, mass_range=(0.2, 1.0))
        measured = []
        misfit = ell._state_misfit

        def recording(grid, a, f, u):
            measured.append(u.tobytes())
            return misfit(grid, a, f, u)

        monkeypatch.setattr(ell, "_state_misfit", recording)
        u = ro.solve_state(grid17, mu, f, tol=1e-10)
        assert u._factors is not None  # Newton finished
        nu = mu.with_masses(mu.masses() * 1.1)
        for init in (None, u):
            measured.clear()
            ro.solve_state(grid17, nu, f, tol=1e-10, init=init)
            assert len(measured) == len(set(measured)) > 1

    def test_box_bounds(self, grid17):
        rng = np.random.default_rng(8)
        f = ro.GrowthFunction()
        for _ in range(3):
            mu = random_grid_measure(rng, grid17, 4, mass_range=(0.2, 1.5))
            u = ro.solve_state(grid17, mu, f)
            assert u.min() >= 0.0 and u.max() <= f.u_max + 1e-12

    def test_monotone_in_measure(self, grid17):
        # heavier absorption cannot increase the crop anywhere
        f = ro.GrowthFunction()
        pos = grid17.node_position(8, 8)
        light = ro.DiscreteMeasure((ro.Atom(pos, 0.3),))
        heavy = ro.DiscreteMeasure((ro.Atom(pos, 0.9),))
        u_light = ro.solve_state(grid17, light, f, tol=1e-10)
        u_heavy = ro.solve_state(grid17, heavy, f, tol=1e-10)
        assert np.all(u_heavy.values <= u_light.values + 1e-8)

    def test_manufactured_solution_second_order(self):
        f = ro.GrowthFunction()
        errs = []
        for n in (17, 33, 65):
            g = ro.Grid(ro.Domain(), n, n)
            mu, u_ex = manufactured_problem(g, f)
            u = ro.solve_state(g, mu, f, tol=1e-11)
            errs.append(float(np.max(np.abs(u.values - u_ex))))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 1.7 and order2 > 1.7


class TestWarmStart:
    """solve_state(..., init=prev) against the cold solve from u_max."""

    TOL = 1e-8

    @pytest.mark.parametrize("n", [17, 33])
    def test_warm_matches_cold_after_mass_change(self, n):
        """Random measures, masses changed by up to 5%, 20% or 50% per atom;
        every fourth measure has heavy atoms (mass 2 to 8), which drives
        most of them near extinction.  Warm and cold agree within
        10 * tol_nonlinear * u_max (the worst of 240 such pairs measured
        6.3 tol)."""
        f = ro.GrowthFunction()
        grid = ro.Grid(ro.Domain(), n, n)
        rng = np.random.default_rng(400 + n)
        near_extinct = 0
        for k in range(24):
            heavy = k % 4 == 3
            mu = random_grid_measure(rng, grid, int(rng.integers(1, 30)),
                                     mass_range=(2.0, 8.0) if heavy else (0.05, 1.0))
            prev = ro.solve_state(grid, mu, f, tol=self.TOL)
            change = (0.05, 0.2, 0.5)[k % 3]
            nu = mu.with_masses(mu.masses() * (1.0 + change * rng.uniform(-1.0, 1.0, len(mu))))
            cold = ro.solve_state(grid, nu, f, tol=self.TOL)
            warm = ro.solve_state(grid, nu, f, tol=self.TOL, init=prev)
            assert np.max(np.abs(warm.values - cold.values)) <= 10 * self.TOL * f.u_max
            near_extinct += cold.max() < 1e-3 * f.u_max
        assert near_extinct >= 3

    def test_across_the_extinction_threshold(self, grid17):
        """Uniform density 3.96 against rate 4 leaves u = 0.01; 5% more mass
        makes 0 the maximal solution, and halving it again gives 0.505."""
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        prev = ro.solve_state(grid17, uniform_measure(grid17, 3.96), f, tol=self.TOL)
        for m0 in (3.96 * 1.05, 3.96 * 0.5):
            mu = uniform_measure(grid17, m0)
            cold = ro.solve_state(grid17, mu, f, tol=self.TOL)
            warm = ro.solve_state(grid17, mu, f, tol=self.TOL, init=prev)
            assert np.max(np.abs(warm.values - cold.values)) <= 10 * self.TOL * f.u_max
            assert np.max(np.abs(cold.values - max(0.0, 1.0 - m0 / f.rate))) < 1e-6

    def test_indefinite_warm_jacobian_falls_back_to_the_cold_sweep(self, grid17,
                                                                    monkeypatch):
        """The second warm solve of test_across_the_extinction_threshold
        starts Newton from u = 0.01 at density 1.98: its first Jacobian,
        about -lap + 1.98 - f'(0.01) = -lap - 1.94, is not positive
        definite, so the banded Cholesky raises SolverError, the sweep from
        u_max runs instead, and the warm solve returns the cold answer bit
        for bit."""
        assert grid17.nx <= ell._BAND_MAX
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        prev = ro.solve_state(grid17, uniform_measure(grid17, 3.96), f, tol=self.TOL)
        mu = uniform_measure(grid17, 3.96 * 0.5)
        cold = ro.solve_state(grid17, mu, f, tol=self.TOL)
        failed, sweeps = [], []
        factorize, sweep = ell._factorize, ell._sweep

        def recording(grid, absorption):
            try:
                return factorize(grid, absorption)
            except ro.SolverError as err:
                failed.append(str(err))
                raise

        monkeypatch.setattr(ell, "_factorize", recording)
        monkeypatch.setattr(ell, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
        warm = ro.solve_state(grid17, mu, f, tol=self.TOL, init=prev)
        assert len(failed) == 1
        assert failed[0].startswith("Cholesky factorization failed: pivot")
        assert len(sweeps) == 1
        assert np.array_equal(warm.values, cold.values)

    def test_tiny_state_does_not_hide_a_positive_solution(self, grid17):
        """An init of 1e-10 everywhere (an extinct state) already meets tol
        for density 2.2, whose maximal solution is u = 0.45; only the
        stability test sends the solve to the sweep."""
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        mu = uniform_measure(grid17, 2.2)
        tiny = ell.ScalarField(grid17, np.full(grid17.n_nodes, 1e-10))
        assert ell.state_residual(tiny, mu, f) <= self.TOL
        warm = ro.solve_state(grid17, mu, f, tol=self.TOL, init=tiny)
        assert np.array_equal(warm.values, ro.solve_state(grid17, mu, f, tol=self.TOL).values)
        assert np.max(np.abs(warm.values - 0.45)) < 1e-6

    def test_zero_node_falls_back_to_the_cold_answer(self, grid17):
        f = ro.GrowthFunction()
        rng = np.random.default_rng(5)
        mu = random_grid_measure(rng, grid17, 6, mass_range=(0.1, 0.6))
        prev = ro.solve_state(grid17, mu, f, tol=self.TOL).values.copy()
        nu = mu.with_masses(mu.masses() * 1.1)
        cold = ro.solve_state(grid17, nu, f, tol=self.TOL)
        positive = ro.solve_state(grid17, nu, f, tol=self.TOL,
                                  init=ell.ScalarField(grid17, prev))
        assert not np.array_equal(positive.values, cold.values)  # Newton answered
        prev[40] = 0.0
        warm = ro.solve_state(grid17, nu, f, tol=self.TOL, init=ell.ScalarField(grid17, prev))
        assert np.array_equal(warm.values, cold.values)

    def test_init_on_another_grid_is_rejected(self, grid17):
        f = ro.GrowthFunction()
        mu = ro.DiscreteMeasure((ro.Atom(grid17.node_position(8, 8), 0.3),))
        other = ro.Grid(ro.Domain(), 9, 9)
        with pytest.raises(ro.ValidationError, match="different grid"):
            ro.solve_state(grid17, mu, f, init=ell.ScalarField(other, np.ones(81)))


class TestFactorReuse:
    """Where factors are carried, Newton steps and the adjoint refine with
    the factors of the first Jacobian of a state solve instead of
    factorizing their own matrices: in cold solves, and in warm solves on
    grids wider than _EXACT_NEWTON_MAX.  On narrower grids every step of a
    warm solve factorizes its own Jacobian, and the adjoint refines with
    the last step's factors."""

    @staticmethod
    def counted_ascent(monkeypatch, linalg_calls, n):
        """The spawn ascent of scripts/run_ascent_demo.py on an n x n grid,
        with the measure of every trial (one state solve each) and the
        factorizations made by each linear solve of a warm state solve."""
        import rootopt.optimality as opt

        trials, warm_solves = [], []
        inside_warm = [False]
        solve_state, solve = opt.solve_state, ell._solve

        def tracking(*args, **kw):
            trials.append(args[1])
            inside_warm[0] = kw.get("init") is not None
            try:
                return solve_state(*args, **kw)
            finally:
                inside_warm[0] = False

        def counting(*args):
            before = len(linalg_calls.factorize)
            out = solve(*args)
            if inside_warm[0]:
                warm_solves.append(len(linalg_calls.factorize) - before)
            return out

        monkeypatch.setattr(opt, "solve_state", tracking)
        monkeypatch.setattr(ell, "_solve", counting)
        trace = spawn_ascent(ro.Grid(ro.Domain(), n, n))
        return trace, trials, warm_solves

    def test_spawn_ascent_factorizes_about_once_per_trial(self, monkeypatch, linalg_calls):
        """The 47x47 spawn ascent, wider than _EXACT_NEWTON_MAX (and on the
        banded Cholesky path): 41 trials, each one state solve, and an
        adjoint for every kept trial, with 42 factorizations."""
        assert ell._EXACT_NEWTON_MAX < 47
        trace, trials, _ = self.counted_ascent(monkeypatch, linalg_calls, 47)
        assert len(trace.measure) > 10 and len(trials) > 30
        assert len(linalg_calls.factorize) <= 1.3 * len(trials)

    def test_narrow_warm_newton_factorizes_every_step(self, monkeypatch, linalg_calls):
        """The 17x17 spawn ascent, within _EXACT_NEWTON_MAX: every linear
        solve of a warm state solve is a Newton step that factorizes its own
        Jacobian exactly once (no warm solve falls back to the sweep), and
        the ascent back-substitutes 205 times for 41 trials (measured; 705
        when every warm solve carried its first step's factors)."""
        assert 17 <= ell._EXACT_NEWTON_MAX
        trace, trials, warm_solves = self.counted_ascent(monkeypatch, linalg_calls, 17)
        assert len(trace.measure) > 10 and len(trials) > 30
        assert len(warm_solves) > 2 * len(trials) and set(warm_solves) == {1}
        assert len(linalg_calls.solve) <= 5.5 * len(trials)

    def test_factors_of_another_matrix_are_replaced(self, grid17, linalg_calls):
        """A state carrying the factors of -lap + 50: refinement with them
        cannot halve the residual, so the adjoint factorizes its own matrix
        and returns exactly the adjoint of a state without factors."""
        f = ro.GrowthFunction()
        mu = random_grid_measure(np.random.default_rng(13), grid17, 5, mass_range=(0.2, 1.0))
        u = ro.solve_state(grid17, mu, f, tol=1e-10)
        far = ell._factorize(grid17, np.full(grid17.n_nodes, 50.0))
        stale = ell._carrying(grid17, u.values, far)
        linalg_calls.factorize.clear()
        psi = ro.solve_adjoint(grid17, mu, stale, f)
        assert len(linalg_calls.factorize) == 1
        assert ell.adjoint_residual(psi, u, mu, f) <= 1e-10
        plain = ro.solve_adjoint(grid17, mu, ell.ScalarField(grid17, u.values), f)
        assert np.array_equal(psi.values, plain.values)

    def test_warm_state_and_adjoint_match_fresh_factors(self, linalg_calls, monkeypatch):
        """Warm solves with masses changed by up to 30%, on 17x17 (every
        Newton step factorizes) and on a grid just wider than
        _EXACT_NEWTON_MAX (factors carried), against the same solves with
        every Newton matrix factorized afresh: the states agree within tol.
        At the warm state, the adjoint refined with Newton's last factors
        and the adjoint of freshly factorized matrices both meet tol_linear
        against the true matrix, and agree within 100 tol_linear relative:
        the conditioning of the adjoint system turns the residual tolerance
        into a larger solution gap (up to 29 tol_linear over 48 measured
        cases at 17x17 and 33x33).  The adjoint never factorizes, so the
        warm solve and its adjoint factorize less than the fresh ones."""
        f = ro.GrowthFunction()
        tol, tol_linear = 1e-8, 1e-10
        rng = np.random.default_rng(7)
        solve = ell._solve
        for n in (17, ell._EXACT_NEWTON_MAX + 2):
            grid = ro.Grid(ro.Domain(), n, n)
            reused = fresh = 0
            for _ in range(6):
                mu = random_grid_measure(rng, grid, int(rng.integers(2, 12)),
                                         mass_range=(0.05, 1.0))
                prev = ro.solve_state(grid, mu, f, tol=tol)
                nu = mu.with_masses(mu.masses() * (1 + 0.3 * rng.uniform(-1, 1, len(mu))))
                linalg_calls.factorize.clear()
                u = ro.solve_state(grid, nu, f, tol=tol, tol_linear=tol_linear, init=prev)
                psi = ro.solve_adjoint(grid, nu, u, f, tol=tol_linear)
                reused += len(linalg_calls.factorize)
                linalg_calls.factorize.clear()
                plain = ro.solve_adjoint(grid, nu, ell.ScalarField(grid, u.values), f,
                                         tol=tol_linear)
                with monkeypatch.context() as m:
                    m.setattr(ell, "_solve", lambda grid, absorption, rhs, tol_linear, lu=None:
                              solve(grid, absorption, rhs, tol_linear))
                    u0 = ro.solve_state(grid, nu, f, tol=tol, tol_linear=tol_linear, init=prev)
                fresh += len(linalg_calls.factorize)
                assert np.max(np.abs(u.values - u0.values)) <= tol * f.u_max
                for adjoint in (psi, plain):
                    assert ell.adjoint_residual(adjoint, u, nu, f) <= tol_linear
                gap = np.abs(psi.values - plain.values) / np.maximum(1.0, np.abs(plain.values))
                assert np.max(gap) <= 100 * tol_linear
            assert reused < fresh, n


class TestNodeMapMemo:
    """_node_indices memoizes each measure's node map for the last grid, and
    _density its lumped density next to it."""

    @pytest.fixture()
    def located(self, monkeypatch):
        """The (measure, grid) of every uncached node map."""
        calls = []
        real = ell._locate_nodes

        def counting(mu, grid):
            calls.append((mu, grid))
            return real(mu, grid)

        monkeypatch.setattr(ell, "_locate_nodes", counting)
        return calls

    def test_spawn_ascent_maps_each_measure_once(self, grid17, located, monkeypatch):
        """Every measure the ascent asks about is mapped once, although the
        state solve, the harvest, the adjoint and the report all ask."""
        import rootopt.optimality as opt

        asked = []
        real = ell._node_indices

        def asking(mu, grid):
            asked.append(mu)
            return real(mu, grid)

        monkeypatch.setattr(ell, "_node_indices", asking)
        monkeypatch.setattr(opt, "_node_indices", asking)
        spawn_ascent(grid17)
        distinct = {id(mu) for mu in asked}  # `asked` keeps every measure alive
        assert len(located) == len(distinct) > 30
        assert len(asked) > 3 * len(located)

    def test_spawn_ascent_lumps_each_measure_once(self, grid17, monkeypatch):
        """The state solve, the adjoint and the residuals of a measure share
        one lumped density: the ascent lumps every measure it asks about
        exactly once."""
        lumped = []
        real = ell.lump_measure

        def counting(mu, grid):
            lumped.append(mu)
            return real(mu, grid)

        monkeypatch.setattr(ell, "lump_measure", counting)
        spawn_ascent(grid17)
        assert len(lumped) == len({id(mu) for mu in lumped}) > 30

    def test_memoized_density_has_the_lumped_bits(self, grid17):
        """_density is lump_measure(mu, grid).density(), bit for bit, read
        only and shared until another grid is asked for; node (8, 8) of the
        17x17 grid is node (16, 16) of the 33x33 grid."""
        mu = random_grid_measure(np.random.default_rng(2), grid17, 5)
        a = ell._density(mu, grid17)
        assert a.tobytes() == ro.lump_measure(mu, grid17).density().tobytes()
        with pytest.raises(ValueError):
            a[0] = 0.0
        assert ell._density(mu, ro.Grid(ro.Domain(), 17, 17)) is a  # equal grid
        grid33 = ro.Grid(ro.Domain(), 33, 33)
        assert ell._density(mu, grid33).tobytes() == \
            ro.lump_measure(mu, grid33).density().tobytes()
        again = ell._density(mu, grid17)
        assert again is not a and again.tobytes() == a.tobytes()

    def test_memoized_map_is_read_only_and_shared(self, grid17, located):
        mu = random_grid_measure(np.random.default_rng(2), grid17, 5)
        idx = ell._node_indices(mu, grid17)
        with pytest.raises(ValueError):
            idx[0] = 0
        assert ell._node_indices(mu, ro.Grid(ro.Domain(), 17, 17)) is idx  # equal grid
        assert np.array_equal(idx, [grid17.index_of(*a.position) for a in mu.atoms])
        assert len(located) == 1

    def test_another_grid_recomputes(self, grid17, located):
        """Node (8, 8) of the 17x17 grid is node (16, 16) of the 33x33 grid
        on the same rectangle; only the last grid's map is kept."""
        grid33 = ro.Grid(ro.Domain(), 33, 33)
        mu = ro.DiscreteMeasure((ro.Atom(grid17.node_position(8, 8), 0.3),))
        assert ell._node_indices(mu, grid17).tolist() == [8 * 17 + 8]
        assert ell._node_indices(mu, grid33).tolist() == [16 * 33 + 16]
        assert ell._node_indices(mu, grid33).tolist() == [16 * 33 + 16]
        assert ell._node_indices(mu, grid17).tolist() == [8 * 17 + 8]
        assert [g.nx for _, g in located] == [17, 33, 17]

    def test_off_grid_atom_raises_every_time(self, grid17, located):
        x, y = grid17.node_position(3, 4)
        mu = ro.DiscreteMeasure((ro.Atom((x, y), 0.2), ro.Atom((x + 0.1 * grid17.h, y), 0.3)))
        for _ in range(2):
            with pytest.raises(ro.ValidationError, match="atom 1 is not on a grid node"):
                ro.lump_measure(mu, grid17)
        assert len(located) == 2 and mu._nodes is None

    def test_pickled_measure_carries_no_memo(self, grid17):
        mu = random_grid_measure(np.random.default_rng(4), grid17, 5)
        ro.lump_measure(mu, grid17)
        back = pickle.loads(pickle.dumps(mu))
        assert back == mu and hash(back) == hash(mu) and repr(back) == repr(mu)
        assert mu._nodes is not None and back._nodes is None


class TestHarvestAndAdjoint:
    def test_harvest_dot_product(self, grid17):
        rng = np.random.default_rng(5)
        mu = random_grid_measure(rng, grid17, 4)
        f = ro.GrowthFunction()
        u = ro.solve_state(grid17, mu, f)
        manual = sum(a.mass * u.values[grid17.index_of(*a.position)] for a in mu.atoms)
        assert ro.harvest(u, mu) == pytest.approx(manual, rel=1e-15)
        assert ro.harvest(u, ro.DiscreteMeasure()) == 0.0

    def test_adjoint_within_bounds(self, grid17):
        rng = np.random.default_rng(13)
        f = ro.GrowthFunction()
        mu = random_grid_measure(rng, grid17, 5, mass_range=(0.2, 1.0))
        u = ro.solve_state(grid17, mu, f, tol=1e-10)
        psi = ro.solve_adjoint(grid17, mu, u, f)
        lam = ro.growth_bound_lambda(f, delta0=u.min())
        assert psi.min() >= -1e-9
        assert psi.max() <= lam * f.u_max + 1.0 + 1e-9

    def test_uniform_absorption_constant_adjoint(self, grid17):
        f = ro.GrowthFunction(u_max=1.0, rate=4.0)
        m0 = 1.0
        mu = uniform_measure(grid17, m0)
        u = ro.solve_state(grid17, mu, f, tol=1e-12)
        psi = ro.solve_adjoint(grid17, mu, u, f, tol=1e-12)
        # constant state u_hat has f'(u_hat) = 2 m0 - rate, so psi = m0 / (rate - m0)
        expected = m0 / (f.rate - m0)
        assert np.max(np.abs(psi.values - expected)) < 1e-7

    def test_phi_field_values(self, grid17):
        u = ell.ScalarField(grid17, np.full(grid17.n_nodes, 0.8))
        psi = ell.ScalarField(grid17, np.full(grid17.n_nodes, 0.25))
        phi = ro.phi_field(u, psi)
        assert np.allclose(phi.values, 0.6)

    def test_grid_mismatch_rejected(self, grid17):
        other = ro.Grid(ro.Domain(), 9, 9)
        u = ell.ScalarField(grid17, np.zeros(grid17.n_nodes))
        psi = ell.ScalarField(other, np.zeros(other.n_nodes))
        with pytest.raises(ro.ValidationError):
            ro.phi_field(u, psi)

    def test_perturbation_derivative_matches_resolve(self, grid17):
        """The derivative of the harvest under the reweighting (1 + eps g) mu
        at eps = 0 is sum(m g phi(node)): the adjoint shortcut against a
        central difference of the re-solved harvest."""
        rng = np.random.default_rng(21)
        f = ro.GrowthFunction()
        mu = random_grid_measure(rng, grid17, 4, mass_range=(0.3, 0.9))
        u = ro.solve_state(grid17, mu, f, tol=1e-12)
        psi = ro.solve_adjoint(grid17, mu, u, f, tol=1e-12)
        g = rng.uniform(-1.0, 1.0, size=len(mu))
        eps = 1e-5
        vals = []
        for s in (+eps, -eps):
            mu_s = mu.with_masses(mu.masses() * (1.0 + s * g))
            u_s = ro.solve_state(grid17, mu_s, f, tol=1e-12)
            vals.append(ro.harvest(u_s, mu_s))
        fd = (vals[0] - vals[1]) / (2 * eps)
        nodes = [grid17.index_of(*a.position) for a in mu.atoms]
        pred = float(np.sum(mu.masses() * g * ro.phi_field(u, psi).values[nodes]))
        assert pred == pytest.approx(fd, rel=2e-4, abs=1e-8)


class TestGrowthBound:
    def test_logistic_closed_form(self):
        # binding point is u = delta0, giving lam = (1 - 2 d) / d^2 for u_max = 1
        for rate in (1.0, 4.0):
            f = ro.GrowthFunction(u_max=1.0, rate=rate)
            lam = ro.growth_bound_lambda(f, delta0=0.1)
            assert lam == pytest.approx(80.0, rel=1e-10)

    def test_large_delta0_needs_no_bound(self):
        f = ro.GrowthFunction()
        assert ro.growth_bound_lambda(f, delta0=0.6) < 1e-20

    def test_bound_is_the_threshold(self):
        """Just above the returned lam, f'(u) (lam u + 1) < lam f(u) holds on
        a dense sample of [delta0, u_max]; just below it, it fails at u =
        delta0.  Both sides are evaluated in exact rational arithmetic,
        because at delta0 = 1e-12 u_max they agree to about 1e-21."""
        def gap(rate, u_max, lam, u):  # f'(u) (lam u + 1) - lam f(u)
            rate, u_max, lam, u = map(Fraction, (rate, u_max, lam, u))
            return rate * (1 - 2 * u / u_max) * (lam * u + 1) - lam * rate * u * (1 - u / u_max)

        for u_max in (0.5, 1.0, 3.0):
            for rate in (0.5, 4.0, 20.0):
                f = ro.GrowthFunction(u_max=u_max, rate=rate)
                for delta0 in (1e-12 * u_max, 1e-6 * u_max, 0.1 * u_max, 0.49 * u_max):
                    lam = ro.growth_bound_lambda(f, delta0)
                    above = lam * (1.0 + 1e-9)
                    us = np.concatenate([np.linspace(delta0, u_max, 1001),
                                         np.geomspace(delta0, u_max, 200)])
                    assert all(gap(rate, u_max, above, u) < 0 for u in us), (u_max, rate, delta0)
                    assert gap(rate, u_max, lam * (1.0 - 1e-9), delta0) >= 0, (u_max, rate, delta0)


class TestInterpolation:
    def test_reproduces_bilinear_functions(self, grid17):
        coords = grid17.node_coordinates()
        vals = 2.0 + 3.0 * coords[:, 0] - coords[:, 1] + 0.5 * coords[:, 0] * coords[:, 1]
        field = ell.ScalarField(grid17, vals)
        rng = np.random.default_rng(17)
        pts = np.column_stack([rng.uniform(0.5, 1.5, 30), rng.uniform(-0.5, 0.5, 30)])
        out = ro.bilinear_interpolate(field, pts)
        exact = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
        assert np.max(np.abs(out - exact)) < 1e-12

    def test_exact_at_nodes(self, grid17):
        rng = np.random.default_rng(19)
        vals = rng.uniform(size=grid17.n_nodes)
        field = ell.ScalarField(grid17, vals)
        out = ro.bilinear_interpolate(field, grid17.node_coordinates())
        assert np.max(np.abs(out - vals)) < 1e-12

    def test_outside_point_rejected(self, grid17):
        field = ell.ScalarField(grid17, np.zeros(grid17.n_nodes))
        with pytest.raises(ro.ValidationError, match="inside the domain"):
            ro.bilinear_interpolate(field, [(0.4, 0.0)])
