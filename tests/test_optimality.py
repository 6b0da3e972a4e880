import numpy as np
import pytest

import rootopt as ro
from rootopt import optimality
from rootopt.elliptic import ScalarField, _node_indices, phi_field
from rootopt.optimality import AtomRecord

from conftest import random_grid_measure, spawn_ascent


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.n_nodes, float(value)))


@pytest.fixture(scope="module")
def evaluated_instance():
    """One fully evaluated configuration shared by the residual tests."""
    cfg = ro.RunConfig(grid=ro.Grid(ro.Domain(), 17, 17), alpha=0.6, c=0.1)
    rng = np.random.default_rng(31)
    mu = random_grid_measure(rng, cfg.grid, 4, mass_range=(0.2, 0.6))
    tree = ro.optimize_plan(mu, cfg.alpha)
    u = ro.solve_state(cfg.grid, mu, cfg.growth, tol=1e-10)
    psi = ro.solve_adjoint(cfg.grid, mu, u, cfg.growth)
    z = ro.landscape(tree, mu, cfg.alpha)
    return cfg, mu, tree, u, psi, z


class TestPayoff:
    def test_empty_measure_scores_zero(self):
        assert ro.payoff(None, ro.DiscreteMeasure(), None, 1.0, 0.5) == 0.0

    def test_mass_needs_state_and_plan(self):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5),))
        with pytest.raises(ro.ValidationError):
            ro.payoff(None, mu, None, 1.0, 0.5)

    def test_c_must_be_positive(self):
        with pytest.raises(ro.ValidationError):
            ro.payoff(None, ro.DiscreteMeasure(), None, 0.0, 0.5)

    def test_linear_in_c(self, evaluated_instance):
        cfg, mu, tree, u, _, _ = evaluated_instance
        cost = ro.irrigation_cost(tree, mu, cfg.alpha)
        p1 = ro.payoff(u, mu, tree, 1.0, cfg.alpha)
        p2 = ro.payoff(u, mu, tree, 2.0, cfg.alpha)
        assert p2 - p1 == pytest.approx(-cost, rel=1e-12)
        assert p1 == pytest.approx(ro.harvest(u, mu) - cost, rel=1e-12)


class TestOptimalityResidual:
    def test_records_match_fields(self, evaluated_instance):
        cfg, mu, tree, u, psi, z = evaluated_instance
        report = ro.optimality_residual(u, psi, z, mu, cfg.c, cfg.alpha)
        assert len(report.records) == len(mu)
        grid = cfg.grid
        for rec in report.records:
            k = grid.index_of(*rec.position)
            phi = (1.0 - psi.values[k]) * u.values[k]
            assert rec.phi == pytest.approx(phi, rel=1e-14)
            assert rec.residual == pytest.approx(
                phi - cfg.c * cfg.alpha * rec.z, rel=1e-12, abs=1e-15)
        assert report.sup_residual == max(abs(r.residual) for r in report.records)
        assert report.payoff == pytest.approx(
            report.harvest - cfg.c * report.irrigation_cost, rel=1e-14)

    def test_records_equal_a_per_atom_loop(self, evaluated_instance):
        """The records, gathered in one pass, equal a loop that looks every
        atom's node up with grid.index_of and its Z up with at_atom, down to
        the last bit, with one atom at zero mass left out."""
        cfg, mu, tree, u, psi, z = evaluated_instance
        mu = mu.with_masses(np.append(mu.masses()[:-1], 0.0))
        phi = phi_field(u, psi).values
        for c in (0.1, 0.3, 0.7, 1.3, 2.9):
            want = []
            for i, ((x, y), m) in enumerate(zip(mu.positions().tolist(), mu.masses().tolist())):
                if m > 0.0:
                    phi_a = float(phi[cfg.grid.index_of(x, y)])
                    z_a = z.at_atom(i)
                    want.append(AtomRecord(i, (x, y), m, phi_a, z_a,
                                           phi_a - c * cfg.alpha * z_a))
            report = ro.optimality_residual(u, psi, z, mu, c, cfg.alpha)
            assert report.records == tuple(want)
            assert len(want) == len(mu) - 1

    def test_off_node_atom_is_named(self, evaluated_instance):
        cfg, mu, tree, u, psi, z = evaluated_instance
        x, y = mu.positions()[1].tolist()
        moved = ro.DiscreteMeasure.from_arrays(
            np.vstack([mu.positions()[:1], [[x + 0.01, y]], mu.positions()[2:]]), mu.masses())
        with pytest.raises(ro.ValidationError, match="atom 1 is not on a grid node"):
            ro.optimality_residual(u, psi, z, moved, cfg.c, cfg.alpha)

    def test_zero_mass_atoms_skipped(self, evaluated_instance):
        cfg, mu, tree, u, psi, z = evaluated_instance
        free = next(
            cfg.grid.node_position(ix, iy)
            for ix in range(cfg.grid.nx) for iy in range(cfg.grid.ny)
            if all(cfg.grid.node_position(ix, iy) != a.position for a in mu.atoms))
        extra = ro.DiscreteMeasure(mu.atoms + (ro.Atom(free, 0.0),))
        report = ro.optimality_residual(u, psi, z, extra, cfg.c, cfg.alpha)
        assert len(report.records) == len(mu)


class TestPathInequality:
    def make_single_edge(self, grid):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.25),))
        tree = ro.star_tree(mu)
        u = constant_field(grid, 1.0)   # phi = u_max everywhere
        psi = constant_field(grid, 0.0)
        return mu, tree, u, psi

    def test_small_c_violates_everywhere(self, small_grid):
        mu, tree, u, psi = self.make_single_edge(small_grid)
        rep = ro.path_inequality_check(u, psi, tree, mu, c=1e-9, alpha=0.5)
        assert rep.n_samples > 0
        assert rep.n_violations == rep.n_samples
        assert rep.fraction_ok == 0.0
        assert not rep.ok

    def test_large_c_passes_everywhere(self, small_grid):
        # inside the rectangle Z >= 0.5 * m^(alpha-1), so a big enough c wins
        mu, tree, u, psi = self.make_single_edge(small_grid)
        rep = ro.path_inequality_check(u, psi, tree, mu, c=100.0, alpha=0.5)
        assert rep.ok and rep.fraction_ok == 1.0
        assert rep.max_excess < 0.0

    def test_spacing_controls_sample_count(self, small_grid):
        mu, tree, u, psi = self.make_single_edge(small_grid)
        coarse = ro.path_inequality_check(u, psi, tree, mu, 1.0, 0.5,
                                          spacing=small_grid.h)
        fine = ro.path_inequality_check(u, psi, tree, mu, 1.0, 0.5,
                                        spacing=small_grid.h / 4)
        assert fine.n_samples > 2 * coarse.n_samples

    def test_samples_outside_rectangle_skipped(self, small_grid):
        # the root half of the segment x < 0.5 never produces samples
        mu, tree, u, psi = self.make_single_edge(small_grid)
        rep = ro.path_inequality_check(u, psi, tree, mu, 1.0, 0.5,
                                       spacing=small_grid.h)
        assert rep.n_samples < 1.0 / small_grid.h

    def test_tol_validation(self, small_grid):
        mu, tree, u, psi = self.make_single_edge(small_grid)
        with pytest.raises(ro.ValidationError):
            ro.path_inequality_check(u, psi, tree, mu, 1.0, 0.5, tol=0.0)


class TestAscent:
    def test_rejects_massless_start(self):
        cfg = ro.RunConfig(grid=ro.Grid(ro.Domain(), 9, 9))
        with pytest.raises(ro.ValidationError):
            ro.ascend_measure(cfg, ro.DiscreteMeasure())

    def test_expensive_transport_empties_the_measure(self):
        """With c = 1 a light far atom earns less than its pipe costs, so the
        ascent should shrink it to nothing and report the empty optimum."""
        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=1.0, max_outer_iters=60)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(4, 4), 0.1),))
        trace = ro.ascend_measure(cfg, mu0)
        assert trace.converged
        assert len(trace.measure) == 0
        assert trace.final_payoff == 0.0
        assert trace.tree is None and trace.state is None

    def test_accepted_payoffs_never_decrease(self):
        grid = ro.Grid(ro.Domain(), 17, 17)
        cfg = ro.RunConfig(grid=grid, c=0.1, max_outer_iters=12)
        rng = np.random.default_rng(47)
        mu0 = random_grid_measure(rng, grid, 3, mass_range=(0.1, 0.3))
        trace = ro.ascend_measure(cfg, mu0)
        pays = trace.accepted_payoffs
        assert len(pays) >= 2
        assert all(b >= a for a, b in zip(pays, pays[1:]))
        assert trace.final_payoff >= pays[0]

    def test_huge_tolerance_stops_at_once(self):
        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=0.1, tol_residual=1e6)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(6, 4), 0.4),))
        trace = ro.ascend_measure(cfg, mu0)
        assert trace.converged
        assert len(trace.steps) == 2
        assert trace.measure.masses()[0] == 0.4

    def test_spawn_adds_atoms_and_pays(self):
        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=0.1, max_outer_iters=6, spawn=True,
                           spawn_mass=0.05)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(4, 4), 0.3),))
        trace = ro.ascend_measure(cfg, mu0)
        assert any(s.spawned for s in trace.steps)
        assert len(trace.measure) > 1
        assert trace.final_payoff > trace.steps[0].payoff

    def test_solver_error_is_recorded_in_the_trace(self, tmp_path, monkeypatch):
        """The first trial of iteration 1 fails its state solve: the step
        halves eta as before and the message lands in trace.jsonl."""
        from rootopt.serialization import load_trace, save_trace

        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=0.1, max_outer_iters=2)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(6, 4), 0.3),))
        calls = []
        real = optimality.solve_state

        def failing_once(*args, **kwargs):
            calls.append(kwargs.get("init"))
            if len(calls) == 2:
                raise ro.SolverError("injected state failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(optimality, "solve_state", failing_once)
        trace = ro.ascend_measure(cfg, mu0)
        assert calls[0] is None and calls[1] is not None  # cold start, then warm
        assert trace.steps[0].solver_errors == ()
        assert trace.steps[1].solver_errors == (
            f"mass step (eta {cfg.step_size!r}): injected state failure",)
        assert trace.steps[1].accepted and trace.steps[1].eta == 0.5 * cfg.step_size
        save_trace(tmp_path / "trace.jsonl", trace)
        records = load_trace(tmp_path / "trace.jsonl")
        assert records[1]["solver_errors"] == list(trace.steps[1].solver_errors)
        assert all(r["solver_errors"] == [] for r in records[2:])

    def test_failed_spawn_trial_is_recorded_and_the_run_goes_on(self, monkeypatch):
        """Mass steps never add atoms, so the first state solve on more atoms
        than the seed has is the first spawn trial: failing it records one
        "spawn: ..." error, keeps no atom, and later spawns still run."""
        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=0.1, max_outer_iters=4, spawn=True,
                           spawn_mass=0.05)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(4, 4), 0.3),))
        failed = []
        real = optimality.solve_state

        def failing_first_spawn(grid, mu, *args, **kwargs):
            if len(mu) > len(mu0) and not failed:
                failed.append(len(mu))
                raise ro.SolverError("injected spawn failure")
            return real(grid, mu, *args, **kwargs)

        monkeypatch.setattr(optimality, "solve_state", failing_first_spawn)
        trace = ro.ascend_measure(cfg, mu0)
        assert failed == [2]
        hit = [s for s in trace.steps if s.solver_errors]
        assert len(hit) == 1
        step = hit[0]
        assert step.solver_errors == ("spawn: injected spawn failure",)
        assert not step.spawned and len(step.measure) == len(mu0)
        assert step.iteration < len(trace.steps) - 1
        assert any(s.spawned for s in trace.steps[step.iteration + 1:])

    def test_adjoint_failure_rejects_a_candidate_that_paid(self, monkeypatch):
        """The eta 1.0 candidate of iteration 1 passes the payoff test, and
        only then fails its adjoint: the step records it and accepts the
        halved step instead."""
        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=0.1, max_outer_iters=2)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(6, 4), 0.3),))
        calls = []
        real = optimality.solve_adjoint

        def failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ro.SolverError("injected adjoint failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(optimality, "solve_adjoint", failing_second)
        trace = ro.ascend_measure(cfg, mu0)
        assert cfg.step_size == 1.0
        assert trace.steps[1].solver_errors == (
            "mass step (eta 1.0): injected adjoint failure",)
        assert trace.steps[1].accepted and trace.steps[1].eta == 0.5
        assert trace.steps[2].solver_errors == ()

    def test_a_step_that_leaves_the_measure_unchanged_stops_the_run(self):
        """With eta = 1e-300 every mass rounds back to itself: the step is
        accepted, changes nothing, and the loop stops unconverged."""
        grid = ro.Grid(ro.Domain(), 9, 9)
        cfg = ro.RunConfig(grid=grid, c=0.1, step_size=1e-300)
        mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(6, 4), 0.3),))
        trace = ro.ascend_measure(cfg, mu0)
        assert not trace.converged
        assert len(trace.steps) == 2
        last = trace.steps[-1]
        assert last.accepted and not last.spawned and last.eta == 1e-300
        assert last.measure == mu0


class TestReports:
    def test_one_report_per_iteration(self, small_grid, monkeypatch):
        """The 17x17 spawn ascent builds the first-order report once for
        iteration 0 and once per later iteration, for the bundle the
        iteration keeps, and every step's sup residual is its report's."""
        reports = []
        real = optimality.optimality_residual

        def recording(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(optimality, "optimality_residual", recording)
        trace = spawn_ascent(small_grid)
        assert len(trace.steps) == 21 and all(s.accepted for s in trace.steps)
        assert [r.iteration for r in reports] == list(range(21))
        assert [s.sup_residual for s in trace.steps] == [r.sup_residual for r in reports]
        assert trace.report is reports[-1]

    def test_sup_residual_needs_a_report(self, small_grid):
        """Only a bundle without positive mass reads 0.0 without a report."""
        assert optimality._Bundle(ro.DiscreteMeasure(), None, None, 0.0).sup_residual == 0.0
        mu = ro.DiscreteMeasure((ro.Atom(small_grid.node_position(8, 8), 0.3),))
        bundle = optimality._Bundle(mu, ro.star_tree(mu), constant_field(small_grid, 0.8), 0.0)
        with pytest.raises(RuntimeError, match="report was not built"):
            bundle.sup_residual


def loop_spawn_scores(config, bundle, trial_mass):
    """The per-edge scorer that the broadcast of `_spawn_scores` replaced:
    every node projected onto one plan edge at a time, folded in with
    np.minimum."""
    coords = config.grid.node_coordinates()
    tree, z = bundle.tree, bundle.z.values
    spur = trial_mass ** (config.alpha - 1.0)
    z_ext = np.full(len(coords), np.inf)
    for p, q in tree.edges():
        a = tree.positions[p]
        ab = tree.positions[q] - a
        t = np.clip(((coords - a) @ ab) / float(ab @ ab), 0.0, 1.0)
        gap = coords - (a + t[:, None] * ab)
        z_line = z[p] + t * (z[q] - z[p])
        np.minimum(z_ext, z_line + spur * np.sqrt((gap * gap).sum(axis=1)), out=z_ext)
    score = phi_field(bundle.u, bundle.psi).values - config.c * config.alpha * z_ext
    score[_node_indices(bundle.mu, config.grid)] = -np.inf
    return score


@pytest.fixture(scope="module")
def spawn_calls():
    """(config, bundle, trial mass, scores) of every spawn of the 17x17
    spawn ascent of `conftest.spawn_ascent`."""
    calls = []
    real = optimality._spawn_scores

    def recording(config, bundle, trial_mass):
        calls.append((config, bundle, trial_mass, real(config, bundle, trial_mass)))
        return calls[-1][3]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimality, "_spawn_scores", recording)
        spawn_ascent(ro.Grid(ro.Domain(), 17, 17))
    return calls


class TestSpawnScores:
    def test_broadcast_equals_the_per_edge_loop(self, spawn_calls):
        assert len(spawn_calls) == 20
        for config, bundle, trial_mass, score in spawn_calls:
            ref = loop_spawn_scores(config, bundle, trial_mass)
            assert np.array_equal(score, ref)
            assert np.argmax(score) == np.argmax(ref)

    @pytest.mark.parametrize("n", [33, 65])
    def test_edge_blocks_equal_the_per_edge_loop(self, n):
        """On larger grids the edges are scored in several blocks (15 edges
        at 33x33, 3 at 65x65); phi is constant here, Z_ext decides."""
        grid = ro.Grid(ro.Domain(), n, n)
        mu = random_grid_measure(np.random.default_rng(n), grid, 24)
        tree = ro.optimize_plan(mu, 0.75)
        assert tree.n_nodes - 1 > 2 * ((1 << 14) // grid.n_nodes)
        cfg = ro.RunConfig(grid=grid, alpha=0.75, c=0.1)
        bundle = optimality._Bundle(mu, tree, constant_field(grid, 0.8), 0.0,
                                    constant_field(grid, 0.1), ro.landscape(tree, mu, 0.75))
        score = optimality._spawn_scores(cfg, bundle, 0.05)
        assert np.array_equal(score, loop_spawn_scores(cfg, bundle, 0.05))

    def test_a_node_on_an_edge_scores_the_path_excess(self, spawn_calls):
        """At a free node x on the plan edge from p to q, Z_ext is the
        landscape Z(x) = Z(p) + flux_q^(alpha - 1) |x - p|, so the score is
        phi - c alpha Z(x)."""
        checked = 0
        for config, bundle, _, score in spawn_calls:
            coords, tree = config.grid.node_coordinates(), bundle.tree
            flux = ro.compute_fluxes(tree, bundle.mu).values
            phi = phi_field(bundle.u, bundle.psi).values
            for p, q in tree.edges():
                ab = tree.positions[q] - tree.positions[p]
                rel = coords - tree.positions[p]
                along = rel @ ab
                on = ((np.abs(ab[0] * rel[:, 1] - ab[1] * rel[:, 0]) <= 1e-14 * (ab @ ab))
                      & (along >= 0.0) & (along <= ab @ ab) & np.isfinite(score))
                for i in np.flatnonzero(on):
                    z = bundle.z.values[p] + flux[q] ** (config.alpha - 1.0) * np.hypot(*rel[i])
                    assert abs(score[i] - (phi[i] - config.c * config.alpha * z)) <= 1e-12
                    checked += 1
        assert checked > 50, checked


class TestSpawnTieBreak:
    def test_mirror_ties_go_to_the_lowest_node_index(self, spawn_calls, monkeypatch):
        """The first spawn of the 17x17 spawn ascent off the axis y = 0,
        with the scores of its best node and of the node's mirror image
        y -> -y both set to the top score: whichever of the two is then
        ahead by a few ulps, the spawn goes to the lower node index; a lead
        of 1e-9 decides."""
        for config, bundle, _, score in spawn_calls:
            grid = config.grid
            best = int(np.argmax(score))
            iy, ix = divmod(best, grid.nx)
            mirror = (grid.ny - 1 - iy) * grid.nx + ix
            if mirror != best:
                break
        else:
            pytest.fail("no spawn off the axis y = 0")
        low, high = sorted((best, mirror))
        top = score[best]

        def spawned_at(node, lead):
            perturbed = score.copy()
            perturbed[[low, high]] = top
            perturbed[node] += lead
            monkeypatch.setattr(optimality, "_spawn_scores", lambda *args: perturbed)
            trial = optimality._spawn_candidate(config, bundle)
            return grid.index_of(*trial.atoms[-1].position)

        for node in (low, high):
            for ulps in (0, 1, 4):
                assert spawned_at(node, ulps * np.spacing(top)) == low
        assert spawned_at(high, 1e-9) == high


class TestSupportDensity:
    def test_single_atom_occupies_one_cell(self, small_grid):
        mu = ro.DiscreteMeasure((ro.Atom(small_grid.node_position(8, 8), 0.5),))
        rep = ro.support_density_report(mu, small_grid)
        for scale, occupied, total, fraction in rep.rows:
            assert occupied == 1
            assert fraction == pytest.approx(1.0 / total)

    def test_full_grid_fills_every_cell(self, small_grid):
        coords = small_grid.node_coordinates()
        mu = ro.DiscreteMeasure(tuple(
            ro.Atom((float(x), float(y)), 0.1) for x, y in coords))
        rep = ro.support_density_report(mu, small_grid, scales=(small_grid.h,))
        scale, occupied, total, fraction = rep.rows[0]
        assert fraction == 1.0

    def test_zero_mass_atoms_ignored(self, small_grid):
        mu = ro.DiscreteMeasure((ro.Atom(small_grid.node_position(8, 8), 0.0),))
        rep = ro.support_density_report(mu, small_grid)
        assert all(row[1] == 0 for row in rep.rows)

    def test_as_dicts_round_trip(self, small_grid):
        mu = ro.DiscreteMeasure((ro.Atom(small_grid.node_position(2, 3), 0.5),))
        rep = ro.support_density_report(mu, small_grid)
        dicts = rep.as_dicts()
        assert [tuple(d.values()) for d in dicts] == list(rep.rows)
