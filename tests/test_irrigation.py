import itertools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootopt as ro
from rootopt import irrigation as irr

from conftest import random_measure, random_tree, spawn_ascent


def two_atom_measure():
    return ro.DiscreteMeasure((ro.Atom((1.0, 0.1), 0.5), ro.Atom((1.0, -0.1), 0.5)))


class TestTreeValidation:
    def test_root_must_sit_at_origin(self):
        with pytest.raises(ro.ValidationError, match="origin"):
            ro.IrrigationTree(np.array([[0.1, 0.0], [1.0, 0.0]]),
                              np.array([-1, 0]), np.array([-1, 0]))

    def test_steiner_needs_two_children(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(ro.ValidationError, match="fewer than two children"):
            ro.IrrigationTree(pos, np.array([-1, 0, 1]), np.array([-1, -1, 0]))

    def test_zero_length_edge_rejected(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ro.ValidationError, match="zero length"):
            ro.IrrigationTree(pos, np.array([-1, 0, 1]), np.array([-1, 0, 1]))

    def test_duplicate_terminal_for_atom(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]])
        with pytest.raises(ro.ValidationError, match="more than one terminal"):
            ro.IrrigationTree(pos, np.array([-1, 0, 0]), np.array([-1, 0, 0]))

    def test_root_carries_no_atom(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ro.ValidationError, match="no atom"):
            ro.IrrigationTree(pos, np.array([-1, 0]), np.array([0, 1]))

    def test_arrays_of_different_lengths(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]])
        with pytest.raises(ro.ValidationError, match="agree in length"):
            ro.IrrigationTree(pos, np.array([-1, 0]), np.array([-1, 0]))

    def test_non_finite_position(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 0.5]])
        with pytest.raises(ro.ValidationError, match="positions must be finite"):
            ro.IrrigationTree(pos, np.array([-1, 0, 0]), np.array([-1, 0, 1]))

    def test_root_with_a_parent(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ro.ValidationError, match="node 0 must be the root, with parent -1"):
            ro.IrrigationTree(pos, np.array([1, 0]), np.array([-1, 0]))

    def test_parent_out_of_range(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]])
        for bad in (3, -1):
            with pytest.raises(ro.ValidationError, match="needs a parent inside the tree"):
                ro.IrrigationTree(pos, np.array([-1, 0, bad]), np.array([-1, 0, 1]))

    def test_node_the_root_does_not_reach(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5]])
        with pytest.raises(ro.ValidationError, match="tree reaching every node"):
            ro.IrrigationTree(pos, np.array([-1, 0, 3, 2]), np.array([-1, 0, 1, 2]))

    def test_atom_index_below_minus_one(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]])
        with pytest.raises(ro.ValidationError, match="node 2 has atom index below -1"):
            ro.IrrigationTree(pos, np.array([-1, 0, 0]), np.array([-1, 0, -2]))

    def test_offending_nodes_are_named(self):
        """The checks that name a node or an atom name the first one."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 0.5], [0.5, 0.0]])
        cases = (([-1, 0, 0, 0, 0], [-1, 3, 1, 3, 1], "atom 1 has more than one terminal"),
                 ([-1, 0, 4, 0, 0], [-1, 0, 1, -1, -1], "steiner node 3 has fewer"),
                 ([-1, 2, 0, 2, 0], [-1, 0, -1, 1, 2], "edge into node 3 has zero length"))
        for parents, atoms, message in cases:
            with pytest.raises(ro.ValidationError, match=message):
                ro.IrrigationTree(pos, np.array(parents), np.array(atoms))

    def test_kinds_are_read_off_the_atoms(self):
        pos = np.array([[0.0, 0.0], [0.8, 0.0], [1.0, 0.2], [1.0, -0.2]])
        tree = ro.IrrigationTree(pos, np.array([-1, 0, 1, 1]), np.array([-1, -1, 3, 0]))
        assert tree.kinds == ("root", "steiner", "terminal", "terminal")

    def test_positions_read_only(self):
        tree = ro.star_tree(two_atom_measure())
        with pytest.raises(ValueError):
            tree.positions[0, 0] = 1.0


class TestFluxes:
    def test_star_fluxes_equal_masses(self):
        mu = two_atom_measure()
        flux = ro.compute_fluxes(ro.star_tree(mu), mu)
        assert flux.values.tolist() == [1.0, 0.5, 0.5]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_conservation_at_every_node(self, seed, n):
        """Flux into a node equals its own terminal mass plus child inflows."""
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n)
        tree = random_tree(rng, mu)
        flux = ro.compute_fluxes(tree, mu).values
        masses = mu.masses()
        children = tree.children()
        for i in range(tree.n_nodes):
            own = masses[tree.atom_index[i]] if tree.atom_index[i] >= 0 else 0.0
            inflow = own + sum(flux[c] for c in children[i])
            assert flux[i] == pytest.approx(inflow, abs=1e-12)

    def test_positive_mass_atom_missing_terminal(self):
        mu = two_atom_measure()
        star = ro.star_tree(ro.DiscreteMeasure((mu.atoms[0],)))
        with pytest.raises(ro.ValidationError, match="no terminal"):
            ro.compute_fluxes(star, mu)


class TestFluxMemo:
    """compute_fluxes memoizes the fluxes on the tree, keyed by the measure
    object."""

    @pytest.fixture()
    def accumulated(self, monkeypatch):
        """The (tree, measure) of every uncached flux accumulation."""
        calls = []
        real = irr._tree_fluxes

        def counting(tree, mu):
            calls.append((tree, mu))
            return real(tree, mu)

        monkeypatch.setattr(irr, "_tree_fluxes", counting)
        return calls

    def test_spawn_ascent_accumulates_once_per_plan(self, accumulated, monkeypatch):
        """On the 17x17 20-iteration spawn ascent the cost, the landscape and
        the report of a plan share one accumulation."""
        asked = []
        real = irr.compute_fluxes

        def asking(tree, mu):
            asked.append((tree, mu))
            return real(tree, mu)

        monkeypatch.setattr(irr, "compute_fluxes", asking)
        spawn_ascent(ro.Grid(ro.Domain(), 17, 17))
        distinct = {(id(t), id(mu)) for t, mu in asked}  # `asked` keeps them alive
        assert len(accumulated) == len(distinct) > 30
        assert len(asked) > 2 * len(accumulated)

    def test_memoized_fluxes_are_read_only_and_shared(self, accumulated):
        mu = two_atom_measure()
        tree = ro.star_tree(mu)
        flux = ro.compute_fluxes(tree, mu).values
        with pytest.raises(ValueError):
            flux[0] = 0.0
        assert ro.compute_fluxes(tree, mu).values is flux
        expected = 2 * 0.5 ** 0.5 * math.hypot(1.0, 0.1)
        assert ro.irrigation_cost(tree, mu, 0.5) == pytest.approx(expected, rel=1e-15)
        assert len(accumulated) == 1

    def test_another_measure_recomputes(self, accumulated):
        """The key is the measure object: an equal copy and a reweighting
        are accumulated afresh, and the answer follows the measure asked."""
        mu = two_atom_measure()
        tree = ro.star_tree(mu)
        heavy = mu.with_masses([2.0, 0.5])
        assert ro.compute_fluxes(tree, mu).values.tolist() == [1.0, 0.5, 0.5]
        assert ro.compute_fluxes(tree, heavy).values.tolist() == [2.5, 2.0, 0.5]
        assert ro.compute_fluxes(tree, mu.with_masses(mu.masses())).values.tolist() == [
            1.0, 0.5, 0.5]
        assert ro.compute_fluxes(tree, heavy).values.tolist() == [2.5, 2.0, 0.5]
        assert len(accumulated) == 4

    def test_unfit_measure_raises_every_time(self, accumulated):
        mu = two_atom_measure()
        star = ro.star_tree(ro.DiscreteMeasure((mu.atoms[0],)))
        for _ in range(2):
            with pytest.raises(ro.ValidationError, match="no terminal"):
                ro.compute_fluxes(star, mu)
        assert len(accumulated) == 2 and star._flux_memo is None

    def test_pickled_tree_carries_no_memo(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, 6)
        tree = ro.optimize_plan(mu, 0.6)
        ro.landscape(tree, mu, 0.6)
        back = pickle.loads(pickle.dumps(tree))
        for name in ("positions", "parents", "atom_index"):
            assert np.array_equal(getattr(back, name), getattr(tree, name))
        assert repr(back) == repr(tree)
        assert tree._flux_memo is not None and back._flux_memo is None
        assert back.depth_order() == tree.depth_order() and back.kinds == tree.kinds
        assert ro.compute_fluxes(back, mu).values.tolist() == ro.compute_fluxes(
            tree, mu).values.tolist()


class TestCostAndLandscape:
    def test_star_cost_closed_form(self):
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 6)
        pos, m = mu.positions(), mu.masses()
        expected = float(np.sum(m ** 0.6 * np.hypot(pos[:, 0], pos[:, 1])))
        assert ro.irrigation_cost(ro.star_tree(mu), mu, 0.6) == pytest.approx(
            expected, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8),
           st.floats(0.2, 0.95))
    def test_landscape_identity(self, seed, n, alpha):
        """sum(mass * Z) reproduces the plan cost on any tree, optimal or not."""
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n)
        tree = random_tree(rng, mu)
        z = ro.landscape(tree, mu, alpha)
        cost = ro.irrigation_cost(tree, mu, alpha)
        paid = float(np.dot(mu.masses(), z.at_atoms(range(len(mu)))))
        assert paid == pytest.approx(cost, rel=1e-12, abs=1e-12)

    def test_landscape_rejects_zero_flux_edge(self):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5), ro.Atom((1.0, 0.5), 0.0)))
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]])
        tree = ro.IrrigationTree(pos, np.array([-1, 0, 0]), np.array([-1, 0, 1]))
        with pytest.raises(ro.ValidationError, match="zero-flux"):
            ro.landscape(tree, mu, 0.5)

    def test_marginal_cost_matches_mass_perturbation(self):
        # d/deps cost((1 + eps * 1_a) mu) at 0 should equal alpha * m_a * Z_a
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 5)
        alpha = 0.7
        tree = ro.optimize_plan(mu, alpha)
        z = ro.landscape(tree, mu, alpha)
        for a in range(len(mu)):
            g = np.zeros(len(mu))
            g[a] = 1.0
            eps = 1e-6
            fd = (ro.irrigation_cost(tree, mu.with_masses(mu.masses() * (1 + eps * g)), alpha)
                  - ro.irrigation_cost(tree, mu.with_masses(mu.masses() * (1 - eps * g)), alpha)
                  ) / (2 * eps)
            assert fd == pytest.approx(alpha * mu.masses()[a] * z.at_atom(a), rel=1e-5)

    def test_scaled_mass_cost_at_zero_eps(self):
        """Rerouting (1 + eps g) mu along the same tree costs what mu costs at
        eps = 0, and a factor below zero is no measure."""
        mu = two_atom_measure()
        tree = ro.star_tree(mu)
        g = np.array([1.0, -1.0])
        scaled = mu.with_masses(mu.masses() * (1.0 + 0.0 * g))
        assert ro.irrigation_cost(tree, scaled, 0.5) == ro.irrigation_cost(tree, mu, 0.5)
        with pytest.raises(ro.ValidationError):
            mu.with_masses(mu.masses() * (1.0 + 2.0 * g))


class TestAtomTerminals:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_inverse_of_atom_index(self, seed, n):
        """atom_terminals against a loop over the nodes, with atom counts
        above and below the tree's, and at_atoms against the values at the
        terminals it names, in any atom order."""
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n)
        tree = random_tree(rng, mu)
        want = [-1] * (n + 2)
        for node, a in enumerate(tree.atom_index.tolist()):
            if a >= 0:
                want[a] = node
        assert tree.atom_terminals(n + 2).tolist() == want
        assert tree.atom_terminals(n - 1).tolist() == want[:n - 1]
        z = ro.landscape(tree, mu, 0.6)
        order = rng.permutation(n).tolist()
        assert z.at_atoms(order).tolist() == [z.values[want[a]] for a in order]
        assert [z.at_atom(a) for a in order] == z.at_atoms(order).tolist()

    @pytest.mark.parametrize("atoms, bad", [([0, 2], 2), ([1, -1], -1), ([7, 5], 7),
                                            ([10 ** 12], 10 ** 12)])
    def test_missing_atom_is_named(self, atoms, bad):
        mu = two_atom_measure()
        z = ro.landscape(ro.star_tree(mu), mu, 0.5)
        with pytest.raises(ro.ValidationError,
                           match=f"^atom {bad} has no terminal in this tree$"):
            z.at_atoms(atoms)
        with pytest.raises(ro.ValidationError, match=f"^atom {bad} has no terminal"):
            z.at_atom(bad)

    def test_no_atoms(self):
        mu = two_atom_measure()
        z = ro.landscape(ro.star_tree(mu), mu, 0.5)
        assert z.at_atoms([]).shape == (0,)
        assert ro.star_tree(mu).atom_terminals(0).shape == (0,)

    def test_one_inverse_per_call(self, monkeypatch):
        """at_atoms on 2,000 atoms builds the atom -> terminal inverse once,
        not once per atom."""
        coords = ro.Grid(ro.Domain(), 65, 65).node_coordinates()[:2000]
        mu = ro.DiscreteMeasure.from_arrays(coords, np.full(2000, 1.0 / 2000))
        z = ro.landscape(ro.star_tree(mu), mu, 0.75)
        calls = []
        inverse = ro.IrrigationTree.atom_terminals

        def counting(tree, n_atoms):
            calls.append(n_atoms)
            return inverse(tree, n_atoms)

        monkeypatch.setattr(ro.IrrigationTree, "atom_terminals", counting)
        assert z.at_atoms(range(2000)).tolist() == z.values[1:].tolist()
        assert calls == [2000]


class TestLowerBound:
    def test_empty_measure(self):
        assert ro.cost_lower_bound(ro.DiscreteMeasure(), 0.5) == 0.0

    def test_single_atom_is_tight(self):
        mu = ro.DiscreteMeasure((ro.Atom((0.6, 0.8), 0.7),))
        assert ro.cost_lower_bound(mu, 0.4) == pytest.approx(0.7 ** 0.4 * 1.0, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.floats(0.2, 0.95))
    def test_bound_below_star_cost(self, seed, n, alpha):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng, n)
        star = ro.star_tree(mu)
        assert ro.cost_lower_bound(mu, alpha) <= ro.irrigation_cost(
            star, mu, alpha) + 1e-12

    def test_collinear_atoms_are_tight(self):
        # stacked on one ray the bound equals the chain cost
        mu = ro.DiscreteMeasure((ro.Atom((0.5, 0.0), 0.4), ro.Atom((1.0, 0.0), 0.6)))
        alpha = 0.5
        chain = 0.5 * 1.0 ** alpha + 0.5 * 0.6 ** alpha
        assert ro.cost_lower_bound(mu, alpha) == pytest.approx(chain, rel=1e-14)


class TestOptimalityDiagnostics:
    def test_holder_flags_detour(self):
        mu = ro.DiscreteMeasure((ro.Atom((2.0, 0.0), 0.5), ro.Atom((0.1, 0.0), 0.5)))
        pos = np.array([[0.0, 0.0], [2.0, 0.0], [0.1, 0.0]])
        detour = ro.IrrigationTree(pos, np.array([-1, 0, 1]), np.array([-1, 0, 1]))
        report = ro.check_landscape_holder(detour, mu, 0.5)
        assert not report.ok
        assert report.pairs_checked == 6

    def test_holder_ok_on_star(self):
        mu = two_atom_measure()
        assert ro.check_landscape_holder(ro.star_tree(mu), mu, 0.5).ok

    def test_arc_chord_flags_zigzag(self):
        mu = ro.DiscreteMeasure((ro.Atom((0.5, 0.45), 0.5), ro.Atom((1.0, 0.0), 0.5)))
        pos = np.array([[0.0, 0.0], [0.5, 0.45], [1.0, 0.0]])
        zigzag = ro.IrrigationTree(pos, np.array([-1, 0, 1]), np.array([-1, 0, 1]))
        report = ro.check_arc_chord(zigzag, mu, 0.95, delta0=0.4)
        assert not report.ok
        assert report.violations[0][2] > report.constant * report.violations[0][3]

    def test_arc_chord_ok_on_straight_chain(self):
        mu = ro.DiscreteMeasure((ro.Atom((0.5, 0.0), 0.5), ro.Atom((1.0, 0.0), 0.5)))
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        chain = ro.IrrigationTree(pos, np.array([-1, 0, 1]), np.array([-1, 0, 1]))
        assert ro.check_arc_chord(chain, mu, 0.6, delta0=0.25).ok

    def test_delta0_must_be_positive(self):
        mu = two_atom_measure()
        with pytest.raises(ro.ValidationError):
            ro.check_arc_chord(ro.star_tree(mu), mu, 0.5, delta0=0.0)


class TestPlanners:
    def test_y_fixture_exact_cost(self):
        """Symmetric pair at (1, +-0.1), alpha = 1/2: the best plan runs a
        unit-flux trunk to (0.9, 0) and splits, total cost
        0.9 + 2 * sqrt(0.5) * sqrt(0.02) = 1.1 on the nose."""
        mu = two_atom_measure()
        tree = ro.optimize_plan(mu, 0.5)
        assert ro.irrigation_cost(tree, mu, 0.5) == pytest.approx(1.1, abs=1e-6)
        exact = ro.brute_force_plan(mu, 0.5)
        assert ro.irrigation_cost(exact, mu, 0.5) == pytest.approx(1.1, abs=1e-9)

    def test_alpha_one_gives_star(self):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 5)
        tree = ro.optimize_plan(mu, 1.0)
        pos, m = mu.positions(), mu.masses()
        expected = float(np.sum(m * np.hypot(pos[:, 0], pos[:, 1])))
        assert ro.irrigation_cost(tree, mu, 1.0) == pytest.approx(expected, rel=1e-12)
        assert all(k != "steiner" for k in tree.kinds)

    def test_optimizer_never_worse_than_star(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mu = random_measure(rng, 6)
            alpha = float(rng.uniform(0.3, 0.95))
            cost = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
            star = ro.irrigation_cost(ro.star_tree(mu), mu, alpha)
            assert cost <= star + 1e-9 * max(1.0, star)

    def test_optimizer_respects_lower_bound(self, oracle_instances):
        for mu, alpha, _ in oracle_instances[:25]:
            tree = ro.optimize_plan(mu, alpha)
            assert ro.irrigation_cost(tree, mu, alpha) >= ro.cost_lower_bound(
                mu, alpha) - 1e-12

    def test_zero_mass_atoms_dropped(self):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5), ro.Atom((1.2, 0.3), 0.0)))
        tree = ro.optimize_plan(mu, 0.5)
        assert tree.atom_terminals(len(mu)).tolist() == [1, -1]

    def test_all_zero_mass_rejected(self):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.0),))
        with pytest.raises(ro.ValidationError):
            ro.optimize_plan(mu, 0.5)

    def test_incremental_gains_match_full_recompute(self):
        """Replays the search one move at a time: the plan after k moves is
        optimize_plan with budget k, and the gain of the move it applies
        next matches a full recompute of the cost before and after it."""
        rng = np.random.default_rng(99)
        for _ in range(6):
            mu = random_measure(rng, 7)
            alpha = float(rng.uniform(0.3, 0.9))
            for budget in itertools.count():
                tree = ro.optimize_plan(mu, alpha, budget=budget)
                flux = ro.compute_fluxes(tree, mu).values
                best = irr._scan_moves(tree.positions, tree.parents, flux, alpha)
                if best is None:
                    break
                gain, move = best
                before, after = irr._move_costs(move, tree.positions, tree.parents,
                                                irr._node_masses(tree, mu), alpha)
                assert abs(before - after - gain) <= 1e-9 * max(1.0, before), (budget, move[:3])
            assert budget > 0

    def test_mass_bound_holds_on_optimized_plans(self):
        rng = np.random.default_rng(41)
        domain = ro.Domain()
        for _ in range(10):
            mu = random_measure(rng, 5)
            alpha = float(rng.uniform(0.3, 0.95))
            cost = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
            assert ro.mass_bound_check(mu, cost, domain, alpha)



def check_terminals(tree, mu):
    """Every positive-mass atom of mu has exactly one terminal, sitting on
    it, and every terminal carries a positive-mass atom."""
    carried = [int(a) for a in tree.atom_index if a >= 0]
    assert len(carried) == len(set(carried))
    assert sorted(carried) == [i for i, a in enumerate(mu.atoms) if a.mass > 0.0]
    for node, a in enumerate(tree.atom_index):
        assert (tree.kinds[node] == "terminal") == (a >= 0)
        if a >= 0:
            assert tuple(tree.positions[node]) == mu.atoms[a].position


class TestWarmPlanner:
    """optimize_plan(nu, alpha, init=tree) for reweighted measures nu."""

    def test_reweighting_bound_and_terminals(self):
        """Each case reweights the atoms of mu by (1 + g), g in [-1, 1] with
        about one atom in four pruned (g = -1); every third case drops the
        pruned atoms from the measure, renumbering the rest, and every
        other one adds two atoms, one of them on the position of a pruned
        atom.  An atom on an old terminal's position counts as a
        reweighting of that atom, so the warm plan costs at most

            cost(tree, mu) + alpha * sum((m'_a - m_a) Z_a) + sum over the
            other new atoms of m^alpha |x|,

        the reweighting bound of criterion 8 plus the star edges of the
        atoms that hang off the root.  The carried-over plan meets it
        before any move (budget 0)."""
        rng = np.random.default_rng(6060)
        for k in range(30):
            n = int(rng.integers(3, 13))
            mu = random_measure(rng, n, mass_range=(0.05, 1.0))
            alpha = float(rng.uniform(0.3, 0.9))
            tree = ro.optimize_plan(mu, alpha)
            z = ro.landscape(tree, mu, alpha).at_atoms(range(n))
            g = rng.uniform(-1.0, 1.0, n)
            g[rng.uniform(size=n) < 0.25] = -1.0
            if k % 3 == 0:
                g[0] = -1.0
            nu = mu.with_masses(mu.masses() * (1.0 + g))
            if k % 3 == 0:
                nu, _ = nu.without_zero_mass()
            fresh = []
            if k % 2 == 0 and k % 3 == 0:
                extra = random_measure(rng, 1, mass_range=(0.05, 1.0)).atoms[0]
                reborn = ro.Atom(mu.atoms[0].position, float(rng.uniform(0.05, 1.0)))
                nu = ro.DiscreteMeasure(nu.atoms + (extra, reborn))
                fresh = [extra]
            new_mass = {a.position: a.mass for a in nu.atoms}
            dm = np.array([new_mass.get(a.position, 0.0) for a in mu.atoms]) - mu.masses()
            bound = (ro.irrigation_cost(tree, mu, alpha) + alpha * float(np.sum(dm * z))
                     + sum(a.mass ** alpha * math.hypot(*a.position) for a in fresh) + 1e-8)
            if not any(a.mass > 0.0 for a in nu.atoms):
                continue
            for budget in (0, None):  # the carried-over plan alone, then the search
                warm = ro.optimize_plan(nu, alpha, budget=budget, init=tree)
                assert ro.irrigation_cost(warm, nu, alpha) <= bound, (k, budget)
                check_terminals(warm, nu)

    def test_two_terminals_on_one_position(self):
        """A plan with a second terminal on an atom's position: the atom
        takes the first in node order, and the other one, left without an
        atom, is contracted away."""
        rng = np.random.default_rng(17)
        mu = random_measure(rng, 5)
        tree = ro.optimize_plan(mu, 0.6)
        twin = ro.IrrigationTree(
            np.vstack([tree.positions, tree.positions[tree.atom_terminals(len(mu))[2]]]),
            np.append(tree.parents, 0), np.append(tree.atom_index, 5))
        nu = mu.with_masses(mu.masses() * 1.3)
        warm = ro.optimize_plan(nu, 0.6, init=twin)
        check_terminals(warm, nu)
        assert ro.irrigation_cost(warm, nu, 0.6) <= ro.irrigation_cost(tree, nu, 0.6) + 1e-12

    def test_same_masses_keep_an_optimized_plan(self):
        """Started from its own converged plan, the search finds no move."""
        rng = np.random.default_rng(29)
        for _ in range(5):
            mu = random_measure(rng, 8)
            tree = ro.optimize_plan(mu, 0.7)
            warm = ro.optimize_plan(mu, 0.7, init=tree)
            assert ro.irrigation_cost(warm, mu, 0.7) <= ro.irrigation_cost(tree, mu, 0.7) * (
                1.0 + 1e-12)
            check_terminals(warm, mu)


class TestStationaryWarmStart:
    def test_an_atom_under_the_root_keeps_a_stationary_plan(self, monkeypatch):
        """A new atom hung off the root changes no carried flux, so a carried
        plan that is `_stationary` for its fluxes is kept bit for bit with
        no `_optimize_positions` call; one that is not is refit, and so is
        every plan whose masses change unevenly."""
        calls = []
        real = irr._optimize_positions

        def counting(*args):
            calls.append(args)
            return real(*args)

        rng = np.random.default_rng(41)
        stationary = 0
        for _ in range(12):
            n, alpha = int(rng.integers(3, 12)), float(rng.uniform(0.3, 0.9))
            mu = random_measure(rng, n)
            tree = ro.optimize_plan(mu, alpha)
            flux = irr._fluxes(tree.parents, tree.atom_index, mu.masses())
            still = irr._stationary(tree.positions, tree.parents, tree.atom_index, flux ** alpha)
            stationary += still
            nu = ro.DiscreteMeasure(mu.atoms + (ro.Atom((0.2, 0.8), 0.1),))
            reweighted = mu.with_masses(mu.masses() * rng.uniform(0.5, 1.5, n))
            with monkeypatch.context() as mp:
                mp.setattr(irr, "_optimize_positions", counting)
                calls.clear()
                warm = ro.optimize_plan(nu, alpha, budget=0, init=tree)
                assert len(calls) == (0 if still else 1)
                calls.clear()
                ro.optimize_plan(reweighted, alpha, budget=0, init=tree)
                assert len(calls) == 1
            if still:
                m = tree.n_nodes
                assert np.array_equal(warm.positions[:m], tree.positions)
                assert np.array_equal(warm.parents[:m], tree.parents)
                assert (warm.parents[m:].tolist(), warm.atom_index[m:].tolist()) == ([0], [n])
                # a branch point 1e-9 off its optimum is refit
                off = tree.positions.copy()
                off[np.flatnonzero(tree.atom_index < 0)[1]] += 1e-9
                assert not irr._stationary(off, tree.parents, tree.atom_index, flux ** alpha)
        assert stationary >= 9


class TestWarmStartSkipsTheStar:
    """optimize_plan builds the star only without `init` or at alpha = 1."""

    @staticmethod
    def forbid_star(monkeypatch):
        def star_tree(mu):
            raise AssertionError("a warm start built the star")

        monkeypatch.setattr(irr, "star_tree", star_tree)

    @staticmethod
    def assert_same_plan(a, b):
        for name in ("positions", "parents", "atom_index"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_star_init_gives_the_cold_plan(self):
        """Started from its own star, the search is the cold search, zero
        mass atoms included."""
        rng = np.random.default_rng(31)
        for k in range(8):
            mu = random_measure(rng, int(rng.integers(2, 10)))
            if k % 2:
                m = mu.masses().copy()
                m[::3] = 0.0
                mu = mu.with_masses(m)
            alpha = float(rng.uniform(0.3, 0.9))
            self.assert_same_plan(ro.optimize_plan(mu, alpha, init=ro.star_tree(mu)),
                                  ro.optimize_plan(mu, alpha))

    def test_warm_start_never_builds_the_star(self, monkeypatch):
        """A reweighting that zeroes two atoms: they get no terminal."""
        rng = np.random.default_rng(37)
        mu = random_measure(rng, 7)
        tree = ro.optimize_plan(mu, 0.6)
        m = mu.masses() * rng.uniform(0.5, 1.5, 7)
        m[[1, 4]] = 0.0
        nu = mu.with_masses(m)
        self.forbid_star(monkeypatch)
        warm = ro.optimize_plan(nu, 0.6, init=tree)
        check_terminals(warm, nu)
        assert warm.atom_terminals(len(nu))[[1, 4]].tolist() == [-1, -1]

    def test_warm_errors_and_alpha_one(self, monkeypatch):
        mu = two_atom_measure()
        tree = ro.optimize_plan(mu, 0.5)
        one = mu.with_masses([0.0, 0.5])
        self.assert_same_plan(ro.optimize_plan(one, 1.0, init=tree), ro.star_tree(one))
        self.forbid_star(monkeypatch)
        with pytest.raises(ro.ValidationError, match="no positive mass"):
            ro.optimize_plan(mu.with_masses([0.0, 0.0]), 0.5, init=tree)
        with pytest.raises(ro.ValidationError, match="alpha"):
            ro.optimize_plan(mu, 1.5, init=tree)


def path_to_root(tree, node):
    """Nodes from `node` up to and including the root."""
    path = [node]
    while path[-1] > 0:
        path.append(int(tree.parents[path[-1]]))
    return path


def node_plan_cost(pos, parents, nm, alpha):
    """Cost of the plan from a full recompute; nm is the mass per node, so
    node i carries "atom" i."""
    return irr._plan_cost(pos, parents, irr._fluxes(parents, np.arange(len(parents)), nm), alpha)


class TestMoveScan:
    @staticmethod
    def search_states(rng):
        """(mu, alpha, tree) before, during and after the search on random
        7-12-atom measures."""
        for _ in range(4):
            mu = random_measure(rng, int(rng.integers(7, 13)))
            alpha = float(rng.uniform(0.3, 0.9))
            for budget in (0, 2, 6, None):
                yield mu, alpha, ro.optimize_plan(mu, alpha, budget=budget)

    def test_every_candidate_gain_matches_full_recompute(self):
        """Also on a one-edge plan, which has no candidate."""
        rng = np.random.default_rng(314)
        one = ro.DiscreteMeasure((ro.Atom((1.0, 0.5), 0.3),))
        for mu, alpha, tree in [*self.search_states(rng), (one, 0.6, ro.star_tree(one))]:
            pos, parents, n = tree.positions, tree.parents, tree.n_nodes
            flux = ro.compute_fluxes(tree, mu).values
            nm = irr._node_masses(tree, mu)
            cost = ro.irrigation_cost(tree, mu, alpha)
            gains, move_at = irr._candidate_moves(pos, parents, flux, alpha)
            assert np.all(np.isfinite(gains))

            # the candidates the search may apply, in tie-break order
            below = [{v for v in range(n) if u in path_to_root(tree, v)} for u in range(n)]
            expected = [(u, q, int(parents[q])) for u in range(1, n) for q in range(1, n)
                        if q not in below[u]]
            moves = [move_at(k) for k in range(len(gains))]
            assert [m[:3] for m in moves] == expected

            for gain, move in zip(gains, moves):
                before, after = irr._move_costs(move, pos, parents, nm, alpha)
                assert abs(before - after - gain) <= 1e-9 * max(1.0, cost), move[:3]

            best = irr._scan_moves(pos, parents, flux, alpha)
            if max(gains, default=-np.inf) > 1e-12 * max(1.0, cost):
                top = int(np.argmax(gains))
                assert best == (gains[top], moves[top])
            else:
                assert best is None
        assert n == 2 and not moves

    def test_attaches_cover_merges_and_reparents(self):
        """Merging two siblings under a new branch point at their exact
        Y-junction, and hanging a subtree off another node, each priced by a
        full recompute, gain no more than the best attach, less 1e-12 *
        max(1, cost): the scan loses nothing by pricing attaches alone."""
        rng = np.random.default_rng(314)
        checked = 0
        for mu, alpha, tree in self.search_states(rng):
            pos, parents, n = tree.positions, tree.parents, tree.n_nodes
            flux = ro.compute_fluxes(tree, mu).values
            nm = irr._node_masses(tree, mu)
            cost = node_plan_cost(pos, parents, nm, alpha)
            gains, _ = irr._candidate_moves(pos, parents, flux, alpha)
            floor = max(gains, default=-np.inf) + 1e-12 * max(1.0, cost)
            for p, kids in enumerate(tree.children()):
                for a, b in itertools.combinations(kids, 2):
                    s = irr._y_junction([tuple(pos[p]), tuple(pos[a]), tuple(pos[b])],
                                        [(flux[a] + flux[b]) ** alpha, flux[a] ** alpha,
                                         flux[b] ** alpha])
                    merged = np.append(parents, p)
                    merged[[a, b]] = n
                    after = node_plan_cost(np.vstack([pos, s]), merged, np.append(nm, 0.0), alpha)
                    assert cost - after <= floor, ("merge", p, a, b)
                    checked += 1
            for u in range(1, n):
                below = {v for v in range(n) if u in path_to_root(tree, v)}
                for v in set(range(n)) - below - {int(parents[u])}:
                    moved = parents.copy()
                    moved[u] = v
                    assert cost - node_plan_cost(pos, moved, nm, alpha) <= floor, ("reparent", u, v)
                    checked += 1
        assert checked > 2000


def y_cost(s, pts, w):
    return sum(wi * math.hypot(s[0] - x, s[1] - y) for (x, y), wi in zip(pts, w))


def bits(points):
    """The IEEE bit patterns of a sequence of (x, y) points, as a list."""
    return np.asarray(points, dtype=float).view(np.int64).tolist()


class TestFermatPoint:
    def test_random_anchor_sets_are_stationary(self):
        """From random starts, the Fermat point of random 3- to 6-anchor sets
        that no anchor wins balances the pulls of its anchors: |sum w_i u_i|
        <= 1e-11 sum w.  Summed costs cannot resolve the last decreases
        before the optimum, so the search must compare per-anchor length
        changes to get there."""
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 2000:
            k = int(rng.integers(3, 7))
            pts = [tuple(p) for p in rng.uniform(-1.0, 1.0, (k, 2)).tolist()]
            w = rng.uniform(0.05, 1.0, k).tolist()
            if irr._degenerate_anchor(pts, w) is not None:
                continue
            s = irr._fermat_point(pts, w, tuple(rng.uniform(-1.0, 1.0, 2).tolist()))
            dist = [math.hypot(s[0] - x, s[1] - y) for x, y in pts]
            pull = [sum(wi * (s[c] - p[c]) / di for p, wi, di in zip(pts, w, dist)) for c in (0, 1)]
            assert math.hypot(*pull) <= 1e-11 * sum(w), (pts, w)
            checked += 1


class TestYJunction:
    @staticmethod
    def assert_no_worse_than_fermat_point(pts, w):
        """Every closed-form point costs at most the Newton-solved exact
        Fermat point's cost times (1 + 1e-12), and the scalar twin
        `_y_junction` returns its bits; returns the points."""
        pts, w = np.asarray(pts, dtype=float), np.asarray(w, dtype=float)
        got = np.stack(irr._y_junctions(pts[..., 0], pts[..., 1], w), 1)
        for p, wt, s in zip(pts.tolist(), w.tolist(), got):
            anchors = [tuple(a) for a in p]
            ref = irr._fermat_point(anchors, wt, anchors[0])
            assert y_cost(s, anchors, wt) <= y_cost(ref, anchors, wt) * (1.0 + 1e-12), (p, wt)
            assert bits(irr._y_junction(anchors, wt)) == bits(s), (p, wt)
        return got

    @staticmethod
    def tree_weights(rng, m, alpha):
        """Weights of a merge: the trunk carries both branch fluxes."""
        f = rng.uniform(0.01, 1.0, (m, 2))
        return np.stack([f.sum(1) ** alpha, f[:, 0] ** alpha, f[:, 1] ** alpha], 1)

    def test_equilateral_fermat_point_is_the_centroid(self):
        pts = [[(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]]
        s = self.assert_no_worse_than_fermat_point(pts, [(1.0, 1.0, 1.0)])
        np.testing.assert_allclose(s[0], (0.5, math.sqrt(3.0) / 6.0), atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.99])
    def test_random_triples_with_alpha_weights(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        self.assert_no_worse_than_fermat_point(rng.uniform(-1.0, 1.0, (400, 3, 2)),
                                               self.tree_weights(rng, 400, alpha))

    def test_random_triples_with_free_weights_and_scales(self):
        rng = np.random.default_rng(8)
        scale = 10.0 ** rng.uniform(-6.0, 6.0, (400, 1, 1))
        self.assert_no_worse_than_fermat_point(
            rng.uniform(-1.0, 1.0, (400, 3, 2)) * scale,
            rng.uniform(0.05, 1.0, (400, 3)) * scale[:, :, 0])

    def test_winning_anchor_is_returned_exactly(self):
        pts = [[(0.3, 0.1), (1.0, 0.0), (0.0, 1.0)]] * 3
        w = [(2.0, 1.0, 1.0), (1.0, 2.5, 1.0), (1.0, 1.0, 3.0)]
        s = self.assert_no_worse_than_fermat_point(pts, w)
        assert [tuple(x) for x in s] == [pts[0][0], pts[0][1], pts[0][2]]

    def test_anchor_within_the_degenerate_tolerance_wins(self):
        """An anchor whose weight falls short of the pull of the other two
        by less than the 1e-12 tolerance of `_degenerate_anchor` is the
        answer, exactly as `_fermat_point` decides."""
        rng = np.random.default_rng(15)
        pts = rng.uniform(-1.0, 1.0, (60, 3, 2))
        w = rng.uniform(0.1, 1.0, (60, 3))
        for m in range(60):
            diff = pts[m, 0] - pts[m, 1:]
            pull = np.hypot(*((w[m, 1:] / np.hypot(*diff.T))[:, None] * diff).sum(0))
            w[m, 0] = pull / (1.0 + 10.0 ** rng.uniform(-14.0, -12.5))
        s = self.assert_no_worse_than_fermat_point(pts, w)
        for p, wt, sm in zip(pts.tolist(), w.tolist(), s):
            anchors = [tuple(a) for a in p]
            assert irr._degenerate_anchor(anchors, wt) == 0
            assert tuple(sm) == anchors[0] == irr._fermat_point(anchors, wt, anchors[1])

    def test_collinear_anchors_give_the_weighted_median(self):
        pts = [[(0.0, 0.0), (1.0, 0.5), (3.0, 1.5)]] * 3
        w = [(1.2, 0.5, 0.6), (0.4, 1.0, 0.5), (0.3, 0.5, 0.9)]
        s = self.assert_no_worse_than_fermat_point(pts, w)
        assert [tuple(x) for x in s] == [(0.0, 0.0), (1.0, 0.5), (3.0, 1.5)]

    def test_nearly_collinear_anchors(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.0, 1.0, (300, 3, 2))
        t = rng.uniform(-2.0, 2.0, (300, 1))
        pts[:, 2] = pts[:, 0] + t * (pts[:, 1] - pts[:, 0]) + rng.normal(0.0, 1e-9, (300, 2))
        self.assert_no_worse_than_fermat_point(pts, self.tree_weights(rng, 300, 0.5))

    def test_coincident_anchors(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1.0, 1.0, (200, 3, 2))
        pts[:100, 1] = pts[:100, 0]
        pts[100:, 2] = pts[100:, 1] + rng.normal(0.0, 1e-12, (100, 2))
        s = self.assert_no_worse_than_fermat_point(pts, rng.uniform(0.1, 1.0, (200, 3)))
        assert np.all(np.isfinite(s))

    def test_scalar_twin_matches_bit_for_bit(self):
        """`_y_junction`, the plain-float form the geometry sweeps use,
        returns the bits of `_y_junctions` on 100,000 random triples (half
        with merge weights) and 20,000 triples snapped to a grid of
        spacing 1/4, where anchors coincide and line up."""
        rng = np.random.default_rng(16)
        pts = rng.uniform(-1.0, 1.0, (120_000, 3, 2))
        pts[100_000:] = np.round(pts[100_000:] * 4.0) / 4.0
        w = rng.uniform(0.05, 1.0, (120_000, 3))
        w[:50_000] = self.tree_weights(rng, 50_000, 0.6)
        got = np.stack(irr._y_junctions(pts[..., 0], pts[..., 1], w), 1)
        twin = [irr._y_junction([tuple(a) for a in p], wt) for p, wt in zip(pts.tolist(), w.tolist())]
        assert bits(twin) == bits(got)
        on_anchor = (got[:, None, :] == pts).all(-1).any(-1)
        assert 0.2 < on_anchor.mean() < 0.9  # both branches of the closed form run

    def test_near_ties_where_an_anchor_barely_loses(self):
        """Anchor i gets just less weight than the pull of the other two, so
        the optimum sits off it by a relative margin down to 1e-15."""
        rng = np.random.default_rng(14)
        pts = rng.uniform(-1.0, 1.0, (300, 3, 2))
        w = rng.uniform(0.1, 1.0, (300, 3))
        for m in range(300):
            i = m % 3
            diff = pts[m, i] - pts[m]
            dist = np.hypot(diff[:, 0], diff[:, 1])
            dist[i] = 1.0
            pull = np.hypot(*((w[m] / dist)[:, None] * diff).sum(0))
            w[m, i] = pull * (1.0 - 10.0 ** rng.uniform(-15.0, -2.0))
        self.assert_no_worse_than_fermat_point(pts, w)


@pytest.fixture(scope="module")
def geometry_calls():
    """Every `_optimize_positions` call that optimize_plan(mu, 0.6) makes on
    random 10-, 20- and 40-atom measures (atoms in [0.1, 2] x [-1, 1],
    masses U(0.05, 1), numpy seed 0), as (arguments, result, sweeps).  Every
    sweep is followed by exactly one `_newton_step`, so a call's sweeps are
    counted as its Newton steps."""
    calls = []
    optimize, newton = irr._optimize_positions, irr._newton_step

    def recording(*args):
        calls.append([args, None, 0])
        calls[-1][1] = optimize(*args)
        return calls[-1][1]

    def counting(*args):
        calls[-1][2] += 1
        return newton(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irr, "_optimize_positions", recording)
        mp.setattr(irr, "_newton_step", counting)
        for n in (10, 20, 40):
            rng = np.random.default_rng(0)
            x, y = rng.uniform(0.1, 2.0, n), rng.uniform(-1.0, 1.0, n)
            ro.optimize_plan(ro.DiscreteMeasure.from_arrays(
                np.c_[x, y], rng.uniform(0.05, 1.0, n)), 0.6)
    return calls


class TestGeometry:
    def test_branch_points_are_stationary(self, geometry_calls):
        """At every steiner node whose edges are all longer than
        1e-12 * scale, the weighted unit vectors of its edges cancel:
        |sum w_e u_e| <= 1e-9 sum w_e, the first-order condition of the
        weighted length, checked on the positions rather than through the
        stopping rule."""
        checked = 0
        for (_, parents, atom_index, weights, scale), pos, _ in geometry_calls:
            parents, weights = np.asarray(parents), np.asarray(weights)
            child = np.arange(1, len(parents))
            d = pos[child] - pos[parents[1:]]
            length = np.hypot(d[:, 0], d[:, 1])
            for i in np.flatnonzero(np.asarray(atom_index) < 0)[1:]:
                e = np.flatnonzero((child == i) | (parents[1:] == i))
                if np.all(length[e] > 1e-12 * max(1.0, scale)):
                    sign = np.where(child[e] == i, 1.0, -1.0)
                    pull = ((weights[e + 1] * sign / length[e])[:, None] * d[e]).sum(0)
                    assert np.hypot(*pull) <= 1e-9 * weights[e + 1].sum(), (i, pull)
                    checked += 1
        assert checked > 500

    def test_no_call_reaches_the_sweep_cap(self, geometry_calls):
        sweeps = [s for _, _, s in geometry_calls]
        assert len(sweeps) > 50 and min(sweeps) >= 1
        assert max(sweeps) < irr._MAX_GEOMETRY_SWEEPS, sorted(sweeps)[-5:]


class TestSweepRouting:
    def test_three_anchor_moves_take_the_closed_form(self, geometry_calls):
        """Replaying the fixture's calls and running the 17x17 spawn
        ascent, every sweep move with three anchors goes to `_y_junction`,
        and `_fermat_point` sees four anchors or more: a plan is contracted
        before its geometry, so no steiner node with one child enters the
        sweeps."""
        fermat, y_junction, moves = irr._fermat_point, irr._y_junction, []

        def recording(pts, w, start):
            moves.append((len(pts), irr._degenerate_anchor(pts, w) is not None))
            return fermat(pts, w, start)

        def counting(pts, w):
            moves.append((3, None))
            return y_junction(pts, w)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(irr, "_fermat_point", recording)
            mp.setattr(irr, "_y_junction", counting)
            for args, pos, _ in geometry_calls:
                assert np.array_equal(irr._optimize_positions(*args), pos)
            replayed, moves[:] = list(moves), []
            spawn_ascent(ro.Grid(ro.Domain(), 17, 17))
        assert replayed.count((3, None)) > 2000 and moves.count((3, None)) > 300
        assert any(k >= 4 for k, _ in replayed)
        assert all(k >= 4 for k, won in replayed + moves if won is not None)


def newton_args(pos, parents, weights, steiner):
    """`_newton_step`'s arguments for a plan, as `_optimize_positions` builds
    them: the positions as (x, y) tuples, (i, parent, weight, i is steiner,
    parent is steiner) for every edge with a steiner end in depth order,
    and the gradient's rounding level 1e-14 * max weight."""
    par, w, st = list(map(int, parents)), list(map(float, weights)), list(map(bool, steiner))
    edges = [(i, par[i], w[i], st[i], st[par[i]])
             for i in irr._depth_order(par)[1:] if st[i] or st[par[i]]]
    return [tuple(p) for p in np.asarray(pos, dtype=float).tolist()], edges, 1e-14 * max(w[1:])


def dense_newton(xy, edges, tiny):
    """The reference for `_newton_direction`: the joint Newton system
    assembled as a dense matrix with np.add.at and solved with
    np.linalg.solve.  Returns the (n, 2) step of every node (zero on fixed
    nodes), or None when the step is skipped: no free block, a gradient at
    rounding level, or a singular system.  Blocks take the label of their
    top node by propagation over zero-length steiner-steiner edges, and a
    block on a zero-length edge to a fixed node is fixed."""
    x, n = np.array(xy, dtype=float), len(xy)
    if not edges:
        return None
    child, par, w, st_child, st_par = (np.array(c) for c in zip(*edges))
    steiner = np.zeros(n, dtype=bool)
    steiner[child], steiner[par] = st_child, st_par
    d = x[child] - x[par]
    length = np.sqrt((d * d).sum(1))
    zero = length == 0.0
    join = zero & steiner[child] & steiner[par]
    block = np.arange(n)
    while np.any(block[child[join]] != block[par[join]]):
        block[child[join]] = block[par[join]]
    free = steiner.copy()
    free[block[child[zero & ~join]]] = free[block[par[zero & ~join]]] = False
    slot = np.where(free[block], np.cumsum(free & (block == np.arange(n)))[block], 0)
    if not (m := int(slot.max())):  # slot 0 holds every fixed node
        return None
    inv = 1.0 / np.where(zero, np.inf, length)
    u = d * inv[:, None]
    h = (w * inv)[:, None, None] * (np.eye(2) - u[:, :, None] * u[:, None])
    a, b = 2 * slot[child, None] + np.arange(2), 2 * slot[par, None] + np.arange(2)
    grad, hess = np.zeros(2 * m + 2), np.zeros((2 * m + 2, 2 * m + 2))
    np.add.at(grad, np.concatenate([a, b]), np.concatenate([w[:, None] * u, -w[:, None] * u]))
    if np.abs(grad[2:]).max() <= tiny:
        return None
    np.add.at(hess, (np.concatenate([a, b, a, b])[:, :, None],
                     np.concatenate([a, b, b, a])[:, None, :]), np.concatenate([h, h, -h, -h]))
    try:
        solution = np.linalg.solve(hess[2:, 2:], -grad[2:])
    except np.linalg.LinAlgError:
        return None
    return np.vstack([(0.0, 0.0), solution.reshape(m, 2)])[slot]


def first_lowering_halving(xy, edges, step):
    """The first k < _MAX_HALVINGS at which xy + 2^-k step strictly lowers
    the weighted length, all trial steps priced in one batch, or None."""
    x = np.array(xy, dtype=float)
    child, par, w = (np.array(c) for c in list(zip(*edges))[:3])
    d = x[child] - x[par]
    length = np.sqrt((d * d).sum(1))
    t = 0.5 ** np.arange(irr._MAX_HALVINGS)
    shift = t[:, None, None] * (step[child] - step[par])
    # |d + shift| - |d| without cancellation; a zero-length edge never stretches
    grow = ((2.0 * d + shift) * shift).sum(-1) / (
        np.sqrt(((d + shift) ** 2).sum(-1)) + length + (length == 0.0))
    lower = np.flatnonzero((w * grow).sum(1) < 0.0)
    return int(lower[0]) if len(lower) else None


def check_against_dense(xy, edges, tiny):
    """Checks one `_newton_step` against `dense_newton`: the same skips, an
    eliminated step within 1e-12 of the dense one relative to its largest
    entry, and the same accepted halving k, the result being exactly xy +
    2^-k step.  Returns k, None when no halving helps, or "skip"."""
    ref = dense_newton(xy, edges, tiny)
    out = irr._newton_step(xy, edges, tiny)
    if ref is None:
        assert out is xy
        return "skip"
    solved = irr._newton_direction(xy, edges, tiny)
    assert solved is not None
    step = np.zeros_like(ref)
    for i, s in solved[0].items():
        step[i] = s
    assert np.abs(step - ref).max() <= 1e-12 * np.abs(ref).max()
    k = first_lowering_halving(xy, edges, ref)
    if k is None:
        assert out is xy
    else:
        assert np.array_equal(np.array(out), np.array(xy) + 0.5 ** k * step), k
    return k


@pytest.fixture(scope="module")
def newton_steps():
    """Arguments of `_newton_step` calls: (every call of the 17x17 spawn
    ascent, steps on random plans), the latter from `random_tree` (steiner
    nodes where it put them) with random weights U(0.05, 1), numpy seed 21,
    plus one step that no halving helps."""
    steps = []
    real = irr._newton_step

    def recording(xy, edges, tiny):
        steps.append((list(xy), edges, tiny))  # the sweeps rewrite xy in place
        return real(xy, edges, tiny)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irr, "_newton_step", recording)
        spawn_ascent(ro.Grid(ro.Domain(), 17, 17))
    ascent, steps = steps, []
    rng = np.random.default_rng(21)
    for _ in range(200):
        tree = random_tree(rng, random_measure(rng, int(rng.integers(2, 9))))
        steiner = (tree.atom_index < 0) & (np.arange(tree.n_nodes) > 0)
        steps.append(newton_args(tree.positions, tree.parents,
                                 rng.uniform(0.05, 1.0, tree.n_nodes), steiner))
    # a steiner node 1e-30 off a terminal whose weight beats the pull of the
    # other two edges: the optimum is the terminal and every trial step
    # overshoots it, so no halving helps
    steps.append(newton_args([(0.0, 0.0), (1.0 + 1e-30, 1e-30), (1.0, 0.0), (1.0, 0.5)],
                             [-1, 0, 1, 1], [0.0, 1.0, 5.0, 1.0], [False, True, False, False]))
    return ascent, steps


# (positions, parents, steiner flags) of plans whose free blocks are shaped
# to exercise the elimination
ELIMINATION_PLANS = {
    # steiner nodes 1 and 2 coincide: one block with four outside neighbours
    "coincident block": ([(0.0, 0.0), (1.0, 0.1), (1.0, 0.1), (2.0, 1.0), (2.0, -1.0),
                          (2.5, 0.2), (1.3, 0.7), (1.7, 0.9), (1.5, 1.4)],
                         [-1, 0, 1, 1, 2, 2, 1, 6, 6], [0, 1, 1, 0, 0, 0, 1, 0, 0]),
    # steiner 1 sits on the root and steiner 3 on terminal 2: both are held,
    # and steiner 6, a child of the held node 1, is free
    "kinks": ([(0.0, 0.0), (0.0, 0.0), (1.0, 0.5), (1.0, 0.5), (2.0, 0.3), (1.6, 1.2),
               (0.6, -0.3), (1.2, -0.8), (1.4, -0.1)],
              [-1, 0, 1, 2, 3, 3, 1, 6, 6], [0, 1, 0, 1, 0, 0, 1, 0, 0]),
    # free blocks {1} and {4, 7} separated by terminal 2: a forest
    "forest": ([(0.0, 0.0), (0.5, 0.1), (1.0, 0.0), (0.6, 0.7), (1.5, 0.2), (2.0, 0.6),
                (2.0, -0.3), (1.5, 0.2), (2.2, 0.1)],
               [-1, 0, 1, 1, 2, 4, 4, 4, 7], [0, 1, 0, 0, 1, 0, 0, 1, 0]),
    # the only steiner node sits on terminal 2
    "no free node": ([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 1.0), (0.5, -0.5)],
                     [-1, 0, 1, 1, 0], [0, 1, 0, 0, 0]),
    # a branch point on the axis through both neighbours: its Hessian w / L
    # (I - u u^T) is exactly singular
    "collinear": ([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], [-1, 0, 1], [0, 1, 0]),
}


class TestNewtonStep:
    def test_result_is_the_first_halving_that_lowers_the_length(self, newton_steps):
        """On every step of the spawn ascent and on random plans, the tree
        elimination takes the dense solve's step within 1e-12, the result is
        x plus the first halving of that step that lowers the weighted
        length as the dense step's halvings priced in one batch find it, and
        every skip returns x.  On the spawn ascent every step that moves but
        one takes the full step."""
        ks = {part: [check_against_dense(*args) for args in steps]
              for part, steps in zip(("ascent", "random"), newton_steps)}
        ascent = [k for k in ks["ascent"] if k != "skip"]
        assert len(ascent) > 100 and ascent.count(0) == len(ascent) - 1
        every = ascent + ks["random"]
        assert sum(k not in (None, "skip") and k > 0 for k in every) > 10  # halvings
        assert None in every  # no halving helps, x comes back
        assert "skip" in ks["ascent"]

    @pytest.mark.parametrize("name", list(ELIMINATION_PLANS))
    def test_shaped_plans_match_the_dense_solve(self, name):
        """Coincident blocks move as one, held blocks stay, a forest of free
        blocks is solved tree by tree, and a plan with no free node or an
        exactly singular pivot returns x unchanged."""
        pos, parents, steiner = ELIMINATION_PLANS[name]
        rng = np.random.default_rng(31)
        for _ in range(20):
            args = newton_args(pos, parents, rng.uniform(0.05, 1.0, len(pos)), steiner)
            k = check_against_dense(*args)
            if name in ("no free node", "collinear"):
                assert k == "skip"
                continue
            assert k != "skip"
            moving = irr._newton_direction(*args)[0]
            free = {"coincident block": {1, 2, 6}, "kinks": {6}, "forest": {1, 4, 7}}[name]
            assert set(moving) == free
        if name == "coincident block":
            assert moving[1] == moving[2]
        if name == "collinear":
            assert irr._newton_direction(*args) is None


class TestBruteForce:
    def test_topology_counts(self):
        # (2n - 5)!! full binary topologies on n labeled leaves
        assert sum(1 for _ in irr._full_topologies(3)) == 1
        assert sum(1 for _ in irr._full_topologies(4)) == 3
        assert sum(1 for _ in irr._full_topologies(5)) == 15
        assert sum(1 for _ in irr._full_topologies(6)) == 105

    def test_too_many_atoms_rejected(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 6)
        with pytest.raises(ro.ValidationError):
            ro.brute_force_plan(mu, 0.5)

    def test_matches_heuristic_on_three_atoms(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 3)
        alpha = 0.6
        exact = ro.irrigation_cost(ro.brute_force_plan(mu, alpha), mu, alpha)
        heur = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
        assert heur <= exact * 1.02 + 1e-12

    def test_never_above_heuristic(self, oracle_instances):
        """The exhaustive optimum is a lower bound for the local search, so
        inexact branch points show up as oracle costs above it."""
        for mu, alpha, tree in oracle_instances:
            exact = ro.irrigation_cost(tree, mu, alpha)
            heur = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
            assert exact <= heur * (1.0 + 1e-12)

    def test_five_atoms(self):
        """Five atoms: 105 topologies whose four branch points all start on
        one point, the centroid, and must be pulled apart by the sweeps.
        The optimum is no worse than the local search and passes the
        Hoelder and arc-chord checks."""
        rng = np.random.default_rng(505)
        for _ in range(8):
            mu = random_measure(rng, 5, mass_range=(0.1, 1.0))
            alpha = float(rng.uniform(0.2, 0.95))
            tree = ro.brute_force_plan(mu, alpha)
            exact = ro.irrigation_cost(tree, mu, alpha)
            heur = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
            assert exact <= heur * (1.0 + 1e-12)
            holder = ro.check_landscape_holder(tree, mu, alpha)
            assert holder.ok, holder.violations
            flux = ro.compute_fluxes(tree, mu).values
            arc = ro.check_arc_chord(tree, mu, alpha, 0.999 * float(flux[1:].min()))
            assert arc.ok, arc.violations

    def test_collinear_atoms_need_no_steiner_node(self):
        """Atoms on a ray from the source are served by the chain through
        them; every branch point must collapse onto a terminal exactly."""
        mu = ro.DiscreteMeasure(tuple(ro.Atom((x, 0.0), 1.0) for x in (0.4, 0.7, 1.0, 1.3)))
        alpha = 0.5
        exact = ro.brute_force_plan(mu, alpha)
        assert "steiner" not in exact.kinds
        assert ro.irrigation_cost(exact, mu, alpha) == ro.irrigation_cost(
            ro.optimize_plan(mu, alpha), mu, alpha)


def test_import_leaves_out_scipy_optimize():
    """The planner needs no scipy.optimize; importing it costs start-up time
    and memory in every CLI call."""
    env = {**os.environ, "PYTHONPATH": str(Path(ro.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rootopt; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
