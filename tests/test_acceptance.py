"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and prints as a single pass/fail line under
pytest -v.  Tolerances are part of the package contract and are asserted
exactly as documented in the README.
"""

import json
import math

import numpy as np

import rootopt as ro
from rootopt.cli import main as cli_main

from conftest import (manufactured_problem, random_grid_measure,
                      random_measure, random_tree)


def test_criterion_01_landscape_identity_on_random_trees():
    """sum(mass * Z) equals the plan cost on any tree, to 1e-10 relative."""
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        alpha = float(rng.uniform(0.3, 0.95))
        mu = random_measure(rng, n)
        tree = random_tree(rng, mu)
        cost = ro.irrigation_cost(tree, mu, alpha)
        z = ro.landscape(tree, mu, alpha)
        ident = float(np.dot(mu.masses(), z.at_atoms(range(n))))
        assert abs(ident - cost) <= 1e-10 * cost


def test_criterion_02_lower_bound_never_violated(oracle_instances):
    """Radial bound holds for heuristic and exhaustive plans; one atom is tight."""
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.3, 0.95))
        mu = random_measure(rng, n)
        cost = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
        lb = ro.cost_lower_bound(mu, alpha)
        assert cost >= lb * (1.0 - 1e-12)
        if n == 1:
            assert abs(cost - lb) <= 1e-12 * lb
    for mu, alpha, tree in oracle_instances:
        cost = ro.irrigation_cost(tree, mu, alpha)
        assert cost >= ro.cost_lower_bound(mu, alpha) * (1.0 - 1e-12)


def test_criterion_03_heuristic_tracks_small_case_optimum(oracle_instances):
    """Local search lands within 2% of exhaustive search; closed forms match:
    a single atom costs r * m**alpha, and alpha = 1 reduces to sum(m |x|)."""
    for mu, alpha, oracle_tree in oracle_instances:
        c_oracle = ro.irrigation_cost(oracle_tree, mu, alpha)
        c_heur = ro.irrigation_cost(ro.optimize_plan(mu, alpha), mu, alpha)
        assert c_heur <= 1.02 * c_oracle

    rng = np.random.default_rng(303)
    for _ in range(20):
        mu = random_measure(rng, 1)
        alpha = float(rng.uniform(0.3, 0.95))
        (x, y), m = mu.atoms[0].position, mu.atoms[0].mass
        exact = math.hypot(x, y) * m ** alpha
        for planner in (ro.optimize_plan, ro.brute_force_plan):
            cost = ro.irrigation_cost(planner(mu, alpha), mu, alpha)
            assert abs(cost - exact) <= 1e-10 * exact

    for _ in range(20):
        n = int(rng.integers(2, 7))
        mu = random_measure(rng, n)
        exact = sum(a.mass * math.hypot(*a.position) for a in mu.atoms)
        cost = ro.irrigation_cost(ro.optimize_plan(mu, 1.0), mu, 1.0)
        assert abs(cost - exact) <= 1e-10 * exact


def test_criterion_04_holder_and_arc_chord_on_optimal_plans(oracle_instances):
    """Landscape Hoelder bound over all node pairs and arc-chord bound along
    all root-leaf paths: zero violations on exhaustively optimal plans."""
    for mu, alpha, tree in oracle_instances:
        holder = ro.check_landscape_holder(tree, mu, alpha)
        assert holder.ok, holder.violations
        flux = ro.compute_fluxes(tree, mu).values
        delta0 = 0.999 * float(min(flux[i] for i in range(1, tree.n_nodes)))
        arc = ro.check_arc_chord(tree, mu, alpha, delta0)
        assert arc.ok, arc.violations


def test_criterion_05_state_solver_second_order_and_capacity():
    """Manufactured cosine bump converges at order >= 1.9 per refinement;
    the empty measure returns the carrying capacity exactly."""
    f = ro.GrowthFunction()
    errs = []
    for n in (65, 129, 257):
        g = ro.Grid(ro.Domain(), n, n)
        mu, u_ex = manufactured_problem(g, f)
        u = ro.solve_state(g, mu, f, tol=1e-10)
        errs.append(float(np.max(np.abs(u.values - u_ex))))
    assert math.log2(errs[0] / errs[1]) >= 1.9
    assert math.log2(errs[1] / errs[2]) >= 1.9

    g = ro.Grid(ro.Domain(), 65, 65)
    u0 = ro.solve_state(g, ro.DiscreteMeasure(), f)
    assert float(np.max(np.abs(u0.values - f.u_max))) <= 1e-10


def test_criterion_06_state_and_adjoint_bounds(small_grid):
    """0 <= u <= u_max and 0 <= psi <= lam u_max + 1 on 50 random instances."""
    rng = np.random.default_rng(606)
    f = ro.GrowthFunction()
    for _ in range(50):
        n = int(rng.integers(1, 7))
        mu = random_grid_measure(rng, small_grid, n, mass_range=(0.1, 1.2))
        u = ro.solve_state(small_grid, mu, f, tol=1e-10)
        assert u.min() >= -1e-9
        assert u.max() <= f.u_max + 1e-9
        psi = ro.solve_adjoint(small_grid, mu, u, f)
        lam = ro.growth_bound_lambda(f, delta0=u.min())
        assert psi.min() >= -1e-9
        assert psi.max() <= lam * f.u_max + 1.0 + 1e-9


def test_criterion_07_payoff_gradient_matches_finite_differences(small_grid):
    """Directional derivative sum(m g (phi - c alpha Z)) agrees with forward
    differences of the replanned payoff: <= 5% relative at eps = 1e-4 and the
    error shrinks at eps / 10."""
    rng = np.random.default_rng(707)
    f = ro.GrowthFunction()
    alpha, c = 0.75, 0.1

    def payoff_of(meas):
        tree = ro.optimize_plan(meas, alpha)
        u = ro.solve_state(small_grid, meas, f, tol=1e-12, tol_linear=1e-12)
        return ro.harvest(u, meas) - c * ro.irrigation_cost(tree, meas, alpha)

    done = 0
    while done < 20:
        n = int(rng.integers(2, 6))
        mu = random_grid_measure(rng, small_grid, n, mass_range=(0.3, 1.0))
        g = rng.uniform(-1.0, 1.0, size=n)
        u = ro.solve_state(small_grid, mu, f, tol=1e-12, tol_linear=1e-12)
        psi = ro.solve_adjoint(small_grid, mu, u, f, tol=1e-12)
        phi = ro.bilinear_interpolate(ro.phi_field(u, psi),
                                      [a.position for a in mu.atoms])
        z = ro.landscape(ro.optimize_plan(mu, alpha), mu, alpha).at_atoms(range(n))
        m = mu.masses()
        pred = float(np.sum(m * g * (phi - c * alpha * z)))
        scale = float(np.sum(np.abs(m * g) * (np.abs(phi) + c * alpha * np.abs(z))))
        if abs(pred) < 1e-2 * scale:
            continue  # nearly stationary direction, relative error meaningless
        p0 = payoff_of(mu)
        errs = []
        for eps in (1e-4, 1e-5):
            mu_eps = mu.with_masses(m * (1.0 + eps * g))
            errs.append(abs((payoff_of(mu_eps) - p0) / eps - pred))
        assert errs[0] <= 0.05 * abs(pred)
        assert errs[1] < errs[0]
        done += 1


def test_criterion_08_reweighting_cost_bound(oracle_instances):
    """Optimal cost of (1+g) mu is bounded by cost(mu) + alpha sum(m g Z)."""
    rng = np.random.default_rng(808)
    for mu, alpha, tree in oracle_instances[:50]:
        n = len(mu)
        g = rng.uniform(-1.0, 1.0, size=n)
        z = ro.landscape(tree, mu, alpha).at_atoms(range(n))
        bound = (ro.irrigation_cost(tree, mu, alpha)
                 + alpha * float(np.sum(mu.masses() * g * z)) + 1e-8)
        nu, _ = mu.with_masses(mu.masses() * (1.0 + g)).without_zero_mass()
        cost_nu = (ro.irrigation_cost(ro.brute_force_plan(nu, alpha), nu, alpha)
                   if nu.atoms else 0.0)
        assert cost_nu <= bound


def test_criterion_09_ascent_contracts():
    """Accepted payoffs never decrease; the single-atom ascent lands on the
    golden-section argmax within 1e-3 relative; a converged spawn run drives
    the support residual below 1e-3 u_max and passes the sampled path
    inequality on >= 99% of edge samples."""
    f = ro.GrowthFunction()
    alpha = 0.75

    # independent 1-d oracle: scan then golden-section the single-atom payoff
    grid = ro.Grid(ro.Domain(), 17, 17)
    pos = grid.node_position(8, 8)
    c = 0.1

    def payoff_m(mass):
        mu = ro.DiscreteMeasure((ro.Atom(pos, mass),))
        tree = ro.optimize_plan(mu, alpha)
        u = ro.solve_state(grid, mu, f, tol=1e-11, tol_linear=1e-12)
        return ro.harvest(u, mu) - c * ro.irrigation_cost(tree, mu, alpha)

    scan = np.linspace(0.05, 6.0, 25)
    k = int(np.argmax([payoff_m(m) for m in scan]))
    lo, hi = scan[max(0, k - 1)], scan[min(len(scan) - 1, k + 1)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = payoff_m(x1), payoff_m(x2)
    while b - a > 1e-7:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = payoff_m(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = payoff_m(x1)
    m_star = 0.5 * (a + b)

    cfg = ro.RunConfig(grid=grid, alpha=alpha, c=c, tol_residual=1e-6,
                       tol_nonlinear=1e-11, tol_linear=1e-12,
                       max_outer_iters=400, step_size=4.0)
    trace = ro.ascend_measure(cfg, ro.DiscreteMeasure((ro.Atom(pos, 1.0),)))
    assert trace.converged
    m_hat = trace.measure.atoms[0].mass
    assert abs(m_hat - m_star) <= 1e-3 * m_star
    pays = trace.accepted_payoffs
    assert all(q >= p for p, q in zip(pays, pays[1:]))

    # spawn run: converge on a coarse grid, then sample the path inequality
    grid9 = ro.Grid(ro.Domain(), 9, 9)
    cfg9 = ro.RunConfig(grid=grid9, alpha=alpha, c=0.5, tol_residual=8e-4,
                        tol_nonlinear=1e-10, tol_linear=1e-12,
                        max_outer_iters=2500, step_size=2.0,
                        spawn=True, spawn_mass=0.02)
    mu0 = ro.DiscreteMeasure((ro.Atom(grid9.node_position(4, 4), 0.3),))
    tr9 = ro.ascend_measure(cfg9, mu0)
    assert tr9.converged
    assert tr9.report.sup_residual <= 1e-3 * f.u_max
    pays9 = tr9.accepted_payoffs
    assert all(q >= p for p, q in zip(pays9, pays9[1:]))
    pc = ro.path_inequality_check(tr9.state, tr9.adjoint, tr9.tree, tr9.measure,
                                  cfg9.c, alpha, tol=1e-3 * f.u_max)
    assert pc.fraction_ok >= 0.99


def test_criterion_10_deterministic_artifacts(tmp_path):
    """Two optimizer runs with the same config and seed write byte-identical
    trace and report files (and every other artifact)."""
    cfg = tmp_path / "config.txt"
    cfg.write_text("measure_path = measure.json\n"
                   "nx = 9\nny = 9\nalpha = 0.75\nc = 0.1\n"
                   "max_outer_iters = 6\nspawn = true\nspawn_mass = 0.05\n")
    (tmp_path / "measure.json").write_text(json.dumps(
        {"atoms": [{"x": 1.0, "y": 0.0, "mass": 0.3},
                   {"x": 1.25, "y": 0.25, "mass": 0.2}]}))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["optimize", "--config", str(cfg),
                         "--out", str(out)]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0].keys() == blobs[1].keys()
    for name in ("trace.jsonl", "report.json"):
        assert name in blobs[0]
    assert blobs[0] == blobs[1]
