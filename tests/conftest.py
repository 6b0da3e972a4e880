import numpy as np
import pytest

import rootopt as ro
from convergence_study import manufactured
from rootopt.irrigation import _contract


def random_measure(rng, n, mass_range=(0.05, 1.0)) -> ro.DiscreteMeasure:
    """Atoms away from the origin with pairwise distinct positions."""
    seen = set()
    atoms = []
    while len(atoms) < n:
        p = (float(rng.uniform(0.4, 1.5)), float(rng.uniform(-0.5, 0.5)))
        if p in seen:
            continue
        seen.add(p)
        atoms.append(ro.Atom(p, float(rng.uniform(*mass_range))))
    return ro.DiscreteMeasure(tuple(atoms))


def random_grid_measure(rng, grid, n, mass_range=(0.1, 0.8)) -> ro.DiscreteMeasure:
    idx = rng.choice(grid.n_nodes, size=n, replace=False)
    coords = grid.node_coordinates()
    return ro.DiscreteMeasure(tuple(
        ro.Atom((float(coords[i, 0]), float(coords[i, 1])), float(rng.uniform(*mass_range)))
        for i in sorted(int(i) for i in idx)))


def random_tree(rng, mu) -> ro.IrrigationTree:
    """Random topology over the atoms of mu: terminals and a random number of
    steiner nodes each hang off a uniformly chosen earlier node, then degree-1
    branch points are contracted away."""
    pos = [(0.0, 0.0)]
    parents = [-1]
    atom_index = [-1]
    for _ in range(int(rng.integers(0, len(mu.atoms) + 1))):
        parents.append(int(rng.integers(0, len(parents))))
        pos.append((float(rng.uniform(0.1, 1.4)), float(rng.uniform(-0.6, 0.6))))
        atom_index.append(-1)
    for i, a in enumerate(mu.atoms):
        parents.append(int(rng.integers(0, len(parents))))
        pos.append(a.position)
        atom_index.append(i)
    return ro.IrrigationTree(*_contract(np.array(pos, dtype=float), parents,
                                        atom_index, tol=0.0))


def spawn_ascent(grid):
    """The spawn ascent of scripts/run_ascent_demo.py for 20 outer
    iterations, from one atom of mass 0.35 at node (8, 8)."""
    cfg = ro.RunConfig(grid=grid, alpha=0.75, c=0.1, step_size=2.0, spawn=True,
                       spawn_mass=0.05, max_outer_iters=20)
    return ro.ascend_measure(cfg, ro.DiscreteMeasure((ro.Atom(grid.node_position(8, 8), 0.35),)))


def manufactured_problem(grid, f, amplitude=0.04):
    """(measure, exact nodal state) of the manufactured cosine bump in
    `scripts/convergence_study.py`."""
    return manufactured(grid, f, amplitude)


@pytest.fixture(scope="session")
def oracle_instances():
    """100 small instances with their exhaustive-search plans, shared by the
    acceptance criteria that compare against or inspect oracle optima."""
    rng = np.random.default_rng(20260814)
    out = []
    for _ in range(100):
        n = int(rng.integers(2, 5))
        mu = random_measure(rng, n, mass_range=(0.1, 1.0))
        alpha = float(rng.uniform(0.35, 0.9))
        tree = ro.brute_force_plan(mu, alpha)
        out.append((mu, alpha, tree))
    return out


@pytest.fixture(scope="session")
def small_grid():
    return ro.Grid(ro.Domain(), 17, 17)
