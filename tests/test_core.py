import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootopt as ro


def mass_outside(mu, r):
    """Mass of the atoms at distance >= r from the source at the origin."""
    return float(mu.masses()[np.hypot(*mu.positions().T) >= r].sum())


class TestDomain:
    def test_defaults(self):
        d = ro.Domain()
        assert d.width == 1.0 and d.height == 1.0
        assert d.source_distance() == 0.5

    def test_origin_inside_rejected(self):
        with pytest.raises(ro.ValidationError):
            ro.Domain(rect_min=(-1.0, -1.0), rect_max=(1.0, 1.0))

    def test_origin_on_boundary_rejected(self):
        with pytest.raises(ro.ValidationError):
            ro.Domain(rect_min=(0.0, -0.5), rect_max=(1.0, 0.5))

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ro.ValidationError):
            ro.Domain(rect_min=(1.0, 0.0), rect_max=(1.0, 1.0))

    def test_source_distance_diagonal(self):
        d = ro.Domain(rect_min=(3.0, 4.0), rect_max=(5.0, 6.0))
        assert d.source_distance() == pytest.approx(5.0, abs=1e-15)


class TestGrid:
    def test_spacing_must_match(self):
        with pytest.raises(ro.ValidationError):
            ro.Grid(ro.Domain(), 33, 17)

    def test_too_small(self):
        with pytest.raises(ro.ValidationError):
            ro.Grid(ro.Domain(), 2, 2)

    def test_index_position_round_trip_exact(self):
        g = ro.Grid(ro.Domain(), 17, 17)
        for ix in range(g.nx):
            for iy in range(g.ny):
                x, y = g.node_position(ix, iy)
                assert g.index_of(x, y) == g.node_index(ix, iy)

    def test_index_of_rejects_off_node(self):
        g = ro.Grid(ro.Domain(), 17, 17)
        with pytest.raises(ro.ValidationError, match="not a grid node"):
            g.index_of(1.0001, 0.0)

    def test_snap_and_nearest(self):
        g = ro.Grid(ro.Domain(), 17, 17)
        assert g.nearest_node(0.51, -0.49) == (0, 0)
        assert g.nearest_node(99.0, 99.0) == (g.nx - 1, g.ny - 1)

    def test_nearest_nodes_match_the_scalar_rule(self):
        """Grid.nearest_nodes against int(round((x - rect_min) / h)) clamped
        to the grid, per position: random positions inside and outside the
        rectangle, positions exactly halfway between nodes (both round to
        the even index) and several positions rounding to one node."""
        g = ro.Grid(ro.Domain((0.5, -0.5), (2.0, 0.5)), 13, 9)  # h = 1/8, exact
        rng = np.random.default_rng(11)
        k = np.arange(-2.0, 15.0)
        halfway = np.column_stack([0.5 + (k + 0.5) * g.h, -0.5 + (k[::-1] - 3.5) * g.h])
        pos = np.vstack([rng.uniform((0.5, -0.5), (2.0, 0.5), (400, 2)),
                         rng.uniform((-3.0, -3.0), (5.0, 3.0), (400, 2)), halfway,
                         g.node_coordinates()[[0, 40, 116]].repeat(4, axis=0)
                         + rng.uniform(-0.4 * g.h, 0.4 * g.h, (12, 2))])

        def scalar(x, y):
            ix = int(round((x - g.domain.rect_min[0]) / g.h))
            iy = int(round((y - g.domain.rect_min[1]) / g.h))
            return min(max(ix, 0), g.nx - 1), min(max(iy, 0), g.ny - 1)

        expected = [scalar(x, y) for x, y in pos.tolist()]
        ix, iy = g.nearest_nodes(pos)
        assert ix.dtype == iy.dtype == np.int64
        assert list(zip(ix.tolist(), iy.tolist())) == expected
        assert [g.nearest_node(x, y) for x, y in pos.tolist()] == expected
        evens = [scalar(x, y)[0] % 2 for x, y in halfway.tolist() if 0.5 < x < 2.0]
        assert evens == [0] * len(evens) and len(evens) == 12
        assert len(set(expected[-12:])) == 3

    def test_node_coordinates_order(self):
        g = ro.Grid(ro.Domain(), 5, 5)
        coords = g.node_coordinates()
        k = g.node_index(3, 2)
        assert tuple(coords[k]) == g.node_position(3, 2)

    def test_node_coordinates_are_one_read_only_array(self):
        g = ro.Grid(ro.Domain((0.5, -0.5), (2.0, 0.5)), 7, 5)
        coords = g.node_coordinates()
        assert g.node_coordinates() is coords and not coords.flags.writeable
        assert coords.tolist() == [list(g.node_position(ix, iy))
                                   for iy in range(g.ny) for ix in range(g.nx)]
        with pytest.raises(ValueError):
            coords[0, 0] = 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 39), st.integers(0, 39))
    def test_round_trip_property(self, n, ix, iy):
        g = ro.Grid(ro.Domain(), n, n)
        ix, iy = ix % n, iy % n
        x, y = g.node_position(ix, iy)
        assert g.index_of(x, y) == iy * n + ix


class TestMeasure:
    def test_atom_validation(self):
        with pytest.raises(ro.ValidationError):
            ro.Atom((1.0, 0.0), -0.5)
        with pytest.raises(ro.ValidationError):
            ro.Atom((math.inf, 0.0), 1.0)

    def test_duplicate_positions_rejected(self):
        a = ro.Atom((1.0, 0.0), 0.5)
        with pytest.raises(ro.ValidationError, match="share position"):
            ro.DiscreteMeasure((a, ro.Atom((1.0, 0.0), 0.25)))

    def test_total_mass_and_arrays(self):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5), ro.Atom((1.0, 0.25), 0.25)))
        assert mu.total_mass == 0.75
        assert mu.positions().shape == (2, 2)
        assert list(mu.masses()) == [0.5, 0.25]

    def test_empty_measure(self):
        mu = ro.DiscreteMeasure()
        assert mu.total_mass == 0.0
        assert mu.positions().shape == (0, 2)

    def test_with_masses_and_filter(self):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5), ro.Atom((1.0, 0.25), 0.25)))
        mu2 = mu.with_masses([0.0, 1.0])
        kept_mu, kept = mu2.without_zero_mass()
        assert kept == [1]
        assert kept_mu.atoms[0].position == (1.0, 0.25)
        with pytest.raises(ro.ValidationError):
            mu.with_masses([1.0])

    def test_duplicate_names_both_atoms(self):
        atoms = [ro.Atom((1.0, 0.0), 0.5), ro.Atom((0.5, 0.5), 0.1),
                 ro.Atom((0.75, 0.0), 0.2), ro.Atom((0.5, 0.5), 0.3), ro.Atom((1.0, 0.0), 0.4)]
        with pytest.raises(ro.ValidationError, match=r"atoms 1 and 3 share position \(0.5, 0.5\)"):
            ro.DiscreteMeasure(atoms)
        # -0.0 and 0.0 are one position, as they were for position tuples
        with pytest.raises(ro.ValidationError, match="atoms 0 and 1 share position"):
            ro.DiscreteMeasure.from_arrays([(1.0, 0.0), (1.0, -0.0)], [0.5, 0.5])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.5, -0.0, 0.0, 1.5]),
                              st.sampled_from([0.25, 0.0, -0.0])), max_size=8))
    def test_duplicate_check_matches_the_atom_loop(self, points):
        seen, expected = {}, None
        for j, p in enumerate(points):  # the per-atom loop the check replaced
            if p in seen:
                expected = f"atoms {seen[p]} and {j} share position"
                break
            seen[p] = j
        try:
            ro.DiscreteMeasure.from_arrays(np.array(points).reshape(-1, 2), [1.0] * len(points))
            got = None
        except ro.ValidationError as exc:
            got = str(exc).split(" (")[0]
        assert got == expected

    def test_from_arrays_matches_atoms(self):
        atoms = (ro.Atom((1.0, 0.0), 0.5), ro.Atom((0.75, -0.25), 0.0), ro.Atom((0.6, 0.3), 2.0))
        mu = ro.DiscreteMeasure.from_arrays([a.position for a in atoms], [a.mass for a in atoms])
        assert mu == ro.DiscreteMeasure(atoms)
        assert hash(mu) == hash(ro.DiscreteMeasure(atoms))
        assert mu.atoms == atoms
        assert len(ro.DiscreteMeasure.from_arrays(np.zeros((0, 2)), [])) == 0
        assert len(ro.DiscreteMeasure.from_arrays([], [])) == 0

    @pytest.mark.parametrize("positions, masses, message", [
        ([(1.0, 0.0), (math.nan, 0.5)], [0.5, 0.5], r"measure atom 1 position must be finite"),
        ([(1.0, 0.0), (0.5, -math.inf)], [0.5, 0.5], r"measure atom 1 position must be finite"),
        ([(1.0, 0.0), (0.5, 0.5)], [0.5, -1e-300], r"measure atom 1 mass must be finite and >= 0"),
        ([(1.0, 0.0), (0.5, 0.5)], [math.inf, 0.5], r"measure atom 0 mass must be finite and >= 0"),
        ([(1.0, 0.0), (0.5, 0.5)], [0.5], r"\(n, 2\) position array and n masses"),
        ([1.0, 0.0, 0.5], [0.5, 0.5, 0.5], r"\(n, 2\) position array and n masses"),
    ])
    def test_from_arrays_errors_name_the_atom(self, positions, masses, message):
        with pytest.raises(ro.ValidationError, match=message):
            ro.DiscreteMeasure.from_arrays(positions, masses)

    def test_arrays_are_read_only_and_contiguous(self, tmp_path):
        from rootopt.serialization import load_measure, save_measure
        raw = np.array([[1.0, 0.0, 0.5], [0.75, 0.25, 0.0], [0.5, -0.5, 0.25]])
        mu = ro.DiscreteMeasure.from_arrays(np.asfortranarray(raw[:, :2]), raw[:, 2])
        save_measure(tmp_path / "m.json", mu)
        measures = [
            mu,
            ro.DiscreteMeasure(mu.atoms),
            ro.DiscreteMeasure(),
            mu.with_masses(raw[::-1, 0]),  # a strided view
            mu.without_zero_mass()[0],
            load_measure(tmp_path / "m.json"),
        ]
        for m in measures:
            for arr in (m.positions(), m.masses()):
                assert arr.flags.c_contiguous
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0
        assert measures[0].positions().shape == (3, 2)
        assert measures[2].positions().shape == (0, 2)
        assert measures[3].masses().tolist() == [0.5, 0.75, 1.0]
        assert measures[4].positions().tolist() == [[1.0, 0.0], [0.5, -0.5]]
        with pytest.raises(AttributeError):
            mu.atoms = ()
        with pytest.raises(ro.ValidationError, match="measure atom 2 mass"):
            mu.with_masses([0.5, 0.5, -0.5])

    def test_atoms_are_built_on_first_access_only(self, monkeypatch):
        built = []
        post_init = ro.Atom.__post_init__

        def counting(atom):
            built.append(atom)
            post_init(atom)

        monkeypatch.setattr(ro.Atom, "__post_init__", counting)
        mu = ro.DiscreteMeasure.from_arrays([(1.0, 0.0), (0.75, 0.25)], [0.5, 0.25])
        kept, _ = mu.with_masses([0.0, 1.0]).without_zero_mass()
        assert (len(mu), mu.total_mass, len(kept)) == (2, 0.75, 1)
        assert built == []
        assert mu.atoms == (ro.Atom((1.0, 0.0), 0.5), ro.Atom((0.75, 0.25), 0.25))
        assert mu.atoms is mu.atoms
        assert len(built) == 4  # the two atoms of mu and the two they were compared with

    def test_mass_outside(self):
        """The mass at distance >= r from the source, read off the measure's
        arrays, is the integrand of the radial cost lower bound."""
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5), ro.Atom((0.6, 0.0), 0.25)))
        assert mass_outside(mu, 0.0) == mu.total_mass == 0.75
        assert mass_outside(mu, 0.8) == 0.5
        assert mass_outside(mu, 1.0) == 0.5  # boundary counts as outside
        assert mass_outside(mu, 2.0) == 0.0
        # constant on [0, 0.6] and on (0.6, 1], zero beyond the last atom
        alpha = 0.5
        integral = 0.6 * mass_outside(mu, 0.3) ** alpha + 0.4 * mass_outside(mu, 0.8) ** alpha
        assert ro.cost_lower_bound(mu, alpha) == pytest.approx(integral, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_mass_outside_monotone(self, r1, r2):
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 0.5), ro.Atom((0.6, 0.3), 0.25),
                                 ro.Atom((1.4, -0.4), 1.5)))
        lo, hi = min(r1, r2), max(r1, r2)
        assert mu.total_mass >= mass_outside(mu, lo) >= mass_outside(mu, hi) >= 0.0

    def test_mass_bound_check(self):
        d = ro.Domain()  # r0 = 0.5
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.0), 1.0),))
        # single atom at distance 1 and alpha = 0.5: cost 1 allows (1/0.5)^2 = 4
        assert ro.mass_bound_check(mu, 1.0, d, 0.5)
        heavy = mu.with_masses([5.0])
        assert not ro.mass_bound_check(heavy, 1.0, d, 0.5)
        with pytest.raises(ro.ValidationError):
            ro.mass_bound_check(mu, -1.0, d, 0.5)
        with pytest.raises(ro.ValidationError):
            ro.mass_bound_check(mu, 1.0, d, 1.5)


class TestGrowth:
    def test_zeros_and_peak(self):
        f = ro.GrowthFunction(u_max=2.0, rate=3.0)
        assert f(0.0) == 0.0
        assert f(2.0) == 0.0
        u = np.linspace(0.0, 2.0, 2001)
        assert f(u).max() == f(1.0) == pytest.approx(3.0 * 2.0 / 4.0)  # rate u_max / 4
        assert u[np.argmax(f(u))] == 1.0

    def test_derivative_matches_difference(self):
        f = ro.GrowthFunction()
        u = 0.3
        fd = (f(u + 1e-7) - f(u - 1e-7)) / 2e-7
        assert f.derivative(u) == pytest.approx(fd, rel=1e-6)

    def test_vector_evaluation(self):
        f = ro.GrowthFunction()
        out = f(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)

    def test_validation(self):
        with pytest.raises(ro.ValidationError):
            ro.GrowthFunction(u_max=-1.0)
        with pytest.raises(ro.ValidationError):
            ro.GrowthFunction(rate=0.0)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = ro.RunConfig()
        assert cfg.grid.nx == 33
        assert cfg.domain.source_distance() == 0.5

    def test_validation(self):
        with pytest.raises(ro.ValidationError):
            ro.RunConfig(alpha=1.0)
        with pytest.raises(ro.ValidationError):
            ro.RunConfig(c=0.0)
        with pytest.raises(ro.ValidationError):
            ro.RunConfig(max_outer_iters=0)
        with pytest.raises(ro.ValidationError):
            ro.RunConfig(spawn_mass=-0.1)
