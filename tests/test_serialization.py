import io
import json
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rootopt as ro
from rootopt import serialization as ser
from rootopt.elliptic import ScalarField

from conftest import manufactured_problem, random_measure, random_tree, spawn_ascent


@pytest.fixture()
def measure():
    rng = np.random.default_rng(70)
    return random_measure(rng, 5)


class TestJsonHelpers:
    def test_dumps_is_key_order_insensitive(self):
        assert ser.dumps_json({"b": 1, "a": 2}) == ser.dumps_json({"a": 2, "b": 1})

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{not json")
        with pytest.raises(ro.ValidationError):
            ser.load_json(p)


# finite doubles, with the subnormals, signed zeros and extremes drawn often
_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308])
# what a hand-written measure may hold besides: integers of any size, those
# beyond 64 bits among them, up to and past the largest double
_NUMBERS = (_DOUBLES | st.integers(-2**70, 2**70) | st.integers(2**64, 2**1030)
            | st.integers(-2**1030, -2**63))


def _outcome(parse):
    """The (positions, masses) bit patterns of the measure that parse()
    gives, or the message of its ValidationError."""
    try:
        mu = parse()
    except ro.ValidationError as exc:
        return str(exc)
    return mu.positions().view(np.int64).tolist(), mu.masses().view(np.int64).tolist()


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    """One file path that each example of a property test writes over."""
    return tmp_path_factory.mktemp("decode") / "measure.json"


class TestDecodeMatchesTheStdlib:
    """The package's JSON reader gives what json.loads gives: the same
    doubles to the bit, the same records, the same errors."""

    @settings(max_examples=200, deadline=None)
    @given(atoms=st.lists(st.tuples(_DOUBLES, _DOUBLES, _DOUBLES), max_size=6))
    def test_measure_text_decodes_to_the_same_bits(self, json_path, atoms):
        try:
            mu = ro.DiscreteMeasure.from_arrays([a[:2] for a in atoms],
                                                [abs(a[2]) for a in atoms])
        except ro.ValidationError:
            assume(False)  # two atoms at one position, or a mass of 0
        text = ser.measure_text(mu)
        ser.save_file(json_path, text)
        assert _outcome(lambda: ser.load_measure_text(json_path)[0]) == _outcome(
            lambda: ser.measure_from_dict(json.loads(text)))

    @settings(max_examples=300, deadline=None)
    @given(atoms=st.lists(st.tuples(_NUMBERS, _NUMBERS, _NUMBERS), max_size=6))
    def test_compact_json_decodes_to_the_same_measure_or_error(self, json_path, atoms):
        text = json.dumps({"atoms": [{"x": x, "y": y, "mass": m} for x, y, m in atoms]},
                          separators=(",", ":"))
        ser.save_file(json_path, text)
        assert _outcome(lambda: ser.load_measure_text(json_path)[0]) == _outcome(
            lambda: ser.measure_from_dict(json.loads(text)))

    def test_ascent_trace_decodes_to_the_same_records(self, tmp_path):
        p = tmp_path / "trace.jsonl"
        ser.save_trace(p, spawn_ascent(ro.Grid(ro.Domain(), 17, 17)))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 21
        # repr shows every float's digits and tells -0.0 from 0.0
        assert repr(ser.load_trace(p)) == repr([json.loads(line) for line in lines])


class TestMeasureFiles:
    def test_round_trip_is_exact(self, tmp_path, measure):
        p = tmp_path / "measure.json"
        ser.save_measure(p, measure)
        back = ser.load_measure(p)
        assert back.positions().tolist() == measure.positions().tolist()
        assert back.masses().tolist() == measure.masses().tolist()

    @pytest.mark.parametrize("atoms", [
        (),
        ((1.0, 0.0, 0.5),),
        ((-0.0, 1e-300, 5e-324), (1e-300, -0.0, 1e-300), (0.5, -0.5, 2.5e300)),
        ((0.0, -0.0, 0.25), (-0.0, 1.0, 5e-324), (1.0, 0.0, 0.5)),
    ], ids=["empty", "one-atom", "signed-zero-and-tiny", "both-zeros"])
    def test_bytes_match_the_json_encoder(self, tmp_path, atoms):
        mu = ro.DiscreteMeasure(tuple(ro.Atom((x, y), m) for x, y, m in atoms))
        p = tmp_path / "measure.json"
        ser.save_measure(p, mu)
        assert p.read_text(encoding="utf-8") == ser.dumps_json(ser.measure_to_dict(mu))

    def test_manufactured_measure_bytes_match_the_json_encoder(self, tmp_path):
        grid = ro.Grid(ro.Domain(), 65, 65)
        mu, _ = manufactured_problem(grid, ro.GrowthFunction())
        p = tmp_path / "measure.json"
        ser.save_measure(p, mu)
        assert p.read_text(encoding="utf-8") == ser.dumps_json(ser.measure_to_dict(mu))
        back = ser.load_measure(p)
        assert back.masses().tolist() == mu.masses().tolist()

    def test_malformed_atom_is_named(self):
        with pytest.raises(ro.ValidationError, match="atom 1"):
            ser.measure_from_dict({"atoms": [{"x": 1.0, "y": 0.0, "mass": 1.0},
                                             {"x": 1.0, "mass": 1.0}]})

    def test_non_object_rejected(self):
        with pytest.raises(ro.ValidationError):
            ser.measure_from_dict([1, 2, 3])

    @pytest.mark.parametrize("n_atoms", [0, 1, 4225])
    def test_load_then_save_reproduces_the_encoder_bytes(self, tmp_path, n_atoms):
        grid = ro.Grid(ro.Domain(), 65, 65)
        rng = np.random.default_rng(n_atoms)
        pos = grid.node_coordinates()[rng.permutation(grid.n_nodes)[:n_atoms]]
        pos[pos == 0.0] = -0.0  # the middle row and no other coordinate
        masses = rng.uniform(0.0, 2.0, n_atoms)
        mu = ro.DiscreteMeasure.from_arrays(pos, masses)
        p, q = tmp_path / "a.json", tmp_path / "b.json"
        ser.save_measure(p, mu)
        ser.save_measure(q, ser.load_measure(p))
        expected = ser.dumps_json(ser.measure_to_dict(mu))
        assert q.read_text(encoding="utf-8") == expected
        assert p.read_text(encoding="utf-8") == expected
        assert expected.count('"y": -0.0\n') == sum(pos[:, 1] == 0.0)

    @pytest.mark.parametrize("bad, message", [
        ({"x": "abc"}, "measure atom 1 needs numeric x, y, mass"),
        ({"x": "1.0"}, "measure atom 1 needs numeric x, y, mass"),
        ({"mass": True}, "measure atom 1 needs numeric x, y, mass"),
        ({"y": None}, "measure atom 1 needs numeric x, y, mass"),
        ({"x": 10 ** 400}, "measure atom 1 needs numeric x, y, mass"),
        ({"y": float("nan")}, "measure atom 1 position must be finite"),
        ({"mass": float("inf")}, "measure atom 1 mass must be finite and > 0"),
        ({"mass": -0.5}, "measure atom 1 mass must be finite and > 0"),
        ({"x": 1.0, "y": 0.0}, r"atoms 0 and 1 share position \(1.0, 0.0\)"),
        ({"weight": 3.5}, "measure atom 1 has unknown key 'weight'"),
    ])
    def test_bad_atom_record_is_named(self, bad, message):
        recs = [{"x": 1.0, "y": 0.0, "mass": 1.0}, {"x": 0.5, "y": 0.25, "mass": 1.0},
                {"x": 0.75, "y": 0.0, "mass": 1.0}]
        recs[1].update(bad)
        with pytest.raises(ro.ValidationError, match=message):
            ser.measure_from_dict({"atoms": recs})

    @pytest.mark.parametrize("d", [{"atoms": None}, {"atoms": {"x": 1.0}}, {"atom": []}],
                             ids=["null", "object", "missing"])
    def test_atoms_must_be_a_list(self, d):
        with pytest.raises(ro.ValidationError, match="an 'atoms' list"):
            ser.measure_from_dict(d)

    def test_integer_coordinates_read_as_floats(self):
        mu = ser.measure_from_dict({"atoms": [{"x": 1, "y": 0, "mass": 2}]})
        assert mu.positions().tolist() == [[1.0, 0.0]]
        assert mu.masses().tolist() == [2.0]


class TestTreeFiles:
    def test_round_trip_preserves_structure_and_flux(self, tmp_path, measure):
        rng = np.random.default_rng(71)
        tree = random_tree(rng, measure)
        p = tmp_path / "tree.json"
        ser.save_file(p, ser.dumps_json(ser.tree_to_dict(tree, measure)))
        back, stored = ser.load_tree(p)
        assert back.positions.tolist() == tree.positions.tolist()
        assert back.parents.tolist() == tree.parents.tolist()
        assert back.kinds == tree.kinds
        assert back.atom_index.tolist() == tree.atom_index.tolist()
        flux = ro.compute_fluxes(back, measure).values
        assert np.array_equal(stored[1:], flux[1:])

    def test_unknown_kind_rejected(self):
        d = {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "kind": "hub", "atom": None}],
             "edges": []}
        with pytest.raises(ro.ValidationError, match="kind"):
            ser.tree_from_dict(d)

    @staticmethod
    def branched_dict():
        """tree.json of a plan whose node 1 is a branch point over two terminals."""
        mu = ro.DiscreteMeasure((ro.Atom((1.0, 0.2), 0.5), ro.Atom((1.0, -0.2), 0.5)))
        tree = ro.IrrigationTree(np.array([[0.0, 0.0], [0.8, 0.0], [1.0, 0.2], [1.0, -0.2]]),
                                 np.array([-1, 0, 1, 1]), np.array([-1, -1, 0, 1]))
        assert tree.kinds == ("root", "steiner", "terminal", "terminal")
        return ser.tree_to_dict(tree, mu)

    @pytest.mark.parametrize("node, kind, atom, message", [
        (2, "terminal", None, "terminal node 2 carries no atom"),
        (1, "steiner", 1, "steiner node 1 carries atom 1"),
        (0, "root", 0, "root node 0 carries atom 0"),
        (1, "root", None, "node 1 is stored as 'root'"),
        (0, "steiner", None, "node 0 is stored as 'steiner'"),
        (1, "steiner", -3, "node 1 has atom index below -1"),
    ])
    def test_kind_that_disagrees_with_place_and_atom_is_named(self, tmp_path, node, kind,
                                                              atom, message):
        d = self.branched_dict()
        ser.tree_from_dict(d)
        d["nodes"][node].update(kind=kind, atom=atom)
        ser.save_file(tmp_path / "tree.json", ser.dumps_json(d))
        with pytest.raises(ro.ValidationError, match=message):
            ser.load_tree(tmp_path / "tree.json")

    def test_edge_out_of_range_is_named(self):
        d = self.branched_dict()
        d["edges"][0]["parent"] = 9
        with pytest.raises(ro.ValidationError, match="edge endpoints out of range"):
            ser.tree_from_dict(d)

    def test_duplicate_id_rejected(self):
        d = {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "kind": "root", "atom": None},
                       {"id": 0, "x": 1.0, "y": 0.0, "kind": "terminal", "atom": 0}],
             "edges": [{"parent": 0, "child": 1, "flux": 1.0}]}
        with pytest.raises(ro.ValidationError):
            ser.tree_from_dict(d)


class TestLandscapeCsv:
    def test_values_written_verbatim(self, tmp_path, measure):
        tree = ro.star_tree(measure)
        z = ro.landscape(tree, measure, 0.5)
        p = tmp_path / "landscape.csv"
        ser.save_file(p, ser.landscape_csv_text(z))
        lines = p.read_text().splitlines()
        assert lines[0] == "node,x,y,z"
        assert len(lines) == tree.n_nodes + 1
        for i, line in enumerate(lines[1:]):
            node, x, y, zv = line.split(",")
            assert int(node) == i
            assert float(zv) == z.values[i]


class TestFieldFiles:
    def make_field(self, n=9):
        grid = ro.Grid(ro.Domain(), n, n)
        rng = np.random.default_rng(72)
        return ScalarField(grid, rng.uniform(-1.0, 2.0, grid.n_nodes))

    def field_csv(self, run_dir, field, monkeypatch, capsys):
        """Store field as run_dir/phi.bin beside a config.txt for its grid and
        return what scripts/field_csv.py prints for it."""
        (run_dir / "config.txt").write_text(ser.config_to_text(ser.ParsedConfig(
            ro.RunConfig(grid=field.grid))))
        ser.save_file(run_dir / "phi.bin", ser.field_binary_bytes(field))
        script = Path(__file__).resolve().parents[1] / "scripts" / "field_csv.py"
        monkeypatch.setattr(sys, "argv", [str(script), str(run_dir), "phi"])
        monkeypatch.setattr(sys, "path", list(sys.path))
        runpy.run_path(str(script), run_name="__main__")
        return capsys.readouterr().out

    def test_csv_round_trip_exact(self, tmp_path, monkeypatch, capsys):
        """Every row reads back as the node's coordinates and value, bit for
        bit, in node order."""
        field = self.make_field()
        text = self.field_csv(tmp_path, field, monkeypatch, capsys)
        back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(back[:, :2], field.grid.node_coordinates())
        assert np.array_equal(back[:, 2], field.values)

    # repr's other forms: signed zeros, integral floats, exponents of both
    # signs, subnormals and the largest double
    REPR_FORMS = [0.0, -0.0, 2.0, 1e-05, 1.5e-300, 5e-324, 1e16, 1.7976931348623157e308,
                  -2.0, -1e-05, -5e-324, -1.7976931348623157e308]

    @pytest.mark.parametrize("nx, ny, rect_max", [
        (3, 3, (1.5, 0.5)), (33, 33, (1.5, 0.5)), (9, 5, (2.5, 0.5)),
        (9, 5, (-0.5, -0.5)), (5, 9, (0.0, 2.25))])
    def test_csv_bytes_match_a_per_node_formatter(self, tmp_path, monkeypatch, capsys,
                                                  nx, ny, rect_max):
        """scripts/field_csv.py prints a run directory's field with one row
        per node, each reading back bit for bit to the node and to the value
        in the .bin.  Every domain is one unit high and ends at rect_max;
        the last two lie at x <= 0, so the x reprs, and in one the y reprs
        too, carry a sign."""
        rect_min = (rect_max[0] - (nx - 1) / (ny - 1), rect_max[1] - 1.0)
        g = ro.Grid(ro.Domain(rect_min=rect_min, rect_max=rect_max), nx, ny)
        rng = np.random.default_rng(73)
        values = np.concatenate([self.REPR_FORMS, rng.uniform(-1.0, 2.0, g.n_nodes)])
        field = ScalarField(g, values[:g.n_nodes])
        text = self.field_csv(tmp_path, field, monkeypatch, capsys)
        rows = ["x,y,value"]
        for (x, y), v in zip(g.node_coordinates().tolist(), field.values.tolist()):
            rows.append(f"{x!r},{y!r},{v!r}")
        assert text == "\n".join(rows) + "\n"
        back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert back[:, :2].view(np.int64).tolist() == g.node_coordinates().view(np.int64).tolist()
        assert back[:, 2].view(np.int64).tolist() == field.values.view(np.int64).tolist()

    def test_binary_round_trip_exact(self, tmp_path):
        field = self.make_field()
        p = tmp_path / "field.bin"
        ser.save_file(p, ser.field_binary_bytes(field))
        back = ser.load_field_binary(p, field.grid.domain)
        assert np.array_equal(back.values, field.values)

    def test_binary_wrong_domain_rejected(self, tmp_path):
        field = self.make_field()
        p = tmp_path / "field.bin"
        ser.save_file(p, ser.field_binary_bytes(field))
        other = ro.Domain(rect_min=(0.75, -0.5), rect_max=(1.75, 0.5))
        with pytest.raises(ro.ValidationError, match="bounds"):
            ser.load_field_binary(p, other)

    def test_binary_truncated_rejected(self, tmp_path):
        p = tmp_path / "field.bin"
        p.write_bytes(b"\x01\x02")
        with pytest.raises(ro.ValidationError, match="truncated"):
            ser.load_field_binary(p, ro.Domain())


@pytest.fixture(scope="module")
def trace():
    grid = ro.Grid(ro.Domain(), 9, 9)
    cfg = ro.RunConfig(grid=grid, c=0.1, max_outer_iters=4)
    mu0 = ro.DiscreteMeasure((ro.Atom(grid.node_position(6, 4), 0.3),))
    return ro.ascend_measure(cfg, mu0)


class TestTraceAndReport:
    def test_trace_round_trip(self, tmp_path, trace):
        p = tmp_path / "trace.jsonl"
        ser.save_trace(p, trace)
        records = ser.load_trace(p)
        assert records == [ser.trace_step_dict(s) for s in trace.steps]
        assert records[0]["iteration"] == 0
        assert all(set(r) == {"iteration", "payoff", "sup_residual", "accepted",
                              "spawned", "eta", "atoms", "solver_errors"} for r in records)

    def test_report_round_trip(self, tmp_path, trace):
        p = tmp_path / "report.json"
        ser.save_file(p, ser.dumps_json(ser.report_to_dict(trace.report, trace.converged,
                                                         len(trace.steps) - 1)))
        back = ser.load_report(p)
        assert back == ser.report_to_dict(trace.report, trace.converged,
                                          len(trace.steps) - 1)
        assert back["payoff"] == trace.report.payoff

    def test_report_with_path_check(self, tmp_path, trace):
        check = ro.path_inequality_check(trace.state, trace.adjoint, trace.final.landscape,
                                         0.1, trace.report.alpha)
        p = tmp_path / "report.json"
        ser.save_file(p, ser.dumps_json(ser.report_to_dict(trace.report, True, 3,
                                                         path_check=check)))
        back = ser.load_report(p)
        assert back["path_check"]["n_samples"] == check.n_samples

    def test_not_a_report_rejected(self, tmp_path):
        p = tmp_path / "report.json"
        p.write_text("{\"payoff\": 1.0}\n")
        with pytest.raises(ro.ValidationError):
            ser.load_report(p)


class TestConfigText:
    def test_round_trip_reproduces_run_config(self):
        cfg = ro.RunConfig(grid=ro.Grid(ro.Domain(), 17, 17), alpha=0.62,
                           c=0.31, tol_residual=2e-5, spawn=True, spawn_mass=0.07)
        parsed = ser.ParsedConfig(cfg, measure_path="measure.json", snap_measure=True)
        text = ser.config_to_text(parsed)
        back = ser.config_from_mapping(ser.parse_config_text(text))
        assert back.run == cfg
        assert back.measure_path == "measure.json"
        assert back.snap_measure is True

    def test_defaults_when_empty(self):
        parsed = ser.config_from_mapping({})
        assert parsed.run == ro.RunConfig()
        assert parsed.measure_path is None

    def test_unknown_key_is_named(self):
        with pytest.raises(ro.ValidationError, match="unknown config key: 'gamma'"):
            ser.parse_config_entry("gamma", "1.0")

    def test_bad_value_names_the_key(self):
        with pytest.raises(ro.ValidationError, match="'nx'"):
            ser.parse_config_entry("nx", "many")

    def test_comments_and_blanks_skipped(self):
        text = "# irrigation exponent\n\nalpha = 0.5\n  # done\n"
        assert ser.parse_config_text(text) == {"alpha": 0.5}

    def test_line_without_equals_reports_line_number(self):
        with pytest.raises(ro.ValidationError, match="line 2"):
            ser.parse_config_text("alpha = 0.5\nbogus\n")

    def test_boolean_spellings(self):
        for raw, want in (("true", True), ("YES", True), ("0", False), ("no", False)):
            assert ser.parse_config_entry("spawn", raw) == ("spawn", want)
        with pytest.raises(ro.ValidationError):
            ser.parse_config_entry("spawn", "maybe")


class TestConfigSchema:
    def test_every_key_round_trips_a_non_default_value(self):
        """A config that sets every key away from its default comes back
        whole through config_to_text, parse_config_text and
        config_from_mapping."""
        domain = ro.Domain(rect_min=(0.25, -0.75), rect_max=(2.25, 0.25))
        run = ro.RunConfig(
            grid=ro.Grid(domain, 17, 9), alpha=0.6, c=0.3,
            growth=ro.GrowthFunction(u_max=2.5, rate=3.0), tol_nonlinear=1e-9,
            tol_linear=1e-11, tol_residual=1e-5, max_outer_iters=7, max_plan_moves=50,
            step_size=0.5, spawn=True, spawn_mass=0.02, path_tol=1e-4)
        parsed = ser.ParsedConfig(run, measure_path="data/mu.json", snap_measure=True)
        values = ser.parse_config_text(ser.config_to_text(parsed))
        assert sorted(values) == sorted(ser.CONFIG_KEYS)
        defaults = ser.parse_config_text(ser.config_to_text(ser.ParsedConfig(ro.RunConfig())))
        assert "measure_path" not in defaults
        assert [k for k in values if values[k] == defaults.get(k)] == []
        assert ser.config_from_mapping(values) == parsed

    def test_parsers_follow_the_default_types(self):
        want = {"nx": 17, "max_plan_moves": 4, "alpha": 0.5, "u_max": 2.0,
                "spawn": True, "measure_path": "a b.json"}
        for key, value in want.items():
            got = ser.parse_config_entry(key, f"  {value} ")[1]
            assert got == value and type(got) is type(value)

    def test_bad_boolean_names_the_stripped_value(self):
        with pytest.raises(ro.ValidationError,
                           match=r"^config key 'spawn': expected a boolean, got 'maybe'$"):
            ser.parse_config_text("spawn =  maybe \n")

    def test_config_errors_stay_named(self):
        with pytest.raises(ro.ValidationError, match="unknown config key: 'gamma'"):
            ser.config_from_mapping({"gamma": 1.0})
        with pytest.raises(ro.ValidationError, match="grid spacing must be uniform"):
            ser.config_from_mapping({"nx": 17})
        with pytest.raises(ro.ValidationError, match="alpha must be in"):
            ser.config_from_mapping({"alpha": 1.5})
        with pytest.raises(ro.ValidationError, match="origin must lie strictly outside"):
            ser.config_from_mapping({"rect_min_x": -1.0})

    @pytest.mark.parametrize("values, key, expected", [
        ({"spawn": "no"}, "spawn", "a boolean"),
        ({"alpha": "0.5"}, "alpha", "a number"),
        ({"nx": "17", "ny": "17"}, "nx", "an integer"),
    ])
    def test_unparsed_values_are_named(self, values, key, expected):
        """A mapping of text values is rejected by key, not run with a truthy
        string or failed with a bare TypeError."""
        with pytest.raises(ro.ValidationError,
                           match=rf"^config key '{key}': expected {expected}, got '"):
            ser.config_from_mapping(values)

    def test_mapping_types_follow_the_parsers(self):
        """A bool is not an integer or a number, a float is not an integer,
        and an integer passes as a float key's value."""
        for values in ({"nx": True}, {"c": False}, {"nx": 17.0}, {"spawn": 1},
                       {"measure_path": 3}):
            with pytest.raises(ro.ValidationError, match="config key"):
                ser.config_from_mapping(values)
        parsed = ser.config_from_mapping({"c": 1, "measure_path": None})
        assert parsed.run.c == 1.0 and type(parsed.run.c) is float

    def test_readme_lists_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config keys:", 1)[1].split(".", 1)[0]
        assert re.findall(r"`([a-z_]+)`", block) == list(ser.CONFIG_KEYS)
