import io
import json
import re
import shutil
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

import rootopt as ro
from rootopt.cli import main
from rootopt.elliptic import ScalarField
from rootopt.serialization import (dumps_json, field_binary_bytes, load_field_binary,
                                   load_measure, load_report, load_trace, load_tree,
                                   measure_text, save_file, save_measure)


def write_setup(dirpath, config_lines, atoms):
    cfg = dirpath / "config.txt"
    cfg.write_text("measure_path = measure.json\n" + "\n".join(config_lines) + "\n")
    (dirpath / "measure.json").write_text(json.dumps(
        {"atoms": [{"x": x, "y": y, "mass": m} for x, y, m in atoms]}))
    return cfg


def spawn_setup(dirpath):
    """Two seed atoms on a 9x9 grid and 6 iterations of the spawn ascent,
    whose plan breaks the path inequality at most of its samples."""
    return write_setup(dirpath, ["nx = 9", "ny = 9", "c = 0.1", "max_outer_iters = 6",
                                 "spawn = true", "spawn_mass = 0.05"],
                       [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])


@pytest.fixture()
def single_atom_setup(tmp_path):
    # one atom on a 17 x 17 grid node, unit distance from the source
    cfg = write_setup(tmp_path, ["nx = 17", "ny = 17", "alpha = 0.5"],
                      [(1.0, 0.0, 0.5)])
    return cfg, tmp_path


class TestSnapToGrid:
    @staticmethod
    def dict_loop(mu, grid):
        """The snap one atom at a time: the scalar rounding rule, masses
        summed per node in atom order, nodes in sorted (ix, iy) order."""
        acc = {}
        for (x, y), m in zip(mu.positions().tolist(), mu.masses().tolist()):
            ix = int(round((x - grid.domain.rect_min[0]) / grid.h))
            iy = int(round((y - grid.domain.rect_min[1]) / grid.h))
            key = (min(max(ix, 0), grid.nx - 1), min(max(iy, 0), grid.ny - 1))
            acc[key] = acc.get(key, 0.0) + m
        nodes = sorted(acc)
        return ro.DiscreteMeasure.from_arrays([grid.node_position(*k) for k in nodes],
                                              [acc[k] for k in nodes])

    def test_one_rounding_pass_gives_the_dict_loop_bytes(self, monkeypatch):
        """300 atoms on 81 nodes, inside the rectangle and up to 0.4 h
        around it: the snapped measure holds the loop's bytes, from one call
        of Grid.nearest_nodes for all atoms; the empty measure stays empty."""
        from rootopt.cli import _snap_to_grid
        grid = ro.Grid(ro.Domain(), 9, 9)  # h = 1/8
        rng = np.random.default_rng(4)
        mu = ro.DiscreteMeasure.from_arrays(rng.uniform((0.45, -0.55), (1.55, 0.55), (300, 2)),
                                            rng.uniform(0.01, 1.0, 300))
        calls = []
        nearest = ro.Grid.nearest_nodes

        def counting(self, positions):
            calls.append(len(positions))
            return nearest(self, positions)

        monkeypatch.setattr(ro.Grid, "nearest_nodes", counting)
        snapped, ref = _snap_to_grid(mu, grid), self.dict_loop(mu, grid)
        assert calls == [300]
        assert len(ref) < len(mu) // 3  # nodes collect several atoms each
        assert snapped.positions().tobytes() == ref.positions().tobytes()
        assert snapped.masses().tobytes() == ref.masses().tobytes()
        empty = _snap_to_grid(ro.DiscreteMeasure(), grid)
        assert len(empty) == 0 and empty.positions().shape == (0, 2)

    def test_far_atom_is_named(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "snap_measure = true"],
                          [(1.0, 0.0, 0.3), (5.0, 3.0, 0.2)])
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            "error: measure atom 1 at (5.0, 3.0) lies more than h/2 outside the "
            "rectangle, so no node is near it\n")

    def test_atoms_within_half_a_cell_of_a_wall_snap_onto_it(self):
        from rootopt.cli import _snap_to_grid
        grid = ro.Grid(ro.Domain(), 9, 9)  # h = 1/8
        mu = ro.DiscreteMeasure.from_arrays(
            [(1.5 + 0.4 * grid.h, 0.0), (1.0, -0.5 - 0.4 * grid.h)], [0.3, 0.2])
        snapped = _snap_to_grid(mu, grid)
        assert snapped.positions().tolist() == [[1.0, -0.5], [1.5, 0.0]]
        assert snapped.masses().tolist() == [0.2, 0.3]

    def test_default_measure_is_unchanged(self):
        from rootopt.cli import _default_measure
        from rootopt.serialization import ParsedConfig
        mu = _default_measure(ParsedConfig(ro.RunConfig()))  # 33x33, h = 1/32
        assert mu.positions().tolist() == [[0.8125, -0.21875], [0.9375, 0.3125],
                                           [1.15625, 0.03125]]
        assert mu.masses().tolist() == [0.35, 0.25, 0.4]


class TestIrrigate:
    def test_single_atom_cost_closed_form(self, single_atom_setup, capsys):
        cfg, tmp = single_atom_setup
        out = tmp / "run"
        assert main(["irrigate", "--config", str(cfg), "--out", str(out)]) == 0
        cost = json.loads((out / "cost.json").read_text())
        assert cost["alpha"] == 0.5
        assert cost["n_atoms"] == 1
        assert cost["total_mass"] == 0.5
        assert cost["cost"] == pytest.approx(0.5 ** 0.5, rel=1e-12)
        assert cost["lower_bound"] == pytest.approx(cost["cost"], rel=1e-12)
        for name in ("tree.json", "plan.svg", "landscape.csv", "config.txt",
                     "measure.json"):
            assert (out / name).exists()

    def test_default_measure_when_no_config(self, tmp_path):
        out = tmp_path / "run"
        assert main(["irrigate", "--out", str(out)]) == 0
        mu = load_measure(out / "measure.json")
        assert len(mu) == 3
        # a measure the command derives is stored as the canonical text
        assert (out / "measure.json").read_text() == measure_text(mu)

    def test_set_overrides_config(self, single_atom_setup):
        cfg, tmp = single_atom_setup
        out = tmp / "run"
        assert main(["irrigate", "--config", str(cfg), "--out", str(out),
                     "--set", "alpha=0.9"]) == 0
        assert "alpha = 0.9" in (out / "config.txt").read_text()

    def test_unknown_set_key_fails_validation(self, single_atom_setup, capsys):
        cfg, tmp = single_atom_setup
        out = tmp / "run"
        rc = main(["irrigate", "--config", str(cfg), "--out", str(out),
                   "--set", "beta=1"])
        assert rc == 1
        assert "unknown config key: 'beta'" in capsys.readouterr().err

    def test_origin_keys_are_unknown(self, single_atom_setup, capsys):
        """The source sits at (0, 0); there is no key that moves it."""
        cfg, tmp = single_atom_setup
        rc = main(["irrigate", "--config", str(cfg), "--out", str(tmp / "run"),
                   "--set", "origin_x=-0.5"])
        assert rc == 1
        assert "unknown config key: 'origin_x'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["irrigate", "optimize"])
    def test_rectangle_left_of_the_source_passes_verify(self, tmp_path, capsys, subcommand):
        """A rectangle moved to the source's left: plans stay rooted at
        (0, 0), and the cost and mass bounds that verify re-derives hold."""
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1", "max_outer_iters = 4",
                                     "rect_min_x = -1.5", "rect_max_x = -0.5"],
                          [(-1.0, 0.0, 0.3), (-1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ok: cost lower bound" in stdout and "ok: mass bound" in stdout
        assert load_tree(out / "tree.json")[0].positions[0].tolist() == [0.0, 0.0]

    def test_off_grid_measure_fails_without_snap(self, tmp_path):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"], [(1.001, 0.0, 0.5)])
        out = tmp_path / "run"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 1

    def test_snap_measure_rounds_to_grid(self, tmp_path):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17", "snap_measure = true"],
                          [(1.001, 0.0, 0.5)])
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        mu = load_measure(out / "measure.json")
        assert mu.atoms[0].position == (1.0, 0.0)
        assert (out / "measure.json").read_text() == measure_text(mu)


class TestBadMeasureFiles:
    GOOD = '{"x": 1.0, "y": 0.0, "mass": 0.5}'

    @pytest.mark.parametrize("atoms, message", [
        (f'[{GOOD}, {{"x": "abc", "y": 0.25, "mass": 0.5}}]',
         "measure atom 1 needs numeric x, y, mass"),
        ("null", "measure JSON must be an object with an 'atoms' list"),
        ('[{"x": true, "y": 0.0, "mass": 0.5}]', "measure atom 0 needs numeric x, y, mass"),
        (f'[{GOOD}, {GOOD.replace("1.0", "0.5")}, {{"x": 0.75, "y": NaN, "mass": 0.5}}]',
         "measure atom 2 position must be finite, got (0.75, nan)"),
        (f'[{GOOD}, {{"x": 0.75, "y": 0.0, "mass": 0.5}}, {GOOD}]',
         "atoms 0 and 2 share position (1.0, 0.0)"),
        (f'[{GOOD}, {{"x": 0.75, "y": 0.0, "mass": 0.5, "weight": 3.5}}]',
         "measure atom 1 has unknown key 'weight'"),
        (f'[{GOOD}], "weight": 3.5', "unknown measure key: 'weight'"),
        # documents that orjson refuses and the stdlib's json decodes
        ('[{"x": 1e400, "y": 0.0, "mass": 0.5}]',
         "measure atom 0 position must be finite, got (inf, 0.0)"),
        ('[{"x": 1.0, "y": 0.0, "mass": -Infinity}]',
         "measure atom 0 mass must be finite and > 0, got -inf"),
        ('[{"x": 1.0, "y": 0.0, "mass": 0.5, "\\ud800": 1}]',
         "measure atom 0 has unknown key '\\ud800'"),
        # nested deeper than json's recursion limit, which orjson refuses too
        ("[" * 100_000 + "NaN" + "]" * 100_000,
         "{path}: not valid JSON: maximum recursion depth exceeded while decoding a JSON "
         "array from a unicode string"),
        # an atom of mass 0 lies off the support, so no measure holds one
        (f'[{GOOD}, {{"x": 0.75, "y": 0.0, "mass": 0.0}}]',
         "measure atom 1 mass must be finite and > 0, got 0.0"),
        (f'[{GOOD}, {{"x": 0.75, "y": 0.0, "mass": -0.0}}]',
         "measure atom 1 mass must be finite and > 0, got -0.0"),
    ], ids=["string-x", "null-atoms", "boolean-x", "nan-y", "duplicate", "unknown-atom-key",
            "unknown-top-level-key", "overflowing-x", "infinite-mass", "lone-surrogate-key",
            "deep-nesting", "zero-mass", "negative-zero-mass"])
    def test_named_error_and_no_traceback(self, tmp_path, capsys, atoms, message):
        (tmp_path / "measure.json").write_text('{"atoms": %s}\n' % atoms)
        cfg = tmp_path / "config.txt"
        cfg.write_text("measure_path = measure.json\nnx = 17\nny = 17\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(path=tmp_path / 'measure.json')}\n"


class TestInputMeasureStoredAsRead:
    @pytest.mark.parametrize("subcommand, stored", [
        ("irrigate", "measure.json"), ("solve", "measure.json"), ("adjoint", "measure.json"),
        ("optimize", "measure_initial.json")])
    def test_stored_as_the_text_read_and_rerun_to_the_same_bytes(self, tmp_path, subcommand,
                                                                 stored):
        """irrigate, solve, adjoint and optimize store the input measure as
        the text they read, not re-encoded: here not the canonical text (an
        int coordinate, keys in another order) and with CRLF line ends, read
        as LF.  The rerun from the directory's config.txt reads that text and
        writes every file again byte for byte; optimize's final measure is
        the canonical text."""
        text = ('{"atoms": [\n{"mass": 0.3, "x": 1, "y": 0.0},\n'
                '{"y": 0.25, "x": 1.25, "mass": 0.2}\n]}\n')
        (tmp_path / "measure.json").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        cfg = tmp_path / "config.txt"
        cfg.write_text("measure_path = measure.json\nnx = 9\nny = 9\nc = 0.1\n"
                       "max_outer_iters = 2\n")
        run, rerun = tmp_path / "run", tmp_path / "rerun"
        assert main([subcommand, "--config", str(cfg), "--out", str(run)]) == 0
        assert (run / stored).read_bytes() == text.encode("utf-8")
        if subcommand == "optimize":
            assert (run / "measure.json").read_text() == measure_text(
                load_measure(run / "measure.json"))
        assert main([subcommand, "--config", str(run / "config.txt"), "--out", str(rerun)]) == 0
        files = sorted(p.name for p in run.iterdir())
        assert sorted(p.name for p in rerun.iterdir()) == files
        for name in files:
            assert (rerun / name).read_bytes() == (run / name).read_bytes(), name


class TestFilesThatAreNotUtf8:
    """A measure, config or trace whose bytes are not UTF-8 ends the command,
    or scripts/field_csv.py, with an error naming the file, not a traceback."""

    def test_measure(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"], [(1.0, 0.0, 0.5)])
        measure = tmp_path / "measure.json"
        measure.write_bytes(b"\xff\xfe" + measure.read_bytes())
        assert main(["irrigate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {measure}: not UTF-8 text: ")

    def test_config(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"], [(1.0, 0.0, 0.5)])
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        assert main(["irrigate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text: ")

    def test_trace(self, tmp_path, capsys):
        out = TestVerify().run_pipeline(tmp_path)
        trace = out / "trace.jsonl"
        trace.write_bytes(trace.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {trace}: not UTF-8 text: ")

    def test_config_read_by_field_csv(self, tmp_path):
        out = TestVerify().run_pipeline(tmp_path, subcommand="adjoint")
        cfg = out / "config.txt"
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        script = Path(__file__).resolve().parents[1] / "scripts" / "field_csv.py"
        proc = subprocess.run([sys.executable, str(script), str(out), "phi"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {cfg}: not UTF-8 text: ")
        assert proc.stderr.count("\n") == 1


class TestReadmeArtifacts:
    """README's "Artifacts per subcommand" bullets name exactly the files
    that irrigate, solve, adjoint and optimize write, besides config.txt and
    the input measure."""

    @staticmethod
    def bullets():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        # the list is the paragraph after the one that introduces it
        bullets = text.split("Artifacts per subcommand", 1)[1].split("\n\n")[1]
        return {cmd: set(re.findall(r"`([^`]+)`", body)) for cmd, body in
                re.findall(r"^\* `(\w+)`: (.*?)(?=^\* |\Z)", bullets, re.M | re.S)}

    @pytest.mark.parametrize("subcommand, measure", [
        ("irrigate", "measure.json"), ("solve", "measure.json"), ("adjoint", "measure.json"),
        ("optimize", "measure_initial.json")])
    def test_each_bullet_names_the_written_files(self, tmp_path, subcommand, measure):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1", "max_outer_iters = 2"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        written = {p.name for p in out.iterdir()} - {"config.txt", measure}
        assert self.bullets()[subcommand] == written


class TestFieldsPathBuildsNoAtoms:
    def test_adjoint_and_verify_on_65_squared(self, tmp_path, monkeypatch, capsys):
        from conftest import manufactured_problem
        mu, _ = manufactured_problem(ro.Grid(ro.Domain(), 65, 65), ro.GrowthFunction())
        save_measure(tmp_path / "measure.json", mu)
        cfg = tmp_path / "config.txt"
        cfg.write_text("measure_path = measure.json\nnx = 65\nny = 65\n")
        built = []
        post_init = ro.Atom.__post_init__

        def counting(atom):
            built.append(atom)
            post_init(atom)

        monkeypatch.setattr(ro.Atom, "__post_init__", counting)
        out = tmp_path / "run"
        assert main(["adjoint", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        assert "all 7 checks passed" in capsys.readouterr().out
        assert built == []
        ro.Atom((1.0, 0.0), 1.0)
        assert len(built) == 1  # the counter counts


class TestNarrowGrids:
    @pytest.mark.parametrize("nx, ny", [(3, 3), (4, 4), (5, 5), (5, 9)],
                             ids=["3x3", "4x4", "5x5", "5x9"])
    def test_every_command_passes_verify(self, tmp_path, capsys, nx, ny):
        """On grids down to the narrowest that Grid accepts (nx = 3),
        irrigate, solve, adjoint and a 5-iteration spawn ascent each exit 0,
        and verify passes every check of each directory."""
        grid = ro.Grid(ro.Domain((0.5, -0.5), (1.5, -0.5 + (ny - 1) / (nx - 1))), nx, ny)
        cfg = write_setup(tmp_path, [f"nx = {nx}", f"ny = {ny}",
                                     f"rect_max_y = {grid.domain.rect_max[1]!r}", "c = 0.1",
                                     "max_outer_iters = 5", "spawn = true", "spawn_mass = 0.05"],
                          [(*grid.node_position(nx - 1, 0), 0.3),
                           (*grid.node_position(nx // 2, ny - 1), 0.2)])
        for cmd in ("irrigate", "solve", "adjoint", "optimize"):
            out = tmp_path / cmd
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0, cmd
            capsys.readouterr()
            assert main(["verify", "--out", str(out)]) == 0, cmd
            assert re.search(r"all \d+ checks passed\n$", capsys.readouterr().out), cmd


class TestParser:
    def test_built_once_and_left_unchanged_by_parsing(self, single_atom_setup):
        from rootopt.cli import _parser
        cfg, tmp = single_atom_setup
        assert _parser() is _parser()
        assert main(["irrigate", "--config", str(cfg), "--out", str(tmp / "a"),
                     "--set", "alpha=0.9"]) == 0
        assert main(["irrigate", "--config", str(cfg), "--out", str(tmp / "b")]) == 0
        assert "alpha = 0.9" in (tmp / "a" / "config.txt").read_text()
        assert "alpha = 0.5" in (tmp / "b" / "config.txt").read_text()
        assert _parser().parse_args(["verify", "--out", "x"]).set == []


class TestSolveAndAdjoint:
    def test_solve_artifacts(self, single_atom_setup):
        cfg, tmp = single_atom_setup
        out = tmp / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        h = json.loads((out / "harvest.json").read_text())
        assert 0.0 < h["harvest"] < 0.5  # mass 0.5, u below carrying capacity
        assert 0.0 <= h["u_min"] <= h["u_max"] <= 1.0
        assert (out / "state.bin").exists()
        assert not list(out.glob("*.csv"))

    def test_adjoint_artifacts(self, single_atom_setup):
        cfg, tmp = single_atom_setup
        out = tmp / "run"
        assert main(["adjoint", "--config", str(cfg), "--out", str(out)]) == 0
        a = json.loads((out / "adjoint.json").read_text())
        assert a["psi_min"] >= -1e-9
        assert a["psi_max"] <= a["lambda_bound"] * 1.0 + 1.0 + 1e-9
        for name in ("state.bin", "psi.bin", "phi.bin"):
            assert (out / name).exists()
        assert not list(out.glob("*.csv"))

    def test_adjoint_refines_with_the_states_factors(self, tmp_path):
        """Newton finishes the cold state solve, so the state carries its
        factors; the adjoint is those factors refined against its own
        matrix, and its artifacts hold exactly those bytes."""
        from rootopt import elliptic as ell
        cfg = write_setup(tmp_path, ["nx = 33", "ny = 33"],
                          [(0.5, -0.25, 0.4), (1.0, 0.0, 0.7), (1.5, 0.5, 0.2)])
        out = tmp_path / "run"
        assert main(["adjoint", "--config", str(cfg), "--out", str(out)]) == 0
        run = ro.RunConfig(grid=ro.Grid(ro.Domain(), 33, 33))
        mu = load_measure(tmp_path / "measure.json")
        u = ro.solve_state(run.grid, mu, run.growth, tol=run.tol_nonlinear,
                           tol_linear=run.tol_linear)
        assert u._factors is not None
        a = ro.lump_measure(mu, run.grid).density()
        coeff = a - run.growth.derivative(u.values)
        psi, lu = ell._solve(run.grid, coeff, a, run.tol_linear, u._factors)
        assert lu is u._factors  # refined, not refactorized
        psi = ScalarField(run.grid, psi)
        for name, field in (("state", u), ("psi", psi), ("phi", ro.phi_field(u, psi))):
            save_file(tmp_path / f"{name}.bin", field_binary_bytes(field))
            assert (out / f"{name}.bin").read_bytes() == (tmp_path / f"{name}.bin").read_bytes()


class TestFieldCsvMatchesBinary:
    @pytest.mark.parametrize("subcommand", ["adjoint", "optimize"])
    def test_every_csv_reads_back_to_its_binary(self, tmp_path, subcommand):
        """scripts/field_csv.py prints each field of the run directory as the
        node coordinates and the values of its .bin artifact, bit for bit."""
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1", "max_outer_iters = 3"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.stem for p in out.glob("*.bin"))
        assert names == ["phi", "psi", "state"]
        script = Path(__file__).resolve().parents[1] / "scripts" / "field_csv.py"
        grid = ro.Grid(ro.Domain(), 9, 9)
        for name in names:
            proc = subprocess.run([sys.executable, str(script), str(out), name],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            back = np.loadtxt(io.StringIO(proc.stdout), delimiter=",", skiprows=1)
            field = load_field_binary(out / f"{name}.bin", grid.domain)
            assert back[:, :2].view(np.int64).tolist() == \
                grid.node_coordinates().view(np.int64).tolist()
            assert back[:, 2].view(np.int64).tolist() == field.values.view(np.int64).tolist()


class TestOptimize:
    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1",
                                     "max_outer_iters = 5"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        steps = load_trace(out / "trace.jsonl")
        assert steps[0]["iteration"] == 0
        pays = [s["payoff"] for s in steps if s["accepted"]]
        assert all(b >= a for a, b in zip(pays, pays[1:]))
        report = json.loads((out / "report.json").read_text())
        assert report["payoff"] == pytest.approx(
            report["harvest"] - report["c"] * report["irrigation_cost"])
        assert (out / "measure_initial.json").exists()
        assert (out / "support.json").exists()

    def test_rerun_from_its_config_reproduces_every_file(self, tmp_path):
        """config.txt names the initial measure, so optimize run again from
        a run directory's config.txt writes the same bytes into every file."""
        cfg = spawn_setup(tmp_path)
        run, rerun = tmp_path / "run", tmp_path / "rerun"
        assert main(["optimize", "--config", str(cfg), "--out", str(run)]) == 0
        assert "measure_path = measure_initial.json\n" in (run / "config.txt").read_text()
        assert main(["optimize", "--config", str(run / "config.txt"), "--out", str(rerun)]) == 0
        files = sorted(p.name for p in run.iterdir())
        assert sorted(p.name for p in rerun.iterdir()) == files
        for name in files:
            assert (rerun / name).read_bytes() == (run / name).read_bytes(), name


class TestVerify:
    def run_pipeline(self, tmp_path, subcommand="optimize"):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1",
                                     "max_outer_iters = 4"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_verify_passes_on_honest_artifacts(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        assert main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "all" in stdout and "checks passed" in stdout
        assert "invariant violated" not in stdout

    @staticmethod
    def count_calls(monkeypatch, names):
        """{name: 0} for the functions named, each replaced wherever
        rootopt.cli or rootopt.optimality binds it by a wrapper that counts
        its calls there."""
        import rootopt.cli as cli
        import rootopt.optimality as optimality

        calls = dict.fromkeys(names, 0)
        for module in (cli, optimality):
            for name in names:
                if not hasattr(module, name):
                    continue

                def counting(*args, _name=name, _real=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        return calls

    def test_landscape_is_derived_once(self, tmp_path, capsys, monkeypatch):
        """The tree checks and the rebuilds of landscape.csv and report.json,
        its path check included, share one landscape; every check still
        runs, in order."""
        out = self.run_pipeline(tmp_path)
        capsys.readouterr()
        calls = self.count_calls(monkeypatch, ["landscape"])
        assert main(["verify", "--out", str(out)]) == 0
        assert calls == {"landscape": 1}
        assert capsys.readouterr().out.splitlines() == [f"ok: {name}" for name in (
            "atoms have terminals", "terminals on atoms",
            "landscape identity", "cost lower bound", "mass bound", "landscape Holder bound",
            "field resolution", "state box bounds", "state residual", "adjoint bounds",
            "adjoint residual", "trace iterations contiguous", "trace monotonicity",
            "trace starts at measure_initial.json", "trace ends at measure.json",
            "tree.json", "landscape.csv", "plan.svg", "phi.bin", "report.json",
            "support.json")] + ["all 21 checks passed"]

    def test_optimize_derives_one_landscape_and_report_per_iteration(self, tmp_path,
                                                                      monkeypatch):
        """Without spawning, an optimize run derives one landscape and one
        first-order report per iteration, iteration 0 included, for the
        evaluation the iteration keeps; landscape.csv and report.json, its
        path check included, are written from the final evaluation's."""
        calls = self.count_calls(monkeypatch, ["landscape", "optimality_residual"])
        out = self.run_pipeline(tmp_path)
        assert len(load_trace(out / "trace.jsonl")) == 5
        assert calls == {"landscape": 5, "optimality_residual": 5}

    @staticmethod
    def tamper_json(out, name, change):
        """Apply change to the JSON of file `name` and write it back in its
        writer's format; returns the first line that changed."""
        before = (out / name).read_text()
        data = json.loads(before)
        change(data)
        after = dumps_json(data)
        (out / name).write_text(after)
        lines = zip_longest(before.splitlines(), after.splitlines())
        return next(k for k, (a, b) in enumerate(lines, 1) if a != b)

    @staticmethod
    def rebuild_differs(name, line):
        return (f"invariant violated: {name}: stored bytes differ from the rebuild "
                f"from line {line}")

    def test_tampered_flux_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        line = self.tamper_json(out, "tree.json", lambda t: t["edges"][0].update(
            flux=t["edges"][0]["flux"] * 1.5))
        assert main(["verify", "--out", str(out)]) == 1
        assert self.rebuild_differs("tree.json", line) in capsys.readouterr().out

    def test_moved_terminal_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path, subcommand="irrigate")
        tree = json.loads((out / "tree.json").read_text())
        node = next(rec for rec in tree["nodes"] if rec["kind"] == "terminal")
        node["y"] += 0.2
        (out / "tree.json").write_text(json.dumps(tree))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "invariant violated: terminals on atoms" in stdout
        assert f"terminal node {node['id']} sits" in stdout

    def test_root_claiming_an_atom_is_named(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path, subcommand="irrigate")
        tree = json.loads((out / "tree.json").read_text())
        tree["nodes"][0]["atom"] = 0
        (out / "tree.json").write_text(json.dumps(tree))
        assert main(["verify", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "root node 0 carries atom 0" in captured.err
        assert "terminal node 0" not in captured.out

    def test_atom_without_terminal_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path, subcommand="irrigate")
        measure = json.loads((out / "measure.json").read_text())
        measure["atoms"].append({"x": 1.5, "y": 0.5, "mass": 0.1})
        (out / "measure.json").write_text(json.dumps(measure))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "invariant violated: atoms have terminals" in stdout
        assert "first atom 2" in stdout

    def tamper_field(self, out, name, change):
        grid_field = load_field_binary(out / name, ro.Domain())
        save_file(out / name, field_binary_bytes(
            ScalarField(grid_field.grid, change(grid_field.values))))

    def test_halved_state_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path, subcommand="solve")
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: state residual" in capsys.readouterr().out
        self.tamper_field(out, "state.bin", lambda u: 0.5 * u)
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: state box bounds" in stdout
        assert "invariant violated: state residual" in stdout

    def test_perturbed_adjoint_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path, subcommand="adjoint")
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: adjoint residual" in capsys.readouterr().out
        self.tamper_field(out, "psi.bin", lambda psi: psi * (1.0 + 1e-6))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: adjoint bounds" in stdout and "ok: state residual" in stdout
        assert "invariant violated: adjoint residual" in stdout

    @pytest.mark.parametrize("name, n", [("state.bin", 11), ("phi.bin", 17)])
    def test_field_on_another_grid_is_caught(self, tmp_path, capsys, name, n):
        """A 9x9 run whose field is swapped for one on an n x n grid: on 11x11
        the atoms are off-node, on 17x17 phi.bin is read by no other check."""
        out = self.run_pipeline(tmp_path, subcommand="adjoint")
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: field resolution" in capsys.readouterr().out
        grid = ro.Grid(ro.Domain(), n, n)
        save_file(out / name, field_binary_bytes(ScalarField(grid, np.full(grid.n_nodes, 0.5))))
        assert main(["verify", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (f"invariant violated: field resolution: {name} holds a {n}x{n} grid, "
                f"the config asks for 9x9") in captured.out
        assert captured.err == ""  # the field checks were skipped, not aborted

    def test_missing_trace_line_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        lines = (out / "trace.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) >= 3
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: trace iterations contiguous" in capsys.readouterr().out
        (out / "trace.jsonl").write_text("".join(lines[:1] + lines[2:]))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: trace monotonicity" in stdout
        assert ("invariant violated: trace iterations contiguous: "
                "record 1 has iteration 2, expected 1") in stdout

    def test_tampered_payoff_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        line = self.tamper_json(out, "report.json", lambda r: r.update(payoff=r["payoff"] + 1e-6))
        assert main(["verify", "--out", str(out)]) == 1
        assert self.rebuild_differs("report.json", line) in capsys.readouterr().out

    def test_drifted_residual_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: report.json" in capsys.readouterr().out
        line = self.tamper_json(out, "report.json", lambda r: r["records"][0].update(
            residual=r["records"][0]["residual"] + 1e-6))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert self.rebuild_differs("report.json", line) in stdout
        assert '"residual"' in (out / "report.json").read_text().splitlines()[line - 1]

    def test_extra_residual_record_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        line = self.tamper_json(out, "report.json", lambda r: r["records"].append(
            dict(r["records"][0], atom=len(r["records"]) + 5)))
        assert main(["verify", "--out", str(out)]) == 1
        assert self.rebuild_differs("report.json", line) in capsys.readouterr().out

    def converged_run(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1", "max_outer_iters = 100",
                                     "step_size = 4.0", "tol_residual = 1e-4"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_report(out / "report.json")["converged"] is True
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: report.json" in capsys.readouterr().out
        return out

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(converged=not r["converged"]),
        lambda r: r.update(sup_residual=0.0),
        lambda r: r.update(harvest=r["harvest"] + 0.5,
                           payoff=r["harvest"] + 0.5 - r["c"] * r["irrigation_cost"]),
        lambda r: r["records"][0].update(phi=r["records"][0]["phi"] + 1e-3),
    ], ids=["converged", "sup_residual", "harvest_and_payoff", "phi"])
    def test_edited_report_of_a_converged_run_is_caught(self, tmp_path, capsys, edit):
        """Every field of report.json is rebuilt: the convergence flag from
        the stop test of the ascent, the sup residual, a harvest shifted with
        its payoff, and each record's phi."""
        out = self.converged_run(tmp_path, capsys)
        line = self.tamper_json(out, "report.json", edit)
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert self.rebuild_differs("report.json", line) in stdout
        assert sum(ln.startswith("invariant violated") for ln in stdout.splitlines()) == 1

    def test_edited_landscape_value_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        lines = (out / "landscape.csv").read_text().splitlines(keepends=True)
        node, x, y, z = lines[2].split(",")
        lines[2] = f"{node},{x},{y},{float(z) * 1.01!r}\n"
        (out / "landscape.csv").write_text("".join(lines))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: landscape identity" in stdout
        assert self.rebuild_differs("landscape.csv", 3) in stdout

    def test_comment_appended_to_the_plan_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        n = len((out / "plan.svg").read_text().splitlines())
        with open(out / "plan.svg", "a", encoding="utf-8") as fh:
            fh.write("<!-- edited -->\n")
        assert main(["verify", "--out", str(out)]) == 1
        assert self.rebuild_differs("plan.svg", n + 1) in capsys.readouterr().out

    def test_lowered_accepted_payoff_is_caught(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path)
        records = [json.loads(line) for line in
                   (out / "trace.jsonl").read_text().splitlines()]
        accepted = [r for r in records if r["accepted"]]
        assert len(accepted) >= 2
        low = accepted[0]["payoff"] - 1e-3
        accepted[1]["payoff"] = low
        (out / "trace.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: trace iterations contiguous" in stdout
        assert (f"invariant violated: trace monotonicity: accepted payoff decreases "
                f"at step 1: {accepted[0]['payoff']!r} -> {low!r}") in stdout

    def test_measure_heavier_than_its_cost_allows_is_caught(self, tmp_path, capsys):
        """Masses scaled past (cost / r0)^(1/alpha) for the cost that the
        stored edge fluxes record fail the a priori mass bound."""
        out = self.run_pipeline(tmp_path)
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: mass bound" in capsys.readouterr().out
        report = load_report(out / "report.json")
        r0 = ro.Domain().source_distance()
        bound = (report["irrigation_cost"] / r0) ** (1.0 / report["alpha"])
        measure = json.loads((out / "measure.json").read_text())
        total = sum(atom["mass"] for atom in measure["atoms"])
        for atom in measure["atoms"]:
            atom["mass"] *= 1.5 * bound / total
        (out / "measure.json").write_text(json.dumps(measure))
        assert main(["verify", "--out", str(out)]) == 1
        assert "invariant violated: mass bound: total mass" in capsys.readouterr().out

    def spawn_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(spawn_setup(tmp_path)), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_tampered_phi_is_caught(self, tmp_path, capsys):
        out = self.spawn_run(tmp_path, capsys)
        raw = (out / "phi.bin").read_bytes()
        n = (len(raw) - 40) // 8
        (out / "phi.bin").write_bytes(raw[:40] + np.full(n, 0.123, dtype="<f8").tobytes())
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: adjoint residual" in stdout
        assert ("invariant violated: phi.bin: stored bytes differ from the rebuild "
                "from byte 40") in stdout

    def test_tampered_path_check_is_caught(self, tmp_path, capsys):
        """The check fails on a stored path check that recomputation does
        not give, not on the size of the excess: the honest run passes with
        most of its samples in violation."""
        out = self.spawn_run(tmp_path, capsys)
        stored = load_report(out / "report.json")["path_check"]
        assert stored["n_violations"] > stored["n_samples"] // 2
        line = self.tamper_json(out, "report.json", lambda r: r["path_check"].update(
            n_violations=0, max_excess=-1.0))
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "ok: phi.bin" in stdout
        assert self.rebuild_differs("report.json", line) in stdout
        assert '"max_excess"' in (out / "report.json").read_text().splitlines()[line - 1]

    def test_tampered_support_is_caught(self, tmp_path, capsys):
        out = self.spawn_run(tmp_path, capsys)
        line = self.tamper_json(out, "support.json", lambda s: s["rows"][0].update(occupied=999))
        assert main(["verify", "--out", str(out)]) == 1
        assert self.rebuild_differs("support.json", line) in capsys.readouterr().out

    @pytest.mark.parametrize("subcommand, name, change", [
        ("irrigate", "cost.json", lambda c: c.update(cost=c["cost"] / 2)),
        ("solve", "harvest.json", lambda h: h.update(u_max=h["u_max"] * (1 + 1e-12))),
        ("adjoint", "adjoint.json", lambda a: (a.clear(), a.update(harvest=-1))),
    ], ids=["cost", "harvest", "adjoint"])
    def test_tampered_summary_is_caught(self, tmp_path, capsys, subcommand, name, change):
        """Each command's summary is rebuilt from the stored measure, plan
        and fields by its writer: a halved cost, a state maximum moved by
        one part in 10^12 and an adjoint summary replaced whole all fail."""
        out = self.run_pipeline(tmp_path, subcommand=subcommand)
        assert main(["verify", "--out", str(out)]) == 0
        assert f"ok: {name}" in capsys.readouterr().out
        line = self.tamper_json(out, name, change)
        assert main(["verify", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert self.rebuild_differs(name, line) in stdout
        assert sum(ln.startswith("invariant violated") for ln in stdout.splitlines()) == 1

    @pytest.mark.parametrize("last, message", [
        ('{"iteration": 4}',
         "a trace record must be a JSON object whose 'payoff' holds int or float"),
        ("[1, 2]", "a trace record must be a JSON object whose 'iteration' holds int"),
        ('{"iteration": 4, "payoff": 1.0, "sup_residual": 0.0, "accepted": 1, "spawned": false, '
         '"eta": 0.0, "atoms": [], "solver_errors": []}',
         "a trace record must be a JSON object whose 'accepted' holds bool"),
    ], ids=["missing-keys", "not-an-object", "int-for-bool"])
    def test_malformed_trace_record_is_named(self, tmp_path, capsys, last, message):
        """A last trace record that lacks a key, holds a key of the wrong
        type or is not an object ends verify with an error naming the file
        and line, not a traceback."""
        out = self.run_pipeline(tmp_path)
        lines = (out / "trace.jsonl").read_text().splitlines()
        (out / "trace.jsonl").write_text("\n".join(lines[:-1] + [last]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out / 'trace.jsonl'}:{len(lines)}: {message}\n"

    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path), "--config", "/dev/null"])
        assert rc == 1
        assert "no artifacts" in capsys.readouterr().err

    def test_verify_after_irrigate_only(self, tmp_path, capsys):
        out = self.run_pipeline(tmp_path, subcommand="irrigate")
        assert main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ok: tree.json" in stdout
        assert "ok: landscape identity" in stdout

    def test_irrigate_at_alpha_near_zero_passes_verify(self, tmp_path, capsys):
        """At alpha = 0.001 the mass bound (cost / r0)^(1/alpha) overflows a
        double, so it exceeds every finite total mass: the check passes."""
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17", "c = 0.1", "alpha = 0.001"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main(["irrigate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ok: mass bound" in stdout and stdout.endswith("all 10 checks passed\n")

    @pytest.mark.parametrize("name, atom", [
        ("measure.json", 1), ("measure_initial.json", 1), ("measure_initial.json", 2)])
    def test_zero_mass_in_a_stored_measure_is_named(self, tmp_path, capsys, name, atom):
        """An atom's mass edited to 0 in either stored measure of an optimize
        directory, or an atom of mass 0 appended far outside the rectangle,
        ends verify with an error naming the atom: an atom of mass 0 lies
        off the support, where no check would read it."""
        out = self.run_pipeline(tmp_path)
        measure = json.loads((out / name).read_text())
        if atom < len(measure["atoms"]):
            measure["atoms"][atom]["mass"] = 0.0
        else:
            measure["atoms"].append({"x": 9.5, "y": 9.5, "mass": 0.0})
        (out / name).write_text(json.dumps(measure))
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: measure atom {atom} mass must be finite and > 0, got 0.0\n")


class TestEveryFileIsChecked:
    """verify reads every file that irrigate, solve, adjoint and optimize
    write but config.txt, its config: one stored number changed in any of
    them makes verify fail and name a check."""

    FILES = {
        "irrigate": ["cost.json", "landscape.csv", "measure.json", "plan.svg", "tree.json"],
        "solve": ["harvest.json", "measure.json", "state.bin"],
        "adjoint": ["adjoint.json", "measure.json", "phi.bin", "psi.bin", "state.bin"],
        "optimize": ["landscape.csv", "measure.json", "measure_initial.json", "phi.bin",
                     "plan.svg", "psi.bin", "report.json", "state.bin", "support.json",
                     "trace.jsonl", "tree.json"],
    }

    @staticmethod
    def tampered(path, tmp_path, start=0):
        """The copy of the run directory of path with one number of path
        changed: the middle node's value of a field, else the first digit
        after the point of the first decimal number from character `start`
        on."""
        out = tmp_path / "tampered"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(path.parent, out)
        if path.suffix == ".bin":
            field = load_field_binary(path, ro.Domain())
            values = field.values.copy()
            values[len(values) // 2] += 0.25
            save_file(out / path.name, field_binary_bytes(ScalarField(field.grid, values)))
        else:
            text = path.read_text()
            k = re.compile(r"\d\.\d").search(text, start).end() - 1
            (out / path.name).write_text(text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:])
        return out

    @pytest.mark.parametrize("subcommand", list(FILES))
    def test_changing_any_stored_number_fails_verify(self, tmp_path, capsys, subcommand):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1", "max_outer_iters = 4"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        run = tmp_path / "run"
        assert main([subcommand, "--config", str(cfg), "--out", str(run)]) == 0
        assert sorted(p.name for p in run.iterdir()) == sorted(["config.txt",
                                                                *self.FILES[subcommand]])
        assert main(["verify", "--out", str(run)]) == 0
        cases = [(name, 0) for name in self.FILES[subcommand]]
        if subcommand == "optimize":  # the trace's last record as well as its first
            trace = (run / "trace.jsonl").read_text()
            cases.append(("trace.jsonl", trace.rstrip("\n").rfind("\n") + 1))
        capsys.readouterr()
        for name, start in cases:
            out = self.tampered(run / name, tmp_path, start)
            assert main(["verify", "--out", str(out)]) == 1, (name, start)
            assert re.search(r"^invariant violated: [^:]+: ", capsys.readouterr().out, re.M), name


class TestReport:
    def test_support_table_printed(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"],
                          [(1.0, 0.0, 0.5), (1.25, 0.25, 0.25)])
        out = tmp_path / "run"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("scale") for line in lines)
        assert (out / "support.json").exists()

    def test_report_on_a_run_directory_uses_its_config(self, tmp_path):
        """Without --config, report reads the run's config.txt, so on a
        17x17 optimize run it rewrites support.json with the same cell
        sizes (from h = 1/16), not those of the default 33x33 grid."""
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17", "c = 0.1",
                                     "max_outer_iters = 2"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        written = (out / "support.json").read_bytes()
        assert json.loads(written)["rows"][0]["scale"] == 0.0625
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "support.json").read_bytes() == written


class TestReportThenVerify:
    """report tabulates the stored measure.json, or the configured measure
    where there is none, and verify rebuilds support.json from that same
    measure."""

    def test_report_without_a_stored_measure_passes_verify(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"],
                          [(1.0, 0.0, 0.5), (1.25, 0.25, 0.25)])
        out = tmp_path / "run"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "measure.json").exists()
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == ["ok: support.json",
                                                        "all 1 checks passed"]

    def test_verify_report_verify_on_a_run_directory(self, tmp_path, capsys):
        """On a solve directory, whose measure.json report tabulates, verify
        passes before report writes support.json and after."""
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"], [(1.0, 0.0, 0.5)])
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        assert "support.json" not in capsys.readouterr().out
        assert main(["report", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 0
        assert "ok: support.json" in capsys.readouterr().out

    def test_tampered_support_without_a_stored_measure_is_caught(self, tmp_path, capsys):
        cfg = write_setup(tmp_path, ["nx = 17", "ny = 17"],
                          [(1.0, 0.0, 0.5), (1.25, 0.25, 0.25)])
        out = tmp_path / "run"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        line = TestVerify.tamper_json(out, "support.json",
                                      lambda s: s["rows"][0].update(occupied=999))
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert TestVerify.rebuild_differs("support.json", line) in capsys.readouterr().out


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = write_setup(tmp_path, ["nx = 9", "ny = 9", "c = 0.1",
                                     "max_outer_iters = 3"],
                          [(1.0, 0.0, 0.3), (1.25, 0.25, 0.2)])
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]


class TestAscentDemoScript:
    def test_small_spawn_run_writes_readable_artifacts(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_ascent_demo.py"
        out = tmp_path / "demo"
        proc = subprocess.run([sys.executable, str(script), "--nx", "9", "--iters", "3",
                               "--spawn", "--out", str(out)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "converged:" in proc.stdout
        records = load_trace(out / "trace.jsonl")
        assert [r["iteration"] for r in records] == list(range(len(records)))
        mu = load_measure(out / "measure.json")
        tree, stored = load_tree(out / "tree.json")
        assert np.allclose(stored[1:], ro.compute_fluxes(tree, mu).values[1:], rtol=1e-12)
        report = load_report(out / "report.json")
        assert len(report["records"]) == sum(1 for a in mu.atoms if a.mass > 0.0)


class TestConvergenceStudyScript:
    def test_two_levels_print_second_order(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
        proc = subprocess.run([sys.executable, str(script), "--levels", "17", "33"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header.split() == ["nodes", "h", "max", "error", "order"]
        assert [row.split()[0] for row in rows] == ["17", "33"]
        assert rows[0].split()[3] == "nan"
        assert 1.9 <= float(rows[1].split()[3]) <= 2.1

    def test_fine_levels_reproduce_the_measured_errors(self):
        """At 65x65 and 129x129 the max-norm errors against the exact state
        are 8.80e-6 and 2.20e-6 within 1%, a ratio of 4 (second order)."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
        proc = subprocess.run([sys.executable, str(script), "--levels", "65", "129"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rows = [row.split() for row in proc.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == ["65", "129"]
        assert float(rows[0][2]) == pytest.approx(8.80e-6, rel=0.01)
        assert float(rows[1][2]) == pytest.approx(2.20e-6, rel=0.01)
