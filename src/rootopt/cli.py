"""Command-line pipeline driver.

Subcommands:

* ``irrigate``  plan a tree for the configured measure: tree.json, plan.svg,
  landscape.csv, cost.json
* ``solve``     maximal state solution: state.bin, harvest.json
* ``adjoint``   state plus adjoint and marginal-harvest fields: state.bin,
  psi.bin, phi.bin, adjoint.json
* ``optimize``  full mass ascent: trace.jsonl, report.json, initial measure,
  final measure and plan, fields, support.json
* ``verify``    check the invariants of the stored measure, plan, fields
  and trace, and that the trace starts at the stored initial measure and
  ends at the final one, then rebuild each derived file present from them
  and the config by its writer in `_FILES`, and compare bytes
  (support.json from the configured measure where no measure.json is
  stored, as report wrote it).  So every file a command writes but
  config.txt, which verify reads as its config, is checked.  Exit 1 naming
  each violated check, a file with the line (for phi.bin the byte) where
  its bytes first differ; a stored atom off the grid's nodes is the
  residual checks' violation, and the files built from it and the fields
  cannot be rebuilt
* ``report``    support-density table from stored or configured measure:
  support.json

`_FILES` is the one table of derived files: each file's name, the
commands that write it, the run values it is written from and its writer.
A command writes each of its files, and verify rebuilds each file present,
exactly when the run has that file's values.  Every file is written by
`serialization.save_file`.

Flags: --config PATH, --out DIR, --set K=V (repeatable).
Exit status: 0 success, 1 validation failure, 2 solver failure.

Configs are flat ``key = value`` text; every subcommand but ``verify`` and
``report`` writes the resolved config and its input measure into the output
directory, so a run directory is self-describing: without --config,
`verify` and `report` read the directory's config.txt.  Its measure_path
names the input measure, measure.json, or measure_initial.json for
``optimize``, whose measure.json is the final measure.  The input measure
is stored as the text it was read from, not re-encoded; a measure the
command derives, the default one or a snapped one, is stored as
`measure_text`'s canonical text, as is optimize's final measure.  So the
subcommand rerun with --config DIR/config.txt into a new directory reads
the stored text, stores it again and writes the same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .core import DiscreteMeasure, SolverError, ValidationError, mass_bound_check
from .elliptic import (_adjoint_bounds, adjoint_residual, growth_bound_lambda,
                       phi_field, solve_adjoint, solve_state, state_residual)
from .irrigation import (_plan_cost, check_landscape_holder, cost_lower_bound,
                         optimize_plan)
from .optimality import (Evaluation, _converged, ascend_measure,
                         path_inequality_check, support_density_report)
from .render import render_tree_svg
from .serialization import (ParsedConfig, config_from_mapping, config_to_text,
                            dumps_json, field_binary_bytes, landscape_csv_text,
                            load_field_binary, load_field_shape, load_measure,
                            load_measure_text, load_text, load_trace, load_tree,
                            measure_text, measure_to_dict, parse_config_entry,
                            parse_config_text, report_to_dict, save_file, save_trace,
                            tree_to_dict)

__all__ = ["main"]


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call only: parsing leaves it
    unchanged, and building it costs about a millisecond per call."""
    parser = argparse.ArgumentParser(
        prog="rootopt",
        description="branched-transport irrigation plans coupled to a harvest PDE",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("irrigate", "plan an irrigation tree and its landscape"),
        ("solve", "solve the harvest state equation"),
        ("adjoint", "solve state and adjoint, emit marginal-harvest field"),
        ("optimize", "run mass ascent on the measure"),
        ("verify", "check invariants and rebuild derived artifacts"),
        ("report", "support-density table"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        p.add_argument("--out", type=Path, required=True, help="artifact directory")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override a config key (repeatable)")
    return parser


def _load_setup(args) -> ParsedConfig:
    values = {}
    if args.config is not None:
        values = parse_config_text(load_text(args.config))
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects K=V, got {item!r}")
        key, value = parse_config_entry(*item.split("=", 1))
        values[key] = value
    return config_from_mapping(values)


def _snap_to_grid(mu: DiscreteMeasure, grid) -> DiscreteMeasure:
    """Move each atom to its nearest node, merging masses that collide: the
    nodes in sorted (ix, iy) order, each holding its atoms' masses summed in
    atom order.  An atom that the snap would move more than h/2 in x or y,
    which only an atom outside the rectangle can be, raises ValidationError
    naming it."""
    pos, d = mu.positions(), grid.domain
    far = np.flatnonzero(((pos < np.subtract(d.rect_min, grid.h / 2))
                          | (pos > np.add(d.rect_max, grid.h / 2))).any(axis=1))
    if len(far):
        raise ValidationError(f"measure atom {far[0]} at {tuple(pos[far[0]].tolist())} lies "
                              f"more than h/2 outside the rectangle, so no node is near it")
    ix, iy = grid.nearest_nodes(pos)
    nodes, which = np.unique(ix * grid.ny + iy, return_inverse=True)
    ix, iy = np.divmod(nodes, grid.ny)
    return DiscreteMeasure.from_arrays(np.column_stack([grid.xs[ix], grid.ys[iy]]),
                                       np.bincount(which, mu.masses(), len(nodes)))


def _default_measure(parsed: ParsedConfig) -> DiscreteMeasure:
    raw = DiscreteMeasure.from_arrays([(0.80, -0.22), (1.15, 0.02), (0.95, 0.30)],
                                      [0.35, 0.40, 0.25])
    return _snap_to_grid(raw, parsed.run.grid)


def _resolve_measure(args, parsed: ParsedConfig) -> tuple[DiscreteMeasure, str | None]:
    """The input measure, with the measure file's text when the measure is
    used as read, or None for a measure derived from it or the default."""
    if parsed.measure_path is None:
        return _default_measure(parsed), None
    # a relative measure_path is read from the config's directory
    base = args.config.parent if args.config is not None else Path.cwd()
    mu, text = load_measure_text(base / parsed.measure_path)
    if parsed.snap_measure:
        return _snap_to_grid(mu, parsed.run.grid), None
    return mu, text


def _write_common(args, parsed: ParsedConfig, out: Path,
                  name: str = "measure.json") -> DiscreteMeasure:
    """The input measure, stored into out as `name` with the resolved config
    as config.txt, pointing at it, so the directory reruns its command: as
    the text it was read from, or measure_text's canonical text for a
    derived measure."""
    mu, text = _resolve_measure(args, parsed)
    save_file(out / "config.txt", config_to_text(ParsedConfig(parsed.run, measure_path=name)))
    save_file(out / name, measure_text(mu) if text is None else text)
    return mu


@dataclass
class _Run:
    """The values that the files of a run directory are written from: `ev`,
    the `Evaluation` of the measure, whose plan and fields are None where
    the run has none and whose fields and derived values the writers read
    through the run; the ascent's `converged` and `iterations`, None
    without a trace; and `support`, the measure that support.json
    tabulates.  The properties below derive from them once, on first use."""

    ev: Evaluation
    converged: bool = False
    iterations: int | None = None
    support: DiscreteMeasure | None = None

    def __getattr__(self, name):
        return getattr(self.ev, name)

    def has(self, values) -> bool:
        return all(getattr(self, name) is not None for name in values)

    @cached_property
    def lower_bound(self):
        return cost_lower_bound(self.measure, self.config.alpha)

    @cached_property
    def support_table(self):
        return support_density_report(self.support, self.config.grid)


_PLAN = ("measure", "plan")

# every derived file of a run directory, in the order verify checks them:
# (name, the commands that write it, the run values it is written from, the
# writer that returns its text or bytes)
_FILES = (
    ("tree.json", ("irrigate", "optimize"), _PLAN,
     lambda r: dumps_json(tree_to_dict(r.plan, r.measure))),
    ("landscape.csv", ("irrigate", "optimize"), _PLAN, lambda r: landscape_csv_text(r.landscape)),
    ("plan.svg", ("irrigate", "optimize"), _PLAN,
     lambda r: render_tree_svg(r.plan, r.measure, r.config.alpha, r.config.domain)),
    ("phi.bin", ("adjoint", "optimize"), ("state", "adjoint"),
     lambda r: field_binary_bytes(phi_field(r.state, r.adjoint))),
    ("cost.json", ("irrigate",), _PLAN, lambda r: dumps_json(
        {"alpha": r.config.alpha, "cost": r.cost, "lower_bound": r.lower_bound,
         "n_atoms": len(r.measure), "total_mass": r.measure.total_mass})),
    ("harvest.json", ("solve",), ("measure", "state"), lambda r: dumps_json(
        {"harvest": r.harvest, "u_min": r.state.min(), "u_max": r.state.max()})),
    ("adjoint.json", ("adjoint",), ("measure", "state", "adjoint"), lambda r: dumps_json(
        {"harvest": r.harvest, "lambda_bound": growth_bound_lambda(r.config.growth, r.state.min()),
         "psi_min": r.adjoint.min(), "psi_max": r.adjoint.max()})),
    # the path check runs at tol path_tol * u_max
    ("report.json", ("optimize",), (*_PLAN, "state", "adjoint", "iterations"),
     lambda r: dumps_json(report_to_dict(r.report, r.converged, r.iterations, path_inequality_check(
         r.state, r.adjoint, r.landscape, r.config.c, r.config.alpha,
         tol=r.config.path_tol * r.config.growth.u_max)))),
    ("support.json", ("optimize", "report"), ("support",),
     lambda r: dumps_json({"rows": r.support_table.as_dicts()})),
)


def _save_run(out: Path, command: str, run: _Run) -> None:
    """Write the run's state.bin and psi.bin, then each file of _FILES that
    `command` writes, when the run has its values."""
    for name, field in (("state.bin", run.state), ("psi.bin", run.adjoint)):
        if field is not None:
            save_file(out / name, field_binary_bytes(field))
    for name, commands, values, writer in _FILES:
        if command in commands and run.has(values):
            save_file(out / name, writer(run))


def _cmd_irrigate(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu = _write_common(args, parsed, out)
    run = _Run(Evaluation(cfg, mu, optimize_plan(mu, cfg.alpha, budget=cfg.max_plan_moves)))
    _save_run(out, args.command, run)
    print(f"cost {run.cost!r} (lower bound {run.lower_bound!r}) over {len(mu)} atoms")
    return 0


def _cmd_solve(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu = _write_common(args, parsed, out)
    u = solve_state(cfg.grid, mu, cfg.growth,
                    tol=cfg.tol_nonlinear, tol_linear=cfg.tol_linear)
    run = _Run(Evaluation(cfg, mu, state=u))
    _save_run(out, args.command, run)
    print(f"harvest {run.harvest!r} (state range [{u.min()!r}, {u.max()!r}])")
    return 0


def _cmd_adjoint(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu = _write_common(args, parsed, out)
    u = solve_state(cfg.grid, mu, cfg.growth,
                    tol=cfg.tol_nonlinear, tol_linear=cfg.tol_linear)
    psi = solve_adjoint(cfg.grid, mu, u, cfg.growth, tol=cfg.tol_linear)
    _save_run(out, args.command, _Run(Evaluation(cfg, mu, state=u, adjoint=psi)))
    print(f"adjoint range [{psi.min()!r}, {psi.max()!r}], "
          f"bound {_adjoint_bounds(cfg.growth, u.min())[0]!r}")
    return 0


def _cmd_optimize(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    trace = ascend_measure(cfg, _write_common(args, parsed, out, "measure_initial.json"))
    save_trace(out / "trace.jsonl", trace)
    save_file(out / "measure.json", measure_text(trace.measure))
    _save_run(out, args.command,
              _Run(trace.final, trace.converged, len(trace.steps) - 1, trace.measure))
    status = "converged" if trace.converged else "not converged"
    print(f"{status} after {len(trace.steps) - 1} iterations, "
          f"payoff {trace.final_payoff!r}, sup residual "
          f"{trace.steps[-1].sup_residual!r}")
    return 0


def _cmd_report(args, parsed: ParsedConfig, out: Path) -> int:
    stored = out / "measure.json"
    # verify tabulates the same measure
    mu = load_measure(stored) if stored.exists() else _resolve_measure(args, parsed)[0]
    run = _Run(Evaluation(parsed.run), support=mu)
    _save_run(out, args.command, run)
    print("scale occupied total fraction")
    for s, occ, tot, frac in run.support_table.rows:
        print(f"{s!r} {occ} {tot} {frac!r}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _rebuild_mismatch(path: Path, fresh) -> str | None:
    """None when the file at path holds exactly `fresh`, the text or bytes
    that its writer returns; else where the stored bytes first differ: the
    line of a text file, the byte of a binary one."""
    binary = isinstance(fresh, bytes)
    stored, raw = path.read_bytes(), fresh if binary else fresh.encode("utf-8")
    if stored == raw:
        return None
    k = len(os.path.commonprefix([stored, raw]))
    where = f"byte {k}" if binary else "line %d" % (stored.count(b"\n", 0, k) + 1)
    return f"stored bytes differ from the rebuild from {where}"


def _rebuild_detail(path: Path, run: _Run, values, writer) -> str | None:
    """_rebuild_mismatch of the file at path against its writer's output,
    or why the run cannot rebuild it: a missing value, or a ValidationError
    of the writer, such as an atom off the grid's nodes."""
    if not run.has(values):
        return "cannot be rebuilt: an input is missing or failed its check"
    try:
        return _rebuild_mismatch(path, writer(run))
    except ValidationError as exc:
        return f"cannot be rebuilt: {exc}"


def _residual_detail(residual, tol: float, tol_name: str, what: str) -> str | None:
    """None when residual() is at most tol; else how far it reaches, or the
    ValidationError that names an atom off the grid's nodes."""
    try:
        worst = residual()
    except ValidationError as exc:
        return str(exc)
    return None if worst <= tol else f"{what} reaches {worst!r}, above {tol_name} {tol!r}"


def _atoms_mismatch(records, k, mu: DiscreteMeasure) -> str | None:
    """None when trace record k holds exactly the atoms that measure_to_dict
    gives for mu; else the first atom where they differ."""
    if not records:
        return "trace.jsonl holds no record"
    k %= len(records)
    held, want = records[k]["atoms"], measure_to_dict(mu)["atoms"]
    if held == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(held, want)) if a != b), None)
    if i is None:
        return f"record {k} holds {len(held)} atoms, the measure {len(want)}"
    return f"record {k} holds atom {i} as {held[i]}, the measure as {want[i]}"


def _verify_checks(args, parsed: ParsedConfig, out: Path):
    """Yield (name, detail-or-None) pairs for every check whose inputs exist:
    the invariants of the stored measure, plan, fields and trace, then one
    check per derived file present, named by the file."""
    cfg = parsed.run
    mu = tree = stored_flux = u = psi = records = None
    if (out / "measure.json").exists():
        mu = load_measure(out / "measure.json")
    if (out / "tree.json").exists() and mu is not None:
        tree, stored_flux = load_tree(out / "tree.json")

    if tree is not None:
        terminals = tree.atom_terminals(len(mu))
        missing = np.flatnonzero(terminals < 0).tolist()
        yield ("atoms have terminals",
               None if not missing else
               f"{len(missing)} atoms have no terminal, first atom {missing[0]}")
        if missing:
            tree = None  # every later tree check needs a terminal per atom

    ev = Evaluation(cfg, mu, tree)
    run = _Run(ev)
    if tree is not None:
        nodes = np.flatnonzero(tree.atom_index >= 0)
        atom_pos = mu.positions()
        off = np.hypot(*(tree.positions[nodes] - atom_pos[tree.atom_index[nodes]]).T)
        worst = int(np.argmax(off))
        tol = 1e-12 * max(1.0, float(np.max(np.abs(atom_pos))))
        yield ("terminals on atoms",
               None if off[worst] <= tol else
               f"terminal node {int(nodes[worst])} sits {float(off[worst])!r} "
               f"away from atom {int(tree.atom_index[nodes[worst]])}")

        cost, z = run.cost, run.landscape
        paid = sum((mu.masses() * z.values[terminals]).tolist())
        gap = abs(paid - cost)
        yield ("landscape identity",
               None if gap <= 1e-10 * max(1.0, cost) else
               f"sum of mass*Z misses the cost by {gap!r}")

        lb = run.lower_bound
        yield ("cost lower bound",
               None if cost >= lb - 1e-9 * max(1.0, cost) else
               f"cost {cost!r} sits below the lower bound {lb!r}")

        # the cost recomputed from the measure meets this bound for every
        # measure inside the rectangle, so the measure is held to the cost
        # that the stored edge fluxes record
        recorded = _plan_cost(tree.positions, tree.parents, stored_flux, cfg.alpha)
        yield ("mass bound",
               None if mass_bound_check(mu, recorded, cfg.domain, cfg.alpha) else
               f"total mass {mu.total_mass!r} exceeds (cost / r0)^(1/alpha) for the "
               f"recorded cost {recorded!r}")

        rep = check_landscape_holder(tree, mu, cfg.alpha, rel_tol=1e-6)
        worst = max((v[2] for v in rep.violations), default=0.0)
        yield ("landscape Holder bound",
               None if rep.ok else
               f"{len(rep.violations)} node pairs exceed the bound, worst {worst!r}")

    shapes = {p.name: load_field_shape(p) for p in sorted(out.glob("*.bin"))}
    wrong = [(name, s) for name, s in shapes.items() if s != (cfg.grid.nx, cfg.grid.ny)]
    if shapes:
        yield ("field resolution",
               None if not wrong else
               f"{wrong[0][0]} holds a {wrong[0][1][0]}x{wrong[0][1][1]} grid, "
               f"the config asks for {cfg.grid.nx}x{cfg.grid.ny}")

    # a field on another grid would sample the wrong nodes: skip its checks
    if not wrong and (out / "state.bin").exists():
        ev.state = u = load_field_binary(out / "state.bin", cfg.domain)
        lo, hi = u.min(), u.max()
        ok = lo >= -1e-9 and hi <= cfg.growth.u_max + 1e-9
        yield ("state box bounds",
               None if ok else f"state range [{lo!r}, {hi!r}] leaves [0, u_max]")
        if mu is not None:
            yield ("state residual", _residual_detail(
                lambda: state_residual(u, mu, cfg.growth), cfg.tol_nonlinear,
                "tol_nonlinear", "scaled residual of lap u + f(u) - a u"))
    if (out / "psi.bin").exists() and u is not None:
        ev.adjoint = psi = load_field_binary(out / "psi.bin", cfg.domain)
        cap, slack = _adjoint_bounds(cfg.growth, u.min())
        ok = psi.min() >= -slack and psi.max() <= cap + slack
        yield ("adjoint bounds",
               None if ok else f"adjoint range [{psi.min()!r}, {psi.max()!r}] leaves [0, {cap!r}]")
        if mu is not None:
            yield ("adjoint residual", _residual_detail(
                lambda: adjoint_residual(psi, u, mu, cfg.growth), cfg.tol_linear,
                "tol_linear", "scaled residual of the adjoint system"))

    if (out / "trace.jsonl").exists():
        records = load_trace(out / "trace.jsonl")
        iters = [r["iteration"] for r in records]
        gap = next((k for k, it in enumerate(iters) if it != k), None)
        yield ("trace iterations contiguous",
               None if gap is None else
               f"record {gap} has iteration {iters[gap]!r}, expected {gap}")
        accepted = [r["payoff"] for r in records if r["accepted"]]
        bad = next((i for i in range(1, len(accepted))
                    if accepted[i] < accepted[i - 1]), None)
        yield ("trace monotonicity",
               None if bad is None else
               f"accepted payoff decreases at step {bad}: "
               f"{accepted[bad - 1]!r} -> {accepted[bad]!r}")
        # the ascent starts from measure_initial.json at record 0 and stores
        # the measure of its last record as measure.json
        if (out / "measure_initial.json").exists():
            mu0 = load_measure(out / "measure_initial.json")
            yield ("trace starts at measure_initial.json", _atoms_mismatch(records, 0, mu0))
        if mu is not None:
            yield ("trace ends at measure.json", _atoms_mismatch(records, -1, mu))

    # report.json's `converged`, by the ascent's stop test on the last trace
    # record and the report of the stored plan and fields, and `iterations`;
    # an atom off the grid's nodes, which the residual checks name, leaves
    # neither, so report.json cannot be rebuilt
    if records and run.has(("plan", "adjoint")):
        try:
            run.converged = _converged(cfg, mu, ev.sup_residual, records[-1]["spawned"])
        except ValidationError:
            pass
        else:
            run.iterations = len(records) - 1
    # report tabulates measure.json, or the configured measure without one
    run.support = mu if mu is not None else _resolve_measure(args, parsed)[0]
    for name, _, values, writer in _FILES:
        if (out / name).exists():
            yield (name, _rebuild_detail(out / name, run, values, writer))


def _cmd_verify(args, parsed: ParsedConfig, out: Path) -> int:
    ran = failed = 0
    for name, detail in _verify_checks(args, parsed, out):
        ran += 1
        failed += detail is not None
        print(f"ok: {name}" if detail is None else f"invariant violated: {name}: {detail}")
    if ran == 0:
        raise ValidationError(f"no artifacts found to verify in {out}")
    if failed:
        return 1
    print(f"all {ran} checks passed")
    return 0


_COMMANDS = {
    "irrigate": _cmd_irrigate,
    "solve": _cmd_solve,
    "adjoint": _cmd_adjoint,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = Path(args.out)
        if args.command in ("verify", "report"):
            if args.config is None and (out / "config.txt").exists():
                args.config = out / "config.txt"
        if args.command != "verify":
            out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, _load_setup(args), out)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
