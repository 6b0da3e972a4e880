"""Command-line pipeline driver.

Subcommands:

* ``irrigate``  plan a tree for the configured measure: tree.json, plan.svg,
  landscape.csv, cost.json
* ``solve``     maximal state solution: state.bin, harvest.json
* ``adjoint``   state plus adjoint and marginal-harvest fields: psi.bin,
  phi.bin, adjoint.json
* ``optimize``  full mass ascent: trace.jsonl, report.json, initial measure,
  final measure and plan, fields, support.json
* ``verify``    check the invariants of the stored measure, plan, fields
  and trace, and that the trace starts at the stored initial measure and
  ends at the final one, then rebuild each derived file present (tree.json,
  landscape.csv, plan.svg, phi.bin, cost.json, harvest.json, adjoint.json,
  report.json, support.json) from them and the config by the writer its
  command used, and compare bytes (support.json from the configured
  measure where no measure.json is stored, as report wrote it).  So every
  file a command writes but config.txt, which verify reads as its config,
  is checked.  Exit 1 naming each violated check, a file with the line
  (for phi.bin the byte) where its bytes first differ
* ``report``    support-density table from stored or configured measure

Flags: --config PATH, --out DIR, --set K=V (repeatable).
Exit status: 0 success, 1 validation failure, 2 solver failure.

Configs are flat ``key = value`` text; every subcommand but ``verify`` and
``report`` writes the resolved config and its input measure into the output
directory, so a run directory is self-describing: without --config,
`verify` and `report` read the directory's config.txt.  Its measure_path
names the input measure, measure.json, or measure_initial.json for
``optimize``, whose measure.json is the final measure; so the subcommand
rerun with --config DIR/config.txt into a new directory writes the same
bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import DiscreteMeasure, SolverError, ValidationError, mass_bound_check
from .elliptic import (_adjoint_bounds, adjoint_residual, growth_bound_lambda,
                       harvest, phi_field, solve_adjoint, solve_state,
                       state_residual)
from .irrigation import (_plan_cost, check_landscape_holder, cost_lower_bound,
                         irrigation_cost, landscape, optimize_plan)
from .optimality import (_converged, ascend_measure, optimality_residual,
                         path_inequality_check, support_density_report)
from .render import render_tree_svg, save_svg
from .serialization import (ParsedConfig, config_from_mapping, config_to_text,
                            dumps_json, field_binary_bytes, landscape_csv_text,
                            load_field_binary, load_field_shape, load_measure,
                            load_trace, load_tree, measure_to_dict,
                            parse_config_entry, parse_config_text, report_to_dict,
                            save_field_binary, save_json, save_landscape_csv,
                            save_measure, save_report, save_trace, save_tree,
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
        with open(args.config, "r", encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
    for item in args.set:
        if "=" not in item:
            raise ValidationError(f"--set expects K=V, got {item!r}")
        key, raw = item.split("=", 1)
        key, value = parse_config_entry(key, raw)
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
    grid = parsed.run.grid
    raw = DiscreteMeasure.from_arrays([(0.80, -0.22), (1.15, 0.02), (0.95, 0.30)],
                                      [0.35, 0.40, 0.25])
    return _snap_to_grid(raw, grid)


def _resolve_measure(args, parsed: ParsedConfig) -> DiscreteMeasure:
    if parsed.measure_path is None:
        return _default_measure(parsed)
    base = args.config.parent if args.config is not None else Path.cwd()
    path = Path(parsed.measure_path)
    if not path.is_absolute():
        path = base / path
    mu = load_measure(path)
    if parsed.snap_measure:
        mu = _snap_to_grid(mu, parsed.run.grid)
    return mu


def _write_common(out: Path, parsed: ParsedConfig, mu: DiscreteMeasure,
                  name: str = "measure.json") -> None:
    """Write the input measure mu into out as `name` and the resolved config
    as config.txt, pointing at it, so the directory reruns its command."""
    stamped = ParsedConfig(parsed.run, measure_path=name, snap_measure=False)
    with open(out / "config.txt", "w", encoding="utf-8") as fh:
        fh.write(config_to_text(stamped))
    save_measure(out / name, mu)


def _cost_summary(cfg, mu, cost, lb) -> dict:
    """cost.json of irrigate, which verify rebuilds from the stored plan."""
    return {"alpha": cfg.alpha, "cost": cost, "lower_bound": lb, "n_atoms": len(mu),
            "total_mass": mu.total_mass}


def _harvest_summary(u, mu) -> dict:
    """harvest.json of solve, which verify rebuilds from the stored state."""
    return {"harvest": harvest(u, mu), "u_min": u.min(), "u_max": u.max()}


def _adjoint_summary(cfg, mu, u, psi) -> dict:
    """adjoint.json of adjoint, which verify rebuilds from the stored fields."""
    return {"harvest": harvest(u, mu), "lambda_bound": growth_bound_lambda(cfg.growth, u.min()),
            "psi_min": psi.min(), "psi_max": psi.max()}


def _cmd_irrigate(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu = _resolve_measure(args, parsed)
    _write_common(out, parsed, mu)
    tree = optimize_plan(mu, cfg.alpha, budget=cfg.max_plan_moves)
    cost = irrigation_cost(tree, mu, cfg.alpha)
    lb = cost_lower_bound(mu, cfg.alpha)
    z = landscape(tree, mu, cfg.alpha)
    save_tree(out / "tree.json", tree, mu)
    save_landscape_csv(out / "landscape.csv", z)
    save_svg(out / "plan.svg", render_tree_svg(tree, mu, cfg.alpha, cfg.domain))
    save_json(out / "cost.json", _cost_summary(cfg, mu, cost, lb))
    print(f"cost {cost!r} (lower bound {lb!r}) over {len(mu)} atoms")
    return 0


def _cmd_solve(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu = _resolve_measure(args, parsed)
    _write_common(out, parsed, mu)
    u = solve_state(cfg.grid, mu, cfg.growth,
                    tol=cfg.tol_nonlinear, tol_linear=cfg.tol_linear)
    summary = _harvest_summary(u, mu)
    save_field_binary(out / "state.bin", u)
    save_json(out / "harvest.json", summary)
    print(f"harvest {summary['harvest']!r} (state range [{u.min()!r}, {u.max()!r}])")
    return 0


def _cmd_adjoint(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu = _resolve_measure(args, parsed)
    _write_common(out, parsed, mu)
    u = solve_state(cfg.grid, mu, cfg.growth,
                    tol=cfg.tol_nonlinear, tol_linear=cfg.tol_linear)
    psi = solve_adjoint(cfg.grid, mu, u, cfg.growth, tol=cfg.tol_linear)
    for name, field in (("state", u), ("psi", psi), ("phi", phi_field(u, psi))):
        save_field_binary(out / f"{name}.bin", field)
    save_json(out / "adjoint.json", _adjoint_summary(cfg, mu, u, psi))
    print(f"adjoint range [{psi.min()!r}, {psi.max()!r}], "
          f"bound {_adjoint_bounds(cfg.growth, u.min())[0]!r}")
    return 0


def _path_check(cfg, u, psi, tree, mu):
    """The path inequality check at tol path_tol * u_max, which optimize
    stores in report.json and verify re-derives."""
    return path_inequality_check(u, psi, tree, mu, cfg.c, cfg.alpha,
                                 tol=cfg.path_tol * cfg.growth.u_max)


def _cmd_optimize(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    mu0 = _resolve_measure(args, parsed)
    _write_common(out, parsed, mu0, "measure_initial.json")
    trace = ascend_measure(cfg, mu0)
    save_trace(out / "trace.jsonl", trace)
    save_measure(out / "measure.json", trace.measure)
    path_check = None
    if trace.tree is not None:
        save_tree(out / "tree.json", trace.tree, trace.measure)
        save_svg(out / "plan.svg",
                 render_tree_svg(trace.tree, trace.measure, cfg.alpha, cfg.domain))
        save_landscape_csv(out / "landscape.csv",
                           landscape(trace.tree, trace.measure, cfg.alpha))
        path_check = _path_check(cfg, trace.state, trace.adjoint, trace.tree, trace.measure)
    if trace.state is not None:
        u, psi = trace.state, trace.adjoint
        for name, field in (("state", u), ("psi", psi), ("phi", phi_field(u, psi))):
            save_field_binary(out / f"{name}.bin", field)
    if trace.report is not None:
        save_report(out / "report.json", trace.report, trace.converged,
                    len(trace.steps) - 1, path_check)
    support = support_density_report(trace.measure, cfg.grid)
    save_json(out / "support.json", {"rows": support.as_dicts()})
    status = "converged" if trace.converged else "not converged"
    print(f"{status} after {len(trace.steps) - 1} iterations, "
          f"payoff {trace.final_payoff!r}, sup residual "
          f"{trace.steps[-1].sup_residual!r}")
    return 0


def _cmd_report(args, parsed: ParsedConfig, out: Path) -> int:
    cfg = parsed.run
    stored = out / "measure.json"
    # verify rebuilds support.json from the same measure
    mu = load_measure(stored) if stored.exists() else _resolve_measure(args, parsed)
    support = support_density_report(mu, cfg.grid)
    save_json(out / "support.json", {"rows": support.as_dicts()})
    print("scale occupied total fraction")
    for s, occ, tot, frac in support.rows:
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
    mu = tree = stored_flux = z = u = psi = records = None
    if (out / "measure.json").exists():
        mu = load_measure(out / "measure.json")
    if (out / "tree.json").exists() and mu is not None:
        tree, stored_flux = load_tree(out / "tree.json")

    if tree is not None:
        positive = np.flatnonzero(mu.masses() > 0.0)
        terminals = tree.atom_terminals(len(mu))
        missing = positive[terminals[positive] < 0].tolist()
        yield ("atoms have terminals",
               None if not missing else
               f"{len(missing)} positive-mass atoms have no terminal, first atom {missing[0]}")
        if missing:
            tree = None  # every later tree check needs a terminal per atom

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

        cost = irrigation_cost(tree, mu, cfg.alpha)
        z = landscape(tree, mu, cfg.alpha)
        paid = sum((mu.masses()[positive] * z.values[terminals[positive]]).tolist())
        gap = abs(paid - cost)
        yield ("landscape identity",
               None if gap <= 1e-10 * max(1.0, cost) else
               f"sum of mass*Z misses the cost by {gap!r}")

        lb = cost_lower_bound(mu, cfg.alpha)
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
        u = load_field_binary(out / "state.bin", cfg.domain)
        lo, hi = u.min(), u.max()
        ok = lo >= -1e-9 and hi <= cfg.growth.u_max + 1e-9
        yield ("state box bounds",
               None if ok else f"state range [{lo!r}, {hi!r}] leaves [0, u_max]")
        if mu is not None:
            worst = state_residual(u, mu, cfg.growth)
            yield ("state residual",
                   None if worst <= cfg.tol_nonlinear else
                   f"scaled residual of lap u + f(u) - a u reaches {worst!r}, "
                   f"above tol_nonlinear {cfg.tol_nonlinear!r}")
    if (out / "psi.bin").exists() and u is not None:
        psi = load_field_binary(out / "psi.bin", cfg.domain)
        cap, slack = _adjoint_bounds(cfg.growth, u.min())
        ok = psi.min() >= -slack and psi.max() <= cap + slack
        yield ("adjoint bounds",
               None if ok else f"adjoint range [{psi.min()!r}, {psi.max()!r}] leaves [0, {cap!r}]")
        if mu is not None:
            worst = adjoint_residual(psi, u, mu, cfg.growth)
            yield ("adjoint residual",
                   None if worst <= cfg.tol_linear else
                   f"scaled residual of the adjoint system reaches {worst!r}, "
                   f"above tol_linear {cfg.tol_linear!r}")

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
        # the ascent drops the initial measure's zero-mass atoms before
        # record 0, and stores the measure of its last record as measure.json
        if (out / "measure_initial.json").exists():
            mu0, _ = load_measure(out / "measure_initial.json").without_zero_mass()
            yield ("trace starts at measure_initial.json", _atoms_mismatch(records, 0, mu0))
        if mu is not None:
            yield ("trace ends at measure.json", _atoms_mismatch(records, -1, mu))

    def report_text():
        fresh = optimality_residual(u, psi, z, mu, cfg.c, cfg.alpha)
        converged = _converged(cfg, mu, fresh.sup_residual, records[-1]["spawned"])
        return dumps_json(report_to_dict(fresh, converged, len(records) - 1,
                                         _path_check(cfg, u, psi, tree, mu)))

    # (file, whether its inputs were loaded and passed the checks that need
    # them, its text or bytes from the writer that its command used)
    derived = (
        ("tree.json", tree is not None, lambda: dumps_json(tree_to_dict(tree, mu))),
        ("landscape.csv", tree is not None, lambda: landscape_csv_text(z)),
        ("plan.svg", tree is not None,
         lambda: render_tree_svg(tree, mu, cfg.alpha, cfg.domain)),
        ("phi.bin", psi is not None, lambda: field_binary_bytes(phi_field(u, psi))),
        ("cost.json", tree is not None, lambda: dumps_json(_cost_summary(cfg, mu, cost, lb))),
        ("harvest.json", u is not None and mu is not None,
         lambda: dumps_json(_harvest_summary(u, mu))),
        ("adjoint.json", psi is not None and mu is not None,
         lambda: dumps_json(_adjoint_summary(cfg, mu, u, psi))),
        ("report.json", tree is not None and psi is not None and bool(records), report_text),
        # report tabulates measure.json, or the configured measure without one
        ("support.json", True, lambda: dumps_json({"rows": support_density_report(
            mu if mu is not None else _resolve_measure(args, parsed), cfg.grid).as_dicts()})),
    )
    for name, ready, rebuild in derived:
        if (out / name).exists():
            yield (name, _rebuild_mismatch(out / name, rebuild()) if ready else
                   "cannot be rebuilt: an input is missing or failed its check")


def _cmd_verify(args, parsed: ParsedConfig, out: Path) -> int:
    ran = 0
    failures = []
    for name, detail in _verify_checks(args, parsed, out):
        ran += 1
        if detail is None:
            print(f"ok: {name}")
        else:
            failures.append((name, detail))
            print(f"invariant violated: {name}: {detail}")
    if ran == 0:
        raise ValidationError(f"no artifacts found to verify in {out}")
    if failures:
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
