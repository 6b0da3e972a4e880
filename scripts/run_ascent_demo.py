"""Mass-ascent demo: grow a root measure from a single seed atom and print
the payoff trajectory, then drop the usual artifact files into --out."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rootopt as ro
from rootopt.serialization import (save_measure, save_report, save_trace,
                                   save_tree)
from rootopt.render import save_svg, render_tree_svg


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("ascent_demo_out"))
    ap.add_argument("--nx", type=int, default=17)
    ap.add_argument("--alpha", type=float, default=0.75)
    ap.add_argument("--c", type=float, default=0.1)
    ap.add_argument("--iters", type=int, default=60)
    ap.add_argument("--spawn", action="store_true",
                    help="allow new atoms at promising grid nodes")
    ap.add_argument("--seed-mass", type=float, default=0.3)
    return ap.parse_args()


def main():
    args = parse_args()
    grid = ro.Grid(ro.Domain(), args.nx, args.nx)
    cfg = ro.RunConfig(grid=grid, alpha=args.alpha, c=args.c,
                       max_outer_iters=args.iters, step_size=2.0,
                       spawn=args.spawn, spawn_mass=0.05,
                       tol_residual=1e-4)
    seed = grid.node_position(grid.nx // 2, grid.ny // 2)
    mu0 = ro.DiscreteMeasure((ro.Atom(seed, args.seed_mass),))

    trace = ro.ascend_measure(cfg, mu0)
    for s in trace.steps:
        tag = " spawn" if s.spawned else ""
        print(f"it {s.iteration:4d}  payoff {s.payoff:+.6f}  "
              f"sup res {s.sup_residual:.3e}  atoms {len(s.measure)}{tag}")
    print(f"converged: {trace.converged}, final payoff {trace.final_payoff:.6f}, "
          f"total mass {trace.measure.total_mass:.4f}")

    args.out.mkdir(parents=True, exist_ok=True)
    save_trace(args.out / "trace.jsonl", trace)
    save_measure(args.out / "measure.json", trace.measure)
    if trace.tree is not None:
        save_tree(args.out / "tree.json", trace.tree, trace.measure)
        save_svg(args.out / "plan.svg",
                 render_tree_svg(trace.tree, trace.measure, cfg.alpha,
                                 domain=grid.domain))
        save_report(args.out / "report.json", trace.report, trace.converged,
                    len(trace.steps) - 1)
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
