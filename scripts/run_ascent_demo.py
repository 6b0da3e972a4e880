"""Mass-ascent demo: grow a root measure from a single seed atom with
`rootopt optimize`, then print the payoff trajectory from its trace.jsonl.

The seed measure goes into --out as seed.json, and the run leaves the
usual artifacts there, config.txt included, so `rootopt verify --out DIR`
re-checks it."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rootopt as ro
from rootopt import cli
from rootopt.serialization import load_measure, load_report, load_trace, save_measure


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
    seed = grid.node_position(grid.nx // 2, grid.ny // 2)
    args.out.mkdir(parents=True, exist_ok=True)
    seed_path = (args.out / "seed.json").resolve()
    save_measure(seed_path, ro.DiscreteMeasure((ro.Atom(seed, args.seed_mass),)))

    settings = {"nx": args.nx, "ny": args.nx, "alpha": args.alpha, "c": args.c,
                "max_outer_iters": args.iters, "step_size": 2.0, "spawn": args.spawn,
                "spawn_mass": 0.05, "tol_residual": 1e-4, "measure_path": seed_path}
    argv = ["optimize", "--out", str(args.out)]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    status = cli.main(argv)
    if status:
        sys.exit(status)

    records = load_trace(args.out / "trace.jsonl")
    for r in records:
        tag = " spawn" if r["spawned"] else ""
        print(f"it {r['iteration']:4d}  payoff {r['payoff']:+.6f}  "
              f"sup res {r['sup_residual']:.3e}  atoms {len(r['atoms'])}{tag}")
    # a run without report.json ended on an empty measure, which converges
    report = args.out / "report.json"
    converged = load_report(report)["converged"] if report.exists() else True
    print(f"converged: {converged}, final payoff {records[-1]['payoff']:.6f}, "
          f"total mass {load_measure(args.out / 'measure.json').total_mass:.4f}")
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
