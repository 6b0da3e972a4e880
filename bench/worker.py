"""One benchmark run inside a fresh interpreter; started by bench/run.py.

Builds the workload's inputs and reports how long that took, measured from
the parent's clock reading just before it started this interpreter.  Unless
--setup-only is given, it then runs passes in a closed loop with one caller
until the time is up, checking every pass.  An untraced run times the passes
bare.  A traced run spends the first half of its time on bare passes and the
second half on passes with the span wrappers installed, so the tracing
overhead is measured against bare passes of the same run.

Every time is rescaled to a reference speed by a SpeedSampler
(bench/speed.py), because the speed of this machine's vCPUs switches within
seconds.  The raw times go into the result file too.  The result goes to the
JSON file named by --result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler


def _passes(wl, tracer, sampler, budget, first_run_id, outcomes):
    """Run passes until starting another would overrun `budget` seconds;
    always at least one.  Returns the raw and the scaled pass times."""
    raw, scaled = [], []
    t0 = perf_counter()
    while True:
        wl.prepare()
        tracer.run_id = first_run_id + len(raw)
        mark = sampler.mark()
        start = perf_counter()
        out = wl.run(tracer)
        raw.append(perf_counter() - start)
        scaled.append(sampler.scaled(raw[-1], mark))
        outcomes.append(wl.check(out))
        if perf_counter() - t0 + statistics.median(raw) > budget:
            return raw, scaled


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="the parent's perf_counter() just before starting this interpreter")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sampler = SpeedSampler()
    sampler.start()
    try:
        _run(args, sampler)
    finally:
        sampler.stop()
    return 0


def _run(args, sampler):
    # imported once the sampler runs, so that it samples the set-up they belong to
    import numpy as np
    import scipy

    import rootopt
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.work)
    setup_raw = perf_counter() - args.started
    result = {"setup_raw_s": setup_raw, "setup_s": sampler.scaled(setup_raw, 0)}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return

    outcomes = []
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    budget = args.seconds / 2 if args.trace else args.seconds
    raw, scaled = _passes(wl, tracing.NullTracer(), sampler, budget, 0, outcomes)
    result.update({
        "pass_raw_s": raw,
        "pass_s": scaled,
        "items_per_pass": outcomes[0].items,
        "inputs": wl.describe(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "rootopt": rootopt.__version__},
    })
    if args.trace:
        with tracing.installed(tracer):
            traced_raw, traced = _passes(wl, tracer, sampler, budget, len(raw), outcomes)
        # the per-layer numbers come from the traced pass of median length,
        # with every span rescaled by that pass's factor
        k = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
        layers = tracing.pass_breakdown(tracer.spans, len(raw) + k, traced_raw[k],
                                        traced[k] / traced_raw[k])
        out = outcomes[len(raw) + k]
        layers["cli.verify.checks"] = out.extra.get("verify_checks", 0)
        ratios = {"optimality.evals_per_accept": 0.0, "optimality.spawn_accept_frac": 0.0,
                  "optimality.backtracks": 0}
        if "steps" in out.extra:
            ratios = wl.ascent_ratios(out.extra["steps"], layers["optimality.evaluations"])
        layers.update(ratios)
        untraced = statistics.median(scaled)
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_frac"] = traced[k] / untraced - 1.0
        result["traced_pass_raw_s"] = traced_raw
        result["traced_pass_s"] = traced
        result["layers"] = layers
        tracer.dump(args.result.with_suffix(".spans.jsonl"))

    fingerprints = [o.fingerprint for o in outcomes]
    result["fingerprint"] = fingerprints[0]
    reasons = [r for o in outcomes for r in o.reasons]
    # identical inputs must give identical outputs on every pass; a pass that
    # drifts from the first counts all its items as failed
    drift = sum(1 for fp in fingerprints[1:] if fp != fingerprints[0])
    if drift:
        reasons.append(f"{drift} passes produced a different fingerprint than the first")
    result["attempted"] = sum(o.items for o in outcomes)
    result["failed"] = sum(o.items if o.fingerprint != fingerprints[0] else o.failed
                           for o in outcomes)
    result["reasons"] = reasons[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
