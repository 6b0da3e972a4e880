"""rootopt benchmark: one command per workload, every metric with its unit.

    python3 bench/run.py --workload {ascent,fields} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh interpreters with BLAS/OpenMP pools pinned
to one thread: SETUP_SAMPLES set-up-only children give ``setup_s`` (their
median), then one child measures passes for S seconds (bench/worker.py).
Times are rescaled to a reference speed (see bench/worker.py); the raw
times are kept in the run record.  The last line of standard output is the
JSON result; the lines before it give the environment block and the result
fingerprints.  Scratch files live in ``.bench/`` and are removed at exit;
the full record of each run is kept in ``.bench/results/``.  See
bench/README.md for the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("ascent", "fields")
SETUP_SAMPLES = 5
# a run must end within 180 s; the children share this much of it
CHILDREN_LIMIT_S = 170.0
# a traced pass whose top-level spans cover less than this share is flagged
COVERED_FLOOR = 0.98
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                    "VECLIB_MAXIMUM_THREADS")}


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "thread_pins": THREAD_PINS, "seed": args.seed, "traced": bool(args.trace),
            "workload": args.workload, "seconds": args.seconds}


def _child(argv, env, deadline):
    """Run one child interpreter to completion, killing it at `deadline`
    (a perf_counter time); returns (exit code, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv,
                             "--started", repr(start)], env=env,
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(deadline - start, 0.0))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, err.decode(errors="replace")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through _child so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not (ROOT / "src" / "rootopt" / "__init__.py").is_file():
        return _fail(f"no rootopt sources under {ROOT / 'src'}; run from a source checkout")
    # BENCHMARK.json names the metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "scripts"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scratch = ROOT / ".bench" / f"run-{os.getpid()}"
    results = ROOT / ".bench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = results / f"{tag}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.perf_counter() + CHILDREN_LIMIT_S
    try:
        setups = []
        for k in range(SETUP_SAMPLES):
            code, err = _child(common + ["--seconds", "0", "--setup-only",
                                         "--work", str(scratch / f"setup{k}"),
                                         "--result", str(record)], env, deadline)
            if code != 0:
                return _fail(f"set-up failed (exit {code}):\n{err}")
            setups.append(json.loads(record.read_text(encoding="utf-8")))
        shutil.rmtree(scratch, ignore_errors=True)
        code, err = _child(common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace),
                                        "--work", str(scratch / "work"),
                                        "--result", str(record)], env, deadline)
        if code != 0:
            return _fail(f"measuring run failed (exit {code}):\n{err}")
        res = json.loads(record.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return _fail("a child interpreter ran past its time limit")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wall = statistics.median(res["pass_s"])
    if args.trace:
        values = res["layers"]
    else:
        values = {"wall_s": wall, "items_per_s": res["items_per_pass"] / wall,
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    env_block = _environment(args) | {"versions": res["versions"]}
    res.update(environment=env_block, setup_s=setups, metrics=metrics)
    record.write_text(json.dumps(res, indent=1), encoding="utf-8")

    attempted, failed = res["attempted"], res["failed"]
    print("environment " + json.dumps(env_block, sort_keys=True))
    print("fingerprint " + json.dumps(res["fingerprint"], sort_keys=True))
    print(f"passes {len(res['pass_s'])} untraced, {len(res.get('traced_pass_s', []))} traced, "
          f"fail_frac {failed / attempted!r} "
          f"({failed} of {attempted} items)")
    print(f"raw pass_s median {statistics.median(res['pass_raw_s'])!r}, raw setup_s median "
          f"{statistics.median(s['setup_raw_s'] for s in setups)!r}")
    for reason in res["reasons"]:
        print(f"check failed: {reason}")
    if args.trace and res["layers"]["trace.covered_frac"] < COVERED_FLOOR:
        print(f"trace incomplete: top-level spans cover {res['layers']['trace.covered_frac']!r}"
              f" of the traced pass, below {COVERED_FLOOR}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
