"""The benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload builds every input in its constructor (this is the set-up the
benchmark times as ``setup_s``), then ``run`` makes one pass of calls into
rootopt and ``check`` validates what the pass produced, outside the timed
region.  Every pass of a run repeats the same calls on the same inputs, so
counts per pass repeat exactly and the median pass time rejects noise.

The program only ever sees generated inputs: config text and measure JSON
files.
"""

from __future__ import annotations

import io
import json
import math
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rootopt as ro
import rootopt.cli as cli
from convergence_study import manufactured

# ---------------------------------------------------------------------------
# shared helpers


def _config_text(values):
    lines = []
    for key, val in values.items():
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _write_measure(path, atoms):
    """atoms: iterable of (x, y, mass); floats are written with repr, so node
    coordinates read back exactly."""
    payload = {"atoms": [{"x": float(x), "y": float(y), "mass": float(m)}
                         for x, y, m in atoms]}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _cli(tracer, argv):
    """One in-process CLI call; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue() + err.getvalue()


_CHECKS_PASSED = re.compile(r"^all (\d+) checks passed$", re.M)


def _verify_passed(text):
    m = _CHECKS_PASSED.search(text)
    return int(m.group(1)) if m else 0


def _artifact_sizes(out_dir):
    return {p.name: p.stat().st_size for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _read_field(path):
    """Values of a field .bin artifact: a <ii4d header, then little-endian doubles."""
    raw = Path(path).read_bytes()
    nx, ny = np.frombuffer(raw[:8], dtype="<i4")
    vals = np.frombuffer(raw, dtype="<f8", offset=40)
    if len(vals) != nx * ny:
        raise ValueError(f"{path}: {len(vals)} values for a {nx}x{ny} grid")
    return vals


@dataclass
class PassOutcome:
    """What the checks found in one pass: items attempted, items whose output
    failed a check (with the reasons), the result fingerprint, and per-pass
    numbers that only the workload can compute."""

    items: int
    failed: int
    reasons: list
    fingerprint: dict
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ascent: optimize, verify and report through the CLI


class Ascent:
    """The spawn ascent of scripts/run_ascent_demo.py through the CLI.

    17x17 grid, alpha 0.75, c 0.1, step 2.0, spawning with spawn_mass 0.05,
    one seed atom at the centre node, a fixed outer-iteration budget.  The
    seed draws the seed atom's mass from U(0.3, 0.4).  For every mass in that
    range, 20 iterations take 41 evaluations and end with 18 atoms, after
    three rejected spawn trials, so the work per pass hardly depends on the
    seed.
    """

    ITERATIONS = 20
    U_MAX = 1.0
    TOL_RESIDUAL = 1e-4
    STEP_SIZE = 2.0

    def __init__(self, seed, root):
        rng = np.random.default_rng(seed)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.seed_mass = float(rng.uniform(0.3, 0.4))
        centre = ro.Grid(ro.Domain(), 17, 17).node_position(8, 8)
        _write_measure(self.root / "seed_measure.json", [(*centre, self.seed_mass)])
        (self.root / "ascent.cfg").write_text(_config_text({
            "nx": 17, "ny": 17, "alpha": 0.75, "c": 0.1,
            "step_size": self.STEP_SIZE, "spawn": True, "spawn_mass": 0.05,
            "tol_residual": self.TOL_RESIDUAL, "u_max": self.U_MAX,
            "max_outer_iters": self.ITERATIONS,
            "measure_path": "seed_measure.json",
        }), encoding="utf-8")
        self.out = self.root / "out"

    def describe(self):
        return {"seed_atom_mass": self.seed_mass, "iterations": self.ITERATIONS}

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, tracer):
        cfg = self.root / "ascent.cfg"
        return [
            _cli(tracer, ["optimize", "--config", cfg, "--out", self.out]),
            _cli(tracer, ["verify", "--out", self.out]),
            _cli(tracer, ["report", "--out", self.out]),
        ]

    def check(self, raw):
        reasons = []
        for cmd, (code, text) in zip(("optimize", "verify", "report"), raw):
            if code != 0:
                reasons.append(f"{cmd} exited {code}: {text.strip()[-200:]}")
        n_checks = _verify_passed(raw[1][1])
        if n_checks == 0:
            reasons.append("verify did not print 'all N checks passed'")
        steps = []
        fp = {}
        try:
            with open(self.out / "trace.jsonl", encoding="utf-8") as fh:
                steps = [json.loads(line) for line in fh if line.strip()]
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            final = json.loads((self.out / "measure.json").read_text(encoding="utf-8"))
            fp = {"payoff": report["payoff"], "sup_residual": report["sup_residual"],
                  "atoms": len(final["atoms"]), "iterations": len(steps) - 1,
                  "artifact_bytes": _artifact_sizes(self.out)}
        except (OSError, ValueError, KeyError) as exc:
            reasons.append(f"artifacts unreadable: {exc}")
        accepted = [s["payoff"] for s in steps if s["accepted"]]
        if any(b < a for a, b in zip(accepted, accepted[1:])):
            reasons.append("accepted payoffs in trace.jsonl decrease")
        items = max(len(steps) - 1, 1)
        return PassOutcome(items, items if reasons else 0, reasons, fp,
                           {"verify_checks": n_checks, "steps": steps})

    def ascent_ratios(self, steps, evaluations):
        """Wasted-work ratios from trace.jsonl and the wrapper's count of
        state solves, following the loop that ascend_measure documents: a
        mass step tries eta = step_size / 2**k for k = 0..20 until one is
        accepted, then at most one spawn trial follows."""
        tol_eff = self.TOL_RESIDUAL * self.U_MAX
        mass_trials = accepted_mass = 0
        for prev, step in zip(steps, steps[1:]):
            if step["eta"] > 0.0:
                accepted_mass += 1
                mass_trials += 1 + round(math.log2(self.STEP_SIZE / step["eta"]))
            elif prev["sup_residual"] >= tol_eff:
                mass_trials += 21
        spawned = sum(1 for s in steps[1:] if s["spawned"])
        accepted = sum(1 for s in steps[1:] if s["accepted"])
        spawn_trials = max(evaluations - 1 - mass_trials, 0)
        return {
            "optimality.evals_per_accept": evaluations / accepted if accepted else float(evaluations),
            "optimality.spawn_accept_frac": spawned / spawn_trials if spawn_trials else 0.0,
            "optimality.backtracks": mass_trials - accepted_mass,
        }


# ---------------------------------------------------------------------------
# fields: adjoint, then verify, through the CLI


class Fields:
    """State and adjoint solves through the CLI: ``adjoint`` then ``verify``.

    Instances: a few random 6-atom measures on 65x65 grids (from the seed)
    plus the manufactured all-node measures at 65x65 and 129x129 (4.2k and
    16.6k atoms), whose exact state gives ``state_err``.
    """

    RANDOM_INSTANCES = 3
    U_MAX = 1.0
    # the max-norm error against the exact manufactured state is about
    # 9e-6 at 65x65 and 2e-6 at 129x129 (discretization error)
    STATE_ERR_MAX = 1e-4

    def __init__(self, seed, root):
        rng = np.random.default_rng(seed)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.instances = []  # (name, n, exact state or None)
        coords = ro.Grid(ro.Domain(), 65, 65).node_coordinates()
        for k in range(self.RANDOM_INSTANCES):
            nodes = sorted(rng.choice(len(coords), size=6, replace=False))
            atoms = [(*coords[i], rng.uniform(0.1, 0.8)) for i in nodes]
            self._add(f"random{k}", 65, atoms, None)
        for n in (65, 129):
            mu, u_ex = manufactured(ro.Grid(ro.Domain(), n, n), ro.GrowthFunction(), 0.04)
            self._add(f"manufactured{n}", n, [(*a.position, a.mass) for a in mu.atoms], u_ex)

    def _add(self, name, n, atoms, exact):
        _write_measure(self.root / f"{name}.json", atoms)
        (self.root / f"{name}.cfg").write_text(_config_text({
            "nx": n, "ny": n, "u_max": self.U_MAX, "measure_path": f"{name}.json",
        }), encoding="utf-8")
        self.instances.append((name, n, exact))

    def describe(self):
        return {"instances": [[name, n] for name, n, _ in self.instances]}

    def prepare(self):
        for name, _, _ in self.instances:
            shutil.rmtree(self.root / f"out_{name}", ignore_errors=True)

    def run(self, tracer):
        raw = []
        for name, _, _ in self.instances:
            out = self.root / f"out_{name}"
            raw.append((_cli(tracer, ["adjoint", "--config", self.root / f"{name}.cfg",
                                      "--out", out]),
                        _cli(tracer, ["verify", "--out", out])))
        return raw

    def check(self, raw):
        reasons = []
        failed = 0
        n_checks = 0
        fp = {}
        for (name, _, exact), (adj, ver) in zip(self.instances, raw):
            bad = [f"{name}: {cmd} exited {code}: {text.strip()[-200:]}"
                   for cmd, (code, text) in (("adjoint", adj), ("verify", ver)) if code != 0]
            n_checks += _verify_passed(ver[1])
            out = self.root / f"out_{name}"
            rec = {}
            try:
                u = _read_field(out / "state.bin")
                if not (u.min() >= 0.0 and u.max() <= self.U_MAX):
                    bad.append(f"{name}: state range [{u.min()!r}, {u.max()!r}] "
                               f"leaves [0, {self.U_MAX}]")
                if exact is not None:
                    rec["state_err"] = float(np.max(np.abs(u - exact)))
                    if not rec["state_err"] <= self.STATE_ERR_MAX:
                        bad.append(f"{name}: state error {rec['state_err']!r} against the exact "
                                   f"state exceeds {self.STATE_ERR_MAX}")
                rec["artifact_bytes"] = _artifact_sizes(out)
            except (OSError, ValueError) as exc:
                bad.append(f"{name}: artifacts unreadable: {exc}")
            fp[name] = rec
            reasons += bad
            failed += 1 if bad else 0
        fp["state_err"] = fp.get("manufactured129", {}).get("state_err")
        return PassOutcome(len(self.instances), failed, reasons, fp,
                           {"verify_checks": n_checks})


WORKLOADS = {"ascent": Ascent, "fields": Fields}
