"""Spans around calls into rootopt's modules, recorded from outside the package.

A wrapper is installed at the name the caller looks up.  ``rootopt.cli`` and
``rootopt.optimality`` import their collaborators by name, so each function
they imported from a sibling module is replaced in *their* namespace.
Inside ``rootopt.elliptic`` two names are patched: ``lump_measure`` and
``spla``, the ``scipy.sparse.linalg`` module, which is swapped for a proxy
that times every solver looked up through it.  Nothing in ``src/``
changes, and everything is restored when the context exits.

Spans are kept in memory as small lists and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

# rootopt's modules that form timed layers; core has no timed layer, the
# benchmark builds its inputs with it during set-up.
LAYERS = ("cli", "optimality", "irrigation", "elliptic", "serialization", "render")

# namespaces whose imported functions get wrappers, with the site name that
# spans record for the caller
CALLER_SITES = (("rootopt.cli", "cli"), ("rootopt.optimality", "optimality"))

# span record fields
NAME, SITE, START, END, PARENT, RUN, ERROR, NBYTES = range(8)


class NullTracer:
    """Stands in for a Tracer in untraced runs: no spans, no wrappers."""

    run_id = 0

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = 0

    def _open(self, name, site):
        rec = [name, site, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.run_id, None, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around a call the benchmark itself makes."""
        rec = self._open(name, "bench")
        try:
            yield
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def wrap(self, fn, name, site):
        writes = name.startswith("serialization.save_")

        def traced(*args, **kwargs):
            rec = self._open(name, site)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(rec)
                if writes and args and os.path.isfile(args[0]):
                    rec[NBYTES] = os.path.getsize(args[0])

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        keys = ("name", "site", "start", "end", "parent", "run", "error", "bytes")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec)), separators=(",", ":")) + "\n")


class _LinalgProxy:
    """scipy.sparse.linalg as seen from rootopt.elliptic, with every callable
    looked up through it timed as ``elliptic.linalg.<name>``."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer
        self._wrapped = {}

    def __getattr__(self, attr):
        obj = getattr(self._real, attr)
        if not callable(obj) or isinstance(obj, type):
            return obj
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.wrap(obj, f"elliptic.linalg.{attr}", "elliptic")
        return self._wrapped[attr]


@contextmanager
def installed(tracer):
    """Patch the wrappers in for the duration of the block."""
    import rootopt.elliptic as elliptic

    saved = []

    def patch(mod, attr, new):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    for modname, site in CALLER_SITES:
        mod = sys.modules[modname]
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ == modname:
                continue
            layer = obj.__module__.rsplit(".", 1)[-1]
            if obj.__module__.startswith("rootopt.") and layer in LAYERS:
                patch(mod, attr, tracer.wrap(obj, f"{layer}.{attr}", site))
    patch(elliptic, "lump_measure",
          tracer.wrap(elliptic.lump_measure, "elliptic.lump_measure", "elliptic"))
    patch(elliptic, "spla", _LinalgProxy(elliptic.spla, tracer))
    try:
        yield
    finally:
        for mod, attr, obj in reversed(saved):
            setattr(mod, attr, obj)


def pass_breakdown(spans, run_id, wall, scale):
    """Per-layer numbers for one traced pass of `wall` seconds, with every
    time multiplied by `scale` (the pass's reference-speed factor).

    A span's self time is its duration minus its children's; the layer of a
    span is the first part of its name.  Time in the pass that no span covers
    (the benchmark loop, argument parsing, rootopt.core) is ``unattributed``,
    and ``trace.covered_frac`` is the share of the pass that top-level spans
    cover.  The layer self times add up to the pass by construction, so it is
    the covered share that shows whether the spans account for the pass.
    """
    run = [(i, s) for i, s in enumerate(spans) if s[RUN] == run_id]
    child = {}
    for _, s in run:
        if s[PARENT] >= 0:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    layer_self = {layer: 0.0 for layer in LAYERS}
    total = {}
    calls = {}
    self_by_name = {}
    top = 0.0
    for i, s in run:
        dur = (s[END] - s[START]) * scale
        own = dur - child.get(i, 0.0) * scale
        layer_self[s[NAME].split(".", 1)[0]] += own
        total[s[NAME]] = total.get(s[NAME], 0.0) + dur
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_by_name[s[NAME]] = self_by_name.get(s[NAME], 0.0) + own
        if s[PARENT] < 0:
            top += dur
    wall *= scale
    layer_self["unattributed"] = wall - top

    def s_of(prefix):
        return sum((v for k, v in total.items() if k.startswith(prefix)), 0.0)

    # calls the ascent loop made: each evaluation solves one state
    from_ascent = [s for _, s in run if s[SITE] == "optimality"]
    return {
        "elliptic.solve_state.calls": calls.get("elliptic.solve_state", 0),
        "elliptic.solve_state.s": total.get("elliptic.solve_state", 0.0),
        "elliptic.solve_adjoint.calls": calls.get("elliptic.solve_adjoint", 0),
        "elliptic.solve_adjoint.s": total.get("elliptic.solve_adjoint", 0.0),
        "elliptic.lump_measure.s": total.get("elliptic.lump_measure", 0.0),
        "elliptic.linalg.cg.calls": calls.get("elliptic.linalg.cg", 0),
        "elliptic.linalg.spsolve.calls": calls.get("elliptic.linalg.spsolve", 0),
        "elliptic.linalg.s": s_of("elliptic.linalg."),
        "irrigation.optimize_plan.calls": calls.get("irrigation.optimize_plan", 0),
        "irrigation.optimize_plan.s": total.get("irrigation.optimize_plan", 0.0),
        "irrigation.landscape.s": total.get("irrigation.landscape", 0.0),
        "optimality.ascend_measure.self_s": self_by_name.get("optimality.ascend_measure", 0.0),
        "optimality.evaluations": sum(1 for s in from_ascent if s[NAME] == "elliptic.solve_state"),
        "optimality.solver_errors": sum(1 for s in from_ascent if s[ERROR] == "SolverError"),
        "serialization.write.s": s_of("serialization.save_"),
        "serialization.read.s": s_of("serialization.load_"),
        "serialization.bytes_written": sum(s[NBYTES] for _, s in run),
        "cli.verify.s": total.get("cli.verify", 0.0),
        "trace.spans": len(run),
        "trace.wall_s": wall,
        "trace.covered_frac": top / wall,
        **{f"layer.{k}.self_s": v for k, v in layer_self.items()},
    }
