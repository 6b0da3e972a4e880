"""Readers and writers for every artifact the pipeline emits.

Formats:

* measures, trees, reports, misc summaries: JSON with sorted keys
* optimizer traces: JSON lines, one record per iteration
* grid fields: a compact binary format with an ``<ii4d`` header (nx, ny,
  xmin, xmax, ymin, ymax) followed by row-major little-endian float64 values
* run configuration: flat ``key = value`` text, unknown keys rejected by name

Each format function returns a file's text or bytes, and `save_file` writes
them: it is the one place the package opens a file for writing.  The text
the formats write is deterministic: key order is sorted, floats go through
repr, and nothing embeds timestamps or environment details.  A command's
input measure is the exception as a file of a run directory: it is stored as
the text `load_measure_text` read it from, in the input's own key order and
number forms.  Every format has a matching parser so artifacts round-trip,
and a text file that is not UTF-8 fails its parser with a ValidationError
naming it.  Every JSON parser decodes through `_parse_json`.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import asdict, dataclass, fields
from itertools import chain
from operator import itemgetter

import numpy as np
import orjson

from .core import (DiscreteMeasure, Domain, Grid, GrowthFunction,
                   RunConfig, ValidationError)
from .elliptic import ScalarField
from .irrigation import ROOT, STEINER, TERMINAL, IrrigationTree, compute_fluxes
from .optimality import OptimalityReport, OptimizationTrace, PathCheckReport

__all__ = [
    "save_file",
    "load_text",
    "dumps_json",
    "load_json",
    "measure_to_dict",
    "measure_from_dict",
    "measure_text",
    "save_measure",
    "load_measure_text",
    "load_measure",
    "tree_to_dict",
    "tree_from_dict",
    "load_tree",
    "landscape_csv_text",
    "field_binary_bytes",
    "load_field_shape",
    "load_field_binary",
    "trace_step_dict",
    "save_trace",
    "load_trace",
    "report_to_dict",
    "load_report",
    "CONFIG_KEYS",
    "ParsedConfig",
    "parse_config_text",
    "parse_config_entry",
    "config_from_mapping",
    "config_to_text",
]


# ---------------------------------------------------------------------------
# files and generic JSON


def save_file(path, data) -> None:
    """Write data to the file at path: text as UTF-8, bytes as they are."""
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def load_text(path) -> str:
    """The text of the UTF-8 file at path, read in text mode."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_json(where, text: str):
    """The value of the JSON document `text`; an error names `where`.  The
    one place the package decodes JSON.

    orjson decodes the text.  What it refuses goes to the stdlib's
    json.loads: the NaN, Infinity and overflowing literals (such as 1e400)
    and lone surrogates that json accepts, and every malformed document,
    whose error is json's.  On what orjson accepts both give the same value,
    floats to the bit, with two exceptions.  An integer outside
    [-2**63, 2**64) decodes as the nearest float, the double that
    measure_from_dict makes of json's int.  A document nested deeper than
    json's recursion limit decodes instead of raising RecursionError.  A
    document that orjson refuses and json cannot decode within its
    recursion limit is an error naming `where`, as a malformed one is."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{where}: not valid JSON: {exc}") from exc


def load_json(path):
    return _parse_json(path, load_text(path))


# ---------------------------------------------------------------------------
# measures


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [
            {"x": x, "y": y, "mass": m}
            for (x, y), m in zip(mu.positions().tolist(), mu.masses().tolist())
        ]
    }


_ATOM_FIELDS = itemgetter("x", "y", "mass")


def _atom_values(i, rec) -> tuple:
    """(x, y, mass) of atom record i: JSON numbers only, never strings,
    booleans or null."""
    try:
        vals = _ATOM_FIELDS(rec)
        if not all(type(v) in (int, float) for v in vals):
            raise TypeError
        return tuple(float(v) for v in vals)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"measure atom {i} needs numeric x, y, mass") from exc


def _unknown_key(keys, known) -> str | None:
    return next((key for key in keys if key not in known), None)


def measure_from_dict(d) -> DiscreteMeasure:
    """The measure of a measure JSON object, parsed straight into arrays.

    The object holds only 'atoms', and every atom record exactly numeric x,
    y and mass; positions must be finite and distinct, masses finite and
    > 0.  Errors name the atom, and an unknown key by name."""
    if not isinstance(d, dict) or not isinstance(d.get("atoms"), list):
        raise ValidationError("measure JSON must be an object with an 'atoms' list")
    key = _unknown_key(d, ("atoms",))
    if key is not None:
        raise ValidationError(f"unknown measure key: {key!r}")
    recs = d["atoms"]
    try:
        flat = list(chain.from_iterable(map(_ATOM_FIELDS, recs)))
        if not set(map(type, flat)) <= {float, int}:
            raise TypeError
        arr = np.array(flat, dtype=float).reshape(len(recs), 3)
    except (KeyError, TypeError, OverflowError):
        # find and name the first bad record
        arr = np.array([_atom_values(i, r) for i, r in enumerate(recs)]).reshape(len(recs), 3)
    # each record is a dict holding x, y and mass, so one of any other length
    # holds another key
    if set(map(len, recs)) - {3}:
        i = next(i for i, r in enumerate(recs) if len(r) != 3)
        raise ValidationError(f"measure atom {i} has unknown key "
                              f"{_unknown_key(recs[i], ('x', 'y', 'mass'))!r}")
    return DiscreteMeasure.from_arrays(arr[:, :2], arr[:, 2])


# one atom of dumps_json(measure_to_dict(mu)): indent 2 and sorted keys; the
# %s slots take repr of each float, which is json's float form for the finite
# Python floats a measure holds
_ATOM_JSON = '    {\n      "mass": %s,\n      "x": %s,\n      "y": %s\n    }'


def measure_text(mu: DiscreteMeasure) -> str:
    """Exactly dumps_json(measure_to_dict(mu)), through one %-template per
    atom instead of json's pure-Python indenting encoder.  Each distinct
    float of the flat (mass, x, y) array is formatted by repr once, keyed by
    its bit pattern so -0.0 stays apart from 0.0, and all templates are
    filled in one pass from those strings."""
    if not len(mu):
        return dumps_json({"atoms": []})
    flat = np.column_stack([mu.masses(), mu.positions()]).ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    reprs = [repr(v) for v in bits.view(np.float64).tolist()]
    atoms = ",\n".join([_ATOM_JSON] * len(mu)) % itemgetter(*inverse.tolist())(reprs)
    return '{\n  "atoms": [\n' + atoms + "\n  ]\n}\n"


def save_measure(path, mu: DiscreteMeasure) -> None:
    save_file(path, measure_text(mu))


def load_measure_text(path) -> tuple[DiscreteMeasure, str]:
    """The measure of the file at path and the text it was parsed from, the
    file read once in text mode, so CRLF line ends read as LF."""
    text = load_text(path)
    return measure_from_dict(_parse_json(path, text)), text


def load_measure(path) -> DiscreteMeasure:
    return load_measure_text(path)[0]


# ---------------------------------------------------------------------------
# trees

_KINDS = (ROOT, STEINER, TERMINAL)


def tree_to_dict(tree: IrrigationTree, mu: DiscreteMeasure) -> dict:
    flux = compute_fluxes(tree, mu)
    nodes = [
        {
            "id": i,
            "x": float(tree.positions[i, 0]),
            "y": float(tree.positions[i, 1]),
            "kind": tree.kinds[i],
            "atom": int(tree.atom_index[i]) if tree.atom_index[i] >= 0 else None,
        }
        for i in range(tree.n_nodes)
    ]
    edges = [
        {"parent": p, "child": q, "flux": float(flux.values[q])}
        for p, q in tree.edges()
    ]
    return {"nodes": nodes, "edges": edges}


def _kind_mismatch(i, kind, atom):
    """Why a stored node kind disagrees with the node's place and atom, or
    None when it agrees: node 0 is the root and carries no atom, a terminal
    carries an atom and a steiner node does not."""
    if (kind == ROOT) != (i == 0):
        return f"node {i} is stored as {kind!r}, but node 0 and only node 0 is the root"
    if kind == ROOT and atom >= 0:
        return f"root node 0 carries atom {atom}"
    if kind == TERMINAL and atom < 0:
        return f"terminal node {i} carries no atom"
    if kind == STEINER and atom >= 0:
        return f"steiner node {i} carries atom {atom}"
    return None


def tree_from_dict(d):
    """Rebuild the tree; returns (tree, stored_flux) with stored_flux indexed
    by child node so conservation can be checked against a measure.  Every
    stored kind must agree with what `IrrigationTree` derives from the
    node's place and atom."""
    if not isinstance(d, dict) or "nodes" not in d or "edges" not in d:
        raise ValidationError("tree JSON must be an object with 'nodes' and 'edges'")
    nodes = d["nodes"]
    n = len(nodes)
    positions = np.zeros((n, 2))
    atom_index = [-1] * n
    seen = set()
    for rec in nodes:
        try:
            i, kind = int(rec["id"]), rec["kind"]
            xy = (float(rec["x"]), float(rec["y"]))
            atom = -1 if rec.get("atom") is None else int(rec["atom"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"tree JSON: malformed node record {rec!r}") from exc
        if i in seen or not 0 <= i < n:
            raise ValidationError(f"tree JSON: bad or duplicate node id {rec['id']!r}")
        seen.add(i)
        if kind not in _KINDS:
            raise ValidationError(f"tree JSON: unknown node kind {kind!r}")
        mismatch = _kind_mismatch(i, kind, atom)
        if mismatch is not None:
            raise ValidationError(f"tree JSON: {mismatch}")
        positions[i], atom_index[i] = xy, atom
    parents = [-1] * n
    stored = np.zeros(n)
    for rec in d["edges"]:
        try:
            p, q, flux = int(rec["parent"]), int(rec["child"]), float(rec["flux"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"tree JSON: malformed edge record {rec!r}") from exc
        if not (0 <= p < n and 0 < q < n):
            raise ValidationError(f"tree JSON: edge endpoints out of range: {rec!r}")
        parents[q], stored[q] = p, flux
    tree = IrrigationTree(positions, tuple(parents), tuple(atom_index))
    return tree, stored


def load_tree(path):
    return tree_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# landscape and fields


def landscape_csv_text(z) -> str:
    """Header ``node,x,y,z``, then one row per tree node, floats through repr."""
    lines = ["node,x,y,z"]
    for i in range(z.tree.n_nodes):
        x, y = z.tree.positions[i]
        lines.append(f"{i},{float(x)!r},{float(y)!r},{float(z.values[i])!r}")
    return "\n".join(lines) + "\n"


_FIELD_HEADER = struct.Struct("<ii4d")


def field_binary_bytes(field: ScalarField) -> bytes:
    """The ``<ii4d`` header, then the values as little-endian float64."""
    g = field.grid
    d = g.domain
    header = _FIELD_HEADER.pack(g.nx, g.ny, d.rect_min[0], d.rect_max[0],
                                d.rect_min[1], d.rect_max[1])
    return header + np.ascontiguousarray(field.values, dtype="<f8").tobytes()


def _field_header(path, raw: bytes) -> tuple:
    """(nx, ny, xmin, xmax, ymin, ymax) from the start of a binary field."""
    if len(raw) < _FIELD_HEADER.size:
        raise ValidationError(f"{path}: truncated field header")
    return _FIELD_HEADER.unpack_from(raw)


def load_field_shape(path) -> tuple[int, int]:
    """(nx, ny) from a binary field's header, without reading its values."""
    with open(path, "rb") as fh:
        return _field_header(path, fh.read(_FIELD_HEADER.size))[:2]


def load_field_binary(path, domain: Domain) -> ScalarField:
    with open(path, "rb") as fh:
        raw = fh.read()
    nx, ny, xmin, xmax, ymin, ymax = _field_header(path, raw)
    bounds = (xmin, ymin, xmax, ymax)
    want = (domain.rect_min[0], domain.rect_min[1], domain.rect_max[0], domain.rect_max[1])
    if any(abs(a - b) > 1e-12 for a, b in zip(bounds, want)):
        raise ValidationError(f"{path}: stored bounds {bounds} do not match the domain")
    vals = np.frombuffer(raw, dtype="<f8", offset=_FIELD_HEADER.size)
    if len(vals) != nx * ny:
        raise ValidationError(f"{path}: expected {nx * ny} values, found {len(vals)}")
    return ScalarField(Grid(domain, nx, ny), vals.astype(np.float64))


# ---------------------------------------------------------------------------
# traces and reports


def trace_step_dict(step) -> dict:
    return {
        "iteration": step.iteration,
        "payoff": step.payoff,
        "sup_residual": step.sup_residual,
        "accepted": step.accepted,
        "spawned": step.spawned,
        "eta": step.eta,
        "atoms": measure_to_dict(step.measure)["atoms"],
        "solver_errors": list(step.solver_errors),
    }


def save_trace(path, trace: OptimizationTrace) -> None:
    save_file(path, "".join(json.dumps(trace_step_dict(step), sort_keys=True,
                                       separators=(",", ":")) + "\n" for step in trace.steps))


# the types each key of a trace record may hold; a bool is not a number here
_TRACE_TYPES = {"iteration": (int,), "payoff": (int, float), "sup_residual": (int, float),
                "accepted": (bool,), "spawned": (bool,), "eta": (int, float),
                "atoms": (list,), "solver_errors": (list,)}


def _trace_record(where: str, line: str) -> dict:
    """The record on one line of a trace, which must be a JSON object whose
    keys hold the types of _TRACE_TYPES; errors name `where`, file:line."""
    rec = _parse_json(where, line)
    bad = next((key for key, types in _TRACE_TYPES.items()
                if not isinstance(rec, dict) or type(rec.get(key)) not in types), None)
    if bad is not None:
        raise ValidationError(f"{where}: a trace record must be a JSON object whose {bad!r} "
                              f"holds {' or '.join(t.__name__ for t in _TRACE_TYPES[bad])}")
    return rec


def load_trace(path):
    return [_trace_record(f"{path}:{ln}", line)
            for ln, line in enumerate(load_text(path).split("\n"), 1) if line.strip()]


def report_to_dict(report: OptimalityReport, converged: bool, iterations: int,
                   path_check: PathCheckReport | None = None) -> dict:
    return {
        "alpha": report.alpha,
        "c": report.c,
        "converged": converged,
        "iterations": iterations,
        "payoff": report.payoff,
        "harvest": report.harvest,
        "irrigation_cost": report.irrigation_cost,
        "sup_residual": report.sup_residual,
        "records": [
            {
                "atom": r.atom,
                "x": r.position[0],
                "y": r.position[1],
                "mass": r.mass,
                "phi": r.phi,
                "z": r.z,
                "residual": r.residual,
            }
            for r in report.records
        ],
        "path_check": None if path_check is None else asdict(path_check),
    }


def load_report(path) -> dict:
    d = load_json(path)
    if not isinstance(d, dict) or "records" not in d:
        raise ValidationError(f"{path}: not a report file")
    return d


# ---------------------------------------------------------------------------
# flat key = value configuration


@dataclass(frozen=True)
class ParsedConfig:
    run: RunConfig
    measure_path: str | None = None
    snap_measure: bool = False


def _config_values(parsed: ParsedConfig) -> dict:
    """Every config key with its value in `parsed`, the one place the keys are
    written down.  A key is the name of the dataclass field it sets, with _x
    and _y on the coordinates of a `Domain` point; `config_from_mapping`
    builds the dataclasses back through those names."""
    cfg, grid, d = parsed.run, parsed.run.grid, parsed.run.domain
    return {
        "alpha": cfg.alpha, "c": cfg.c, "nx": grid.nx, "ny": grid.ny,
        "rect_min_x": d.rect_min[0], "rect_min_y": d.rect_min[1],
        "rect_max_x": d.rect_max[0], "rect_max_y": d.rect_max[1],
        "u_max": cfg.growth.u_max, "rate": cfg.growth.rate,
        "tol_nonlinear": cfg.tol_nonlinear, "tol_linear": cfg.tol_linear,
        "tol_residual": cfg.tol_residual, "max_outer_iters": cfg.max_outer_iters,
        "max_plan_moves": cfg.max_plan_moves, "step_size": cfg.step_size,
        "spawn": cfg.spawn, "spawn_mass": cfg.spawn_mass, "path_tol": cfg.path_tol,
        "measure_path": parsed.measure_path, "snap_measure": parsed.snap_measure,
    }


def _parse_bool(s: str) -> bool:
    v = s.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


# defaults are those of the core dataclasses; a key's parser follows the type
# of its default, and measure_path, whose default is None, is kept as text
_DEFAULTS = _config_values(ParsedConfig(RunConfig()))
_PARSERS = {bool: _parse_bool, int: int, float: float, type(None): str}
CONFIG_KEYS = {key: _PARSERS[type(value)] for key, value in _DEFAULTS.items()}


# what a parsed value of each parser is: an int passes as a float, and a bool,
# though an int, only as a boolean
_PARSED_TYPES = {_parse_bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
                 float: (numbers.Real, "a number"), str: ((str, type(None)), "text")}


def _known_key(key: str) -> str:
    if key not in CONFIG_KEYS:
        raise ValidationError(f"unknown config key: {key!r}")
    return key


def _checked_value(key: str, value):
    """value, if it has the type that key's parser returns, as that type: a
    float key's int becomes a float."""
    parser = CONFIG_KEYS[_known_key(key)]
    types, name = _PARSED_TYPES[parser]
    if not isinstance(value, types) or (isinstance(value, bool) and parser is not _parse_bool):
        raise ValidationError(f"config key {key!r}: expected {name}, got {value!r}")
    return parser(value) if parser in (int, float) else value


def parse_config_entry(key: str, raw: str):
    key = _known_key(key.strip())
    try:
        return key, CONFIG_KEYS[key](raw.strip())
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    values = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key, value = parse_config_entry(key, raw)
        values[key] = value
    return values


def _build(cls, values: dict, **parts):
    """cls with each field taken from parts, or else from the key of its name."""
    return cls(**{f.name: parts[f.name] if f.name in parts else values[f.name]
                  for f in fields(cls)})


def config_from_mapping(values: dict) -> ParsedConfig:
    """The config of `values` (key -> parsed value), defaults for the rest;
    a value of the wrong type raises ValidationError naming its key."""
    v = {**_DEFAULTS, **{key: _checked_value(key, value) for key, value in values.items()}}
    domain = Domain(**{f.name: (v[f.name + "_x"], v[f.name + "_y"]) for f in fields(Domain)})
    grid = _build(Grid, v, domain=domain)
    run = _build(RunConfig, v, grid=grid, growth=_build(GrowthFunction, v))
    return _build(ParsedConfig, v, run=run)


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def config_to_text(parsed: ParsedConfig) -> str:
    """One `key = value` line per key in sorted order; floats through repr,
    and no measure_path line when there is none."""
    return "".join(f"{key} = {_value_text(value)}\n"
                   for key, value in sorted(_config_values(parsed).items())
                   if value is not None)
