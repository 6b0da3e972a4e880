"""Readers and writers for every artifact the pipeline emits.

Formats:

* measures, trees, reports, misc summaries: JSON with sorted keys
* optimizer traces: JSON lines, one record per iteration
* grid fields: CSV (x, y, value) and a compact binary format with an
  ``<ii4d`` header (nx, ny, xmin, xmax, ymin, ymax) followed by row-major
  little-endian float64 values.  The CSV text of a grid is built once as a
  %-template that holds every ``x,y,`` prefix and one ``%r`` slot per node,
  and each field fills it with a single ``%`` over its values
* run configuration: flat ``key = value`` text, unknown keys rejected by name

All writers are deterministic: key order is sorted, floats go through repr,
and nothing embeds timestamps or environment details.  Every format has a
matching parser so artifacts round-trip.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import asdict, dataclass, fields
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (DiscreteMeasure, Domain, Grid, GrowthFunction,
                   RunConfig, ValidationError)
from .elliptic import ScalarField
from .irrigation import ROOT, STEINER, TERMINAL, IrrigationTree, compute_fluxes
from .optimality import OptimalityReport, OptimizationTrace, PathCheckReport

__all__ = [
    "dumps_json",
    "save_json",
    "load_json",
    "measure_to_dict",
    "measure_from_dict",
    "save_measure",
    "load_measure",
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
    "landscape_csv_text",
    "save_landscape_csv",
    "save_field_csv",
    "field_binary_bytes",
    "save_field_binary",
    "save_fields",
    "load_field_shape",
    "load_field_binary",
    "trace_step_dict",
    "save_trace",
    "load_trace",
    "report_to_dict",
    "save_report",
    "load_report",
    "CONFIG_KEYS",
    "ParsedConfig",
    "parse_config_text",
    "parse_config_entry",
    "config_from_mapping",
    "config_to_text",
]


# ---------------------------------------------------------------------------
# generic JSON


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


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


def measure_from_dict(d) -> DiscreteMeasure:
    """The measure of a measure JSON object, parsed straight into arrays.

    Every atom record needs numeric x, y and mass; positions must be finite
    and distinct, masses finite and >= 0.  Errors name the atom."""
    if not isinstance(d, dict) or not isinstance(d.get("atoms"), list):
        raise ValidationError("measure JSON must be an object with an 'atoms' list")
    recs = d["atoms"]
    try:
        flat = list(chain.from_iterable(map(_ATOM_FIELDS, recs)))
        if not set(map(type, flat)) <= {float, int}:
            raise TypeError
        arr = np.array(flat, dtype=float).reshape(len(recs), 3)
    except (KeyError, TypeError, OverflowError):
        # find and name the first bad record
        arr = np.array([_atom_values(i, r) for i, r in enumerate(recs)]).reshape(len(recs), 3)
    return DiscreteMeasure.from_arrays(arr[:, :2], arr[:, 2])


# one atom of dumps_json(measure_to_dict(mu)): indent 2 and sorted keys; the
# %s slots take repr of each float, which is json's float form for the finite
# Python floats a measure holds
_ATOM_JSON = '    {\n      "mass": %s,\n      "x": %s,\n      "y": %s\n    }'


def save_measure(path, mu: DiscreteMeasure) -> None:
    """Write exactly the bytes of dumps_json(measure_to_dict(mu)), through one
    %-template per atom instead of json's pure-Python indenting encoder.  Each
    distinct float of the flat (mass, x, y) array is formatted by repr once,
    keyed by its bit pattern so -0.0 stays apart from 0.0, and all templates
    are filled in one pass from those strings."""
    if not len(mu):
        text = dumps_json({"atoms": []})
    else:
        flat = np.column_stack([mu.masses(), mu.positions()]).ravel()
        bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        reprs = [repr(v) for v in bits.view(np.float64).tolist()]
        atoms = ",\n".join([_ATOM_JSON] * len(mu)) % itemgetter(*inverse.tolist())(reprs)
        text = '{\n  "atoms": [\n' + atoms + "\n  ]\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_measure(path) -> DiscreteMeasure:
    return measure_from_dict(load_json(path))


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


def save_tree(path, tree: IrrigationTree, mu: DiscreteMeasure) -> None:
    save_json(path, tree_to_dict(tree, mu))


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


def save_landscape_csv(path, z) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(landscape_csv_text(z))


def _csv_template(grid: Grid) -> str:
    """The CSV text of a field on `grid` with a ``%r`` slot for each value.

    Each grid row is one join of the x reprs whose separator ``,y,%r\\n``
    carries the row's y repr, so the template is built from nx + ny reprs
    and no per-node string."""
    xs = [repr(x) for x in grid.xs.tolist()]
    rows = (sep.join(xs) + sep for sep in (f",{y!r},%r\n" for y in grid.ys.tolist()))
    return "x,y,value\n" + "".join(rows)


def _write_csv(path, template: str, field: ScalarField) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(template % tuple(field.values.tolist()))


def save_field_csv(path, field: ScalarField) -> None:
    """Header ``x,y,value``, then one row per node in node order
    ``iy * nx + ix``, every float through repr so it reads back bit for bit.
    The rows come from the grid's %-template (see `save_fields`), filled by
    one ``%`` over the field's values."""
    _write_csv(path, _csv_template(field.grid), field)


_FIELD_HEADER = struct.Struct("<ii4d")


def field_binary_bytes(field: ScalarField) -> bytes:
    """The ``<ii4d`` header, then the values as little-endian float64."""
    g = field.grid
    d = g.domain
    header = _FIELD_HEADER.pack(g.nx, g.ny, d.rect_min[0], d.rect_max[0],
                                d.rect_min[1], d.rect_max[1])
    return header + np.ascontiguousarray(field.values, dtype="<f8").tobytes()


def save_field_binary(path, field: ScalarField) -> None:
    with open(path, "wb") as fh:
        fh.write(field_binary_bytes(field))


def save_fields(out, fields) -> None:
    """Write ``<name>.csv`` and ``<name>.bin`` into directory `out` for every
    ``name -> field`` of the mapping `fields`, with the bytes of
    `save_field_csv` and `save_field_binary`.

    All fields must lie on one grid: its CSV %-template is built once and
    filled by each field in turn.  A field on another grid would take the
    first grid's coordinates, so it raises ValidationError naming the field
    before anything is written."""
    out = Path(out)
    first = next(iter(fields))
    grid = fields[first].grid
    for name, field in fields.items():
        if field.grid != grid:
            raise ValidationError(
                f"field {name!r} lies on a {field.grid.nx}x{field.grid.ny} grid over "
                f"{field.grid.domain}, not on the {grid.nx}x{grid.ny} grid over "
                f"{grid.domain} of field {first!r}")
    template = _csv_template(grid)
    for name, field in fields.items():
        _write_csv(out / f"{name}.csv", template, field)
        save_field_binary(out / f"{name}.bin", field)


def load_field_shape(path) -> tuple[int, int]:
    """(nx, ny) from a binary field's header, without reading its values."""
    with open(path, "rb") as fh:
        head = fh.read(_FIELD_HEADER.size)
    if len(head) < _FIELD_HEADER.size:
        raise ValidationError(f"{path}: truncated field header")
    nx, ny = _FIELD_HEADER.unpack(head)[:2]
    return nx, ny


def load_field_binary(path, domain: Domain) -> ScalarField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _FIELD_HEADER.size:
        raise ValidationError(f"{path}: truncated field header")
    nx, ny, xmin, xmax, ymin, ymax = _FIELD_HEADER.unpack_from(raw)
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
    with open(path, "w", encoding="utf-8") as fh:
        for step in trace.steps:
            fh.write(json.dumps(trace_step_dict(step), sort_keys=True,
                                separators=(",", ":")) + "\n")


def load_trace(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{ln}: not valid JSON: {exc}") from exc
    return records


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


def save_report(path, report: OptimalityReport, converged: bool, iterations: int,
                path_check: PathCheckReport | None = None) -> None:
    save_json(path, report_to_dict(report, converged, iterations, path_check))


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
