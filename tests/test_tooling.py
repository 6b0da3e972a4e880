"""Source hygiene checks that need no linter: every name a module under
src/rootopt, scripts or tests imports is used in that module, and every
module of the package, the scripts and the tests parses at the oldest
Python that pyproject.toml declares."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for part in (("src", "rootopt"), ("scripts",), ("tests",))
           for path in sorted(ROOT.joinpath(*part).glob("*.py"))]


def unused_imports(source: str):
    """(line, name) of every imported name that the module never uses.

    A name counts as used when it appears as an expression name (unquoted
    annotations included) or as a string in a module-level __all__ (a
    re-export).  __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_finds_unused_imports():
    source = ('from __future__ import annotations\n'
              'import os\nimport numpy as np\nfrom math import pi, tau\n'
              'from .core import Grid, Domain\n'
              '__all__ = ["Domain"]\n'
              'def f(x: Grid) -> float:\n    return np.sqrt(pi)\n')
    assert unused_imports(source) == [(2, "os"), (4, "tau")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# each rule shared between modules, as the code tokens that write it out
SHARED_RULES = {
    "rounding of positions to nodes": [("rint",), ("round",)],
    "adjoint cap lam * u_max + 1": [("u_max", "+", "1.0")],
    "gradient cutoff 1e-14 * max w": [("1e-14",)],
    "residual scale max(1, ...)": [("maximum", "(", "1.0")],
}


def test_each_shared_rule_is_written_once():
    """A search of src/rootopt's code tokens (names, numbers, operators;
    no comments or docstrings) finds each shared rule once, and the text
    finds the alpha-range error, the mass-rule error, the c-rule error and
    the Cholesky pivot error once each."""
    counts = dict.fromkeys(SHARED_RULES, 0)
    text = ""
    for path in sorted((ROOT / "src" / "rootopt").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text += source
        toks = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
                if t.type in (tokenize.NAME, tokenize.NUMBER, tokenize.OP)]
        for rule, spellings in SHARED_RULES.items():
            counts[rule] += sum(toks[i:i + len(seq)] == list(seq)
                                for seq in spellings for i in range(len(toks)))
    counts["alpha range error"] = text.count("alpha must be in (0, 1], got")
    counts["mass rule error"] = text.count("mass must be finite and > 0, got")
    counts["c rule error"] = text.count("c must be positive, got")
    counts["pivot error"] = text.count("Cholesky factorization failed: pivot")
    assert counts == dict.fromkeys(counts, 1)


def write_opens(source: str):
    """(function, mode) of every open( call in source's code tokens whose
    mode string writes, holding w, a, x or +; the function is the nearest
    def above the call."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type in (tokenize.NAME, tokenize.OP, tokenize.STRING)]
    found, func = [], None
    for i, tok in enumerate(toks[:-1]):
        if tok.string == "def":
            func = toks[i + 1].string
        if tok.string != "open" or toks[i + 1].string != "(":
            continue
        depth, j = 1, i + 2
        while depth:
            depth += {"(": 1, ")": -1}.get(toks[j].string, 0)
            if depth == 1 and toks[j].type == tokenize.STRING:
                mode = ast.literal_eval(toks[j].string)
                if re.fullmatch(r"[rwxabt+]+", mode) and set(mode) & set("wax+"):
                    found.append((func, mode))
            j += 1
    return found


def test_the_write_check_finds_write_modes():
    source = ('def a(p):\n    with open(p, "r", encoding="utf-8") as fh:\n        pass\n'
              'def b(p):\n    open(p, mode="wb").write(b"")\n'
              'def c(p):\n    return open(p, "rb"), open(str(p), "a")\n')
    assert write_opens(source) == [("b", "wb"), ("c", "a")]


def test_files_are_written_only_by_save_file():
    """src/rootopt opens a file for writing in one place, serialization's
    save_file, and never writes through pathlib."""
    found = []
    for path in sorted((ROOT / "src" / "rootopt").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += [(path.name, *site) for site in write_opens(source)]
        assert not re.search(r"\.write_(text|bytes)\(", source), path.name
    assert found == [("serialization.py", "save_file", "wb")]


def json_decodes(source: str):
    """(function, call) of every json.loads, json.load or orjson.loads in
    source's code tokens; the function is the nearest def above the call."""
    toks = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type in (tokenize.NAME, tokenize.OP)]
    found, func = [], None
    for i, tok in enumerate(toks):
        if tok == "def":
            func = toks[i + 1]
        call = "".join(toks[i:i + 3])
        if call in ("json.loads", "json.load", "orjson.loads"):
            found.append((func, call))
    return found


def test_the_decode_check_finds_json_decodes():
    source = ('import json\nimport orjson\n'
              'def a(text):\n    """json.loads(text), in a docstring"""\n'
              '    return orjson.loads(text)  # json.load(fh), in a comment\n'
              'def b(fh):\n    return json.load(fh), json.dumps({})\n')
    assert json_decodes(source) == [("a", "orjson.loads"), ("b", "json.load")]


def test_json_is_decoded_only_by_parse_json():
    """src/rootopt decodes JSON in one place, serialization's _parse_json."""
    found = [(path.name, *site) for path in sorted((ROOT / "src" / "rootopt").glob("*.py"))
             for site in json_decodes(path.read_text(encoding="utf-8"))]
    assert found == [("serialization.py", "_parse_json", "orjson.loads"),
                     ("serialization.py", "_parse_json", "json.loads")]


def sparse_constructions(source: str):
    """(function, call) of every call in source's code tokens of a name
    that the module imports from scipy.sparse, or of an attribute of the
    name it imports scipy.sparse itself as (scipy.sparse.linalg, a separate
    import, is not scipy.sparse); the function is the nearest def above
    the call."""
    modules, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "scipy.sparse"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules |= {a.asname or a.name for a in node.names if a.name == "sparse"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse":
            names |= {a.asname or a.name for a in node.names}
    toks = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type in (tokenize.NAME, tokenize.OP)]
    found, func = [], None
    for i, tok in enumerate(toks[:-1]):
        if tok == "def":
            func = toks[i + 1]
        elif i and toks[i - 1] == ".":
            continue
        elif tok in modules and toks[i + 1] == "." and toks[i + 3:i + 4] == ["("]:
            found.append((func, "".join(toks[i:i + 3])))
        elif tok in names and toks[i + 1] == "(":
            found.append((func, tok))
    return found


def test_the_sparse_check_finds_constructions():
    source = ('import scipy.sparse as sp\nimport scipy.sparse.linalg as spla\n'
              'from scipy.sparse import kron\n'
              'def a(n) -> sp.csc_matrix:\n    """sp.eye(n), in a docstring"""\n'
              '    return sp.diags([1.0], [0], shape=(n, n)).tocsc()  # sp.kron(), a comment\n'
              'def b(m):\n    return spla.splu(m), kron(m, m), -m\n')
    assert sparse_constructions(source) == [("a", "sp.diags"), ("b", "kron")]


def test_sparse_matrices_are_built_only_by_the_stencil_table():
    """src/rootopt constructs a scipy.sparse matrix in one place,
    elliptic's _operators, which assembles the Laplacian from the
    stencil's couplings; every other matrix is derived from it."""
    found = [(path.name, *site) for path in sorted((ROOT / "src" / "rootopt").glob("*.py"))
             for site in sparse_constructions(path.read_text(encoding="utf-8"))]
    assert found == [("elliptic.py", "_operators", "sp.diags")]


def declared_floor():
    """(major, minor) of the `requires-python = ">=X.Y"` floor in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec.strip())
    assert floor, spec
    return int(floor[1]), int(floor[2])


def test_the_floor_check_rejects_newer_syntax():
    except_star = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # Python 3.11
    ast.parse(except_star, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(except_star, feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rootopt").rglob("*.py"))
                         + sorted((ROOT / "scripts").rglob("*.py"))
                         + sorted((ROOT / "tests").rglob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_floor())
