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
    finds the alpha-range error once."""
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
    assert counts == dict.fromkeys(counts, 1)


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
