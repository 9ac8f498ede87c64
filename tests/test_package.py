"""The package as a whole: its exported names, and no floating point.

The float check reads every module of the installed `lgorb` package with
`ast`, so it sees the source as written and imports nothing but the
package itself.
"""

import ast
from pathlib import Path

import lgorb

# math functions that take and return integers only
INTEGER_MATH = frozenset({"comb", "factorial", "gcd", "isqrt", "lcm", "perm"})


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from lgorb import *", namespace)
    missing = [name for name in lgorb.__all__ if name not in namespace]
    assert missing == []
    assert len(set(lgorb.__all__)) == len(lgorb.__all__)


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float or complex literal, each use of the
    names float and complex, any cmath import, and any math name outside
    INTEGER_MATH, whether imported by name or read as math.<name>."""
    found = []
    math_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "cmath":
                    found.append((node.lineno, "import cmath"))
                elif alias.name == "math":
                    math_aliases.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                found.append((node.lineno, "from cmath import"))
            elif node.module == "math":
                for alias in node.names:
                    if alias.name not in INTEGER_MATH:
                        found.append((node.lineno, f"math.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_aliases
            and node.attr not in INTEGER_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_no_floating_point_in_the_package():
    package = Path(lgorb.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_float_check_catches_each_kind():
    source = """
import cmath
import math as m
from math import gcd, sqrt
x = 0.5 + 2j
y = float(3) + complex(1, 2)
z = m.pi + m.gcd(4, 6) + gcd(1, 2)
"""
    whats = sorted(what for _, what in _float_uses(ast.parse(source)))
    assert whats == sorted(
        [
            "import cmath",
            "math.sqrt",
            "literal 0.5",
            "literal 2j",
            "name float",
            "name complex",
            "math.pi",
        ]
    )
