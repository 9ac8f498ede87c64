"""The package as a whole: its exported names, the signatures of the
engine's entry points, and no floating point.

The float check and the export-use check read every module of the
installed `lgorb` package with `ast`, so they see the source as written
and import nothing but the package itself.
"""

import ast
import inspect
import re
from pathlib import Path

import lgorb
from lgorb import jacobian, linalg, matgroup, orbifold, polyring

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# math functions that take and return integers only
INTEGER_MATH = frozenset({"comb", "factorial", "gcd", "isqrt", "lcm", "perm"})


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from lgorb import *", namespace)
    missing = [name for name in lgorb.__all__ if name not in namespace]
    assert missing == []
    assert len(set(lgorb.__all__)) == len(lgorb.__all__)


def _names_used(tree: ast.AST) -> set[str]:
    """Names read in a module as a name, an attribute or an import alias,
    except inside the definition of a function or class of that name;
    names only assigned to are not read."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.update({node.id} - defining)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.update({node.attr} - defining)
        elif isinstance(node, ast.alias):
            used.update({node.name.rpartition(".")[2]} - defining)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return used


def test_every_exported_name_has_a_user():
    """Each name in lgorb.__all__ is used by the package outside its own
    definition and __init__.py, or named by the benchmark, which refers to
    its targets as strings."""
    package = Path(lgorb.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    unused = [
        name
        for name in lgorb.__all__
        if name not in used and not re.search(rf"\b{name}\b", bench)
    ]
    assert unused == []


def test_engine_entry_points_take_their_settings_as_plain_arguments():
    """Weights, the closure cap, the product basis and the kernel's stop
    have one value outside the tests, so the entry points take no optional
    setting: generator words are the only defaulted parameter."""
    entry_points = {
        orbifold.compute_dims: ["f", "group", "weights"],
        orbifold.compute_hh: ["f", "group", "weights"],
        orbifold.identity_sector_products: ["f", "group", "weights"],
        orbifold.build_sector: ["f", "g", "weights"],
        jacobian.jacobian_algebra: ["f", "w"],
        matgroup.generate_closure: ["generators", "words"],
        linalg.kernel_form_basis: ["vectors", "stop"],
    }
    for func, names in entry_points.items():
        params = inspect.signature(func).parameters
        assert list(params) == names, func.__name__
        defaulted = [n for n, p in params.items() if p.default is not p.empty]
        assert defaulted == (["words"] if func is matgroup.generate_closure else []), func.__name__
    assert not hasattr(polyring, "resolve_weights")


def test_the_hessian_and_the_total_degree_are_gone():
    """The Jacobian algebra checks its graded dimensions against the closed
    form of the weights, so the package keeps no symbolic Hessian (the
    tests take theirs from the oracles) and no total degree, which nothing
    called."""
    assert "hessian" not in lgorb.__all__
    assert "hilbert_dims" not in lgorb.__all__
    for name in ("hessian", "second_partials", "_poly_det"):
        assert not hasattr(polyring, name), name
    assert not hasattr(polyring.Poly, "total_degree")
    assert not hasattr(jacobian.JacobianAlgebra, "hessian_class")


def test_export_use_check_skips_a_name_inside_its_own_definition():
    source = """
import lgorb.jacobian as jac
from lgorb.matgroup import hat_extend
def recurse(n):
    return recurse(n - 1)
class Node:
    def child(self):
        return Node()
value = jac.normal_form
"""
    used = _names_used(ast.parse(source))
    assert used == {"jacobian", "hat_extend", "n", "jac", "normal_form"}


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
