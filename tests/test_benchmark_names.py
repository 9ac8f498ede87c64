"""Every lgorb name that the benchmark under perfbench/ reads still resolves.

perfbench/tracing.py wraps its span and count targets by name, and
perfbench/worker.py reads a few module attributes directly.  A name removed
from the package would pass every other test and break only a traced
benchmark run.  The targets are read from tracing.py's source with `ast`,
so nothing under perfbench/ is imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_targets() -> list[str]:
    """The "module:attribute" strings of SPAN_TARGETS and COUNT_TARGETS."""
    targets = []
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) in ("SPAN_TARGETS", "COUNT_TARGETS") for t in node.targets
        ):
            targets += [target for _, target in ast.literal_eval(node.value)]
    return targets


def test_tracing_targets_resolve():
    """Each target is looked up as tracing._install looks it up: the owner
    by getattr along the dotted path, the name in the owner's own dict."""
    targets = _tracing_targets()
    assert len(targets) > 20
    missing = []
    for target in targets:
        module_name, attr = target.split(":")
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(name) if owner is not None else None):
            missing.append(target)
    assert missing == []


def test_worker_attributes_resolve():
    """The attributes perfbench/worker.py reads, used as it uses them."""
    import lgorb
    from lgorb import _kernels, jacobian
    from lgorb.exactnum import _field

    assert isinstance(lgorb.kernel_backend, str)
    assert isinstance(len(jacobian._ALGEBRA_CACHE), int)
    field = _field(28)
    rows = field.mul_rows()
    one = (1,) + (0,) * (field.phi - 1)
    assert _kernels.mul(one, 1, one, 2, rows) == (one, 2)
    acc = _kernels.addmul(one, 1, one, 1, one, 1, rows)
    assert acc == ((2,) + one[1:], 1)
