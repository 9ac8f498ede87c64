"""Spans and call counters wrapped around lgorb's public functions from
outside the package.

Two independent passes: ``Spans`` times the layer functions and records
each span's parent, so self time can be computed; ``Counts`` counts calls
of the cheap, hot functions (field kernels, matrix products), where a
timing wrapper would cost more than the call.  Running them in separate
processes keeps the counting wrappers out of the span self times.

The engine runs sequentially here, so one plain stack gives span parents.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric name, "module:attribute"); several functions may share a name.
SPAN_TARGETS = (
    ("matgroup.closure", "lgorb.matgroup:generate_closure"),
    ("matgroup.closure", "lgorb.matgroup:hat_extend"),
    ("matgroup.closure", "lgorb.matgroup:from_elements"),
    ("matgroup.conjugacy", "lgorb.matgroup:FiniteMatrixGroup.conjugacy"),
    ("matgroup.inverse_index", "lgorb.matgroup:FiniteMatrixGroup.inverse_index"),
    ("matgroup.determinants", "lgorb.matgroup:FiniteMatrixGroup.determinants"),
    ("matgroup.subgroup_gens", "lgorb.matgroup:FiniteMatrixGroup.subgroup_generator_indices"),
    ("orbifold.compute_hh", "lgorb.orbifold:compute_hh"),
    ("orbifold.build_sector", "lgorb.orbifold:build_sector"),
    ("orbifold.sector_action", "lgorb.orbifold:sector_action"),
    ("orbifold.invariant_subspace", "lgorb.orbifold:invariant_subspace"),
    ("orbifold.identity_sector_products", "lgorb.orbifold:identity_sector_products"),
    ("jacobian.algebra", "lgorb.jacobian:jacobian_algebra"),
    ("jacobian.normal_form", "lgorb.jacobian:normal_form"),
    ("jacobian.buchberger", "lgorb.jacobian:buchberger"),
    ("linalg.solve", "lgorb.linalg:solve"),
    # kernel_basis delegates to kernel_basis_with_free, which fixed spaces call directly
    ("linalg.kernel_basis", "lgorb.linalg:kernel_basis_with_free"),
    ("linalg.invert", "lgorb.linalg:invert"),
    ("linalg.rank", "lgorb.linalg:rank"),
    ("polyring.substitute_linear", "lgorb.polyring:substitute_linear"),
    ("polyring.restrict_to_subspace", "lgorb.polyring:restrict_to_subspace"),
)

COUNT_TARGETS = (
    ("kernels.mul", "lgorb._kernels:mul"),
    ("kernels.addmul", "lgorb._kernels:addmul"),
    ("kernels.add", "lgorb._kernels:add"),
    ("exactnum.inverse", "lgorb.exactnum:CycNum.inverse"),
    ("matgroup.gmatrix_mul", "lgorb.matgroup:GMatrix.__mul__"),
    ("matgroup.gmatrix_inverse", "lgorb.matgroup:GMatrix.inverse"),
)

# The modules that own spans; each gets a <module>.self_s metric.
SPAN_MODULES = ("op", "matgroup", "orbifold", "jacobian", "linalg", "polyring")
SPAN_NAMES = tuple(dict.fromkeys(name for name, _ in SPAN_TARGETS))
COUNT_NAMES = tuple(name for name, _ in COUNT_TARGETS)


def _install(target: str, make_wrapper) -> None:
    """Replace a function or method by its wrapper.  A module function is
    also rebound in every lgorb module that imported it by name."""
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name]
    wrapper = make_wrapper(original)
    setattr(owner, name, wrapper)
    if path:
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.partition(".")[0] == "lgorb":
            namespace = vars(mod)
            for key in [k for k, v in namespace.items() if v is original]:
                namespace[key] = wrapper


class Spans:
    """In-memory spans ``[name, parent index, start, end]``."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for name, target in SPAN_TARGETS:
            _install(target, self.wrapper(name))

    def wrapper(self, name: str):
        records, stack, clock = self.records, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                record = [name, stack[-1] if stack else -1, 0.0, 0.0]
                stack.append(len(records))
                records.append(record)
                record[2] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()

            return traced

        return make

    def summary(self) -> dict:
        """Per name: ``_s`` is inclusive time of the outermost spans of that
        name (nested same-name calls are not counted twice) and ``_calls``
        counts every span.  Per module: ``self_s`` is span time not covered
        by child spans."""
        records = self.records
        out = {f"{n}_s": 0.0 for n in SPAN_NAMES}
        out.update({f"{n}_calls": 0 for n in SPAN_NAMES})
        out.update({f"{m}.self_s": 0.0 for m in SPAN_MODULES})
        child_time = [0.0] * len(records)
        for name, parent, start, end in records:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(records):
            duration = end - start
            out[f"{name.split('.')[0]}.self_s"] += duration - child_time[i]
            if name == "op":
                continue
            out[f"{name}_calls"] += 1
            while parent >= 0 and records[parent][0] != name:
                parent = records[parent][1]
            if parent < 0:
                out[f"{name}_s"] += duration
        return out


class Counts:
    """Call counters, one plain integer per name."""

    def __init__(self):
        self.calls = dict.fromkeys(COUNT_NAMES, 0)

    def install(self) -> None:
        for name, target in COUNT_TARGETS:
            _install(target, self._counter(name))

    def _counter(self, name: str):
        calls = self.calls

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make
