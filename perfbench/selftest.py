#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

A corrupted reference must make the affected operations fail, so that the
reported fail ratio is above 0, while the committed reference passes.  Also
checks that the conjugators depend on the seed alone.

Usage: PYTHONPATH=src python3 perfbench/selftest.py
"""

import copy
import sys

from lgorb import jacobian_algebra, klein_quartic

import run
import workloads
from worker import run_ops


def _pick(ops, labels):
    return [op for op in ops if op.label in labels]


def main() -> int:
    f, w = klein_quartic()
    jacobian_algebra(f, w)
    good = workloads.load_reference()
    bad = copy.deepcopy(good)
    bad["d"]["total"] += 1
    bad["b"]["identity_vector"][2] += 1
    bad["b^"]["identity_vector"][2] += 1

    words = workloads.conjugator_words(7, 30)
    failures = []
    if words != workloads.conjugator_words(7, 30) or words == workloads.conjugator_words(8, 30):
        failures.append("conjugator words are not a function of the seed")

    cases = [
        ("catalog", {"a", "d"}, 1),
        ("conjugate_sweep", {f"b@{words[1]}", f"d@{words[3]}"}, 2),
        ("products", {"b", "b^", "c"}, 2),
    ]
    for workload, labels, want_failed in cases:
        for name, reference, want in (("committed", good, 0), ("corrupted", bad, want_failed)):
            ops = _pick(workloads.build_ops(workload, 7, f, w, reference), labels)
            result = run_ops(ops)
            failed = result["ok"].count(False)
            ratio = run.fail_ratio([result])
            print(f"{workload:16s} {name:9s} reference: {failed}/{len(ops)} failed, fail_ratio {ratio:.3f}")
            if len(ops) != len(labels) or failed != want or (ratio > 0) != (want > 0):
                failures.append(f"{workload} with the {name} reference")
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
