#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the engine's exact values.

For every catalog entry, with and without -id: the total, the identity
dimension vector and the per-class signature.  It also prints where these
differ from the recorded catalog expectations; four such differences are
known and by design (see the package README), which is why the benchmark
checks against this file and not against ``catalog.expected``.

Usage: PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys

from lgorb import catalog, compute_hh, klein_quartic

from workloads import REFERENCE_PATH, class_signature, label


def main() -> int:
    f, w = klein_quartic()
    groups = {}
    for key in catalog.CATALOG_KEYS:
        for hat in (False, True):
            report = compute_hh(f, catalog.catalog_group(key, hat=hat), w)
            groups[label(key, hat)] = {
                "total": report.total_dim,
                "identity_vector": list(report.identity_dimension_vector),
                "classes": class_signature(report),
            }
            try:
                want = catalog.expected(key, hat=hat)
            except KeyError:
                continue
            if want.total_dim != report.total_dim:
                print(f"{label(key, hat)}: computed total {report.total_dim}, recorded {want.total_dim}")
            vector = want.identity_dimension_vector
            if vector is not None and tuple(vector) != report.identity_dimension_vector:
                print(f"{label(key, hat)}: computed identity vector {report.identity_dimension_vector}, recorded {vector}")
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in groups.items())
    with open(REFERENCE_PATH, "w") as fh:
        fh.write('{\n "groups": {\n' + lines + "\n }\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
