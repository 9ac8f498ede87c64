"""One benchmark worker: a fresh interpreter that sets up, runs its
workload's operations once and prints one JSON line.

Modes:
  setup   stop once ready (extra set-up samples)
  plain   run the operations untraced
  spans   run them under the span wrappers
  counts  run them under the call-count wrappers
  micro   field-kernel rate loop at conductor 28

Set-up ends at the ``ready`` timestamp: interpreter start, ``import lgorb``,
the Klein quartic and its Jacobian algebra.  ``ready`` is read from the
system-wide monotonic clock, so the parent can subtract its spawn time.

Usage: python perfbench/worker.py --mode plain --workload catalog --seed 1
(with the repository's ``src`` on PYTHONPATH; perfbench/run.py does this).
"""

import argparse
import json
import os
import resource
import sys
import time


def _setup():
    import lgorb

    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(lgorb.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: lgorb imported from {lgorb.__file__}, not from {src}")
    from lgorb.catalog import klein_quartic
    from lgorb.jacobian import jacobian_algebra

    f, w = klein_quartic()
    jacobian_algebra(f, w)
    return lgorb, f, w


def _attempt(op, run):
    """(latency, result, error); error is None when the result matches the
    reference.  A raise, in the operation or in its check, is a failure."""
    start = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # the benchmark's boundary: any raise is a failed operation
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        good = op.check(out)
    except Exception as exc:
        return latency, out, f"check raised {type(exc).__name__}: {exc}"
    return latency, out, None if good else "result differs from the reference"


def run_ops(ops, root_span=None) -> dict:
    """Run each operation once.  Untraced runs also count the groups'
    elements and classes (under tracing the cached conjugacy lookup would
    add a span)."""
    latencies, ok, errors, elements, classes = [], [], [], 0, 0
    for op in ops:
        latency, out, error = _attempt(op, root_span(op.run) if root_span else op.run)
        latencies.append(latency)
        ok.append(error is None)
        if error is not None:
            errors.append(f"{op.label}: {error}")
        elif root_span is None:
            elements += out[0].order
            classes += len(out[0].conjugacy().classes)
    layers = {} if root_span else {"matgroup.elements": elements, "matgroup.classes": classes}
    return {
        "labels": [op.label for op in ops],
        "latencies": latencies,
        "ok": ok,
        "errors": errors,
        "layers": layers,
    }


def micro(seed: int, rounds: int = 5, pairs: int = 200, repeat: int = 50) -> dict:
    """Median rate in kop/s of the active backend's mul and addmul on
    seeded random conductor-28 operands."""
    import random
    import statistics

    from lgorb import _kernels
    from lgorb.exactnum import _field

    rng = random.Random(seed)
    field = _field(28)
    rows = field.mul_rows()

    def raw():
        return tuple(rng.randint(-40, 40) for _ in range(field.phi)), rng.randint(1, 12)

    operands = [(raw(), raw()) for _ in range(pairs)]
    ops = pairs * repeat
    mul_rates, addmul_rates = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeat):
            for (an, ad), (bn, bd) in operands:
                _kernels.mul(an, ad, bn, bd, rows)
        mul_rates.append(ops / (time.perf_counter() - start) / 1e3)
        acc = operands[0][0]
        start = time.perf_counter()
        for _ in range(repeat):
            for (an, ad), (bn, bd) in operands:
                acc = _kernels.addmul(acc[0], acc[1], an, ad, bn, bd, rows)
        addmul_rates.append(ops / (time.perf_counter() - start) / 1e3)
    return {
        "kernels.mul_kops": statistics.median(mul_rates),
        "kernels.addmul_kops": statistics.median(addmul_rates),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "counts", "micro"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    lgorb, f, w = _setup()
    ready = time.monotonic()
    result = {
        "ready": ready,
        "backend": lgorb.kernel_backend,
        "python": sys.version.split()[0],
    }
    if args.mode == "micro":
        result["layers"] = micro(args.seed)
    elif args.mode != "setup":
        import tracing
        import workloads
        from lgorb import jacobian

        ops = workloads.build_ops(args.workload, args.seed, f, w, workloads.load_reference())
        builds_before = len(jacobian._ALGEBRA_CACHE)
        spans = counts = None
        if args.mode == "spans":
            spans = tracing.Spans()
            spans.install()
        elif args.mode == "counts":
            counts = tracing.Counts()
            counts.install()
        result.update(run_ops(ops, spans.wrapper("op") if spans else None))
        if spans:
            result["layers"].update(spans.summary())
            result["layers"]["jacobian.algebra_builds"] = len(jacobian._ALGEBRA_CACHE) - builds_before
        if counts:
            result["layers"].update(counts.calls)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
