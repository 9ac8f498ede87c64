"""Command-line front end.

Commands:
    lgorb catalog list
    lgorb compute --group (catalog:<key> | file:<path>) [--hat]
                  [--format json|csv|text] [--out PATH]
    lgorb verify [--all | --key <k>] [--hat]

Exit codes: 0 success, 1 reference mismatch (verify), 2 input error,
3 inadmissible group.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from typing import Optional

from lgorb import catalog
from lgorb.errors import InadmissibleGroupError, LgorbError, NotASymmetryError
from lgorb.matgroup import FiniteMatrixGroup, GMatrix, generate_closure, hat_extend
from lgorb.orbifold import HHReport, compute_hh
from lgorb.words import parse_word

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INADMISSIBLE = 3


class InputError(Exception):
    """CLI-level input problem (bad key, bad file, bad words)."""


_GROUP_FILE_KEYS = frozenset({"generators", "matrices", "hat", "conductor"})


def _load_group_file(path: str) -> tuple[FiniteMatrixGroup, bool]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read group file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"group file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("group file must hold a JSON object")
    unknown = sorted(set(data) - _GROUP_FILE_KEYS)
    if unknown:
        known = ", ".join(sorted(_GROUP_FILE_KEYS))
        raise InputError(f"unknown group-file key {unknown[0]!r}; known keys: {known}")
    if "generators" in data and "matrices" in data:
        raise InputError("give 'generators' or 'matrices', not both")
    hat = data.get("hat", False)
    if not isinstance(hat, bool):
        raise InputError("'hat' must be true or false")
    conductor = catalog.klein_quartic()[0].conductor
    stated = data.get("conductor", conductor)
    if type(stated) is not int or stated != conductor:
        raise InputError(f"'conductor' must be {conductor}, the polynomial's conductor")
    words = data.get("generators")
    matrices = data.get("matrices")
    if words is not None and not (
        isinstance(words, list) and all(isinstance(w, str) for w in words)
    ):
        raise InputError("'generators' must be a list of word strings")
    if matrices is not None and not isinstance(matrices, list):
        raise InputError("'matrices' must be a list of matrices")
    if words:
        try:
            gens = [catalog.word_matrix(w) for w in words]
        except LgorbError as exc:
            raise InputError(str(exc)) from exc
        group = generate_closure(gens, words=[str(parse_word(w)) for w in words])
    elif matrices:
        _check_entry_conductors(matrices, conductor)
        try:
            gens = [GMatrix.from_lists(m) for m in matrices]
        except (LgorbError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise InputError(f"bad matrix data: {exc}") from exc
        if any(g.n != gens[0].n for g in gens):
            raise InputError("matrices must share one dimension")
        gens = [GMatrix([[e.lift(conductor) for e in row] for row in g.rows]) for g in gens]
        group = generate_closure(gens)
    else:
        raise InputError("group file needs 'generators' (words) or 'matrices'")
    return group, hat


def _check_entry_conductors(matrices: list, conductor: int) -> None:
    """Reject an entry whose conductor does not divide the polynomial's
    before any field is built, since building a field costs time that
    grows with its conductor.  The conductor is read as `CycNum.from_dict`
    reads it; an entry where that fails is left to `GMatrix.from_lists`,
    which reports it as bad matrix data."""
    for matrix in matrices:
        for row in matrix if isinstance(matrix, list) else ():
            for entry in row if isinstance(row, list) else ():
                try:
                    stated = int(entry["conductor"])
                except (LookupError, TypeError, ValueError, OverflowError):
                    continue
                if stated > 0 and conductor % stated:
                    raise InputError(
                        f"matrix conductor {stated} does not divide "
                        f"the polynomial's conductor {conductor}"
                    )


def _resolve_group(spec: str, hat_flag: bool) -> tuple[FiniteMatrixGroup, str]:
    if spec.startswith("catalog:"):
        key = spec.split(":", 1)[1]
        try:
            group = catalog.catalog_group(key, hat=hat_flag)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
        label = f"catalog:{key}" + ("^" if hat_flag else "")
        return group, label
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        group, file_hat = _load_group_file(path)
        if hat_flag or file_hat:
            group = hat_extend(group)
        return group, f"file:{os.path.basename(path)}" + ("^" if hat_flag or file_hat else "")
    raise InputError(f"group spec must be catalog:<key> or file:<path>, got {spec!r}")


def _render_text(report: HHReport, label: str) -> str:
    lines = [
        f"group {label}: order {report.group['order']}, "
        f"conductor {report.group['conductor']}",
        f"conjugacy classes: {len(report.sectors)}",
    ]
    for s in report.sectors:
        word = s.rep_word or f"#{s.rep_index}"
        basis = ", ".join(p.pretty(_sector_names(s.fix_dim)) for p in s.invariant_basis)
        lines.append(
            f"  class {word}: size {s.class_size}, |Z| {s.centralizer_order}, "
            f"fix dim {s.fix_dim}, sector dim {s.sector_dim_raw}, "
            f"invariants {s.invariant_dim}"
            + (f"  basis [{basis}]" if s.invariant_basis and s.fix_dim < 3 else "")
        )
    vec = ", ".join(str(d) for d in report.identity_dimension_vector)
    lines.append(f"identity sector dimension vector: {vec}")
    lines.append(f"total dimension: {report.total_dim}")
    return "\n".join(lines) + "\n"


def _sector_names(fix_dim: int):
    if fix_dim == 1:
        return ("t",)
    return tuple(f"t{i + 1}" for i in range(fix_dim))


def _render_csv(report: HHReport, label: str) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "group",
            "rep_word",
            "class_size",
            "centralizer_order",
            "fix_dim",
            "sector_dim_raw",
            "invariant_dim",
        ]
    )
    for s in report.sectors:
        writer.writerow(
            [
                label,
                s.rep_word or f"#{s.rep_index}",
                s.class_size,
                s.centralizer_order,
                s.fix_dim,
                s.sector_dim_raw,
                s.invariant_dim,
            ]
        )
    writer.writerow(
        [
            label,
            "TOTAL",
            report.group["order"],
            "",
            "",
            "",
            report.total_dim,
        ]
    )
    return buffer.getvalue()


def _write_out(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lgorb-out-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc.strerror}: {out!r}") from exc


def _cmd_catalog_list(_args) -> int:
    rows = [("key", "order", "hat", "description")]
    for entry in catalog.catalog_entries():
        rows.append((entry.key, str(entry.order), "yes", entry.description))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for row in rows:
        sys.stdout.write(
            f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}  {row[2]:<{widths[2]}}  {row[3]}\n"
        )
    return EXIT_OK


def _cmd_compute(args) -> int:
    group, label = _resolve_group(args.group, args.hat)
    f, weights = catalog.klein_quartic()
    report = compute_hh(f, group, weights)
    if args.format == "json":
        payload = report.to_dict()
        payload["label"] = label
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(report, label)
    else:
        text = _render_text(report, label)
    _write_out(text, args.out)
    return EXIT_OK


def _verify_one(key: str, hat: bool) -> tuple[str, bool]:
    """Returns (report line, ok?) for one catalog entry."""
    want = catalog.expected(key, hat=hat)
    f, weights = catalog.klein_quartic()
    group = catalog.catalog_group(key, hat=hat)
    report = compute_hh(f, group, weights)
    identity_dim = sum(report.identity_dimension_vector)
    label = key + ("^" if hat else "")
    checks = [("total", report.total_dim, want.total_dim)]
    checks.append(("identity", identity_dim, want.identity_dim))
    if want.identity_dimension_vector is not None:
        checks.append(
            (
                "vector",
                tuple(report.identity_dimension_vector),
                tuple(want.identity_dimension_vector),
            )
        )
    bad = [(name, got, ref) for name, got, ref in checks if got != ref]
    if want.trust == "disputed":
        detail = "; ".join(f"{n} computed {g} vs recorded {r}" for n, g, r in bad)
        line = f"INFO      {label:6s} {detail or 'matches recorded values'}"
        return line, True
    if bad:
        detail = "; ".join(f"{n} computed {g} vs recorded {r}" for n, g, r in bad)
        return f"MISMATCH  {label:6s} {detail}", False
    return f"OK        {label:6s} total {report.total_dim}", True


def _cmd_verify(args) -> int:
    if args.key is not None:
        targets = [(args.key, args.hat)]
    else:
        targets = [(k, False) for k in catalog.CATALOG_KEYS]
        targets += [("slf", True), ("e", True)]
    all_ok = True
    for key, hat in targets:
        try:
            line, ok = _verify_one(key, hat)
        except KeyError as exc:
            raise InputError(str(exc)) from exc
        sys.stdout.write(line + "\n")
        all_ok = all_ok and ok
    if all_ok:
        sys.stdout.write("verify: all confirmed entries match\n")
        return EXIT_OK
    sys.stdout.write("verify: confirmed mismatches present\n")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgorb",
        description="Exact orbifold state-space dimensions for the Klein quartic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="catalog inspection")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    cat_list = cat_sub.add_parser("list", help="list catalog entries")
    cat_list.set_defaults(func=_cmd_catalog_list)

    comp = sub.add_parser("compute", help="compute one group")
    comp.add_argument("--group", required=True, help="catalog:<key> or file:<path>")
    comp.add_argument("--hat", action="store_true", help="adjoin -id first")
    comp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    comp.add_argument("--out", default=None, help="write output to a file (atomic)")
    comp.set_defaults(func=_cmd_compute)

    ver = sub.add_parser("verify", help="compare against recorded reference values")
    group = ver.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="verify every entry")
    group.add_argument("--key", default=None, help="verify one catalog key")
    ver.add_argument("--hat", action="store_true", help="verify the -id extension")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (InadmissibleGroupError, NotASymmetryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INADMISSIBLE
    except LgorbError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
