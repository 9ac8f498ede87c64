"""Command-line front end.

Commands:
    lgorb catalog list
    lgorb compute --group (catalog:<key> | file:<path>) [--hat]
                  [--format json|csv|text] [--out PATH]
    lgorb verify [--all | --key <k> [--hat]]

Exit codes: 0 success, 1 reference mismatch (verify), 2 input error,
3 inadmissible group, 141 (128 + SIGPIPE) stdout closed by its reader.
Every error is one `error: ...` line on stderr: an argv fault, or the first
fault of a group file, named by its JSON path (an entry's conductor must
divide 28 and is checked first).  The CLI acts on the Klein quartic alone:
generators are 3x3 over conductor 28, checked for size, determinant and
symmetry before closure.  Output files are written atomically, through a
symlink and keeping the file's mode.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
import tempfile
from typing import Optional

from lgorb import catalog
from lgorb.errors import InadmissibleGroupError, LgorbError, NotASymmetryError, WordParseError
from lgorb.exactnum import CycNum
from lgorb.matgroup import FiniteMatrixGroup, GMatrix, generate_closure, hat_extend
from lgorb.orbifold import HHReport, check_generators, compute_dims, compute_hh
from lgorb.polyring import Poly
from lgorb.words import parse_word

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INADMISSIBLE = 3
EXIT_BROKEN_PIPE = 141


class InputError(Exception):
    """CLI-level input problem (bad key, bad file, bad words)."""


_GROUP_FILE_KEYS = frozenset({"generators", "matrices", "hat", "conductor"})


def _load_group_file(path: str) -> tuple[FiniteMatrixGroup, bool]:
    """Read a group file in one pass.  Each level is checked where the walk
    reaches it, and the first fault is an InputError naming its JSON path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read group file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also a long number, deep nesting
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
    f = catalog.klein_quartic()[0]
    stated = data.get("conductor", f.conductor)
    if type(stated) is not int or stated != f.conductor:
        raise InputError(f"'conductor' must be {f.conductor}, the polynomial's conductor")
    words, matrices = data.get("generators"), data.get("matrices")
    if words is not None and not (isinstance(words, list) and all(type(w) is str for w in words)):
        raise InputError("'generators' must be a list of word strings")
    if matrices is not None and not isinstance(matrices, list):
        raise InputError("'matrices' must be a list of matrices")
    if words:
        key, parsed = "generators", []
        for i, text in enumerate(words):
            try:
                parsed.append(parse_word(text))
            except WordParseError as exc:
                raise InputError(f"generators[{i}]: {exc}") from None
        bases = {base: catalog.generator_matrix(base) for w in parsed for base, _ in w.tokens}
        gens, printed = [w.evaluate(bases) for w in parsed], [str(w) for w in parsed]
    elif matrices:
        key, printed = "matrices", None
        gens = [_read_matrix(m, f"matrices[{i}]", f) for i, m in enumerate(matrices)]
    else:
        raise InputError("group file needs 'generators' (words) or 'matrices'")
    check_generators(f, gens, [f"{key}[{i}]" for i in range(len(gens))])
    return generate_closure(gens, words=printed), hat


def _read_matrix(matrix, where: str, f: Poly) -> GMatrix:
    """A square matrix of f's size, its entries lifted to f's conductor.  Every
    row's shape, then a larger size, is refused before any entry is read, and an
    entry's own conductor first: reading a matrix and building a field cost time
    that grows with size."""
    if not isinstance(matrix, list) or not matrix:
        raise InputError(f"{where}: must be a non-empty list of rows")
    n = len(matrix)
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{where}[{r}]: must be a list of {n} entries")
    wrong_size = InputError(f"{where}: must be {f.arity}x{f.arity}, got {n}x{n}")
    if n > f.arity:
        raise wrong_size
    rows = []
    for r, row in enumerate(matrix):
        rows.append([])
        for c, entry in enumerate(row):
            at = f"{where}[{r}][{c}]"
            if not isinstance(entry, dict):
                raise InputError(f"{at}: must be an object with 'conductor' and 'coeffs'")
            stated = entry.get("conductor")
            if type(stated) is int and stated > 0 and f.conductor % stated:
                raise InputError(f"{at}.conductor: must divide {f.conductor}, got {stated}")
            try:
                rows[r].append(CycNum.from_dict(entry).lift(f.conductor))
            except ValueError as exc:
                raise InputError(f"{at}.{exc}") from None
    if n != f.arity:
        raise wrong_size
    return GMatrix(rows)


def _resolve_group(spec: str, hat_flag: bool) -> tuple[FiniteMatrixGroup, str]:
    if spec.startswith("catalog:"):
        key = spec.split(":", 1)[1]
        try:
            group = catalog.catalog_group(key, hat=hat_flag)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        label = f"catalog:{key}" + ("^" if hat_flag else "")
        return group, label
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        group, file_hat = _load_group_file(path)
        hat = hat_flag or file_hat
        if hat and -GMatrix.identity(group.n, group.conductor) in group.index:
            sys.stderr.write("warning: -id already present; group used unchanged\n")
        elif hat:
            group = hat_extend(group)
        return group, f"file:{os.path.basename(path)}" + ("^" if hat else "")
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
    """Write `text` to stdout, or replace the file `out` atomically.  A
    symlink is written through and keeps pointing at its target; the new
    file keeps the old one's mode, or takes the umask's for a new path.  An
    existing target that is not a regular file, such as a FIFO, is written
    in place."""
    if out is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(out)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mask = os.umask(0)
            os.umask(mask)
            mode = stat.S_IFREG | 0o666 & ~mask  # a new regular file, as open() makes it
        if not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".lgorb-out-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
                handle.write(text)
            os.replace(tmp, target)
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
    """Returns (report line, ok?) for one catalog entry, from the
    characters alone (`compute_dims`)."""
    want = catalog.expected(key, hat=hat)
    f, weights = catalog.klein_quartic()
    group = catalog.catalog_group(key, hat=hat)
    dims = compute_dims(f, group, weights)
    total, vector = sum(map(sum, dims)), dims[0]
    label = key + ("^" if hat else "")
    checks = [("total", total, want.total_dim), ("identity", sum(vector), want.identity_dim)]
    if want.identity_dimension_vector is not None:
        checks.append(("vector", vector, tuple(want.identity_dimension_vector)))
    bad = [(name, got, ref) for name, got, ref in checks if got != ref]
    if want.trust == "disputed":
        detail = "; ".join(f"{n} computed {g} vs recorded {r}" for n, g, r in bad)
        line = f"INFO      {label:6s} {detail or 'matches recorded values'}"
        return line, True
    if bad:
        detail = "; ".join(f"{n} computed {g} vs recorded {r}" for n, g, r in bad)
        return f"MISMATCH  {label:6s} {detail}", False
    return f"OK        {label:6s} total {total}", True


def _cmd_verify(args) -> int:
    if args.key is not None:
        targets = [(args.key, args.hat)]
    elif args.hat:
        raise InputError("--hat needs --key")
    else:
        targets = [(k, False) for k in catalog.CATALOG_KEYS]
        targets += [("slf", True), ("e", True)]
    all_ok = True
    for key, hat in targets:
        try:
            line, ok = _verify_one(key, hat)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        sys.stdout.write(line + "\n")
        all_ok = all_ok and ok
    if all_ok:
        sys.stdout.write("verify: all confirmed entries match\n")
        return EXIT_OK
    sys.stdout.write("verify: confirmed mismatches present\n")
    return EXIT_MISMATCH


class _ArgumentParser(argparse.ArgumentParser):
    """Reports an argv fault as an InputError, so `main` prints it in one
    line and exits 2; subparsers inherit the class.  Help goes through
    stdout's own write, so a closed pipe reaches `main` as well."""

    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lgorb",
        description="Exact orbifold state-space dimensions for the Klein quartic alone "
        "(group files: 3x3 matrices over conductor 28, or words in R, S, T, -I)",
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
    ver.add_argument("--hat", action="store_true", help="verify the -id extension of --key")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as done:  # argparse exits after printing --help
            code = done.code
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InadmissibleGroupError, NotASymmetryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INADMISSIBLE
    except (InputError, LgorbError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
