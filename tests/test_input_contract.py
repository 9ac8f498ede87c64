"""The CLI's input contract, probed by seeded mutations of valid group files
and of argv.

Each case runs `cli.main` in-process with captured streams and must end in
a documented way:
- the exit code is 0, 1, 2 or 3, and 1 only beside a `MISMATCH` line;
- any other nonzero exit prints exactly one stderr line, `error: ...`;
- no `Traceback` appears on either stream;
- the case finishes within 2 s.

The files start from three valid ones: the README's words file, the
generators of `e^` as `GMatrix.to_lists` writes them, and a conductor-1
permutation matrix.  Besides the structural mutations, value mutations
change one numerator of a matrix entry or exchange two unequal entries of
a matrix.  Such a file is well formed, so it must exit 0 or 3: a generator
is refused by its determinant or its symmetry before any closure.  With
the fixed files and the argv cases the battery runs 389 cases.
"""

import contextlib
import copy
import io
import json
import math
import random
import time

import pytest

from lgorb import catalog, cli
from lgorb.exactnum import CycNum

CASE_SECONDS = 2.0
BIG_NUMBER = "__big_number__"  # replaced by a 5,000-digit JSON number
DEEP = "__deep__"  # replaced by 100,000 nested lists
UNICODE_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _words_file():
    return {"conductor": 28, "generators": ["RS^2RS", "SRS^6"], "hat": True}


def _e_hat_file():
    return {"matrices": [m.to_lists() for m in catalog.catalog_group("e", hat=True).generators]}


def _permutation_file():
    zero, one = CycNum.zero(1).to_dict(), CycNum.one(1).to_dict()
    return {"matrices": [[[zero, one, zero], [zero, zero, one], [one, zero, zero]]]}


BASES = {"words": _words_file, "e-hat": _e_hat_file, "permutation": _permutation_file}
# (base, seed, count): a valid e^ costs ~25 ms to compute, a permutation ~10 ms
FILE_MUTATIONS = [("words", 1, 100), ("e-hat", 2, 40), ("permutation", 3, 130)]
VALUE_MUTATIONS = [("e-hat", 4, 30), ("permutation", 5, 30)]


def _nodes(value, path=()):
    """Every (path, value) in a decoded JSON value, the root included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


def _replace(root, path, new):
    if not path:
        return new
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return root


def _is_value_entry(path):
    """A coefficient pair of a matrix entry, or one of its parts: a swap
    there must not change the entry's value, which would change the group."""
    return len(path) >= 6 and path[0] == "matrices" and path[4] == "coeffs"


def _swaps(value, path):
    if _is_value_entry(path):
        swaps = ["x", "", "1.5", 1.5, True, None, [], {}, [value], math.nan, math.inf]
        swaps.append(int(value) if isinstance(value, str) else str(value))
        swaps.append(str(value).translate(UNICODE_DIGITS))
        swaps.append("1" * 5000)
        return swaps
    return [0, -1, 7, -28, "", "x", "28", 1.5, True, False, None, [], {}, [value],
            {"conductor": value}, math.nan, math.inf, -math.inf, BIG_NUMBER, DEEP,
            "1" * 5000, [[[[[[[[[[value]]]]]]]]]]]


def _mutate(root, rng):
    """One random mutation of a decoded file; returns its label and text."""
    path, value = rng.choice(list(_nodes(root)))
    op = rng.choice(["drop", "duplicate", "rename", "swap", "swap", "digits", "resize"])
    if op == "drop" and isinstance(value, (dict, list)) and value:
        key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
        del value[key]
    elif op == "duplicate" and isinstance(value, list) and value:
        value.insert(rng.randrange(len(value) + 1), copy.deepcopy(rng.choice(value)))
    elif op == "rename" and isinstance(value, dict) and value:
        key = rng.choice(list(value))
        value[rng.choice([key.upper(), key + "s", "", "conductor", "hat"])] = value.pop(key)
    elif op == "digits" and isinstance(value, str):
        root = _replace(root, path, value.translate(UNICODE_DIGITS))
    elif op == "resize" and isinstance(value, list):
        value.extend(copy.deepcopy(value[:1]) or [None])
    else:
        op = "swap"
        root = _replace(root, path, rng.choice(_swaps(value, path)))
    text = json.dumps(root)
    text = text.replace(f'"{BIG_NUMBER}"', "1" * 5000)
    text = text.replace(f'"{DEEP}"', "[" * 100_000 + "]" * 100_000)
    return f"{op} at {list(path)}", text


def _mutate_value(root, rng):
    """One change of a matrix entry's value that keeps the file well formed:
    a numerator set to another integer, or two unequal entries of one
    matrix exchanged."""
    entries = [(path, value) for path, value in _nodes(root) if len(path) == 4]
    path, entry = rng.choice(entries)
    if rng.random() < 1 / 3:
        op = "exchange"
        other_path, other = rng.choice(
            [(p, v) for p, v in entries if p[:2] == path[:2] and v != entry]
        )
        _replace(root, path, other)
        _replace(root, other_path, entry)
    else:
        op, pair = "numerator", rng.choice(entry["coeffs"])
        old = int(pair[0])
        pair[0] = str(rng.choice(sorted({old + 1, old - 1, -old, 7, rng.randint(-99, 99)} - {old})))
    return f"{op} at {list(path)}", json.dumps(root)


def _file_cases(base, seed, count, mutate=_mutate):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        label, text = mutate(BASES[base](), rng)
        cases.append((f"{base}: {label}", text))
    return cases


def _fixed_file_cases():
    words = json.dumps(_words_file())
    cases = [
        ("words unchanged", words),
        ("duplicate key, last wins", words[:-1] + ', "hat": false}'),
        ("duplicate key, bad last", words[:-1] + ', "conductor": 5}'),
        ("duplicate key, bad first", '{"hat": "no", ' + words[1:]),
        ("exponent 4300 digits", json.dumps({"generators": ["R^" + "7" * 4300]})),
        ("exponent 4301 digits", json.dumps({"generators": ["R^" + "7" * 4301]})),
        ("unicode exponent", json.dumps({"generators": ["RS^٢RS", "SRS^６"]})),
        ("negative exponent", json.dumps({"generators": ["R^-1", "S^-20"]})),
        ("nesting 100000 deep", "[" * 100_000 + "]" * 100_000),
        ("nesting 500 deep", '{"matrices": ' + "[" * 500 + "]" * 500 + "}"),
        ("top-level NaN", "NaN"),
        ("conductor Infinity", '{"conductor": Infinity, "generators": ["S"]}'),
        ("empty file", ""),
        ("empty object", "{}"),
        ("empty lists", '{"generators": [], "matrices": []}'),
        ("truncated", words[: len(words) // 2]),
    ]
    perm = _permutation_file()
    for conductor in (0, -1, -28, 5, 30030, 10**30):
        changed = copy.deepcopy(perm)
        changed["matrices"][0][0][0]["conductor"] = conductor
        cases.append((f"entry conductor {conductor}", json.dumps(changed)))
    for pairs in (0, 2, 12):
        changed = copy.deepcopy(perm)
        changed["matrices"][0][0][1]["coeffs"] = [["1", "1"]] * pairs
        cases.append((f"entry with {pairs} pairs at conductor 1", json.dumps(changed)))
    return cases


ARGV_CASES = [
    ["--help"],
    ["-h"],
    ["compute", "--help"],
    ["verify", "-h"],
    ["catalog", "list", "--help"],
    ["--version"],
    [],
    ["frobnicate"],
    ["catalog"],
    ["catalog", "show"],
    ["catalog", "list"],
    ["compute"],
    ["compute", "--group"],
    ["compute", "--group", "catalog:a", "--bogus"],
    ["compute", "--group", "catalog:a", "--format", "xml"],
    ["compute", "--group", "catalog:a", "--format"],
    ["compute", "--group", ""],
    ["compute", "--group", "catalog:"],
    ["compute", "--group", "catalog:zz"],
    ["compute", "--group", "CATALOG:a"],
    ["compute", "--group", "catalog:a^"],
    ["compute", "--group", "file:"],
    ["compute", "--group", "file:/nonexistent/group.json"],
    ["compute", "--group", "catalog:a", "--hat", "--hat"],
    ["compute", "--group", "catalog:a", "--group", "catalog:b"],
    ["verify", "--hat"],
    ["verify", "--all", "--hat"],
    ["verify", "--all", "--key", "a"],
    ["verify", "--key"],
    ["verify", "--key", "zz"],
    ["verify", "--key", "b", "--hat"],
    ["verify", "--key", "g"],
    ["verify", "--keys", "a"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # any escape breaks the contract
            code = f"raised {type(exc).__name__}: {str(exc)[:80]}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _breach(code, out, err, seconds, exits):
    """What the case's outcome breaks of the contract, or None."""
    if code not in exits:
        return f"exit {code!r}"
    if "Traceback" in out or "Traceback" in err:
        return "traceback"
    if code == 1 and not any(line.startswith("MISMATCH") for line in out.splitlines()):
        return "exit 1 without a MISMATCH line"
    if code in (2, 3) and not (err.startswith("error: ") and err.count("\n") == 1):
        return f"stderr {err[:120]!r}"
    if seconds > CASE_SECONDS:
        return f"took {seconds:.2f} s"
    return None


def _check(cases, exits=(0, 1, 2, 3)):
    breaches = []
    for label, argv in cases:
        breach = _breach(*_run(argv), exits)
        if breach:
            breaches.append(f"{label}: {breach}")
    assert not breaches, f"{len(breaches)} of {len(cases)} cases break the contract:\n" + (
        "\n".join(breaches[:20])
    )


def _file_argv(tmp_path, cases):
    argv_cases = []
    for k, (label, text) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(text, encoding="utf-8")
        argv_cases.append((label, ["compute", "--group", f"file:{path}"]))
    return argv_cases


@pytest.mark.parametrize("base, seed, count", FILE_MUTATIONS)
def test_mutated_group_files_keep_the_contract(tmp_path, base, seed, count):
    _check(_file_argv(tmp_path, _file_cases(base, seed, count)))


@pytest.mark.parametrize("base, seed, count", VALUE_MUTATIONS)
def test_value_mutated_group_files_keep_the_contract(tmp_path, base, seed, count):
    """A well-formed file is never an input error: its group is admissible
    (exit 0) or one of its generators is refused (exit 3)."""
    _check(_file_argv(tmp_path, _file_cases(base, seed, count, _mutate_value)), exits=(0, 3))


def test_fixed_group_files_keep_the_contract(tmp_path):
    _check(_file_argv(tmp_path, _fixed_file_cases()))


def test_argv_keeps_the_contract(tmp_path):
    cases = [(" ".join(argv) or "(no arguments)", argv) for argv in ARGV_CASES]
    cases.append(("a directory as group file", ["compute", "--group", f"file:{tmp_path}"]))
    _check(cases)
