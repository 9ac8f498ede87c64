import errno
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
import warnings

import pytest

import lgorb
from lgorb import cli
from lgorb.catalog import catalog_group, generator_matrix, word_matrix
from lgorb.exactnum import CycNum, zeta
from lgorb.errors import GradingError, WordParseError
from lgorb.words import GeneratorWord, parse_word
from oracles import read_report


def test_parse_word_examples():
    w = parse_word("RSRS^5")
    assert w.tokens == (("R", 1), ("S", 1), ("R", 1), ("S", 5))
    assert word_matrix("S^-1") == generator_matrix("S") ** 6
    assert word_matrix("-I") == -generator_matrix("T") ** 3
    assert parse_word("R * S^2  T").tokens == (("R", 1), ("S", 2), ("T", 1))
    assert parse_word("-IS^2").tokens == (("-I", 1), ("S", 2))
    exponent = int("1" * 23)
    assert parse_word("S^" + "1" * 23).tokens == (("S", exponent),)
    assert word_matrix("S^" + "1" * 23) == generator_matrix("S") ** (exponent % 7)


def test_parse_word_errors():
    with pytest.raises(WordParseError) as err:
        parse_word("Q^2")
    assert "Q" in str(err.value)
    with pytest.raises(WordParseError):
        parse_word("")
    with pytest.raises(WordParseError):
        parse_word("R$")
    # past the interpreter's limit on digits in int()
    with pytest.raises(WordParseError, match="exponent at position 3 is too long"):
        parse_word("RS^" + "1" * 5000)
    with pytest.raises(WordParseError):
        GeneratorWord(()).evaluate({})


def test_word_print_parse_roundtrip():
    rng = random.Random(23)
    bases = ("R", "S", "T", "-I")
    for _ in range(30):
        tokens = tuple(
            (rng.choice(bases), rng.choice([-3, -1, 1, 2, 5]))
            for _ in range(rng.randint(1, 5))
        )
        word = GeneratorWord(tokens)
        assert parse_word(str(word)) == word


def test_word_evaluation_is_left_to_right():
    assert word_matrix("RS^3") == generator_matrix("R") * generator_matrix("S") ** 3
    assert word_matrix("TS^4") == generator_matrix("T") * generator_matrix("S") ** 4


def test_cli_catalog_list(capsys):
    assert cli.main(["catalog", "list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "slf" in out and "168" in out
    for key in "abcdefghij":
        assert f"\n{key} " in out or out.startswith(f"{key} ")


def test_cli_compute_catalog_e_hat(capsys):
    assert cli.main(["compute", "--group", "catalog:e", "--hat"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "total dimension: 8" in out


def test_cli_compute_slf_json(capsys):
    assert (
        cli.main(["compute", "--group", "catalog:slf", "--format", "json"])
        == cli.EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_dim"] == 11
    restored = read_report(payload)
    assert restored.total_dim == 11
    assert restored.identity_dimension_vector == (1, 0, 0, 0, 0, 0, 1)


def test_cli_compute_csv_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code = cli.main(
        ["compute", "--group", "catalog:a", "--format", "csv", "--out", str(out_file)]
    )
    assert code == cli.EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("group,rep_word")
    assert lines[-1].split(",")[1] == "TOTAL"
    assert lines[-1].rstrip().endswith("9")
    # one row per class plus header and summary
    assert len(lines) == 1 + 7 + 1


@pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
def test_cli_unwritable_out_path_exit_2(tmp_path, capsys, target):
    """An output path that cannot be written is one exit-2 error line, with
    no traceback and no temporary file left behind."""
    if target == "missing-directory":
        out, reason = tmp_path / "missing" / "x.json", os.strerror(errno.ENOENT)
    else:
        out, reason = tmp_path, os.strerror(errno.EISDIR)
    assert cli.main(["compute", "--group", "catalog:e", "--out", str(out)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write output file: {reason}: {str(out)!r}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_cli_compute_file_group(tmp_path, capsys):
    spec = {"conductor": 28, "generators": ["RS^2RS", "SRS^6"]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_OK
    assert "total dimension: 12" in capsys.readouterr().out
    spec["hat"] = True
    path.write_text(json.dumps(spec))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_OK
    assert "total dimension: 8" in capsys.readouterr().out


def test_cli_hat_on_a_group_holding_minus_id_warns_in_one_line(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": ["-I", "S"]}))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_OK
    plain = capsys.readouterr()
    assert plain.err == ""
    path.write_text(json.dumps({"generators": ["-I", "S"], "hat": True}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_OK
    hat = capsys.readouterr()
    assert hat.err == "warning: -id already present; group used unchanged\n"
    assert hat.out == plain.out.replace("file:group.json:", "file:group.json^:")
    assert "order 14," in hat.out


def test_cli_compute_matrix_file_group(tmp_path, capsys):
    group_data = {
        "conductor": 28,
        "matrices": [word_matrix("RT").to_lists()],
    }
    path = tmp_path / "matgroup.json"
    path.write_text(json.dumps(group_data))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_OK
    assert "total dimension: 18" in capsys.readouterr().out


def _matrix_data(rows):
    return [[e.to_dict() for e in row] for row in rows]


def _cycle(n):
    """The cyclic permutation matrix of x1 -> x2 -> ... -> xn -> x1 over Q."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    return [[one if j == (i + 1) % n else zero for j in range(n)] for i in range(n)]


def _identity_file(corner: dict) -> str:
    """A one-matrix group file: the 3 x 3 identity over Q with its top-left
    entry replaced by `corner`, any JSON value."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    rows = _matrix_data([[one if i == j else zero for j in range(3)] for i in range(3)])
    rows[0][0] = corner
    return json.dumps({"matrices": [rows]})


# what `CycNum.from_dict` says of a malformed [numerator, denominator] pair
_PAIR = "must be [numerator, nonzero denominator], each an integer or a decimal string"


def test_cli_matrix_file_lifts_dividing_conductors(tmp_path, capsys):
    cycle = _matrix_data(_cycle(3))
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"matrices": [cycle]}))
    assert cli.main(["compute", "--group", f"file:{path}", "--format", "json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["group"]["order"] == 3 and report["group"]["conductor"] == 28
    # a conductor-7 diagonal symmetry next to the conductor-1 cycle: order 21
    z7 = [zeta(7, k) for k in (1, 4, 2)]
    zero7 = CycNum.zero(7)
    diagonal = _matrix_data([[z7[i] if i == j else zero7 for j in range(3)] for i in range(3)])
    path.write_text(json.dumps({"matrices": [cycle, diagonal]}))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_OK
    assert "order 21, conductor 28" in capsys.readouterr().out


def test_cli_matrix_file_rejects_foreign_conductor(tmp_path, capsys):
    """The second file is rejected before any field is built: the field of
    conductor 30030 alone is slow to set up."""
    zero, one = CycNum.zero(5), CycNum.one(5)
    z5 = [[zeta(5), zero, zero], [zero, zeta(5, 4), zero], [zero, zero, one]]
    large = [[[{"conductor": 30030, "coeffs": [["1", "1"]]}]]]
    for conductor, matrices in ((5, [_matrix_data(z5)]), (30030, large)):
        path = tmp_path / f"c{conductor}.json"
        path.write_text(json.dumps({"matrices": matrices}))
        assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: matrices[0][0][0].conductor: must divide 28, got {conductor}\n"
        )
        assert captured.out == ""


def test_cli_inadmissible_group_exit_3(tmp_path, capsys):
    bad = {"conductor": 28, "matrices": [generator_matrix("j_f").to_lists()]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INADMISSIBLE
    assert capsys.readouterr().err.startswith("error: generator matrices[0] has determinant ")


def test_cli_non_symmetry_exit_3(tmp_path, capsys):
    """The transposition x1 <-> x2 has determinant -1, which is admissible,
    but does not preserve the Klein quartic: one error line, exit 3."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    swap = _matrix_data([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"matrices": [swap]}))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INADMISSIBLE
    captured = capsys.readouterr()
    assert captured.err == "error: a generator does not preserve the polynomial\n"
    assert captured.out == ""


def test_cli_non_symmetric_e_hat_file_exits_3_before_closure(tmp_path, capsys):
    """The generators of e^ with one numerator changed: the determinant
    check refuses the file at once, with no closure run towards its cap."""
    data = {"matrices": [m.to_lists() for m in catalog_group("e", hat=True).generators]}
    data["matrices"][0][0][0]["coeffs"][0][0] = "7"
    path = tmp_path / "e_hat.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INADMISSIBLE
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: generator matrices[0] has determinant ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_checks_every_determinant_before_symmetry(tmp_path, capsys):
    """The transposition x1 <-> x2 (determinant -1, no symmetry) comes first,
    j_f second: the determinant of the second generator is refused first."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    swap = _matrix_data([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"matrices": [swap, generator_matrix("j_f").to_lists()]}))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INADMISSIBLE
    assert capsys.readouterr().err.startswith("error: generator matrices[1] has determinant ")


def test_cli_input_errors_exit_2(tmp_path, capsys):
    assert cli.main(["compute", "--group", "catalog:zz"]) == cli.EXIT_INPUT
    capsys.readouterr()
    assert cli.main(["compute", "--group", "nonsense"]) == cli.EXIT_INPUT
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert cli.main(["compute", "--group", f"file:{missing}"]) == cli.EXIT_INPUT
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["compute", "--group", f"file:{broken}"]) == cli.EXIT_INPUT
    capsys.readouterr()
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert cli.main(["compute", "--group", f"file:{empty}"]) == cli.EXIT_INPUT
    capsys.readouterr()
    bad_word = tmp_path / "word.json"
    bad_word.write_text(json.dumps({"generators": ["Q^2"]}))
    assert cli.main(["compute", "--group", f"file:{bad_word}"]) == cli.EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1, 2]", "error: group file must hold a JSON object\n"),
        ('{"generators": "RS"}', "error: 'generators' must be a list of word strings\n"),
        (
            json.dumps({"matrices": [[[{"conductor": 28, "coeffs": [["1", "0"]]}]]]}),
            f"error: matrices[0][0][0].coeffs[0]: {_PAIR}, got ['1', '0']\n",
        ),
        (
            '{"matrices": [[[{"conductor": Infinity, "coeffs": [["1", "1"]]}]]]}',
            "error: matrices[0][0][0].conductor: must be a positive integer, got inf\n",
        ),
        (
            _identity_file({"conductor": True, "coeffs": [["1", "1"]]}),
            "error: matrices[0][0][0].conductor: must be a positive integer, got True\n",
        ),
        (
            _identity_file({"conductor": 1.5, "coeffs": [["1", "1"]]}),
            "error: matrices[0][0][0].conductor: must be a positive integer, got 1.5\n",
        ),
        (
            _identity_file({"conductor": 1, "coeffs": [[1.9, "1"]]}),
            f"error: matrices[0][0][0].coeffs[0]: {_PAIR}, got [1.9, '1']\n",
        ),
        ('{"matrices": "abc"}', "error: 'matrices' must be a list of matrices\n"),
        ('{"generators": ["RS^3"], "hat": "false"}', "error: 'hat' must be true or false\n"),
        (
            '{"conductor": 5, "generators": ["RS^2RS"]}',
            "error: 'conductor' must be 28, the polynomial's conductor\n",
        ),
        (
            '{"conductor": "28", "generators": ["RS^2RS"]}',
            "error: 'conductor' must be 28, the polynomial's conductor\n",
        ),
        (
            '{"conductor": true, "generators": ["RS^2RS"]}',
            "error: 'conductor' must be 28, the polynomial's conductor\n",
        ),
        (
            '{"generators": ["S"], "hats": true}',
            "error: unknown group-file key 'hats'; known keys: conductor, generators, hat, matrices\n",
        ),
        (
            '{"generators": ["S"], "matrices": [[[1]]]}',
            "error: give 'generators' or 'matrices', not both\n",
        ),
        (
            json.dumps({"generators": ["R^" + "7" * 5000]}),
            "error: generators[0]: exponent at position 2 is too long\n",
        ),
        (
            json.dumps({"generators": ["S", "Q"]}),
            "error: generators[1]: unexpected token at position 0: 'Q'\n",
        ),
        (
            json.dumps({"matrices": [_matrix_data(_cycle(4))]}),
            "error: matrices[0]: must be 3x3, got 4x4\n",
        ),
        (
            '{"conductor": ' + "1" * 5000 + ', "generators": ["S"]}',
            "error: group file is not valid JSON: Exceeds the limit (4300 digits) for integer "
            "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
            "increase the limit\n",
        ),
        (
            '{"matrices": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "error: group file is not valid JSON: maximum recursion depth exceeded while "
            "decoding a JSON array from a unicode string\n",
        ),
        (
            json.dumps({"matrices": [[1, 2, 3]]}),
            "error: matrices[0][0]: must be a list of 3 entries\n",
        ),
        (
            _identity_file(None),
            "error: matrices[0][0][0]: must be an object with 'conductor' and 'coeffs'\n",
        ),
        (
            _identity_file([["1", "1"]]),
            "error: matrices[0][0][0]: must be an object with 'conductor' and 'coeffs'\n",
        ),
        (
            _identity_file({"conductor": 1, "coeffs": [["1"]]}),
            f"error: matrices[0][0][0].coeffs[0]: {_PAIR}, got ['1']\n",
        ),
        (
            _identity_file({"conductor": 1, "coeffs": [["1" * 5000, "1"]]}),
            f"error: matrices[0][0][0].coeffs[0]: {_PAIR}, got ['{'1' * 38}\n",
        ),
        (
            _identity_file({"conductor": 1}),
            "error: matrices[0][0][0].coeffs: must be a list of pairs, got None\n",
        ),
        (
            _identity_file({"conductor": 28, "coeffs": [["1", "1"]]}),
            "error: matrices[0][0][0].coeffs: conductor 28 needs 12 pairs, got 1\n",
        ),
        (
            _identity_file({"conductor": 0, "coeffs": [["1", "1"]]}),
            "error: matrices[0][0][0].conductor: must be a positive integer, got 0\n",
        ),
        (
            json.dumps({"matrices": [[[{"conductor": 1, "coeffs": [["1", "1"]]}] * 2, []]]}),
            "error: matrices[0][1]: must be a list of 2 entries\n",
        ),
    ],
    ids=[
        "top-level-list",
        "generators-string",
        "zero-denominator",
        "conductor-infinity",
        "entry-conductor-true",
        "entry-conductor-float",
        "coeff-float",
        "matrices-string",
        "hat-string",
        "conductor-5",
        "conductor-string",
        "conductor-true",
        "unknown-key",
        "generators-and-matrices",
        "exponent-5000-digits",
        "second-word-bad-token",
        "matrix-4x4",
        "json-number-5000-digits",
        "nesting-100000-deep",
        "row-of-ints",
        "null-entry",
        "entry-nested-lists",
        "one-element-pair",
        "numerator-5000-digits",
        "coeffs-missing",
        "coeffs-too-few",
        "entry-conductor-0",
        "ragged-rows",
    ],
)
def test_cli_malformed_group_file_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "group.json"
    path.write_text(content)
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_cli_group_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_bytes(b'{"generators": ["\xff"]}')
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == (
        "error: group file is not valid JSON: 'utf-8' codec can't decode byte 0xff "
        "in position 17: invalid start byte\n"
    )
    assert captured.out == ""


def test_cli_large_matrix_is_refused_before_its_entries(tmp_path, capsys, monkeypatch):
    """A 300 x 300 identity over Q is refused by its size before any of its
    90,000 entries is read; reading them first took over a second."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    identity = [[one if i == j else zero for j in range(300)] for i in range(300)]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"matrices": [_matrix_data(identity)]}))
    honest, reads = CycNum.from_dict, []

    def counted(data):
        reads.append(1)
        return honest(data)

    monkeypatch.setattr(CycNum, "from_dict", counted)
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: matrices[0]: must be 3x3, got 300x300\n"
    assert captured.out == ""
    assert reads == []


def test_cli_ragged_matrix_is_refused_before_its_entries(tmp_path, capsys, monkeypatch):
    """A 300-row matrix whose last row has 299 entries is refused by that
    row's length before any of its entries is read."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    rows = _matrix_data([[one if i == j else zero for j in range(300)] for i in range(300)])
    rows[-1].pop()
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"matrices": [rows]}))
    honest, reads = CycNum.from_dict, []

    def counted(data):
        reads.append(1)
        return honest(data)

    monkeypatch.setattr(CycNum, "from_dict", counted)
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: matrices[0][299]: must be a list of 300 entries\n"
    assert captured.out == ""
    assert reads == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute"], "the following arguments are required: --group"),
        (
            ["compute", "--group", "catalog:a", "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')",
        ),
        (
            ["frobnicate"],
            "argument command: invalid choice: 'frobnicate' "
            "(choose from 'catalog', 'compute', 'verify')",
        ),
        (["compute", "--group", "catalog:zz"], "unknown catalog key 'zz'"),
        (["verify", "--key", "zz"], "unknown catalog key 'zz'"),
        (["verify", "--key", "a", "--hat"], "no recorded reference for the extension of 'a'"),
    ],
    ids=["missing-group", "bad-format", "unknown-command", "catalog-key", "verify-key", "no-hat"],
)
def test_cli_argv_faults_are_one_line_exit_2(capsys, argv, message):
    """Argv faults leave through `main` like any input error: one line,
    exit 2, no usage text; a key is quoted once, not as a KeyError repr."""
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_help_returns_0(capsys):
    assert cli.main(["compute", "--help"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: lgorb compute") and captured.err == ""


def test_cli_out_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    assert cli.main(["compute", "--group", "catalog:a"]) == cli.EXIT_OK
    report = capsys.readouterr().out
    target, link = tmp_path / "report.txt", tmp_path / "link.txt"
    target.write_text("old")
    target.chmod(0o644)
    link.symlink_to(target.name)
    assert cli.main(["compute", "--group", "catalog:a", "--out", str(link)]) == cli.EXIT_OK
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == report
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "report.txt"]


def test_cli_out_new_file_takes_the_umask(tmp_path):
    out = tmp_path / "new.txt"
    old = os.umask(0o027)
    try:
        assert cli.main(["compute", "--group", "catalog:a", "--out", str(out)]) == cli.EXIT_OK
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_cli_out_writes_into_a_fifo(tmp_path, capsys):
    assert cli.main(["compute", "--group", "catalog:a"]) == cli.EXIT_OK
    report = capsys.readouterr().out
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        assert cli.main(["compute", "--group", "catalog:a", "--out", str(fifo)]) == cli.EXIT_OK
    finally:
        reader.join(timeout=10)
    assert received == [report]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_cli_grading_error_is_one_line_exit_2(monkeypatch, capsys):
    def mixing(*_args):
        raise GradingError("sector action does not preserve the grading")

    monkeypatch.setattr(cli, "compute_hh", mixing)
    assert cli.main(["compute", "--group", "catalog:a"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: sector action does not preserve the grading\n"
    assert captured.out == ""


def test_cli_verify_single_keys(capsys):
    assert cli.main(["verify", "--key", "a"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "OK" in out and "total 9" in out
    assert cli.main(["verify", "--key", "h"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "total 11" in out
    assert cli.main(["verify", "--key", "e", "--hat"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "total 8" in out
    # no recorded reference for this extension
    assert cli.main(["verify", "--key", "b", "--hat"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv", [["verify", "--hat"], ["verify", "--all", "--hat"]])
def test_cli_verify_hat_needs_a_key(capsys, argv):
    """--all already covers the recorded extensions, so --hat without a
    key would silently check the base entries."""
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: --hat needs --key\n"
    assert captured.out == ""


def test_cli_verify_disputed_entry_is_info(capsys):
    assert cli.main(["verify", "--key", "j"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("INFO")
    assert "computed 12" in out and "recorded 14" in out


def test_cli_verify_all_reports_documented_mismatches(capsys):
    # The engine's exact totals contradict two recorded confirmed entries,
    # (g) and the extension of slf; verify reports them and exits 1.
    assert cli.main(["verify", "--all"]) == cli.EXIT_MISMATCH
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("OK")) == 10
    mismatches = [l for l in lines if l.startswith("MISMATCH")]
    assert len(mismatches) == 2
    assert any("g" in l and "computed 12" in l and "recorded 9" in l for l in mismatches)
    assert any("slf^" in l and "computed 6" in l and "recorded 10" in l for l in mismatches)
    infos = [l for l in lines if l.startswith("INFO")]
    assert len(infos) == 1 and "j" in infos[0]


_VERIFY_ALL = """\
OK        slf    total 11
OK        a      total 9
OK        b      total 17
OK        c      total 18
OK        d      total 18
OK        e      total 12
OK        f      total 13
MISMATCH  g      total computed 12 vs recorded 9
OK        h      total 11
OK        i      total 12
INFO      j      total computed 12 vs recorded 14; identity computed 5 vs recorded 10; \
vector computed (1, 0, 1, 1, 1, 0, 1) vs recorded (1, 0, 3, 2, 3, 0, 1)
MISMATCH  slf^   total computed 6 vs recorded 10
OK        e^     total 8
verify: confirmed mismatches present
"""


def test_cli_verify_all_output_is_pinned(capsys):
    """The whole stdout of verify --all, which reads the characters alone
    (`compute_dims`), and its exit code 1 for the two recorded mismatches."""
    assert cli.main(["verify", "--all"]) == cli.EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == _VERIFY_ALL
    assert captured.err == ""


def test_cli_verify_all_is_deterministic(capsys):
    cli.main(["verify", "--all"])
    first = capsys.readouterr().out
    cli.main(["verify", "--all"])
    second = capsys.readouterr().out
    assert first == second


def _module_env():
    """The environment of a fresh interpreter that imports this lgorb."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lgorb.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_module(*args):
    """`python -m lgorb ...` in a fresh interpreter, importing this lgorb."""
    env = _module_env()
    return subprocess.run(
        [sys.executable, "-m", "lgorb", *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["verify", "--all"], True),
        (["verify", "--all"], False),
        (["--help"], True),
        (["--help"], False),
        (["compute", "--help"], True),
        (["compute", "--help"], False),
    ],
    ids=[
        "unbuffered",
        "buffered",
        "help-unbuffered",
        "help-buffered",
        "compute-help-unbuffered",
        "compute-help-buffered",
    ],
)
def test_closed_stdout_exits_141_in_silence(argv, unbuffered):
    """A report or a help text into a pipe whose reader has already gone:
    exit 141, not 1 ("reference mismatch"), and nothing on stderr, whether
    the write or the flush at exit meets the closed pipe."""
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "lgorb", *argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
    assert cli.EXIT_BROKEN_PIPE == 141


def test_python_dash_m_lgorb_runs_the_cli():
    listed = _run_module("catalog", "list")
    assert listed.returncode == 0, listed.stderr
    assert "slf" in listed.stdout and listed.stderr == ""
    bad = _run_module("compute", "--group", "catalog:zz")
    assert bad.returncode == cli.EXIT_INPUT == 2
    assert bad.stdout == ""
    lines = bad.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
