import errno
import json
import os
import random
import subprocess
import sys

import pytest

import lgorb
from lgorb import cli
from lgorb.catalog import generator_matrix, word_matrix
from lgorb.exactnum import CycNum, zeta
from lgorb.errors import GradingError, WordParseError
from lgorb.orbifold import HHReport
from lgorb.words import GeneratorWord, parse_word


def test_parse_word_examples():
    w = parse_word("RSRS^5")
    assert w.tokens == (("R", 1), ("S", 1), ("R", 1), ("S", 5))
    assert word_matrix("S^-1") == generator_matrix("S") ** 6
    assert word_matrix("-I") == -generator_matrix("T") ** 3
    assert parse_word("R * S^2  T").tokens == (("R", 1), ("S", 2), ("T", 1))
    assert parse_word("-IS^2").tokens == (("-I", 1), ("S", 2))


def test_parse_word_errors():
    with pytest.raises(WordParseError) as err:
        parse_word("Q^2")
    assert "Q" in str(err.value)
    with pytest.raises(WordParseError):
        parse_word("")
    with pytest.raises(WordParseError):
        parse_word("R$")
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
    restored = HHReport.from_dict(payload)
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


def _identity_file(corner: dict) -> str:
    """A one-matrix group file: the 3 x 3 identity over Q with its top-left
    entry replaced.  Read with int(), each corner used below is 1."""
    zero, one = CycNum.zero(1), CycNum.one(1)
    rows = _matrix_data([[one if i == j else zero for j in range(3)] for i in range(3)])
    rows[0][0] = corner
    return json.dumps({"matrices": [rows]})


def test_cli_matrix_file_lifts_dividing_conductors(tmp_path, capsys):
    zero, one = CycNum.zero(1), CycNum.one(1)
    cycle = _matrix_data([[zero, one, zero], [zero, zero, one], [one, zero, zero]])
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
            f"error: matrix conductor {conductor} does not divide "
            "the polynomial's conductor 28\n"
        )
        assert captured.out == ""


def test_cli_inadmissible_group_exit_3(tmp_path, capsys):
    bad = {"conductor": 28, "matrices": [generator_matrix("j_f").to_lists()]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INADMISSIBLE
    assert capsys.readouterr().err.startswith("error: generator #1 has determinant ")


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
            "error: bad matrix data: coefficient with denominator 0\n",
        ),
        (
            '{"matrices": [[[{"conductor": Infinity, "coeffs": [["1", "1"]]}]]]}',
            "error: bad matrix data: conductor must be an integer, got inf\n",
        ),
        (
            _identity_file({"conductor": True, "coeffs": [["1", "1"]]}),
            "error: bad matrix data: conductor must be an integer, got True\n",
        ),
        (
            _identity_file({"conductor": 1.5, "coeffs": [["1", "1"]]}),
            "error: bad matrix data: conductor must be an integer, got 1.5\n",
        ),
        (
            _identity_file({"conductor": 1, "coeffs": [[1.9, "1"]]}),
            "error: bad matrix data: coefficient numerators and denominators must be "
            "integers or strings, got 1.9\n",
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
    ],
)
def test_cli_malformed_group_file_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "group.json"
    path.write_text(content)
    assert cli.main(["compute", "--group", f"file:{path}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


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


def test_cli_verify_all_is_deterministic(capsys):
    cli.main(["verify", "--all"])
    first = capsys.readouterr().out
    cli.main(["verify", "--all"])
    second = capsys.readouterr().out
    assert first == second


def _run_module(*args):
    """`python -m lgorb ...` in a fresh interpreter, importing this lgorb."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lgorb.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "lgorb", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_dash_m_lgorb_runs_the_cli():
    listed = _run_module("catalog", "list")
    assert listed.returncode == 0, listed.stderr
    assert "slf" in listed.stdout and listed.stderr == ""
    bad = _run_module("compute", "--group", "catalog:zz")
    assert bad.returncode == cli.EXIT_INPUT == 2
    assert bad.stdout == ""
    lines = bad.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
