"""The README's group-file formats stay executable: its fenced `json` words
file and its inline matrix-entry example both run through
`compute --group file:`, so an edit that breaks the documented format
fails here."""

import json
import re
from pathlib import Path

from lgorb import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _json_blocks(text):
    return re.findall(r"```json\n(.*?)```", text, flags=re.S)


def _inline_entries(text):
    """Inline-code JSON objects with a conductor and coefficients."""
    entries = []
    for snippet in re.findall(r"`(\{[^`]*\})`", text):
        try:
            value = json.loads(snippet)
        except ValueError:
            continue  # a schematic form such as {"conductor": n, ...}
        if isinstance(value, dict) and {"conductor", "coeffs"} <= set(value):
            entries.append(value)
    return entries


def _compute(tmp_path, capsys, content):
    path = tmp_path / "group.json"
    path.write_text(content, encoding="utf-8")
    code = cli.main(["compute", "--group", f"file:{path}", "--format", "json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK, captured.err
    return json.loads(captured.out)["group"]["order"]


def test_readme_words_file_runs(tmp_path, capsys):
    blocks = _json_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    assert _compute(tmp_path, capsys, blocks[0]) == 8


def test_readme_entry_example_runs(tmp_path, capsys):
    entries = _inline_entries(README.read_text(encoding="utf-8"))
    assert entries
    zero = {"conductor": 1, "coeffs": [["0", "1"]]}
    for entry in entries:
        rows = [[entry if i == j else zero for j in range(3)] for i in range(3)]
        assert _compute(tmp_path, capsys, json.dumps({"matrices": [rows]})) == 1
