"""tests/uncovered_lines.txt still names the source lines it lists: a change
that moves or edits a listed line fails here until
`PYTHONPATH=src python3 tests/line_coverage.py` writes the list again."""

from line_coverage import OUT, ROOT


def test_uncovered_lines_match_the_source():
    """Each entry's `file:line: text` is that line of the file, stripped."""
    listed = OUT.read_text().splitlines()
    found = []
    for entry in listed:
        location = entry.split(": ", 1)[0]
        path, line = location.rsplit(":", 1)
        source = (ROOT / path).read_text().splitlines()
        found.append(f"{location}: {source[int(line) - 1].strip()}")
    assert found == listed
