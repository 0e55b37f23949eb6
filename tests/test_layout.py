import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_python_line_is_longer_than_100_columns():
    """Every line of Python under src/traced/ and tools/ fits in 100 columns.
    The data files are left out: a corpus program or schema line is data."""
    sources = [*(ROOT / "src" / "traced").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]
    assert sources
    too_long = [f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
                for path in sorted(sources)
                for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                if len(line) > 100]
    assert too_long == []
