"""The CLI's artifacts on a small corpus are byte-identical to the files in
tests/pinned/; `pinned_artifacts.py` says what runs and how to regenerate them."""

from pinned_artifacts import pins, read_pins, run_all


def test_cli_artifacts_equal_the_pinned_files(tmp_path):
    actual = pins(run_all(tmp_path))
    expected = read_pins()
    names = actual.keys() | expected.keys()
    differing = sorted(n for n in names if actual.get(n) != expected.get(n))
    assert not differing, f"artifacts that differ from tests/pinned/: {differing}"
