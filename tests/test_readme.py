"""README § Library use runs as written, and every name the package exports resolves."""

import contextlib
import io
import re
from pathlib import Path

import commentary

from helpers import write_manifest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.DOTALL | re.MULTILINE)


def test_library_use_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = library_use_blocks()
    assert len(blocks) == 3
    write_manifest(tmp_path / "race01.manifest", "race01", 20.0)
    (tmp_path / "gen").mkdir()
    (tmp_path / "gen" / "race01.srt").write_text(
        "1\n00:00:01,000 --> 00:00:04,000\nthe red car leads\n", encoding="utf-8"
    )
    (tmp_path / "refs").mkdir()
    (tmp_path / "refs" / "race01.tsv").write_text("6\tthe red car leads\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for i, block in enumerate(blocks, 1):
            exec(compile(block, f"README.md § Library use, block {i}", "exec"), namespace)
    record = namespace["record"]
    assert record.complete and len(record.steps) == 11
    # The scripted backend waits at every decision: the SRT printed is empty.
    assert out.getvalue() == "\n"
    assert namespace["faster"].step == 1.0
    # The transcript's start (6 s) is later than the SRT's end (4 s).
    assert namespace["duration"] == 6.0
    assert namespace["report"].rouge_l == 100.0


def test_every_exported_name_resolves():
    assert len(set(commentary.__all__)) == len(commentary.__all__)
    missing = [name for name in commentary.__all__ if not hasattr(commentary, name)]
    assert not missing
