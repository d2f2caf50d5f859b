"""The CLI artifacts that `test_pinned_artifacts.py` pins, and the writer of their
expected files.

`run_all(root)` builds a small corpus under `root` and runs, through
`cli.main`:

- `generate` and `evaluate` of all four strategies over an English and a
  Japanese corpus of two videos each, with the oracle backend replaying the
  references (feedback-icl at step 2, with 2 of 4 demonstrations);
- `sweep --steps 1,2,5` over each corpus;
- a scripted realtime run with `--cache record`, then the same with
  `--cache replay`;
- a short feedback-icl `remote` session against a loopback `ChatServer`,
  whose frame and demonstration files exist, so each request body inlines
  their bytes.

It returns every artifact's bytes by a name that does not depend on `root`.
The cache log is read as records, each with its latency set to 0, in sorted
order, since videos record concurrently. The remote session contributes the
request bodies in the order they arrived, and its SRT; its trace is left out,
because its prompt digests hash frame paths under `root`.

`pins(artifacts)` keeps the English video en01's `.srt` and `.trace`, and each
English run's `summary.tsv` and report, as text, and every other artifact as
its SHA-256. The expected pins live in `tests/pinned/`: the text files under
their names, and the hashes in `SHA256SUMS`.

Regenerate them, after a change that is meant to alter an artifact, with

    PYTHONPATH=src python tests/pinned_artifacts.py [DEST]

which writes to DEST, by default `tests/pinned/`, replacing what is there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import sys
from pathlib import Path
from unittest import mock

from commentary import CommentaryTrack, Utterance, to_srt
from commentary.cli import main

from helpers import poisson_reference, read_cache_log, serving_chat, write_cache_log, write_manifest

PINNED_DIR = Path(__file__).parent / "pinned"
SUMS = "SHA256SUMS"

STRATEGIES = ("stateless", "feedback", "feedback-icl", "realtime")
VIDEOS = {"en": (("en01", 20.0), ("en02", 12.0)), "ja": (("ja01", 16.0), ("ja02", 10.0))}

JA_PHRASES = [
    "赤い車が", "先頭に立った", "青い車が", "コーナーに", "飛び込む", "差が縮まる",
    "ピットに", "入った", "最終ラップ", "追い抜いた", "ブレーキが", "遅い",
]


def ja_reference(seed: int, video_id: str, duration: float) -> CommentaryTrack:
    """Japanese lines spoken at 8 characters/s, with exponential gaps between them."""
    rng = random.Random(seed)
    utterances = []
    t = rng.expovariate(1.0 / 3.0)
    while t <= duration:
        text = "".join(rng.choice(JA_PHRASES) for _ in range(rng.randint(1, 4)))
        utterances.append(Utterance(text, t, len(text) / 8.0))
        t += len(text) / 8.0 + rng.expovariate(1.0 / 3.0)
    return CommentaryTrack(video_id, tuple(utterances), duration)


def _cli(*argv: str) -> str:
    """`main(argv)`'s stdout; an exit code other than 0 raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"exit {code} from {' '.join(map(str, argv))}")
    return out.getvalue()


def _files(root: Path, base: Path) -> dict[str, bytes]:
    files = sorted(p for p in base.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in files}


def _language_runs(root: Path, lang: str, seed: int) -> dict[str, bytes]:
    """Every strategy's generate and evaluate, and a sweep, over one language's corpus."""
    home = root / lang
    vids, refs = home / "vids", home / "refs"
    vids.mkdir(parents=True)
    refs.mkdir()
    for i, (video_id, duration) in enumerate(VIDEOS[lang]):
        write_manifest(vids / f"{video_id}.manifest", video_id, duration)
        if lang == "en":
            track = poisson_reference(seed + i, video_id, duration, mean_gap=3.0)
        else:
            track = ja_reference(seed + i, video_id, duration)
        (refs / f"{video_id}.srt").write_text(to_srt(track), encoding="utf-8")
    demos = home / "demos.tsv"
    demos.write_text(
        "".join(f"file:///demo/{lang}/{i}.jpg\tdemonstration line {i}\n" for i in range(4)),
        encoding="utf-8",
    )
    run = ("--manifest", vids, "--templates", f"race-{lang}")
    stdout: dict[str, str] = {}
    for kind in STRATEGIES:
        icl = ("--shots", 2, "--demos", demos) if kind == "feedback-icl" else ()
        out = home / "gen" / kind
        stdout[f"gen/{kind}.stdout"] = _cli(
            "generate", *run, "--backend", f"oracle:{refs}", "--strategy", kind, "--out", out, *icl
        )
        stdout[f"report/{kind}.stdout"] = _cli(
            "evaluate", out, refs, "--language", lang, "--report", home / "report" / f"{kind}.tsv"
        )
    stdout["sweep.stdout"] = _cli(
        "sweep", *run, "--ref", refs, "--steps", "1,2,5",
        "--out", home / "sweep", "--report", home / "sweep.tsv",
    )
    artifacts = {f"{lang}/{name}": text.encode("utf-8") for name, text in stdout.items()}
    for base in (home / "gen", home / "report", home / "sweep"):
        artifacts.update(_files(root, base))
    artifacts[f"{lang}/sweep.tsv"] = (home / "sweep.tsv").read_bytes()
    return artifacts


def _cache_runs(root: Path) -> dict[str, bytes]:
    """A scripted realtime run recorded to a cache log, then replayed from it."""
    home = root / "cache"
    home.mkdir()
    script = home / "script.tsv"
    script.write_text(
        "0\tFive cars line up on the grid\n"
        "3\tThe blue car takes an early lead into the first corner\n"
        "7\tThe red car closes in\n"
        "default\t<WAIT>\n",
        encoding="utf-8",
    )
    run = (
        "generate", "--manifest", root / "en" / "vids", "--backend", f"scripted:{script}",
        "--strategy", "realtime", "--step", 1, "--cache-dir", home / "log",
    )
    stdout = _cli(*run, "--cache", "record", "--out", home / "rec")
    stdout += _cli(*run, "--cache", "replay", "--out", home / "rep")
    artifacts = _files(root, home / "rec")
    artifacts.update(_files(root, home / "rep"))
    artifacts["cache/stdout"] = stdout.encode("utf-8")
    recorded = read_cache_log(home / "log" / "cache.log")
    records = sorted(([*fields[:-2], 0, fields[-1]], raw) for fields, raw in recorded)
    write_cache_log(home / "cache.log", records)
    artifacts["cache/cache.log"] = (home / "cache.log").read_bytes()
    return artifacts


def _remote_run(root: Path) -> dict[str, bytes]:
    """A short feedback-icl session against a loopback chat server; its request bodies."""
    home = root / "remote"
    frames = home / "frames"
    frames.mkdir(parents=True)
    lines = ["#video_id\tr01\tduration\t5"]
    for s in range(5):
        path = frames / f"{s:04d}.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + f"frame {s}".encode("ascii"))
        lines.append(f"{s}\t{path}")
    (home / "r01.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
    demos = []
    for i in range(4):
        path = frames / f"demo{i}.jpg"
        path.write_bytes(f"demo frame {i}".encode("ascii"))
        demos.append(f"file://{path}\tdemonstration line {i}\n")
    (home / "demos.tsv").write_text("".join(demos), encoding="utf-8")
    with serving_chat() as server:
        endpoint = {
            "COMMENTARY_API_BASE": f"http://127.0.0.1:{server.server_address[1]}",
            "COMMENTARY_API_KEY": "sk-test",
            "COMMENTARY_MODEL": "test-model",
        }
        with mock.patch.dict(os.environ, endpoint):
            _cli(
                "generate", "--manifest", home / "r01.manifest", "--backend", "remote",
                "--strategy", "feedback-icl", "--shots", 2, "--demos", home / "demos.tsv",
                "--out", home / "out",
            )
        bodies = [request["raw"] for request in server.requests]
    artifacts = {f"remote/body-{i}.json": body for i, body in enumerate(bodies)}
    artifacts["remote/out/r01.srt"] = (home / "out" / "r01.srt").read_bytes()
    return artifacts


def run_all(root: Path) -> dict[str, bytes]:
    """Build the corpus under `root`, run every command and return the artifacts by name."""
    artifacts = _language_runs(root, "en", seed=11)
    artifacts.update(_language_runs(root, "ja", seed=23))
    artifacts.update(_cache_runs(root))
    artifacts.update(_remote_run(root))
    return artifacts


def _is_text_pin(name: str) -> bool:
    if name.startswith("en/gen/"):
        return name.endswith(("/en01.srt", "/en01.trace", "/summary.tsv"))
    return name.startswith("en/report/") and name.endswith(".tsv")


def pins(artifacts: dict[str, bytes]) -> dict[str, bytes | str]:
    """Each artifact's pin: its bytes for a text pin, else its SHA-256 in hex."""
    return {
        name: data if _is_text_pin(name) else hashlib.sha256(data).hexdigest()
        for name, data in artifacts.items()
    }


def read_pins(directory: Path = PINNED_DIR) -> dict[str, bytes | str]:
    """The pins written by `write_pins`."""
    expected: dict[str, bytes | str] = {}
    for line in (directory / SUMS).read_text(encoding="ascii").splitlines():
        digest, _, name = line.partition("  ")
        expected[name] = digest
    for path in directory.rglob("*"):
        if path.is_file() and path.name != SUMS:
            expected[path.relative_to(directory).as_posix()] = path.read_bytes()
    return expected


def write_pins(directory: Path, artifacts: dict[str, bytes]) -> None:
    """Replace `directory` with the pins of `artifacts`."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    sums = []
    for name, pin in sorted(pins(artifacts).items()):
        if isinstance(pin, bytes):
            path = directory / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pin)
        else:
            sums.append(f"{pin}  {name}\n")
    (directory / SUMS).write_text("".join(sums), encoding="ascii")


if __name__ == "__main__":
    import tempfile

    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else PINNED_DIR
    with tempfile.TemporaryDirectory() as tmp:
        write_pins(dest, run_all(Path(tmp)))
    print(f"wrote the pins to {dest}")
