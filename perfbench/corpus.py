"""Seeded synthetic corpora and the stub endpoint's reply rule.

A corpus is a set of videos, each with a manifest, a reference SRT and (for
remote-realtime) real frame files on disk. Sizes are fixed per
workload; the seed only chooses the words, the order of utterance lengths
and the order of the silent gaps. So every seed gives the same amount of
work and different content.

Times are kept as integer milliseconds so that what the SRT files say is
exactly what the reference holds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

EN_WORDS = (
    "red", "car", "takes", "the", "lead", "blue", "racer", "turns", "into",
    "corner", "pass", "now", "fast", "leader", "gap", "closes", "pit", "lane",
    "final", "lap", "overtake", "brakes", "late", "inside", "line", "green",
    "yellow", "flag", "chicane", "straight", "slipstream", "tyres", "grip",
    "hairpin", "apex", "podium", "rival", "defends", "attacks", "wide",
)

JA_PHRASES = (
    "赤い車", "青い車", "プレイヤー", "先頭に立つ", "追い抜き", "コーナー",
    "ピットイン", "最終ラップ", "ブレーキ", "加速", "差が縮まる", "インを突く",
    "トップ争い", "スリップストリーム", "周回遅れ", "ヘアピン", "接触", "独走",
    "緑の車", "黄色い旗", "ファステストラップ", "逆転", "大きく膨らむ", "猛追",
)

FRAME_MAGIC = b"\xff\xd8\xff\xe0PBFRAME "
HEAD_MS = 2000
TAIL_MS = 3000


@dataclass(frozen=True)
class RefUtterance:
    start_ms: int
    end_ms: int
    text: str


@dataclass(frozen=True)
class Video:
    video_id: str
    duration: int
    utterances: tuple[RefUtterance, ...]


@dataclass(frozen=True)
class CorpusSpec:
    """Fixed make-up of one workload's corpus."""

    language: str
    videos: int
    utterances: int
    frame_bytes: int = 0


def units_of(text: str, language: str) -> int:
    """Speech units as the paper counts them: words for English, characters otherwise."""
    if language == "en":
        return len(text.split())
    return sum(1 for ch in text if not ch.isspace())


def unit_ms(language: str) -> int:
    """Milliseconds of speech per unit: 4 words/s in English, 8 characters/s in Japanese."""
    return 250 if language == "en" else 125


def _lengths(spec: CorpusSpec) -> list[int]:
    # Fixed multiset of utterance lengths in units; the seed only orders it.
    lo, hi = (4, 16) if spec.language == "en" else (10, 34)
    return [lo + i % (hi - lo + 1) for i in range(spec.utterances)]


def _gaps_ms(spec: CorpusSpec) -> list[int]:
    # Fixed multiset of silences between one utterance's end and the next start.
    return [1000 + (i * 731) % 9000 for i in range(spec.utterances)]


def video_duration(spec: CorpusSpec) -> int:
    """Duration in whole seconds; the same for every video and every seed."""
    speech = sum(_lengths(spec)) * unit_ms(spec.language)
    total = HEAD_MS + speech + sum(_gaps_ms(spec)) + TAIL_MS
    return math.ceil(total / 1000)


def _text(rng: random.Random, units: int, language: str) -> str:
    if language == "en":
        return " ".join(rng.choice(EN_WORDS) for _ in range(units))
    text = ""
    while len(text) < units:
        text += rng.choice(JA_PHRASES)
    return text[:units]


def make_videos(spec: CorpusSpec, seed: int) -> list[Video]:
    rng = random.Random(seed)
    duration = video_duration(spec)
    per_unit = unit_ms(spec.language)
    videos = []
    for v in range(spec.videos):
        lengths = _lengths(spec)
        gaps = _gaps_ms(spec)
        rng.shuffle(lengths)
        rng.shuffle(gaps)
        t = HEAD_MS
        utterances = []
        for units, gap in zip(lengths, gaps):
            end = t + units * per_unit
            utterances.append(RefUtterance(t, end, _text(rng, units, spec.language)))
            t = end + gap
        videos.append(Video(f"v{v:02d}", duration, tuple(utterances)))
    return videos


def format_ms(ms: int) -> str:
    hours, rem = divmod(ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    secs, msec = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{secs:02d},{msec:03d}"


def srt_text(entries: list[tuple[int, int, str]]) -> str:
    """SRT for (start_ms, end_ms, text) entries: numbered from 1, one blank line between."""
    return "\n".join(
        f"{i}\n{format_ms(a)} --> {format_ms(b)}\n{text}\n"
        for i, (a, b, text) in enumerate(entries, 1)
    )


def _parse_ms(stamp: str) -> int:
    hms, msec = stamp.split(",")
    hours, minutes, secs = hms.split(":")
    return ((int(hours) * 60 + int(minutes)) * 60 + int(secs)) * 1000 + int(msec)


def parse_srt_ms(text: str) -> list[RefUtterance]:
    """Entries of SRT text in the form `srt_text` writes, with times in milliseconds."""
    entries = []
    for block in text.split("\n\n"):
        lines = block.strip("\n").split("\n")
        if lines == [""]:
            continue
        start, arrow, end = lines[1].split(" ")
        if arrow != "-->" or len(lines) < 3:
            raise ValueError(f"malformed SRT block: {block!r}")
        entries.append(RefUtterance(_parse_ms(start), _parse_ms(end), " ".join(lines[2:])))
    return entries


def frame_header(video_id: str, second: int) -> bytes:
    return FRAME_MAGIC + f"{video_id} {second:05d}\n".encode("ascii")


def parse_frame_header(data: bytes) -> tuple[str, int] | None:
    """(video_id, second) named in a frame's first bytes, or None."""
    if not data.startswith(FRAME_MAGIC):
        return None
    line = data[len(FRAME_MAGIC):].split(b"\n", 1)[0]
    try:
        video_id, second = line.decode("ascii").split(" ")
        return video_id, int(second)
    except ValueError:
        return None


def write_corpus(root: Path, spec: CorpusSpec, videos: list[Video], seed: int) -> None:
    """Write manifests, reference SRTs and frames under root.

    Frame URIs are relative to root, so a run works from any checkout.
    """
    manifests = root / "manifests"
    refs = root / "refs"
    manifests.mkdir(parents=True)
    refs.mkdir()
    noise = random.Random(seed ^ 0x5EED).randbytes(spec.frame_bytes + 4096) if spec.frame_bytes else b""
    for video in videos:
        lines = [f"#video_id\t{video.video_id}\tduration\t{video.duration}"]
        frame_dir = root / "frames" / video.video_id
        if spec.frame_bytes:
            frame_dir.mkdir(parents=True)
        for s in range(video.duration):
            rel = f"frames/{video.video_id}/{s:05d}.jpg"
            lines.append(f"{s}\t{rel}")
            if spec.frame_bytes:
                _write_frame(root / rel, frame_header(video.video_id, s), noise, s, spec.frame_bytes)
        (manifests / f"{video.video_id}.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries = [(u.start_ms, u.end_ms, u.text) for u in video.utterances]
        (refs / f"{video.video_id}.srt").write_text(srt_text(entries), encoding="utf-8")


def _write_frame(path: Path, header: bytes, noise: bytes, k: int, size: int) -> None:
    offset = (k * 193) % 4096
    path.write_bytes(header + noise[offset : offset + size - len(header)])


def stub_reply(video: Video, window_seconds: list[int]) -> str | None:
    """The stub endpoint's reply rule.

    Speak the text of the earliest reference utterance whose start second
    lies in the window's seconds; answer None (the wait token) otherwise.
    References start after second 1, so the initialization frame never
    matches, and consecutive windows share no second.
    """
    lo, hi = window_seconds[0], window_seconds[-1]
    for u in video.utterances:
        second = u.start_ms // 1000
        if second > hi:
            return None
        if second >= lo:
            return u.text
    return None
