"""Shared builders for synthetic stores, tracks and references."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Sequence

from commentary import (
    BUILTIN_TEMPLATES,
    CommentaryTrack,
    FrameRef,
    FrameStore,
    PromptSet,
    Utterance,
)

WORDS = [
    "red", "car", "takes", "the", "lead", "blue", "driver", "turns", "into",
    "corner", "pass", "now", "fast", "leader", "gap", "closes", "pit", "lane",
    "final", "lap", "overtake", "brakes", "late", "inside", "line",
]


def dp_lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Row-by-row O(len(a)·len(b)) LCS length; the oracle for the bit-parallel one."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def synth_store(video_id: str = "v1", duration: float = 10.0) -> FrameStore:
    n = max(math.ceil(duration), 1)
    frames = {
        s: FrameRef(video_id=video_id, second=s, uri=f"file:///frames/{video_id}/{s:04d}.jpg")
        for s in range(n)
    }
    return FrameStore(video_id=video_id, video_duration=duration, frames=frames)


def prompt_set(name: str = "race-en", demonstrations=()) -> PromptSet:
    init, decision = BUILTIN_TEMPLATES[name]
    return PromptSet(init=init, decision=decision, demonstrations=tuple(demonstrations))


def random_text(rng: random.Random, min_words: int = 1, max_words: int = 12) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(min_words, max_words)))


def random_track(
    rng: random.Random,
    video_id: str = "v1",
    duration: float = 120.0,
    language: str = "en",
) -> CommentaryTrack:
    utterances = []
    t = rng.uniform(0.0, 4.0)
    while t <= duration:
        words = rng.randint(1, 20)
        utterances.append(
            Utterance(
                text=" ".join(rng.choice(WORDS) for _ in range(words)),
                language=language,
                start=t,
                est_duration=rng.uniform(0.25, 8.0),
            )
        )
        t += rng.uniform(0.5, 15.0)
    return CommentaryTrack(video_id, tuple(utterances), duration)


def poisson_reference(
    seed: int, video_id: str = "ref", duration: float = 300.0, mean_gap: float = 6.0
) -> CommentaryTrack:
    """Reference with exponentially distributed silent gaps between utterances."""
    rng = random.Random(seed)
    utterances = []
    t = rng.expovariate(1.0 / mean_gap)
    while t <= duration:
        words = rng.randint(4, 20)
        text = " ".join(rng.choice(WORDS) for _ in range(words))
        utterances.append(Utterance(text=text, language="en", start=t, est_duration=words / 4.0))
        t += words / 4.0 + rng.expovariate(1.0 / mean_gap)
    return CommentaryTrack(video_id, tuple(utterances), duration)


def write_manifest(path: Path, video_id: str, duration: float) -> Path:
    lines = [f"#video_id\t{video_id}\tduration\t{duration:g}"]
    for s in range(max(math.ceil(duration), 1)):
        lines.append(f"{s}\tfile:///frames/{video_id}/{s:04d}.jpg")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


CACHE_LOG_HEADER = b"#commentary-cache 2\n"


def read_cache_log(path: Path) -> list[tuple[list, bytes]]:
    """A v2 cache log's records as (header fields, raw reply bytes), in file order."""
    data = Path(path).read_bytes()
    assert data.startswith(CACHE_LOG_HEADER), data[:40]
    records = []
    pos = len(CACHE_LOG_HEADER)
    while pos < len(data):
        eol = data.index(b"\n", pos)
        fields = json.loads(data[pos:eol])
        raw = data[eol + 1 : eol + 1 + fields[-1]]
        assert len(raw) == fields[-1]
        records.append((fields, raw))
        pos = eol + 1 + len(raw)
    return records


def write_cache_log(path: Path, records: Sequence[tuple[list, bytes]]) -> None:
    """Write `records` (as read by `read_cache_log`) as a v2 cache log."""
    body = b"".join(json.dumps(fields).encode("ascii") + b"\n" + raw for fields, raw in records)
    Path(path).write_bytes(CACHE_LOG_HEADER + body)
