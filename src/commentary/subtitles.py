"""SRT emission, lenient parsing, and display-overlap analysis."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Sequence

from .core import CommentaryTrack, Seconds, check_seconds, from_ms, to_ms

_TIMESTAMP = re.compile(r"(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})")
_ARROW = "-->"


class SrtParseError(ValueError):
    """SRT input is structurally invalid."""


@dataclass(frozen=True)
class SrtEntry:
    index: int
    start: Seconds
    end: Seconds
    text: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("entry index must be positive")
        check_seconds(self.start, "start")
        check_seconds(self.end, "end")
        if not self.start < self.end:
            raise ValueError(f"entry start {self.start} must precede end {self.end}")
        if not self.text.strip():
            raise ValueError("entry text must be non-empty")


def format_timestamp(seconds: Seconds) -> str:
    """SRT timestamp HH:MM:SS,mmm at millisecond precision."""
    total_ms = to_ms(check_seconds(seconds))
    hours, rem = divmod(total_ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    secs, ms = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{secs:02d},{ms:03d}"


def parse_timestamp(token: str) -> Seconds:
    """Parse an SRT timestamp; the millisecond separator may be comma or dot."""
    m = _TIMESTAMP.fullmatch(token.strip())
    if not m:
        raise ValueError(f"invalid timestamp {token!r}")
    hours, minutes, secs, frac = m.groups()
    ms = int(frac.ljust(3, "0"))
    return from_ms(((int(hours) * 60 + int(minutes)) * 60 + int(secs)) * 1000 + ms)


def track_entries(track: CommentaryTrack) -> list[SrtEntry]:
    """Subtitle entries for a track: one per utterance, numbered from 1."""
    return [
        SrtEntry(index=i, start=u.start, end=u.end, text=u.text.replace("\n", " "))
        for i, u in enumerate(track.utterances, 1)
    ]


def to_srt(track: CommentaryTrack) -> str:
    """Serialize a track as SRT text.

    Entries are numbered from 1 in start order, the display interval is
    [start, start + est_duration], timestamps use the comma millisecond
    separator, blocks are separated by exactly one blank line, and the output
    ends with a newline. An empty track yields the empty string.
    """
    blocks = [
        f"{e.index}\n{format_timestamp(e.start)} {_ARROW} {format_timestamp(e.end)}\n{e.text}\n"
        for e in track_entries(track)
    ]
    return "\n".join(blocks)


def parse_srt(text: str) -> list[SrtEntry]:
    """Parse SRT text into entries.

    Tolerates CRLF line endings, a leading byte-order mark, and a dot
    millisecond separator. A malformed timestamp line raises SrtParseError
    naming the entry and line; a non-monotonic index sequence only warns.
    """
    if text.startswith("﻿"):
        text = text[1:]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    entries: list[SrtEntry] = []
    prev_index = 0
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        index_line = lines[i].strip()
        if not index_line.isdigit():
            raise SrtParseError(f"line {i + 1}: expected an entry index, got {index_line!r}")
        index = int(index_line)
        i += 1
        if i >= len(lines) or _ARROW not in lines[i]:
            raise SrtParseError(f"entry {index}, line {i + 1}: expected a timestamp line")
        start_token, _, end_token = lines[i].partition(_ARROW)
        try:
            start = parse_timestamp(start_token)
            end = parse_timestamp(end_token)
        except ValueError as exc:
            raise SrtParseError(f"entry {index}, line {i + 1}: {exc}") from exc
        i += 1
        text_lines: list[str] = []
        while i < len(lines) and lines[i].strip():
            text_lines.append(lines[i].strip())
            i += 1
        if not text_lines:
            raise SrtParseError(f"entry {index}: missing subtitle text")
        if index <= prev_index:
            warnings.warn(
                f"non-monotonic subtitle index {index} after {prev_index}", stacklevel=2
            )
        prev_index = index
        try:
            entries.append(SrtEntry(index=index, start=start, end=end, text=" ".join(text_lines)))
        except ValueError as exc:
            raise SrtParseError(f"entry {index}: {exc}") from exc
    return entries


def overlap_proportion(entries: Sequence[SrtEntry]) -> float:
    """Fraction of adjacent entry pairs (by start order) whose intervals intersect.

    Zero when there are fewer than two entries.
    """
    if len(entries) < 2:
        return 0.0
    ordered = sorted(entries, key=lambda e: e.start)
    pairs = len(ordered) - 1
    overlapping = sum(1 for a, b in zip(ordered, ordered[1:]) if a.end > b.start)
    return overlapping / pairs
