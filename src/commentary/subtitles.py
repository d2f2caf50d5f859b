"""SRT emission, lenient parsing, and display-overlap analysis."""

from __future__ import annotations

import re
from typing import Sequence

from .core import CommentaryTrack, Record, Seconds, Utterance, check_seconds, from_ms, to_ms

_TIMESTAMP = re.compile(r"(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})")
_ARROW = "-->"


class SrtParseError(ValueError):
    """SRT input is structurally invalid."""


class SrtEntry(Record):
    def __init__(self, index: int, start: Seconds, end: Seconds, text: str) -> None:
        if index < 1:
            raise ValueError("entry index must be positive")
        check_seconds(start, "start")
        check_seconds(end, "end")
        if not start < end:
            raise ValueError(f"entry start {start} must precede end {end}")
        if not text.strip():
            raise ValueError("entry text must be non-empty")
        self.__dict__.update(index=index, start=start, end=end, text=text)


def _format_ms(total_ms: int) -> str:
    secs, ms = divmod(total_ms, 1000)
    minutes, secs = divmod(secs, 60)
    hours, minutes = divmod(minutes, 60)
    return "%02d:%02d:%02d,%03d" % (hours, minutes, secs, ms)


def parse_timestamp(token: str) -> Seconds:
    """Parse an SRT timestamp; the millisecond separator may be comma or dot."""
    m = _TIMESTAMP.fullmatch(token.strip())
    if not m:
        raise ValueError(f"invalid timestamp {token!r}")
    hours, minutes, secs, frac = m.groups()
    total_ms = ((int(hours) * 60 + int(minutes)) * 60 + int(secs)) * 1000 + int(frac.ljust(3, "0"))
    return from_ms(total_ms)


def to_srt(track: CommentaryTrack) -> str:
    """Serialize a track as SRT text.

    Entries are numbered from 1 in start order, the display interval is
    [start, start + est_duration], timestamps use the comma millisecond
    separator, blocks are separated by exactly one blank line, and the output
    ends with a newline. An empty track yields the empty string.
    """
    blocks = []
    for i, u in enumerate(track.utterances, 1):
        start, end = _format_ms(to_ms(u.start)), _format_ms(to_ms(u.end))
        text = u.text.replace("\n", " ")
        blocks.append(f"{i}\n{start} {_ARROW} {end}\n{text}\n")
    return "\n".join(blocks)


def parse_srt(text: str) -> list[SrtEntry]:
    """Parse SRT text into entries.

    Tolerates CRLF line endings, a leading byte-order mark, a dot
    millisecond separator, and a missing blank line between entries: a bare
    index followed by a timestamp line starts the next entry. A malformed
    timestamp line raises SrtParseError naming the entry and line. The index
    order is not checked: entries are used in start order.
    """
    if text.startswith("﻿"):
        text = text[1:]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    entries: list[SrtEntry] = []
    n = len(lines)
    i = 0
    while i < n:
        index_line = lines[i].strip()
        i += 1
        if not index_line:
            continue
        if not index_line.isdecimal():
            raise SrtParseError(f"line {i}: expected an entry index, got {index_line!r}")
        index = int(index_line)
        if i >= n or _ARROW not in lines[i]:
            raise SrtParseError(f"entry {index}, line {i + 1}: expected a timestamp line")
        start_token, _, end_token = lines[i].partition(_ARROW)
        try:
            start, end = parse_timestamp(start_token), parse_timestamp(end_token)
            to_ms(end)  # an end past the millisecond grid raises ValueError naming this entry
        except ValueError as exc:
            raise SrtParseError(f"entry {index}, line {i + 1}: {exc}") from exc
        i += 1
        text_lines: list[str] = []
        while i < n:
            text_line = lines[i].strip()
            # A blank line ends the text, and so does the next entry's index line.
            if not text_line or (text_line.isdecimal() and i + 1 < n and _ARROW in lines[i + 1]):
                break
            text_lines.append(text_line)
            i += 1
        if not text_lines:
            raise SrtParseError(f"entry {index}: missing subtitle text")
        try:
            entries.append(SrtEntry(index, start, end, " ".join(text_lines)))
        except ValueError as exc:
            raise SrtParseError(f"entry {index}: {exc}") from exc
    return entries


def overlap_proportion(entries: Sequence[SrtEntry | Utterance]) -> float:
    """Fraction of adjacent entry pairs (by start order) whose intervals intersect.

    Takes SRT entries or a track's utterances, which are its SRT's entries:
    the same starts and ends. Zero when there are fewer than two.
    """
    if len(entries) < 2:
        return 0.0
    ordered = sorted(entries, key=lambda e: e.start)
    pairs = len(ordered) - 1
    overlapping = sum(1 for a, b in zip(ordered, ordered[1:]) if a.end > b.start)
    return overlapping / pairs
