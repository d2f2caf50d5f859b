"""Core domain types: time values, utterances, commentary tracks, timelines, clocks."""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path
from typing import Protocol, TypeVar, Union

# Sentinel a generator emits when it chooses silence at a decision point.
WAIT_TOKEN = "<WAIT>"

# Times are plain floats measured in seconds from the start of the video.
Seconds = float


def check_seconds(value: float, name: str = "seconds") -> float:
    """Validate a time value: finite and non-negative. Returns the value as float."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def read_utf8(path: Path) -> str:
    """A UTF-8 file's text, a leading BOM dropped; other bytes raise ValueError naming it."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def entries_ending(directory: Path, suffixes: str | tuple[str, ...]) -> list[Path]:
    """The entries of `directory` whose names end in one of `suffixes`, unordered: for one
    suffix, what `directory.glob("*" + suffix)` yields, hidden names and dirs included,
    with no pattern to compile. A directory that cannot be listed has none."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return [directory / name for name in names if name.endswith(suffixes)]


def to_ms(seconds: float, round_up: bool = False) -> int:
    """A time in whole milliseconds: the nearest, or with round_up the first not before it;
    a time whose milliseconds no float holds raises ValueError naming it."""
    try:
        ms = seconds * 1000
        return math.ceil(ms) if round_up else round(ms)
    except OverflowError:
        raise ValueError(f"{seconds!r} seconds is past the millisecond grid") from None


def from_ms(ms: int) -> Seconds:
    """A whole number of milliseconds in seconds; one no float holds raises ValueError."""
    try:
        return ms / 1000
    except OverflowError:
        raise ValueError(f"{ms} milliseconds is more time than a float holds") from None


class Record:
    """Base of the immutable value types: ==, hash and repr over its fields, in order.

    A record's fields are the parameters of its `__init__`, read once per
    class, unless the class names them in its own `_fields`. The `__init__`
    checks its arguments, then stores the fields, and any value derived from
    them, with one `self.__dict__.update(...)`. An attribute that is not a
    field, such as a derived or cached value, takes no part in ==, hash or
    repr. Build a changed copy with `replace`.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        pass

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        args = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_R = TypeVar("_R", bound=Record)


def replace(record: _R, **changes: object) -> _R:
    """A copy of `record` with `changes` applied, built and checked by its `__init__`.

    An unknown field name raises TypeError, a value the record rejects ValueError.
    """
    return record.__class__(**dict(zip(record._fields, record._values()), **changes))


class Utterance(Record):
    """One timestamped piece of commentary with its estimated speaking time.

    The display interval is [start, end), `end` being start + est_duration
    summed in milliseconds; a duration that leaves `end` no later than
    `start` raises ValueError.
    """

    def __init__(self, text: str, start: Seconds, est_duration: Seconds) -> None:
        stripped = text.strip()
        if not stripped:
            raise ValueError("utterance text must be non-empty")
        if stripped.casefold() == WAIT_TOKEN.casefold():
            raise ValueError("utterance text must not be the wait token")
        check_seconds(start, "start")
        check_seconds(est_duration, "est_duration")
        if est_duration <= 0:
            raise ValueError("est_duration must be positive")
        # Summed in milliseconds, so an utterance ends exactly where a next one
        # scheduled after it starts, and where its SRT entry read back ends.
        end = from_ms(to_ms(start) + to_ms(est_duration))
        if end <= start:
            raise ValueError(
                f"est_duration {est_duration!r} must end after start {start!r} in whole ms"
            )
        self.__dict__.update(text=text, start=start, est_duration=est_duration, end=end)


class Speak(Record):
    """Decision outcome: emit this text at the decision time."""

    def __init__(self, text: str) -> None:
        if not text.strip():
            raise ValueError("spoken text must be non-empty")
        self.__dict__.update(text=text)


class Wait(Record):
    """Decision outcome: stay silent."""


DecisionOutcome = Union[Speak, Wait]


class CommentaryTrack(Record):
    """Ordered commentary for one video. Start times are strictly increasing."""

    def __init__(
        self, video_id: str, utterances: tuple[Utterance, ...], video_duration: Seconds
    ) -> None:
        utterances = tuple(utterances)
        check_seconds(video_duration, "video_duration")
        prev: float | None = None
        for u in utterances:
            if prev is not None and u.start <= prev:
                raise ValueError(
                    f"utterance start times must be strictly increasing, got {u.start} after {prev}"
                )
            if u.start > video_duration:
                raise ValueError(
                    f"utterance at {u.start}s starts after the video ends ({video_duration}s)"
                )
            prev = u.start
        self.__dict__.update(
            video_id=video_id, utterances=utterances, video_duration=video_duration
        )


def check_timeline_seconds(value: float, name: str) -> float:
    """`check_seconds(value, name)`, and no longer than a per-second timeline
    (`speaking_timeline`) can index: rounded up, at most `sys.maxsize`."""
    if math.ceil(check_seconds(value, name)) > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize} seconds, got {value!r}")
    return value


def speaking_timeline(track: CommentaryTrack) -> list[bool]:
    """Per-second speaking flags for a track, one flag per second of video.

    The vector has exactly ceil(video_duration) entries. Second s is True when
    some utterance interval overlaps [s, s+1) with nonzero measure; touching at
    a single point does not count. As every utterance ends after it starts,
    those are the seconds from floor(start) up to ceil(end).
    """
    n = math.ceil(track.video_duration)
    flags = [False] * n
    for u in track.utterances:
        lo, hi = math.floor(u.start), min(n, math.ceil(u.end))
        flags[lo:hi] = [True] * (hi - lo)
    return flags


class Clock(Protocol):
    """Monotonic time source driving one generation session."""

    def now(self) -> Seconds:
        ...

    def advance_to(self, t: Seconds) -> None:
        ...


class SimulatedClock:
    """Clock whose advance is instantaneous; used for deterministic offline runs.
    It starts at 0."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> Seconds:
        return self._now

    def advance_to(self, t: Seconds) -> None:
        if not 0 <= t < math.inf:  # one comparison passes a valid time
            check_seconds(t, "t")
        # Never moves backwards; advancing to the past is a no-op.
        if t > self._now:
            self._now = t


class WallClock:
    """Clock backed by real time; advance_to sleeps until the target instant."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> Seconds:
        return time.monotonic() - self._origin

    def advance_to(self, t: Seconds) -> None:
        check_seconds(t, "t")
        remaining = t - self.now()
        if remaining > 0:
            time.sleep(remaining)

