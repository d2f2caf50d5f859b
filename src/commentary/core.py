"""Core domain types: time values, utterances, commentary tracks, timelines, clocks."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Protocol, Union

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


@dataclass(frozen=True)
class Utterance:
    """One timestamped piece of commentary with its estimated speaking time.

    The display interval is [start, start + est_duration).
    """

    text: str
    language: str
    start: Seconds
    est_duration: Seconds

    def __post_init__(self) -> None:
        stripped = self.text.strip()
        if not stripped:
            raise ValueError("utterance text must be non-empty")
        if stripped.casefold() == WAIT_TOKEN.casefold():
            raise ValueError("utterance text must not be the wait token")
        check_seconds(self.start, "start")
        check_seconds(self.est_duration, "est_duration")
        if self.est_duration <= 0:
            raise ValueError("est_duration must be positive")

    @property
    def end(self) -> Seconds:
        return self.start + self.est_duration


@dataclass(frozen=True)
class Speak:
    """Decision outcome: emit this text at the decision time."""

    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("spoken text must be non-empty")


@dataclass(frozen=True)
class Wait:
    """Decision outcome: stay silent."""


DecisionOutcome = Union[Speak, Wait]


@dataclass(frozen=True)
class CommentaryTrack:
    """Ordered commentary for one video. Start times are strictly increasing."""

    video_id: str
    utterances: tuple[Utterance, ...]
    video_duration: Seconds

    def __post_init__(self) -> None:
        object.__setattr__(self, "utterances", tuple(self.utterances))
        check_seconds(self.video_duration, "video_duration")
        prev: float | None = None
        for u in self.utterances:
            if prev is not None and u.start <= prev:
                raise ValueError(
                    f"utterance start times must be strictly increasing, got {u.start} after {prev}"
                )
            if u.start > self.video_duration:
                raise ValueError(
                    f"utterance at {u.start}s starts after the video ends ({self.video_duration}s)"
                )
            prev = u.start


def utterance_interval(u: Utterance) -> tuple[Seconds, Seconds]:
    """Display interval of an utterance: (start, start + est_duration)."""
    return (u.start, u.end)


def speaking_timeline(track: CommentaryTrack) -> list[bool]:
    """Per-second speaking flags for a track, one flag per second of video.

    The vector has exactly ceil(video_duration) entries. Second s is True when
    some utterance interval overlaps [s, s+1) with nonzero measure; touching at
    a single point does not count.
    """
    n = math.ceil(track.video_duration)
    flags = [False] * n
    for u in track.utterances:
        lo = max(0, math.floor(u.start))
        hi = min(n, math.ceil(u.end))
        for s in range(lo, hi):
            if u.start < s + 1 and u.end > s:
                flags[s] = True
    return flags


class Clock(Protocol):
    """Monotonic time source driving one generation session."""

    def now(self) -> Seconds:
        ...

    def advance_to(self, t: Seconds) -> None:
        ...


class SimulatedClock:
    """Clock whose advance is instantaneous; used for deterministic offline runs."""

    def __init__(self, start: Seconds = 0.0) -> None:
        self._now = check_seconds(start, "start")

    def now(self) -> Seconds:
        return self._now

    def advance_to(self, t: Seconds) -> None:
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

