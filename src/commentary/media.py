"""Frame manifests: ingest per-second frame listings and serve frame windows.

Frames are pre-extracted images (1 frame per second) referenced by URI; this
module never opens them. Extraction is left to an external tool, e.g.
``ffmpeg -i video.mp4 -vf fps=1 frames/%04d.jpg``.
"""

from __future__ import annotations

import math
from pathlib import Path

from .core import Record, Seconds, check_seconds, from_ms, read_utf8, to_ms

MANIFEST_HEADER_TAG = "#video_id"

# Bounds the prompt payload when a dynamic window grows long.
DEFAULT_WINDOW_CAP = 30


class ManifestError(ValueError):
    """Manifest file is structurally invalid."""


class ManifestGapError(ManifestError):
    """Manifest does not cover every second of the video."""

    def __init__(self, path: str | Path, second: int) -> None:
        super().__init__(f"{path}: manifest is missing a frame for second {second}")
        self.second = second


class WindowRangeError(ValueError):
    """Requested frame window lies outside the video bounds."""


class FrameStore(Record):
    """The frame URIs of one video in second order: `frames[s]` is the URI of second s.

    A frame is its URI; the image behind it is opened by backends only.
    """

    def __init__(self, video_id: str, video_duration: Seconds, frames: tuple[str, ...]) -> None:
        check_seconds(video_duration, "video_duration")
        frames = tuple(frames)
        if not frames:
            raise ValueError("a frame store needs the frame of second 0 at least")
        self.__dict__.update(
            video_id=video_id,
            # Kept to the millisecond, the grid that sessions run on.
            video_duration=from_ms(to_ms(video_duration)),
            frames=frames,
        )


def _required_seconds(duration: float) -> int:
    # A zero-length video still carries its opening frame so every window is
    # non-empty and the initialization prompt has a scene to show.
    return max(math.ceil(duration), 1)


def load_manifest(path: str | Path) -> FrameStore:
    """Load a frame manifest file into a FrameStore.

    Format: header line ``#video_id<TAB><id><TAB>duration<TAB><seconds>``,
    then one ``second<TAB>uri`` record per line covering every integer second
    of the video contiguously.
    """
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines:
        raise ManifestError(f"{path}: empty manifest, missing header line")

    header = lines[0].split("\t")
    if len(header) != 4 or header[0] != MANIFEST_HEADER_TAG or header[2] != "duration":
        raise ManifestError(f"{path}: malformed header line: {lines[0]!r}")
    video_id = header[1]
    if not video_id:
        raise ManifestError(f"{path}: empty video id in header")
    # The id names the run's output files, `<out>/<video_id>.srt` and `.trace`.
    if video_id in (".", "..") or any(c in video_id for c in "/\\\0"):
        raise ManifestError(f"{path}: video id {video_id!r} must be a plain file name")
    try:
        duration = check_seconds(float(header[3]), "duration")
    except ValueError as exc:
        raise ManifestError(f"{path}: bad duration in header: {exc}") from exc

    n = _required_seconds(duration)
    frames: dict[int, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        try:
            second_token, uri = parts
            second = int(second_token)
        except ValueError as exc:
            if not line.strip():
                continue
            if len(parts) != 2:
                raise ManifestError(
                    f"{path}:{lineno}: expected 'second<TAB>uri', got {line!r}"
                ) from None
            raise ManifestError(f"{path}:{lineno}: non-integer second {parts[0]!r}") from exc
        uri = uri.strip()
        if not uri:
            raise ManifestError(f"{path}:{lineno}: empty frame uri")
        if "\0" in uri:
            raise ManifestError(f"{path}:{lineno}: NUL character in frame uri")
        if second < 0 or second >= n:
            raise ManifestError(f"{path}:{lineno}: second {second} outside [0, {n})")
        if second in frames:
            raise ManifestError(f"{path}:{lineno}: duplicate second {second}")
        frames[second] = uri

    if len(frames) < n:
        # Some second up to len(frames) is missing, so the search is bounded by the file.
        raise ManifestGapError(path, next(s for s in range(n) if s not in frames))
    return FrameStore(video_id, duration, tuple([frames[s] for s in range(n)]))


def frames_between(
    store: FrameStore, t_a: Seconds, t_b: Seconds, cap: int = DEFAULT_WINDOW_CAP
) -> tuple[str, ...]:
    """Frame URIs whose second lies in [t_a, t_b), newest `cap` retained.

    Frame s exists from time s on, so no frame is past t_b: when the range
    holds no stored frame, as a degenerate window (t_a == t_b) does, the window
    is the newest frame whose second is at most t_b, and so is never empty.
    """
    # One comparison passes every valid window; the checks below name what is wrong.
    if not (0 <= t_a <= t_b <= store.video_duration and cap >= 1):
        check_seconds(t_a, "t_a")
        check_seconds(t_b, "t_b")
        if cap < 1:
            raise ValueError(f"cap must be a positive integer, got {cap}")
        if t_a > t_b:
            raise WindowRangeError(f"window start {t_a} exceeds window end {t_b}")
        if t_b > store.video_duration:
            raise WindowRangeError(
                f"window [{t_a}, {t_b}] exceeds video duration {store.video_duration}"
            )

    frames = store.frames
    n = len(frames)
    lo = math.ceil(t_a)
    hi = math.ceil(t_b)
    if hi > n:
        hi = n
    if lo >= hi:
        lo = min(math.floor(t_b), n - 1)
        hi = lo + 1
    if lo < hi - cap:
        lo = hi - cap
    return frames[lo:hi]
