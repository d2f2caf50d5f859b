"""Shared builders for synthetic stores, tracks and references, and the slow reference
implementations that the tests compare the fast code against."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import re
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from hypothesis import HealthCheck, Phase, settings

from commentary import (
    BUILTIN_TEMPLATES,
    CommentaryTrack,
    FrameStore,
    PromptSet,
    RenderedPrompt,
    Utterance,
)
from commentary.backends import GeneratorRequest, GeneratorResponse
from commentary.core import (
    WAIT_TOKEN,
    DecisionOutcome,
    Speak,
    Wait,
    check_seconds,
    from_ms,
    read_utf8,
    replace,
    to_ms,
)
from commentary.evaluation import BIN_COUNT
from commentary.media import (
    DEFAULT_WINDOW_CAP,
    MANIFEST_HEADER_TAG,
    ManifestError,
    ManifestGapError,
    WindowRangeError,
)
from commentary.prompting import (
    CONTEXT_PLACEHOLDER,
    KIND_DECISION,
    Demonstration,
    PromptTemplate,
    serialize_history,
)
from commentary.strategies import count_units, default_unit_for_language
from commentary.subtitles import SrtEntry, SrtParseError

# The settings every property that runs `cli.main` derives its own from. No explain
# phase: it traces every line `main` runs, and on one failure ran for over 100 s and
# grew past 470 MB.
MAIN_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    phases=[phase for phase in Phase if phase is not Phase.explain],
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


def _unit_count(track: CommentaryTrack, language: str) -> int:
    """Speech units (words, or characters for Japanese) over the whole track."""
    unit = default_unit_for_language(language)
    return sum(count_units(u.text, unit) for u in track.utterances)


def reference_bin(start: float, duration: float) -> int | None:
    """The similarity bin of an utterance starting at `start` in a track lasting
    `duration`, both rounded to whole milliseconds and divided as exact fractions;
    None when the duration rounds to 0 ms. The oracle for the bins of
    `binned_similarity` on millisecond-grid times."""
    start_ms = round(Fraction(start) * 1000)
    duration_ms = round(Fraction(duration) * 1000)
    if duration_ms == 0:
        return None
    return min(BIN_COUNT - 1, math.floor(Fraction(start_ms, duration_ms) * BIN_COUNT))


def reference_parse_response(raw: str) -> DecisionOutcome:
    """`parse_response` with the content kept character by character; its oracle."""
    stripped = raw.strip()
    if not stripped:
        return Wait()
    content = "".join(ch for ch in stripped if ch.isalnum())
    if content.casefold() == "wait":
        return Wait()
    text = " ".join(part.strip() for part in stripped.splitlines() if part.strip())
    return Speak(text=text)


def reference_unit_tokens(text: str, unit: str) -> list[str]:
    """Speech units taken character by character; the oracle for `unit_tokens`
    and `count_units`."""
    if unit == "word":
        return text.split()
    return [ch for ch in text if not ch.isspace()]


def reference_render_decision(
    template: PromptTemplate,
    history: Sequence[str],
    demos: Sequence[Demonstration],
    window: tuple[str, ...],
) -> RenderedPrompt:
    """A decision prompt rendered from scratch; the oracle for `DecisionRenderer`."""
    if template.kind != KIND_DECISION:
        raise ValueError(
            f"render_decision requires a decision template, got kind {template.kind!r}"
        )
    if not window:
        raise ValueError("window must contain at least one frame")
    demo_block = ""
    if demos:
        lines = ["Example commentary for the attached demonstration frames:"]
        lines.extend(f"{i}. {d.utterance_text}" for i, d in enumerate(demos, 1))
        demo_block = "\n".join(lines)
    body = template.body.replace(CONTEXT_PLACEHOLDER, serialize_history(history))
    text = "\n".join(p for p in (template.role_preamble, demo_block, body) if p)
    attachments = [demo.frame for demo in demos]
    attachments.extend(window)
    return RenderedPrompt(
        text=text, attachments=tuple(attachments), digest=reference_digest(text, attachments)
    )


def reference_digest(text: str, attachments: Sequence[str]) -> str:
    """A prompt digest hashed in one update for the text and two for each URI;
    the oracle for the digests of `render_init` and `DecisionRenderer`."""
    h = hashlib.sha256()
    h.update(text.encode("utf-8"))
    for uri in attachments:
        h.update(b"\x00")
        h.update(uri.encode("utf-8"))
    return h.hexdigest()[:16]


class ReferenceRenderer:
    """`DecisionRenderer`'s interface over `reference_render_decision`, with no cache."""

    def __init__(self, template: PromptTemplate, demos: Sequence[Demonstration] = ()) -> None:
        self._template = template
        self._demos = demos

    def render(self, history: Sequence[str], window: tuple[str, ...]) -> RenderedPrompt:
        return reference_render_decision(self._template, history, self._demos, window)


def reference_frames_between(
    store: FrameStore, t_a: float, t_b: float, cap: int = DEFAULT_WINDOW_CAP
) -> tuple[str, ...]:
    """The window's frame URIs, picked second by second; the oracle for `frames_between`."""
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
    n = len(store.frames)
    seconds = [s for s in range(math.ceil(t_a), math.ceil(t_b)) if s < n]
    if not seconds:
        seconds = [min(math.floor(t_b), n - 1)]
    if len(seconds) > cap:
        seconds = seconds[-cap:]
    return tuple(store.frames[s] for s in seconds)


def reference_load_manifest(path: str | Path) -> FrameStore:
    """A manifest read line by line into a dict by second, each line stripped first;
    the oracle for `load_manifest`, its results and its errors."""
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
    if video_id in (".", "..") or any(c in video_id for c in "/\\\0"):
        raise ManifestError(f"{path}: video id {video_id!r} must be a plain file name")
    try:
        duration = check_seconds(float(header[3]), "duration")
    except ValueError as exc:
        raise ManifestError(f"{path}: bad duration in header: {exc}") from exc

    n = max(math.ceil(duration), 1)
    frames: dict[int, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(f"{path}:{lineno}: expected 'second<TAB>uri', got {line!r}")
        try:
            second = int(parts[0])
        except ValueError as exc:
            raise ManifestError(f"{path}:{lineno}: non-integer second {parts[0]!r}") from exc
        uri = parts[1].strip()
        if not uri:
            raise ManifestError(f"{path}:{lineno}: empty frame uri")
        if "\0" in uri:
            raise ManifestError(f"{path}:{lineno}: NUL character in frame uri")
        if second < 0 or second >= n:
            raise ManifestError(f"{path}:{lineno}: second {second} outside [0, {n})")
        if second in frames:
            raise ManifestError(f"{path}:{lineno}: duplicate second {second}")
        frames[second] = uri

    for second in range(n):
        if second not in frames:
            raise ManifestGapError(path, second)

    return FrameStore(video_id, duration, tuple([frames[s] for s in range(n)]))


def reference_parse_timestamp(token: str) -> float:
    """One SRT timestamp parsed on its own; the oracle for `parse_timestamp`."""
    m = re.fullmatch(r"(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})", token.strip())
    if not m:
        raise ValueError(f"invalid timestamp {token!r}")
    hours, minutes, secs, frac = m.groups()
    ms = int(frac.ljust(3, "0"))
    return from_ms(((int(hours) * 60 + int(minutes)) * 60 + int(secs)) * 1000 + ms)


def reference_parse_srt(text: str) -> list[SrtEntry]:
    """SRT text parsed line by line, each timestamp line split at its arrow and each
    side parsed on its own, every line stripped where it is tested; an entry's text
    ends at a blank line or at a bare index whose next line holds an arrow. The
    oracle for `parse_srt`, its results and its errors."""
    if text.startswith("\ufeff"):
        text = text[1:]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    entries: list[SrtEntry] = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        index_line = lines[i].strip()
        if not index_line.isdecimal():
            raise SrtParseError(f"line {i + 1}: expected an entry index, got {index_line!r}")
        index = int(index_line)
        i += 1
        if i >= len(lines) or "-->" not in lines[i]:
            raise SrtParseError(f"entry {index}, line {i + 1}: expected a timestamp line")
        start_token, _, end_token = lines[i].partition("-->")
        try:
            start = reference_parse_timestamp(start_token)
            end = reference_parse_timestamp(end_token)
            to_ms(end)
        except ValueError as exc:
            raise SrtParseError(f"entry {index}, line {i + 1}: {exc}") from exc
        i += 1
        text_lines: list[str] = []
        while i < len(lines) and lines[i].strip():
            next_holds_arrow = i + 1 < len(lines) and "-->" in lines[i + 1]
            if lines[i].strip().isdecimal() and next_holds_arrow:
                break  # the next entry's index, with no blank line before it
            text_lines.append(lines[i].strip())
            i += 1
        if not text_lines:
            raise SrtParseError(f"entry {index}: missing subtitle text")
        try:
            entries.append(SrtEntry(index=index, start=start, end=end, text=" ".join(text_lines)))
        except ValueError as exc:
            raise SrtParseError(f"entry {index}: {exc}") from exc
    return entries


def reference_format_timestamp(seconds: float) -> str:
    """One SRT timestamp, checked and formatted field by field; the oracle for
    the timestamps `to_srt` writes."""
    total_ms = to_ms(check_seconds(seconds))
    hours, rem = divmod(total_ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    secs, ms = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{secs:02d},{ms:03d}"


def track_entries(track: CommentaryTrack) -> list[SrtEntry]:
    """Subtitle entries for a track: one per utterance, numbered from 1."""
    return [
        SrtEntry(index=i, start=u.start, end=u.end, text=u.text.replace("\n", " "))
        for i, u in enumerate(track.utterances, 1)
    ]


def reference_to_srt(track: CommentaryTrack) -> str:
    """A track's SRT built from a checked `SrtEntry` per utterance; the oracle for `to_srt`."""
    return "\n".join(
        f"{e.index}\n{reference_format_timestamp(e.start)} --> "
        f"{reference_format_timestamp(e.end)}\n{e.text}\n"
        for e in track_entries(track)
    )


class ScanningOracleBackend:
    """`OracleBackend` scanning the request's reference from its first utterance; its oracle."""

    model_id = "oracle"

    def __init__(self, references: dict[str, CommentaryTrack]) -> None:
        self._references = references

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        t = request.decision_time
        if t is None:
            raise ValueError("OracleBackend requires decision_time on the request")
        prev = request.prev_time
        for u in self._references[request.video_id].utterances:
            if u.start > t:
                break
            if prev is None or u.start > prev:
                return GeneratorResponse(raw_text=u.text, latency=0.0)
        return GeneratorResponse(raw_text=WAIT_TOKEN, latency=0.0)


class HandsNothingOn:
    """`inner` on the plain path: each request goes on rebuilt by `replace`, without its
    session's frames, so it reads every frame it sends and hands none on."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.model_id = inner.model_id

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        return self.inner.generate(replace(request))


def reference_decision_ms(
    duration_ms: int, step_ms: int, realtime: bool, spoken_ms: Sequence[int | None]
) -> list[int]:
    """Decision times of a session in whole milliseconds, scheduled with integers
    alone; the oracle for `run_session`'s schedule.

    `spoken_ms[i]` is how long decision i speaks, or None when it waits;
    decisions past the end of the list wait.
    """
    times: list[int] = []
    t = 0
    while t <= duration_ms:
        spoken = spoken_ms[len(times)] if len(times) < len(spoken_ms) else None
        times.append(t)
        t += max(step_ms, spoken) if realtime and spoken is not None else step_ms
    return times


def synth_store(video_id: str = "v1", duration: float = 10.0) -> FrameStore:
    n = max(math.ceil(duration), 1)
    frames = tuple(f"file:///frames/{video_id}/{s:04d}.jpg" for s in range(n))
    return FrameStore(video_id=video_id, video_duration=duration, frames=frames)


def window_seconds(window: Sequence[str]) -> list[int]:
    """The seconds of the frames in a window of `synth_store` or `write_manifest`
    frame URIs, read back from their file names."""
    return [int(uri.rsplit("/", 1)[1].partition(".")[0]) for uri in window]


def prompt_set(name: str = "race-en", demonstrations=()) -> PromptSet:
    init, decision = BUILTIN_TEMPLATES[name]
    return PromptSet(init=init, decision=decision, demonstrations=tuple(demonstrations))


def random_text(rng: random.Random, min_words: int = 1, max_words: int = 12) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(min_words, max_words)))


def random_track(
    rng: random.Random,
    video_id: str = "v1",
    duration: float = 120.0,
) -> CommentaryTrack:
    utterances = []
    t = rng.uniform(0.0, 4.0)
    while t <= duration:
        words = rng.randint(1, 20)
        utterances.append(
            Utterance(
                text=" ".join(rng.choice(WORDS) for _ in range(words)),
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
        utterances.append(Utterance(text=text, start=t, est_duration=words / 4.0))
        t += words / 4.0 + rng.expovariate(1.0 / mean_gap)
    return CommentaryTrack(video_id, tuple(utterances), duration)


def reference_track_of_lines(
    lines: Sequence[tuple[float, str, float]],
    video_id: str,
    video_duration: float,
) -> CommentaryTrack:
    """The oracle of both reference loaders: one utterance per distinct start of the
    (start, text, duration) lines not past the video, in start order, with the texts
    of the lines at that start joined by a space in line order, lasting the longest
    of their durations."""
    kept = [line for line in lines if line[0] <= video_duration]
    utterances = []
    for start in sorted({start for start, _, _ in kept}):
        tied = [(text, duration) for s, text, duration in kept if s == start]
        utterances.append(
            Utterance(
                text=" ".join(text for text, _ in tied),
                start=start,
                est_duration=max(duration for _, duration in tied),
            )
        )
    return CommentaryTrack(video_id, tuple(utterances), video_duration)


def reference_speaking_timeline(track: CommentaryTrack) -> list[bool]:
    """The oracle of `core.speaking_timeline`: second s speaks iff some utterance's
    [start, end) overlaps [s, s + 1) with positive measure."""
    return [
        any(min(u.end, s + 1) - max(u.start, s) > 0 for u in track.utterances)
        for s in range(math.ceil(track.video_duration))
    ]


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


class _ChatHandler(BaseHTTPRequestHandler):
    server_version = "stub"
    protocol_version = "HTTP/1.1"
    # The headers and the body go out in two writes: with Nagle's algorithm on, the
    # body would wait for the client's delayed ACK, about 40 ms a reply.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)  # type: ignore[attr-defined]

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw)
        plan = self.server.plan  # type: ignore[attr-defined]
        self.server.requests.append(  # type: ignore[attr-defined]
            {"body": body, "raw": raw, "auth": self.headers.get("Authorization"), "path": self.path}
        )
        status = plan.pop(0) if plan else 200
        if status != 200:
            payload = self.server.error_body  # type: ignore[attr-defined]
        elif self.server.reply_body is not None:  # type: ignore[attr-defined]
            payload = self.server.reply_body  # type: ignore[attr-defined]
        elif self.path.endswith("/embeddings"):
            vector = self.server.embedding  # type: ignore[attr-defined]
            payload = json.dumps({"data": [{"embedding": vector} for _ in body["input"]]}).encode()
        else:
            content = self.server.content  # type: ignore[attr-defined]
            payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        # Closes without a `Connection: close` header, as a server whose
        # keep-alive timeout expires between two requests does.
        self.close_connection = self.server.close_after_reply  # type: ignore[attr-defined]

    def log_message(self, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    """Keep-alive test endpoint that records requests and accepted connections."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.plan = []
        self.requests = []
        self.connections = []
        self.close_after_reply = False
        self.content = "the pack surges forward"  # each chat reply's message content
        self.embedding = [1.0, 0.0]  # each embedding reply's vector, for every input text
        self.reply_body = None  # when set, the bytes every 200 reply sends in place of the above
        self.error_body = b"{}"  # the bytes every other reply sends
        self.closed = threading.Semaphore(0)  # released each time a connection is closed

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@contextlib.contextmanager
def serving_chat(tls=None):
    """A `ChatServer` that serves on a daemon thread until the block ends; with `tls`,
    a server-side `ssl.SSLContext`, it serves HTTPS."""
    server = ChatServer()
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)
