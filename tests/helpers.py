"""Shared builders for synthetic stores, tracks and references, and the slow reference
implementations that the tests compare the fast code against."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from commentary import (
    BUILTIN_TEMPLATES,
    CommentaryTrack,
    FrameStore,
    PromptSet,
    RenderedPrompt,
    Utterance,
)
from commentary.backends import GeneratorRequest, GeneratorResponse
from commentary.core import WAIT_TOKEN, DecisionOutcome, Speak, Wait, check_seconds
from commentary.media import DEFAULT_WINDOW_CAP, WindowRangeError
from commentary.prompting import (
    CONTEXT_PLACEHOLDER,
    KIND_DECISION,
    Demonstration,
    PromptTemplate,
    serialize_history,
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
    attachments: list[str] = []
    for demo in demos:
        attachments.extend(demo.frames)
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
    limit = max(t_b, t_a + 1.0)
    seconds = [s for s in range(math.ceil(t_a), math.ceil(limit)) if s < n]
    if not seconds:
        seconds = [min(math.floor(t_a), n - 1)]
    if len(seconds) > cap:
        seconds = seconds[-cap:]
    return tuple(store.frames[s] for s in seconds)


class ScanningOracleBackend:
    """`OracleBackend` scanning the reference from its first utterance; its oracle."""

    model_id = "oracle"

    def __init__(self, reference: CommentaryTrack) -> None:
        self._reference = reference
        self._emitted: set[int] = set()
        self._prev_time: float | None = None

    def generate(self, request: GeneratorRequest) -> GeneratorResponse:
        t = request.decision_time
        if t is None:
            raise ValueError("OracleBackend requires decision_time on the request")
        prev = self._prev_time
        self._prev_time = t
        for i, u in enumerate(self._reference.utterances):
            if u.start > t:
                break
            if i in self._emitted:
                continue
            if prev is None or u.start > prev:
                self._emitted.add(i)
                return GeneratorResponse(raw_text=u.text, latency=0.0, model_id=self.model_id)
        return GeneratorResponse(raw_text=WAIT_TOKEN, latency=0.0, model_id=self.model_id)


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


class _ChatHandler(BaseHTTPRequestHandler):
    server_version = "stub"
    protocol_version = "HTTP/1.1"

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
            reply = {}
        elif self.path.endswith("/embeddings"):
            reply = {"data": [{"embedding": [1.0, 0.0]} for _ in body["input"]]}
        else:
            reply = {"choices": [{"message": {"content": "the pack surges forward"}}]}
        payload = json.dumps(reply).encode("utf-8")
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
        self.closed = threading.Semaphore(0)  # released each time a connection is closed

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@contextlib.contextmanager
def serving_chat():
    """A `ChatServer` that serves on a daemon thread until the block ends."""
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)
