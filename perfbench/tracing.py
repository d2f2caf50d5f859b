"""Spans around the calls into each module of `commentary`, taken from outside.

The tracer replaces names in the program's module namespaces with wrappers,
patches the generate methods of the backend classes, and hands the CLI a
`requests.Session` that times its POSTs. Nothing in `commentary` changes.

A span records its name, the phase it ran in, start, end and parent.
Spans nest per thread; a span opened on a thread with no open span has the
phase span as its parent. A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from time import perf_counter

import requests

from commentary import backends, cli, evaluation, strategies
from commentary.core import Speak


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.phase = ""
        self._phase_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, args, kwargs, on_result=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._phase_id
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.phase, name, start, end))
        if on_result is not None:
            on_result(result)
        return result

    def run_phase(self, phase: str, fn, *args):
        """Run fn as the root span of a phase; its children carry the phase name."""
        self.phase = phase
        sid = next(self._ids)
        self._phase_id = sid
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((sid, 0, phase, "phase", start, perf_counter()))
            self._phase_id = 0

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_result)

        setattr(owner, attr, traced)


class TracedSession(requests.Session):
    """Session that times each POST and counts the request body it sends."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def post(self, *args, **kwargs):
        self._tracer.count("requests")
        return self._tracer.call("backends.post", super().post, args, kwargs)

    def send(self, request, **kwargs):
        self._tracer.count("request_bytes", len(request.body or b""))
        return super().send(request, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer offers, at the names their callers use."""
    tracer.wrap(cli, "load_manifest", "media.load_manifest")
    tracer.wrap(strategies, "frames_between", "media.frames_between")

    def rendered(prompt) -> None:
        tracer.count("renders")
        tracer.count("prompt_chars", len(prompt.text))

    tracer.wrap(strategies, "render_init", "prompting.render", rendered)
    tracer.wrap(strategies, "render_decision", "prompting.render", rendered)

    def parsed(outcome) -> None:
        if isinstance(outcome, Speak):
            tracer.count("utterances")

    tracer.wrap(strategies, "parse_response", "prompting.parse_response", parsed)

    def encoded(uri: str) -> None:
        tracer.count("encode_calls")
        tracer.count("encoded_bytes", len(uri))

    tracer.wrap(backends, "encode_image_uri", "backends.encode_image_uri", encoded)
    tracer.wrap(backends, "build_chat_payload", "backends.build_chat_payload")
    tracer.wrap(backends.RemoteChatBackend, "generate", "backends.RemoteChatBackend.generate")
    tracer.wrap(backends.OracleBackend, "generate", "backends.OracleBackend.generate")
    tracer.wrap(backends.ReplayCache, "generate", "backends.ReplayCache.generate")
    remote = cli.RemoteChatBackend
    cli.RemoteChatBackend = lambda *a, **k: remote(*a, session=TracedSession(tracer), **k)

    tracer.wrap(cli, "run_session", "strategies.run_session")
    tracer.wrap(cli, "to_srt", "subtitles.to_srt")
    tracer.wrap(cli, "render_trace", "cli.render_trace")

    tracer.wrap(cli, "load_reference", "evaluation.load_reference")
    tracer.wrap(cli, "reference_from_srt_text", "evaluation.reference_from_srt_text")
    tracer.wrap(evaluation, "reference_from_srt_text", "evaluation.reference_from_srt_text")
    tracer.wrap(evaluation, "parse_srt", "subtitles.parse_srt")
    tracer.wrap(cli, "parse_srt", "subtitles.parse_srt")
    tracer.wrap(cli, "evaluate", "evaluation.evaluate")
    tracer.wrap(evaluation, "timing_alignment", "evaluation.timing_alignment")
    tracer.wrap(evaluation, "speaking_timeline", "core.speaking_timeline")
    tracer.wrap(evaluation, "rouge_l", "evaluation.rouge_l")
    tracer.wrap(evaluation, "binned_similarity", "evaluation.binned_similarity")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, decisions: int) -> dict[str, float]:
    """Per-layer figures of one traced round, from its spans and counts."""
    child_time: dict[int, float] = {}
    for _, parent, _, _, start, end in tracer.spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict[tuple[str, str], list[float]] = {}
    own: dict[tuple[str, str], list[float]] = {}
    for sid, _, phase, name, start, end in tracer.spans:
        total.setdefault((phase, name), []).append(end - start)
        own.setdefault((phase, name), []).append(end - start - child_time.get(sid, 0.0))

    def tot(phase: str, name: str) -> list[float]:
        return total.get((phase, name), [])

    def self_ms(phase: str, *names: str) -> float:
        return 1e3 * sum(sum(own.get((phase, n), [])) for n in names)

    def cnt(name: str, phase: str = "generate") -> float:
        return tracer.counts.get((phase, name), 0)

    renders = cnt("renders")
    requests_sent = cnt("requests")
    return {
        "media.load_manifest_ms": 1e3 * sum(tot("generate", "media.load_manifest")),
        "media.frames_between_us": 1e6 * _mean(tot("generate", "media.frames_between")),
        "prompting.render_us": 1e6 * _mean(tot("generate", "prompting.render")),
        "prompting.prompt_chars_mean": cnt("prompt_chars") / renders if renders else 0.0,
        "prompting.parse_us": 1e6 * _mean(tot("generate", "prompting.parse_response")),
        "backends.payload_ms_p50": 1e3 * _p50(tot("generate", "backends.build_chat_payload")),
        "backends.encode_calls": cnt("encode_calls"),
        "backends.encoded_mb": cnt("encoded_bytes") / 2**20,
        "backends.request_kb_mean": cnt("request_bytes") / 1024 / requests_sent if requests_sent else 0.0,
        "backends.post_ms_p50": 1e3 * _p50(tot("generate", "backends.post")),
        "backends.generate_self_ms_p50": 1e3 * _p50(own.get(("generate", "backends.RemoteChatBackend.generate"), [])),
        "backends.oracle_us": 1e6 * _mean(tot("generate", "backends.OracleBackend.generate")),
        "backends.cache_write_ms": self_ms("generate", "backends.ReplayCache.generate"),
        "backends.requests": requests_sent,
        "strategies.decisions": decisions,
        "strategies.utterances": cnt("utterances"),
        "strategies.session_self_ms": self_ms("generate", "strategies.run_session"),
        "subtitles.to_srt_ms": self_ms("generate", "subtitles.to_srt"),
        "cli.render_trace_ms": self_ms("generate", "cli.render_trace"),
        "cli.generate_self_ms": self_ms("generate", "phase"),
        "subtitles.parse_srt_ms": self_ms("evaluate", "subtitles.parse_srt"),
        "evaluation.load_reference_ms": self_ms(
            "evaluate", "evaluation.load_reference", "evaluation.reference_from_srt_text"
        ),
        "cli.evaluate_self_ms": self_ms("evaluate", "phase"),
        "evaluation.rouge_ms": self_ms("evaluate", "evaluation.rouge_l"),
        "evaluation.alignment_ms": self_ms("evaluate", "evaluation.timing_alignment"),
        "core.speaking_timeline_ms": self_ms("evaluate", "core.speaking_timeline"),
        "evaluation.binned_ms": self_ms("evaluate", "evaluation.binned_similarity"),
    }


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("id\tparent\tphase\tname\tstart_s\tend_s\n")
        for sid, parent, phase, name, start, end in sorted(tracer.spans):
            out.write(f"{sid}\t{parent}\t{phase}\t{name}\t{start:.7f}\t{end:.7f}\n")
