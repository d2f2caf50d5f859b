"""Automatic metrics: per-second timing agreement, ROUGE-L, binned similarity, verbosity.

Timing alignment is reported as agreement@1s: the fraction of seconds where
the generated and reference tracks agree on speaking versus silence. Overlap
counts adjacent subtitle pairs whose display intervals intersect. ROUGE-L is
computed on whole-track concatenations. All three definitions are echoed in
the report keys so the numbers stay interpretable.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .backends import _Endpoint
from .core import (
    CommentaryTrack,
    Record,
    Seconds,
    Utterance,
    check_seconds,
    check_timeline_seconds,
    read_utf8,
    speaking_timeline,
)
from .strategies import (
    UNIT_WORD,
    SpeechRateModel,
    count_units,
    default_unit_for_language,
    estimate_duration,
    unit_tokens,
)
from .subtitles import overlap_proportion, parse_srt, track_entries

ENV_EMBED_API_BASE = "COMMENTARY_EMBED_API_BASE"
ENV_EMBED_API_KEY = "COMMENTARY_EMBED_API_KEY"
ENV_EMBED_MODEL = "COMMENTARY_EMBED_MODEL"

BIN_COUNT = 10

_DEFAULT_RATES = SpeechRateModel.default()  # gives transcript lines their durations


class SimilarityScorer(Protocol):
    """Scores how close a candidate text is to a reference text."""

    def score(self, candidate: str, reference: str) -> float:
        ...


class LexicalOverlapScorer:
    """Token-multiset F1; the offline default so evaluation needs no network."""

    def __init__(self, unit: str = UNIT_WORD) -> None:
        self.unit = unit

    def score(self, candidate: str, reference: str) -> float:
        cand = Counter(unit_tokens(candidate, self.unit))
        ref = Counter(unit_tokens(reference, self.unit))
        if not cand or not ref:
            return 0.0
        overlap = sum((cand & ref).values())
        if overlap == 0:
            return 0.0
        precision = overlap / sum(cand.values())
        recall = overlap / sum(ref.values())
        return 2 * precision * recall / (precision + recall)


def _scaled(vector: list[float]) -> list[float]:
    """`vector` over its largest magnitude, so that no square of it overflows and
    not all of them underflow; a zero vector as it is."""
    top = max(map(abs, vector), default=0.0)
    return [x / top for x in vector] if top else vector


class EmbeddingScorer(_Endpoint):
    """Cosine similarity of embeddings fetched from a remote endpoint.

    Configured from COMMENTARY_EMBED_API_BASE / _KEY / _MODEL unless
    overridden. Concurrent requests are bounded, and retried like the chat
    backend's: rate limits, server errors and transport failures up to 3
    attempts in all with exponential backoff. Proxy, CA-bundle and netrc
    settings are read once, when the scorer is built.
    """

    _ENV = (ENV_EMBED_API_BASE, ENV_EMBED_API_KEY, ENV_EMBED_MODEL)
    _ENDPOINT = "embedding endpoint"
    _NEEDS_MODEL = False
    _TIMEOUT = 60.0

    def _embed(self, texts: list[str]) -> list[list[float]]:
        import json

        body = json.dumps({"model": self.model_id, "input": texts}).encode("utf-8")
        resp, _ = self._post("/embeddings", body)
        url = f"{self.base_url}/embeddings"
        try:
            data = resp.json()["data"]
            embeddings = [item["embedding"] for item in data]
        # RecursionError: deep JSON
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed embedding response from {url}: {exc!r}") from exc
        # A bool is an int to Python, zip would cut the longer vector short, and an
        # int beyond the float range would overflow the cosine (NaN compares false).
        if (
            len(embeddings) != len(texts)
            or not all(isinstance(e, list) and len(e) == len(embeddings[0]) for e in embeddings)
            or not all(type(x) in (int, float) for e in embeddings for x in e)
            or not all(abs(x) <= sys.float_info.max for e in embeddings for x in e)
        ):
            raise ValueError(
                f"malformed embedding response from {url}: expected {len(texts)} "
                f"equal-length lists of finite numbers, got {len(embeddings)} items"
            )
        return [[float(x) for x in e] for e in embeddings]

    def score(self, candidate: str, reference: str) -> float:
        if not candidate.strip() or not reference.strip():
            return 0.0
        a, b = map(_scaled, self._embed([candidate, reference]))
        dot = sum(x * y for x, y in zip(a, b))
        norm = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        return dot / norm if norm else 0.0


class EvalReport(Record):
    def __init__(
        self,
        alignment: float,
        rouge_l: float,
        bin_scores: tuple[float, ...],
        overlap: float,
        gen_words: int,
        ref_words: int,
    ) -> None:
        if len(bin_scores) != BIN_COUNT:
            raise ValueError(f"bin_scores must hold {BIN_COUNT} values")
        self.__dict__.update(
            alignment=alignment,
            rouge_l=rouge_l,
            bin_scores=bin_scores,
            overlap=overlap,
            gen_words=gen_words,
            ref_words=ref_words,
        )


def timing_alignment(gen: CommentaryTrack, ref: CommentaryTrack) -> float:
    """Fraction of seconds where both tracks speak or both are silent."""
    if gen.video_duration != ref.video_duration:
        raise ValueError(
            f"duration mismatch: {gen.video_duration} vs {ref.video_duration}"
        )
    a = speaking_timeline(gen)
    b = speaking_timeline(ref)
    if not a:
        return 1.0
    return sum(x == y for x, y in zip(a, b)) / len(a)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Exact LCS length, bit-parallel (Allison & Dix 1986, in Hyyrö's 2004 form).

    The clear bits of `v` mark the positions of `a` where the LCS against the
    tokens of `b` seen so far steps up by one, so each token of `b` costs a
    few word operations per machine word of `a`.
    """
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: str, reference: str, language: str = "en") -> float:
    """Longest-common-subsequence F1 over speech units, scaled to [0, 100].

    English uses whitespace tokens, Japanese uses characters. Zero when either
    side is empty.
    """
    unit = default_unit_for_language(language)
    cand = unit_tokens(candidate, unit)
    ref = unit_tokens(reference, unit)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 100.0 * (2 * precision * recall) / (precision + recall)


def binned_similarity(
    gen: CommentaryTrack, ref: CommentaryTrack, scorer: SimilarityScorer
) -> list[float]:
    """Scores over ten uniform duration bins; an utterance belongs to the bin
    containing its start. Bins where either side is empty score 0."""
    if gen.video_duration != ref.video_duration:
        raise ValueError(
            f"duration mismatch: {gen.video_duration} vs {ref.video_duration}"
        )
    duration = gen.video_duration
    if duration <= 0:
        return [0.0] * BIN_COUNT

    def bins_of(track: CommentaryTrack) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(BIN_COUNT)]
        for u in track.utterances:
            b = min(BIN_COUNT - 1, int(u.start * BIN_COUNT / duration))
            out[b].append(u.text)
        return out

    gen_bins = bins_of(gen)
    ref_bins = bins_of(ref)
    scores: list[float] = []
    for g, r in zip(gen_bins, ref_bins):
        if g and r:
            scores.append(scorer.score(" ".join(g), " ".join(r)))
        else:
            scores.append(0.0)
    return scores


def _unit_count(track: CommentaryTrack, language: str) -> int:
    """Speech units (words, or characters for Japanese) over the whole track."""
    unit = default_unit_for_language(language)
    return sum(count_units(u.text, unit) for u in track.utterances)


def _track_text(track: CommentaryTrack) -> str:
    return " ".join(u.text for u in track.utterances)


def evaluate(
    gen: CommentaryTrack,
    ref: CommentaryTrack,
    scorer: SimilarityScorer,
    language: str,
) -> EvalReport:
    """Assemble the full report for one generated/reference track pair."""
    return EvalReport(
        alignment=timing_alignment(gen, ref),
        rouge_l=rouge_l(_track_text(gen), _track_text(ref), language),
        bin_scores=tuple(binned_similarity(gen, ref, scorer)),
        overlap=overlap_proportion(track_entries(gen)),
        gen_words=_unit_count(gen, language),
        ref_words=_unit_count(ref, language),
    )


def _reference_track(
    lines: Iterable[tuple[Seconds, str, Seconds]], video_id: str, video_duration: Seconds
) -> CommentaryTrack:
    """A reference track from (start, text, duration) lines in file order.

    Lines starting after the stated duration are dropped. Lines sharing a
    start become one utterance: their texts joined by a space in file order,
    lasting the longest of their durations.
    """
    spans: dict[Seconds, tuple[str, Seconds]] = {}
    for start, text, duration in lines:
        if start > video_duration:
            continue
        if start in spans:
            tied_text, tied_duration = spans[start]
            text, duration = f"{tied_text} {text}", max(tied_duration, duration)
        spans[start] = (text, duration)
    utterances = [
        Utterance(text=text, start=start, est_duration=duration)
        for start, (text, duration) in sorted(spans.items())
    ]
    return CommentaryTrack(
        video_id=video_id, utterances=tuple(utterances), video_duration=video_duration
    )


def _latest_end(ends: Iterable[Seconds], name: str) -> Seconds:
    """The latest of a file's display `ends`, at least 0, each a time a timeline can hold."""
    return max([0.0, *(check_timeline_seconds(end, name) for end in ends)])


def reference_from_srt_text(
    text: str, video_id: str, video_duration: Seconds | None
) -> CommentaryTrack:
    """Build a reference track from SRT text, display spans giving the durations. With
    no `video_duration`, the track runs to the latest entry end."""
    entries = parse_srt(text)
    if video_duration is None:
        video_duration = _latest_end((e.end for e in entries), "end")
    return _reference_track(
        ((e.start, e.text, e.end - e.start) for e in entries), video_id, video_duration
    )


def parse_transcript(text: str) -> list[tuple[Seconds, str]]:
    """(start, text) of each `start_seconds<TAB>text` line, in file order."""
    rows: list[tuple[Seconds, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        start_token, sep, utt_text = line.partition("\t")
        if not sep or not utt_text.strip():
            raise ValueError(f"line {lineno}: expected 'start_seconds<TAB>text'")
        try:
            start = float(start_token)
        except ValueError:
            raise ValueError(f"line {lineno}: bad start time {start_token!r}") from None
        try:
            check_seconds(start, "start")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        rows.append((start, utt_text.strip()))
    return rows


def reference_from_transcript_text(
    text: str, video_id: str, video_duration: Seconds | None, language: str
) -> CommentaryTrack:
    """Build a reference track from `start_seconds<TAB>text` transcript lines, each
    lasting its text's duration under the default speech-rate model. With no
    `video_duration`, the track runs to the latest start."""
    rows = parse_transcript(text)
    if video_duration is None:
        video_duration = _latest_end((start for start, _ in rows), "start")
    # Lines past the video are dropped before a duration is estimated for them.
    rows = [(s, t) for s, t in rows if s <= video_duration]
    return _reference_track(
        ((s, t, estimate_duration(t, language, _DEFAULT_RATES)) for s, t in rows),
        video_id, video_duration,
    )


def load_reference(
    path: str | Path, video_id: str, video_duration: Seconds | None, language: str
) -> CommentaryTrack:
    """A reference track from an .srt file or a transcript; a ValueError names the file.

    With no `video_duration`, the track runs to the file's latest display end: the
    latest entry end of an .srt, the latest start of a transcript, 0 for a file with
    no lines.
    """
    path = Path(path)
    text = read_utf8(path)
    try:
        if path.suffix.lower() == ".srt":
            return reference_from_srt_text(text, video_id, video_duration)
        return reference_from_transcript_text(text, video_id, video_duration, language)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
