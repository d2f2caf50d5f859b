"""Automatic metrics: per-second timing agreement, ROUGE-L, binned similarity, verbosity.

Timing alignment is reported as agreement@1s: the fraction of seconds where
the generated and reference tracks agree on speaking versus silence. Overlap
counts adjacent subtitle pairs whose display intervals intersect. ROUGE-L is
computed on whole-track concatenations. All three definitions are echoed in
the report keys so the numbers stay interpretable.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Protocol, Sequence

from .backends import HttpSession, _Endpoint
from .core import CommentaryTrack, Record, Seconds, Utterance, speaking_timeline
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

# A reference track has the same shape as a generated one.
ReferenceTrack = CommentaryTrack


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

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model_id: str | None = None,
        timeout: float = 60.0,
        backoff_base: float = 0.5,
        max_concurrency: int = 4,
        session: HttpSession | None = None,
    ) -> None:
        super().__init__(
            base_url, api_key, model_id, timeout=timeout, backoff_base=backoff_base,
            max_concurrency=max_concurrency, session=session,
        )

    def _embed(self, texts: list[str]) -> list[list[float]]:
        import json

        body = json.dumps({"model": self.model_id, "input": texts}).encode("utf-8")
        resp, _ = self._post("/embeddings", body)
        url = f"{self.base_url}/embeddings"
        try:
            data = resp.json()["data"]
            embeddings = [item["embedding"] for item in data]
        except (ValueError, LookupError, TypeError) as exc:
            raise ValueError(f"malformed embedding response from {url}: {exc!r}") from exc
        if len(embeddings) != len(texts) or not all(isinstance(e, list) for e in embeddings):
            raise ValueError(
                f"malformed embedding response from {url}: expected {len(texts)} "
                f"embedding lists, got {len(embeddings)} items"
            )
        return embeddings

    def score(self, candidate: str, reference: str) -> float:
        if not candidate.strip() or not reference.strip():
            return 0.0
        a, b = self._embed([candidate, reference])
        dot = sum(x * y for x, y in zip(a, b))
        norm = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        return dot / norm if norm else 0.0


class WordStats(Record):
    """Per-track total unit counts summarized across tracks."""

    def __init__(self, avg: float, min: int, max: int) -> None:
        self.__dict__.update(avg=avg, min=min, max=max)


class EvalReport(Record):
    def __init__(
        self,
        alignment: float,
        rouge_l: float,
        bin_scores: tuple[float, ...],
        overlap: float,
        gen_words: WordStats,
        ref_words: WordStats,
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


def timing_alignment(gen: CommentaryTrack, ref: ReferenceTrack) -> float:
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
    gen: CommentaryTrack, ref: ReferenceTrack, scorer: SimilarityScorer
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


def word_stats(tracks: Sequence[CommentaryTrack], language: str = "en") -> WordStats:
    """Avg/min/max of per-track total unit counts."""
    if not tracks:
        raise ValueError("word_stats requires at least one track")
    unit = default_unit_for_language(language)
    totals = [sum(count_units(u.text, unit) for u in t.utterances) for t in tracks]
    return WordStats(avg=sum(totals) / len(totals), min=min(totals), max=max(totals))


def _track_text(track: CommentaryTrack) -> str:
    return " ".join(u.text for u in track.utterances)


def evaluate(
    gen: CommentaryTrack,
    ref: ReferenceTrack,
    scorer: SimilarityScorer,
    language: str,
) -> EvalReport:
    """Assemble the full report for one generated/reference track pair."""
    return EvalReport(
        alignment=timing_alignment(gen, ref),
        rouge_l=rouge_l(_track_text(gen), _track_text(ref), language),
        bin_scores=tuple(binned_similarity(gen, ref, scorer)),
        overlap=overlap_proportion(track_entries(gen)),
        gen_words=word_stats([gen], language),
        ref_words=word_stats([ref], language),
    )


def reference_from_srt_text(
    text: str, video_id: str, video_duration: Seconds, language: str
) -> ReferenceTrack:
    """Build a reference track from SRT text; display spans give the durations.

    Entries starting after the stated duration are dropped. Entries sharing a
    start time become one utterance: their texts joined by a space in SRT
    order, displayed until the latest of their ends.
    """
    spans: dict[Seconds, tuple[str, Seconds]] = {}
    for e in parse_srt(text):
        if e.start > video_duration:
            continue
        if e.start in spans:
            tied_text, tied_end = spans[e.start]
            spans[e.start] = (f"{tied_text} {e.text}", max(tied_end, e.end))
        else:
            spans[e.start] = (e.text, e.end)
    utterances = [
        Utterance(text=utt_text, language=language, start=start, est_duration=end - start)
        for start, (utt_text, end) in sorted(spans.items())
    ]
    return CommentaryTrack(
        video_id=video_id, utterances=tuple(utterances), video_duration=video_duration
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
        rows.append((start, utt_text.strip()))
    return rows


def reference_from_transcript_text(
    text: str,
    video_id: str,
    video_duration: Seconds,
    language: str,
    rates: SpeechRateModel | None = None,
) -> ReferenceTrack:
    """Build a reference track from `start_seconds<TAB>text` transcript lines.

    Durations come from the speech-rate model. Lines starting after the stated
    duration are dropped.
    """
    rates = rates or SpeechRateModel.default()
    utterances: list[Utterance] = []
    for start, utt_text in parse_transcript(text):
        if start > video_duration:
            continue
        utterances.append(
            Utterance(
                text=utt_text,
                language=language,
                start=start,
                est_duration=estimate_duration(utt_text, language, rates),
            )
        )
    utterances.sort(key=lambda u: u.start)
    return CommentaryTrack(
        video_id=video_id, utterances=tuple(utterances), video_duration=video_duration
    )


def load_reference(
    path: str | Path,
    video_id: str,
    video_duration: Seconds,
    language: str,
    rates: SpeechRateModel | None = None,
) -> ReferenceTrack:
    """Load a reference track from an .srt file or a tab-separated transcript."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".srt":
        return reference_from_srt_text(text, video_id, video_duration, language)
    return reference_from_transcript_text(text, video_id, video_duration, language, rates)
