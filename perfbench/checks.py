"""Correctness checks made apart from the program.

Each check recomputes what an output must hold from the benchmark's own
inputs and rules, or tests a property the method guarantees. None of them
calls into `commentary`, and none compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

from .corpus import RefUtterance, Video, parse_srt_ms, srt_text, stub_reply, units_of

WINDOW_CAP = 30

# reply(t, previous decision time or None, window seconds) -> text or None for silence
Reply = Callable[[float, "float | None", list], "str | None"]


def window_seconds(t_a: float, t_b: float, frames: int, cap: int = WINDOW_CAP) -> list[int]:
    """Seconds of the frames shown for the window [t_a, t_b).

    Frames whose second lies in [t_a, max(t_b, t_a + 1)), newest `cap` kept;
    the newest frame stands in when the range passes the last one.
    """
    limit = max(t_b, t_a + 1.0)
    seconds = [s for s in range(math.ceil(t_a), math.ceil(limit)) if s < frames]
    if not seconds:
        seconds = [min(math.floor(t_a), frames - 1)]
    return seconds[-cap:]


def stub_rule(video: Video) -> Reply:
    return lambda t, prev, seconds: stub_reply(video, seconds)


def oracle_rule(video: Video) -> Reply:
    """A reference replayed as it becomes observable: at each decision, the earliest
    utterance not yet spoken whose start fell after the previous decision."""
    spoken: set[int] = set()

    def reply(t: float, prev: float | None, seconds: list[int]) -> str | None:
        for i, u in enumerate(video.utterances):
            start = u.start_ms / 1000
            if start > t:
                break
            if i not in spoken and (prev is None or start > prev):
                spoken.add(i)
                return u.text
        return None

    return reply


def expected_session(
    video: Video, reply: Reply, realtime: bool, step: float, language: str
) -> tuple[int, list[tuple[int, int, str]]]:
    """Decision count and subtitle entries the paper's schedule gives.

    Decision 0 is at t=0. A fixed schedule moves on by `step`; the realtime
    schedule moves on by max(step, units/rate) after speech, by `step` after
    silence, and its window holds every frame since the previous decision.
    The session ends when the next time would pass the video's end.
    """
    rate = 4.0 if language == "en" else 8.0
    t, prev = 0.0, None
    decisions = 0
    entries = []
    while True:
        if realtime:
            seconds = window_seconds(prev or 0.0, t, video.duration)
        else:
            seconds = window_seconds(max(0.0, t - step), t, video.duration)
        text = reply(t, prev, seconds)
        decisions += 1
        advance = step
        if text is not None:
            spoken = units_of(text, language) / rate
            entries.append((round(t * 1000), round((t + spoken) * 1000), text))
            if realtime:
                advance = max(step, spoken)
        prev = t
        if t + advance > video.duration:
            return decisions, entries
        t = t + advance


def lcs_length(a: list[str], b: list[str]) -> int:
    """Plain dynamic-programming longest common subsequence."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        row, above = table[i], table[i - 1]
        for j, y in enumerate(b, 1):
            row[j] = above[j - 1] + 1 if x == y else max(above[j], row[j - 1])
    return table[-1][-1]


def tokens(text: str, language: str) -> list[str]:
    return text.split() if language == "en" else [ch for ch in text if not ch.isspace()]


def rouge_l_f1(gen: list[RefUtterance], ref: list[RefUtterance], language: str) -> float:
    """ROUGE-L F1 (0 to 100) of the whole-track concatenations."""
    cand = tokens(" ".join(u.text for u in gen), language)
    truth = tokens(" ".join(u.text for u in ref), language)
    lcs = lcs_length(cand, truth) if cand and truth else 0
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(cand), lcs / len(truth)
    return 100.0 * 2 * precision * recall / (precision + recall)


def speaking_seconds(track: list[RefUtterance], duration: float) -> list[bool]:
    """Per-second flags: an interval counts for second s when it overlaps [s, s+1)."""
    flags = [False] * math.ceil(duration)
    for u in track:
        for s in range(len(flags)):
            if u.start_ms < (s + 1) * 1000 and u.end_ms > s * 1000:
                flags[s] = True
    return flags


def agreement(gen: list[RefUtterance], ref: list[RefUtterance], duration: float) -> float:
    a, b = speaking_seconds(gen, duration), speaking_seconds(ref, duration)
    return sum(x == y for x, y in zip(a, b)) / len(a) if a else 1.0


def overlap_free(track: list[RefUtterance]) -> bool:
    return all(a.end_ms <= b.start_ms for a, b in zip(track, track[1:]))


def report_values(report: Path) -> dict[tuple[str, str], float]:
    values = {}
    for line in report.read_text(encoding="utf-8").splitlines():
        video_id, key, value = line.split("\t")
        values[(video_id, key)] = float(value)
    return values


def trace_decisions(trace: Path) -> int:
    return sum(1 for line in trace.read_text(encoding="utf-8").splitlines() if not line.startswith("#"))


def check_round(
    videos: list[Video],
    out: Path,
    report: Path,
    *,
    language: str,
    realtime: bool,
    step: float,
    rule: Callable[[Video], Reply],
    replay: Path | None = None,
) -> list[str]:
    """Every check on one round's outputs; returns the failures found."""
    failures = []
    scores = report_values(report)
    summary = out.joinpath("summary.tsv").read_text(encoding="utf-8").splitlines()[1:]
    if len(summary) != len(videos) or any(row.split("\t")[1] != "complete" for row in summary):
        failures.append("summary.tsv does not list every video as complete")
    for video in videos:
        vid = video.video_id
        decisions, entries = expected_session(video, rule(video), realtime, step, language)
        srt = out.joinpath(f"{vid}.srt").read_text(encoding="utf-8")
        if srt != srt_text(entries):
            failures.append(f"{vid}: subtitles differ from the schedule derived from the reply rule")
        made = trace_decisions(out / f"{vid}.trace")
        if made != decisions:
            failures.append(f"{vid}: {made} decisions, the schedule gives {decisions}")
        if not realtime and made != math.floor(video.duration / step) + 1:
            failures.append(f"{vid}: fixed step made {made} decisions, not floor(D/step)+1")
        gen = parse_srt_ms(srt)
        if realtime and not overlap_free(gen):
            failures.append(f"{vid}: realtime subtitles overlap")
        ref = list(video.utterances)
        want_agreement = agreement(gen, ref, video.duration)
        if abs(scores[(vid, "agreement@1s")] - want_agreement) > 1e-4:
            failures.append(f"{vid}: agreement@1s {scores[(vid, 'agreement@1s')]} != {want_agreement:.6f}")
        want_rouge = rouge_l_f1(gen, ref, language)
        if abs(scores[(vid, "rouge_l_concat")] - want_rouge) > 1e-4:
            failures.append(f"{vid}: rouge_l_concat {scores[(vid, 'rouge_l_concat')]} != {want_rouge:.6f}")
        if replay is not None:
            for suffix in (".srt", ".trace"):
                if out.joinpath(vid + suffix).read_bytes() != replay.joinpath(vid + suffix).read_bytes():
                    failures.append(f"{vid}: replay {suffix} differs from the recorded run")
    return failures
