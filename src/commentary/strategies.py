"""Decoding schedulers and the per-video session loop.

Four schedulers are provided. The fixed-interval kinds (stateless, feedback,
feedback-icl) query the backend every `step` seconds over a short trailing
frame window. The realtime kind reschedules the next query to land right
after the estimated speaking time of what was just said, and widens the frame
window to everything elapsed since the previous query.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .backends import ATTACHMENT_LIMIT, BackendError, Generator, GeneratorRequest
from .core import (
    Clock,
    CommentaryTrack,
    Record,
    Seconds,
    Speak,
    Utterance,
    check_seconds,
    from_ms,
    to_ms,
)
from .media import DEFAULT_WINDOW_CAP, FrameStore, frames_between
# render_decision stays importable here: perfbench/tracing.py wraps it by this name.
from .prompting import DecisionRenderer, PromptSet, parse_response, render_decision, render_init

UNIT_WORD = "word"
UNIT_CHARACTER = "character"
# The slowest speech rate, in units per second.
MIN_RATE = 0.01

_WAIT_MENTION = re.compile(r"<\s*wait\s*>|\bwait\b", re.IGNORECASE)


class StrategyKind(Enum):
    STATELESS = "stateless"
    FEEDBACK = "feedback"
    FEEDBACK_ICL = "feedback-icl"
    REALTIME = "realtime"


class SpeechRate(Record):
    """Speaking speed for one language: units per second of speech."""

    def __init__(self, unit: str, rate: float) -> None:
        if unit not in (UNIT_WORD, UNIT_CHARACTER):
            raise ValueError(f"unit must be 'word' or 'character', got {unit!r}")
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {rate}")
        # So no estimated speaking time leaves the millisecond grid.
        if rate < MIN_RATE:
            raise ValueError(f"rate must be at least {MIN_RATE} units per second, got {rate}")
        self.__dict__.update(unit=unit, rate=rate)


class SpeechRateModel(Record):
    """Per-language speaking speeds used to convert text length to duration.

    Takes a mapping, or (language, rate) pairs, and keeps the pairs sorted
    by language.
    """

    def __init__(
        self, rates: Mapping[str, SpeechRate] | Iterable[tuple[str, SpeechRate]]
    ) -> None:
        self.__dict__.update(rates=tuple(sorted(dict(rates).items())))

    @classmethod
    def default(cls) -> "SpeechRateModel":
        # 4 words/s English, 8 characters/s Japanese.
        return cls(
            rates={
                "en": SpeechRate(unit=UNIT_WORD, rate=4.0),
                "ja": SpeechRate(unit=UNIT_CHARACTER, rate=8.0),
            }
        )

    def for_language(self, language: str) -> SpeechRate:
        for lang, rate in self.rates:
            if lang == language:
                return rate
        known = ", ".join([lang for lang, _ in self.rates]) or "(none)"
        raise ValueError(f"no speech rate configured for language {language!r}; known: {known}")


def unit_tokens(text: str, unit: str) -> Sequence[str]:
    """Speech units in order: words are maximal non-whitespace runs, characters
    are non-whitespace characters (punctuation included), given as one string."""
    if unit == UNIT_WORD:
        return text.split()
    if unit == UNIT_CHARACTER:
        return "".join(text.split())
    raise ValueError(f"unit must be 'word' or 'character', got {unit!r}")


def count_units(text: str, unit: str) -> int:
    """Count speech units, as `unit_tokens` gives them."""
    return len(unit_tokens(text, unit))


def default_unit_for_language(language: str) -> str:
    return UNIT_CHARACTER if language == "ja" else UNIT_WORD


def estimate_duration(text: str, language: str, rates: SpeechRateModel) -> Seconds:
    """Estimated speaking duration: unit count divided by the language's rate."""
    rate = rates.for_language(language)
    units = count_units(text, rate.unit)
    if units == 0:
        raise ValueError("text has no countable units")
    return units / rate.rate


class StrategyConfig(Record):
    """Scheduler settings for one run. Without a rate model it gets a fresh default one."""

    def __init__(
        self,
        kind: StrategyKind,
        step: Seconds = 2.0,
        window_cap: int = DEFAULT_WINDOW_CAP,
        icl_shots: int | None = None,
        rate_model: SpeechRateModel | None = None,
        max_history: int | None = None,
    ) -> None:
        if rate_model is None:
            rate_model = SpeechRateModel.default()
        check_seconds(step, "step")
        if step <= 0:
            raise ValueError("step must be positive")
        try:
            step_ms = to_ms(step)
        except ValueError as exc:
            raise ValueError(f"step: {exc}") from None
        if from_ms(step_ms) != step:
            raise ValueError(f"step must be a whole number of milliseconds, got {step!r}")
        if window_cap < 1:
            raise ValueError("window_cap must be a positive integer")
        if icl_shots is None:
            icl_shots = 8 if kind is StrategyKind.FEEDBACK_ICL else 0
        elif icl_shots < 0:
            raise ValueError("icl_shots must be non-negative")
        elif icl_shots > 0 and kind is not StrategyKind.FEEDBACK_ICL:
            raise ValueError("icl_shots apply to the feedback-icl strategy only")
        if max_history is not None and max_history < 0:
            raise ValueError("max_history must be non-negative")
        # The most frames a window holds: fixed kinds look back one step.
        frames = window_cap
        if kind is not StrategyKind.REALTIME:
            frames = min(window_cap, max(1, math.ceil(step)))
        # A demonstration is one frame.
        if frames + icl_shots > ATTACHMENT_LIMIT:
            raise ValueError(
                f"window_cap {window_cap}: windows of {frames} frames and {icl_shots} "
                f"demonstrations exceed the attachment limit of {ATTACHMENT_LIMIT}"
            )
        self.__dict__.update(
            kind=kind,
            step=step,
            window_cap=window_cap,
            icl_shots=icl_shots,
            rate_model=rate_model,
            max_history=max_history,
        )


def next_query_ms(
    realtime: bool, step_ms: int, t_ms: int, spoken_ms: int | None, arrival_ms: int
) -> int:
    """When the query after the one at `t_ms` fires, all times in whole milliseconds.

    Fixed kinds advance by the step. Realtime advances by the spoken duration
    `spoken_ms` after a Speak (None after a Wait), floored at the step: short
    utterances never poll faster. A reply that arrives (at `arrival_ms`) after
    that time moves the query to its arrival: a query never fires in the past.
    """
    advance = max(step_ms, spoken_ms) if realtime and spoken_ms is not None else step_ms
    return max(t_ms + advance, arrival_ms)


class SessionStep(Record):
    """One executed decision: when, over which frames, what was asked, what came back,
    and the utterance a Speak put on the track (None after a Wait)."""

    def __init__(
        self,
        index: int,
        time: Seconds,
        window: tuple[str, ...],
        history_len: int,
        prompt_digest: str,
        raw_response: str,
        utterance: Utterance | None,
        note: str = "",
    ) -> None:
        self.__dict__.update(
            index=index, time=time, window=window, history_len=history_len,
            prompt_digest=prompt_digest, raw_response=raw_response, utterance=utterance, note=note,
        )


class GenerationRecord(Record):
    """Full trace of one session; basis for replay, subtitles and evaluation.

    `language` is the run's, its decision template's. Its `track` is derived:
    the utterances of its steps, in order.
    """

    def __init__(
        self,
        video_id: str,
        config: StrategyConfig,
        language: str,
        steps: tuple[SessionStep, ...],
        video_duration: Seconds,
        error: str | None = None,
    ) -> None:
        steps = tuple(steps)
        utterances = tuple([s.utterance for s in steps if s.utterance is not None])
        self.__dict__.update(
            video_id=video_id, config=config, language=language, steps=steps,
            video_duration=video_duration, error=error,
            track=CommentaryTrack(video_id, utterances, video_duration),
        )

    @property
    def complete(self) -> bool:
        return self.error is None


def run_session(
    store: FrameStore,
    config: StrategyConfig,
    backend: Generator,
    clock: Clock,
    prompts: PromptSet,
) -> GenerationRecord:
    """Run one video end to end and return its trace.

    Decision 0 at t=0 uses the initialization prompt with empty history, then
    decisions follow the scheduler until the next time would pass the end of
    the video. Times are kept in whole milliseconds, so every time the record
    holds is the one its SRT and trace show. The run's language is its
    decision template's; a rate model without it raises ValueError before the
    first request. A backend failure aborts the session and the partial record
    carries the error; a replay-cache miss is no backend failure and propagates
    (it is a configuration problem, not a transient failure).

    Each request carries its session position, and the session's dict of the
    frames its last request read, which it hands on to the next.
    """
    language = prompts.decision.language
    config.rate_model.for_language(language)  # raises ValueError for a language it lacks
    # icl_shots is 0 for every kind but feedback-icl.
    renderer = DecisionRenderer(prompts.decision, prompts.demonstrations[: config.icl_shots])
    duration_ms = to_ms(store.video_duration)
    step_ms = to_ms(config.step)
    realtime = config.kind is StrategyKind.REALTIME
    keeps_history = config.kind is not StrategyKind.STATELESS
    # The history the decision prompts show: a tuple, replaced on each Speak,
    # so the renderer sees an unchanged history as the same object.
    history: tuple[str, ...] = ()
    # The frames the last request read, by URI: the next takes those it sends from here.
    read_ahead: dict = {}
    steps: list[SessionStep] = []
    error: str | None = None
    t_ms = last_ms = 0

    while True:
        t = from_ms(t_ms)
        clock.advance_to(t)
        start_ms = last_ms if realtime else max(0, t_ms - step_ms)
        window = frames_between(store, from_ms(start_ms), t, config.window_cap)
        if not steps:
            rendered = render_init(prompts.init, window)
        else:
            rendered = renderer.render(history, window)

        try:
            request = GeneratorRequest(
                rendered, backend.model_id, t, store.video_id, len(steps),
                steps[-1].time if steps else None, read_ahead,
            )
            response = backend.generate(request)
        except BackendError as exc:
            error = f"backend failure at step {len(steps)} (t={t:.3f}s): {exc}"
            break

        raw = response.raw_text
        outcome = parse_response(raw)
        note = "" if raw.strip() else "empty-response-wait"  # an empty reply is a Wait
        spoken_ms = utterance = None
        if isinstance(outcome, Speak):
            if _WAIT_MENTION.search(outcome.text):
                note = "wait-plus-content"
            # The estimated speaking time, d̂, in whole milliseconds.
            spoken_ms = to_ms(estimate_duration(outcome.text, language, config.rate_model))
            utterance = Utterance(
                text=outcome.text,
                start=t,
                # At least 1 ms, so that every utterance shows as an SRT entry.
                est_duration=from_ms(max(1, spoken_ms)),
            )
        steps.append(
            SessionStep(len(steps), t, window, len(history), rendered.digest, raw, utterance, note)
        )
        if utterance is not None and keeps_history:
            history = (*history, utterance.text)
            if config.max_history is not None:
                history = history[len(history) - config.max_history :]

        last_ms = t_ms
        t_ms = next_query_ms(realtime, step_ms, t_ms, spoken_ms, to_ms(clock.now(), round_up=True))
        if t_ms > duration_ms:
            break

    return GenerationRecord(store.video_id, config, language, steps, store.video_duration, error)
