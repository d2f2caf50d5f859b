"""Decoding schedulers and the per-video session loop.

Four schedulers are provided. The fixed-interval kinds (stateless, feedback,
feedback-icl) query the backend every `step` seconds over a short trailing
frame window. The realtime kind reschedules the next query to land right
after the estimated speaking time of what was just said, and widens the frame
window to everything elapsed since the previous query.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Sequence

from .backends import (
    DEFAULT_MAX_OUTPUT_UNITS,
    DEFAULT_TEMPERATURE,
    BackendError,
    Generator,
    GeneratorRequest,
    ReplayMissError,
)
from .core import (
    Clock,
    CommentaryTrack,
    DecisionOutcome,
    Record,
    Seconds,
    Speak,
    Utterance,
    Wait,
    check_seconds,
    from_ms,
    to_ms,
)
from .media import DEFAULT_WINDOW_CAP, FrameStore, FrameWindow, frames_between
# render_decision stays importable here: perfbench/tracing.py wraps it by this name.
from .prompting import DecisionRenderer, PromptSet, parse_response, render_decision, render_init

UNIT_WORD = "word"
UNIT_CHARACTER = "character"

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
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.__dict__.update(unit=unit, rate=rate)


class SpeechRateModel(Record):
    """Per-language speaking speeds used to convert text length to duration."""

    def __init__(self, rates: dict[str, SpeechRate]) -> None:
        self.__dict__.update(rates=rates)

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
        try:
            return self.rates[language]
        except KeyError:
            known = ", ".join(sorted(self.rates)) or "(none)"
            raise ValueError(
                f"no speech rate configured for language {language!r}; known: {known}"
            ) from None


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
        language: str = "en",
        max_history: int | None = None,
    ) -> None:
        if rate_model is None:
            rate_model = SpeechRateModel.default()
        check_seconds(step, "step")
        if step <= 0:
            raise ValueError("step must be positive")
        if from_ms(to_ms(step)) != step:
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
        rate_model.for_language(language)
        self.__dict__.update(
            kind=kind,
            step=step,
            window_cap=window_cap,
            icl_shots=icl_shots,
            rate_model=rate_model,
            language=language,
            max_history=max_history,
        )


def _spoken_ms(config: StrategyConfig, text: str) -> int:
    """The estimated speaking time of `text`, d̂, in whole milliseconds."""
    return to_ms(estimate_duration(text, config.language, config.rate_model))


def _advance_ms(config: StrategyConfig, spoken_ms: int | None) -> int:
    """Milliseconds from a decision to the next one; `spoken_ms` is None after a Wait.

    Fixed kinds advance by the step regardless of outcome. Realtime advances
    by the spoken duration after a Speak, floored at the step so short
    utterances never poll faster than the fixed cadence.
    """
    step_ms = to_ms(config.step)
    if config.kind is StrategyKind.REALTIME and spoken_ms is not None:
        return max(step_ms, spoken_ms)
    return step_ms


def select_window(
    config: StrategyConfig, store: FrameStore, t_i: Seconds, t_last_query: Seconds = 0.0
) -> FrameWindow:
    """Frame window for the decision at t_i.

    Fixed kinds look back one step; realtime covers everything since the last
    query. Both are capped at config.window_cap newest frames.
    """
    if config.kind is StrategyKind.REALTIME:
        return frames_between(store, t_last_query, t_i, config.window_cap)
    start = from_ms(max(0, to_ms(t_i) - to_ms(config.step)))
    return frames_between(store, start, t_i, config.window_cap)


class DecisionPoint(Record):
    def __init__(self, index: int, time: Seconds, window: FrameWindow, history_len: int) -> None:
        self.__dict__.update(index=index, time=time, window=window, history_len=history_len)


class SessionStep(Record):
    """One executed decision: where, what was asked, what came back."""

    def __init__(
        self,
        point: DecisionPoint,
        prompt_digest: str,
        raw_response: str,
        outcome: DecisionOutcome,
        note: str = "",
    ) -> None:
        self.__dict__.update(
            point=point,
            prompt_digest=prompt_digest,
            raw_response=raw_response,
            outcome=outcome,
            note=note,
        )


class GenerationRecord(Record):
    """Full trace of one session; basis for replay, subtitles and evaluation."""

    def __init__(
        self,
        video_id: str,
        config: StrategyConfig,
        steps: tuple[SessionStep, ...],
        track: CommentaryTrack,
        error: str | None = None,
    ) -> None:
        steps = tuple(steps)
        speaks = [s for s in steps if isinstance(s.outcome, Speak)]
        if len(speaks) != len(track.utterances):
            raise ValueError("track utterances must match the Speak outcomes")
        for step, u in zip(speaks, track.utterances):
            if step.outcome.text != u.text or step.point.time != u.start:
                raise ValueError("track utterances must match the Speak outcomes in order")
        self.__dict__.update(
            video_id=video_id, config=config, steps=steps, track=track, error=error
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
    *,
    max_output_units: int = DEFAULT_MAX_OUTPUT_UNITS,
    temperature: float = DEFAULT_TEMPERATURE,
) -> GenerationRecord:
    """Run one video end to end and return its trace.

    Decision 0 at t=0 uses the initialization prompt with empty history, then
    decisions follow the scheduler until the next time would pass the end of
    the video. Times are kept in whole milliseconds, so every time the record
    holds is the one its SRT and trace show. A backend failure aborts the
    session and the partial record carries the error; a replay-cache miss
    propagates (it is a configuration problem, not a transient failure).
    """
    duration_ms = to_ms(store.video_duration)
    demos = prompts.demonstrations if config.kind is StrategyKind.FEEDBACK_ICL else ()
    renderer = DecisionRenderer(prompts.decision, demos)
    # The history the decision prompts show: a tuple, replaced on each Speak,
    # so the renderer sees an unchanged history as the same object.
    history: tuple[str, ...] = ()
    utterances: list[Utterance] = []
    steps: list[SessionStep] = []
    error: str | None = None
    t_ms = 0
    t_last_query = 0.0
    index = 0

    while True:
        t = from_ms(t_ms)
        clock.advance_to(t)
        window = select_window(config, store, t, t_last_query)
        if index == 0:
            rendered = render_init(prompts.init, window)
        else:
            rendered = renderer.render(history, window)
        point = DecisionPoint(index=index, time=t, window=window, history_len=len(history))

        try:
            request = GeneratorRequest(
                prompt=rendered,
                model_id=backend.model_id,
                max_output_units=max_output_units,
                temperature=temperature,
                decision_time=t,
            )
            response = backend.generate(request)
        except ReplayMissError:
            raise
        except BackendError as exc:
            error = f"backend failure at step {index} (t={t:.3f}s): {exc}"
            break

        outcome = parse_response(response.raw_text)
        note = ""
        if isinstance(outcome, Wait) and not response.raw_text.strip():
            note = "empty-response-wait"
        elif isinstance(outcome, Speak) and _WAIT_MENTION.search(outcome.text):
            note = "wait-plus-content"
        spoken_ms = None
        if isinstance(outcome, Speak):
            spoken_ms = _spoken_ms(config, outcome.text)
            utterances.append(
                Utterance(
                    text=outcome.text,
                    language=config.language,
                    start=t,
                    # At least 1 ms, so that every utterance shows as an SRT entry.
                    est_duration=from_ms(max(1, spoken_ms)),
                )
            )
            if config.kind is not StrategyKind.STATELESS:
                history = (*history, outcome.text)
                if config.max_history is not None:
                    history = history[len(history) - config.max_history :]
        steps.append(
            SessionStep(
                point=point,
                prompt_digest=rendered.digest,
                raw_response=response.raw_text,
                outcome=outcome,
                note=note,
            )
        )

        t_last_query = t
        t_ms += _advance_ms(config, spoken_ms)
        # A slow backend may return after the scheduled time; never fire in the past.
        now = clock.now()
        if now > t:
            t_ms = max(t_ms, to_ms(now, round_up=True))
        if t_ms > duration_ms:
            break
        index += 1

    track = CommentaryTrack(
        video_id=store.video_id,
        utterances=tuple(utterances),
        video_duration=store.video_duration,
    )
    return GenerationRecord(
        video_id=store.video_id,
        config=config,
        steps=tuple(steps),
        track=track,
        error=error,
    )
