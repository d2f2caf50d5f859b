"""Decoding schedulers and the per-video session loop.

Four schedulers are provided. The fixed-interval kinds (stateless, feedback,
feedback-icl) query the backend every `step` seconds over a short trailing
frame window. The realtime kind reschedules the next query to land right
after the estimated speaking time of what was just said, and widens the frame
window to everything elapsed since the previous query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

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
    Seconds,
    Speak,
    Utterance,
    Wait,
    check_seconds,
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

    @classmethod
    def from_name(cls, name: str) -> "StrategyKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown strategy {name!r}; valid: {valid}")


@dataclass(frozen=True)
class SpeechRate:
    """Speaking speed for one language: units per second of speech."""

    unit: str
    rate: float

    def __post_init__(self) -> None:
        if self.unit not in (UNIT_WORD, UNIT_CHARACTER):
            raise ValueError(f"unit must be 'word' or 'character', got {self.unit!r}")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class SpeechRateModel:
    """Per-language speaking speeds used to convert text length to duration."""

    rates: dict[str, SpeechRate]

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


def count_units(text: str, unit: str) -> int:
    """Count speech units: words are maximal non-whitespace runs, characters
    are non-whitespace characters (punctuation included)."""
    if unit == UNIT_WORD:
        return len(text.split())
    if unit == UNIT_CHARACTER:
        return sum(1 for ch in text if not ch.isspace())
    raise ValueError(f"unit must be 'word' or 'character', got {unit!r}")


def default_unit_for_language(language: str) -> str:
    return UNIT_CHARACTER if language == "ja" else UNIT_WORD


def estimate_duration(text: str, language: str, rates: SpeechRateModel) -> Seconds:
    """Estimated speaking duration: unit count divided by the language's rate."""
    rate = rates.for_language(language)
    units = count_units(text, rate.unit)
    if units == 0:
        raise ValueError("text has no countable units")
    return units / rate.rate


@dataclass(frozen=True)
class StrategyConfig:
    """Scheduler settings for one run."""

    kind: StrategyKind
    step: Seconds = 2.0
    window_cap: int = DEFAULT_WINDOW_CAP
    icl_shots: int | None = None
    rate_model: SpeechRateModel = field(default_factory=SpeechRateModel.default)
    language: str = "en"
    max_history: int | None = None

    def __post_init__(self) -> None:
        check_seconds(self.step, "step")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.window_cap < 1:
            raise ValueError("window_cap must be a positive integer")
        if self.icl_shots is None:
            shots = 8 if self.kind is StrategyKind.FEEDBACK_ICL else 0
            object.__setattr__(self, "icl_shots", shots)
        elif self.icl_shots < 0:
            raise ValueError("icl_shots must be non-negative")
        elif self.icl_shots > 0 and self.kind is not StrategyKind.FEEDBACK_ICL:
            raise ValueError("icl_shots apply to the feedback-icl strategy only")
        if self.max_history is not None and self.max_history < 0:
            raise ValueError("max_history must be non-negative")
        self.rate_model.for_language(self.language)


def next_decision_time(
    config: StrategyConfig, t_i: Seconds, outcome: DecisionOutcome
) -> Seconds:
    """Schedule the next decision after outcome at t_i.

    Fixed kinds advance by the step regardless of outcome. Realtime advances
    by the spoken duration after a Speak, floored at the step so short
    utterances never poll faster than the fixed cadence.
    """
    check_seconds(t_i, "t_i")
    if config.kind is StrategyKind.REALTIME and isinstance(outcome, Speak):
        d_hat = estimate_duration(outcome.text, config.language, config.rate_model)
        return t_i + max(config.step, d_hat)
    return t_i + config.step


def select_window(
    config: StrategyConfig, store: FrameStore, t_i: Seconds, t_last_query: Seconds = 0.0
) -> FrameWindow:
    """Frame window for the decision at t_i.

    Fixed kinds look back one step; realtime covers everything since the last
    query. Both are capped at config.window_cap newest frames.
    """
    if config.kind is StrategyKind.REALTIME:
        return frames_between(store, t_last_query, t_i, config.window_cap)
    return frames_between(store, max(0.0, t_i - config.step), t_i, config.window_cap)


@dataclass(frozen=True)
class DecisionPoint:
    index: int
    time: Seconds
    window: FrameWindow
    history_len: int


@dataclass(frozen=True)
class SessionStep:
    """One executed decision: where, what was asked, what came back."""

    point: DecisionPoint
    prompt_digest: str
    raw_response: str
    outcome: DecisionOutcome
    note: str = ""


@dataclass(frozen=True)
class GenerationRecord:
    """Full trace of one session; basis for replay, subtitles and evaluation."""

    video_id: str
    config: StrategyConfig
    steps: tuple[SessionStep, ...]
    track: CommentaryTrack
    error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        speaks = [s for s in self.steps if isinstance(s.outcome, Speak)]
        if len(speaks) != len(self.track.utterances):
            raise ValueError("track utterances must match the Speak outcomes")
        for step, u in zip(speaks, self.track.utterances):
            if step.outcome.text != u.text or step.point.time != u.start:
                raise ValueError("track utterances must match the Speak outcomes in order")

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
    the video. A backend failure aborts the session and the partial record
    carries the error; a replay-cache miss propagates (it is a configuration
    problem, not a transient failure).
    """
    duration = store.video_duration
    demos = prompts.demonstrations if config.kind is StrategyKind.FEEDBACK_ICL else ()
    renderer = DecisionRenderer(prompts.decision, demos)
    history: list[str] = []
    utterances: list[Utterance] = []
    steps: list[SessionStep] = []
    error: str | None = None
    t = 0.0
    t_last_query = 0.0
    index = 0

    while True:
        clock.advance_to(t)
        window = select_window(config, store, t, t_last_query)
        if index == 0:
            history_used: list[str] = []
            rendered = render_init(prompts.init, window)
        else:
            if config.kind is StrategyKind.STATELESS:
                history_used = []
            elif config.max_history is not None:
                history_used = history[len(history) - config.max_history :]
            else:
                history_used = history
            rendered = renderer.render(history_used, window)
        point = DecisionPoint(index=index, time=t, window=window, history_len=len(history_used))

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
        if isinstance(outcome, Speak):
            d_hat = estimate_duration(outcome.text, config.language, config.rate_model)
            utterances.append(
                Utterance(
                    text=outcome.text,
                    language=config.language,
                    start=t,
                    est_duration=d_hat,
                )
            )
            history.append(outcome.text)
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
        scheduled = next_decision_time(config, t, outcome)
        # A slow backend may return after the scheduled time; never fire in the past.
        t_next = max(scheduled, clock.now())
        if t_next > duration:
            break
        t = t_next
        index += 1

    track = CommentaryTrack(
        video_id=store.video_id,
        utterances=tuple(utterances),
        video_duration=duration,
    )
    return GenerationRecord(
        video_id=store.video_id,
        config=config,
        steps=tuple(steps),
        track=track,
        error=error,
    )
