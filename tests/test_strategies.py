"""Schedulers, duration estimation, and the session loop."""

import hashlib
import math
import random
import types
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commentary import (
    CommentaryTrack,
    ScriptedBackend,
    SimulatedClock,
    SpeechRate,
    SpeechRateModel,
    StrategyConfig,
    StrategyKind,
    estimate_duration,
    frames_between,
    overlap_proportion,
    parse_srt,
    run_session,
    speaking_timeline,
    to_srt,
)
from commentary import backends, prompting, strategies
from commentary.backends import ATTACHMENT_LIMIT, GeneratorResponse, TransportError
from commentary.core import from_ms, to_ms
from commentary.cli import render_trace
from commentary.prompting import Demonstration, PromptSet, PromptTemplate
from commentary.evaluation import reference_from_srt_text
from commentary.strategies import count_units, next_query_ms, unit_tokens

from helpers import (
    HandsNothingOn,
    ReferenceRenderer,
    prompt_set,
    reference_decision_ms,
    reference_frames_between,
    reference_unit_tokens,
    synth_store,
    track_entries,
    window_seconds,
)


RATES = SpeechRateModel.default()


class TestEstimateDuration:
    def test_english_words_over_rate(self):
        assert estimate_duration("the red car takes the lead now today", "en", RATES) == 2.0

    def test_japanese_characters_over_rate(self):
        assert estimate_duration("赤い車が先頭だ", "ja", RATES) == pytest.approx(7 / 8)
        assert estimate_duration("赤い車が先頭だ。", "ja", RATES) == 1.0

    def test_single_word(self):
        assert estimate_duration("go", "en", RATES) == 0.25

    def test_unconfigured_language(self):
        with pytest.raises(ValueError, match="no speech rate"):
            estimate_duration("bonjour", "fr", RATES)

    def test_whitespace_only_text(self):
        with pytest.raises(ValueError, match="countable"):
            estimate_duration("   ", "en", RATES)

    def test_word_counting_includes_punctuation_runs(self):
        assert count_units("go, go -- go!", "word") == 4

    def test_character_counting_skips_whitespace(self):
        assert count_units("あ い\nう", "character") == 3

    @settings(max_examples=300, deadline=None)
    @given(st.text(), st.sampled_from(["word", "character"]))
    def test_units_equal_the_per_character_rule(self, text, unit):
        expected = reference_unit_tokens(text, unit)
        assert list(unit_tokens(text, unit)) == expected
        assert count_units(text, unit) == len(expected)

    def test_whitespace_is_that_of_isspace_at_every_code_point(self):
        every = "".join(map(chr, range(0x110000)))
        assert unit_tokens(every, "character") == "".join(reference_unit_tokens(every, "character"))


class TestNextDecisionTime:
    """When `run_session` holds the decision that follows one at 10 s."""

    @staticmethod
    def _after_ten(kind, reply):
        """The time of the decision after the one at 10 s, which gets `reply`; all others wait."""
        cfg = StrategyConfig(kind=kind, step=2.0)
        backend = ScriptedBackend({5: reply})
        record = run_session(synth_store(duration=20.0), cfg, backend, SimulatedClock(), prompt_set())
        times = [s.time for s in record.steps]
        assert times[5] == 10.0
        return times[6]

    def test_fixed_ignores_outcome(self):
        assert self._after_ten(StrategyKind.FEEDBACK, "<WAIT>") == 12.0
        assert self._after_ten(StrategyKind.FEEDBACK, "a long sentence about cars") == 12.0

    def test_realtime_delays_by_spoken_duration(self):
        text = " ".join(["word"] * 21)  # 21 words / 4 wps = 5.25 s
        assert self._after_ten(StrategyKind.REALTIME, text) == 15.25

    def test_realtime_floors_at_step(self):
        assert self._after_ten(StrategyKind.REALTIME, "go") == 12.0

    def test_realtime_wait_uses_step(self):
        assert self._after_ten(StrategyKind.REALTIME, "<WAIT>") == 12.0

    @settings(max_examples=300, deadline=None)
    @given(
        duration_ms=st.integers(0, 30_000),
        step_ms=st.integers(1, 5_000),
        realtime=st.booleans(),
        spoken_ms=st.lists(st.one_of(st.none(), st.integers(0, 8_000)), max_size=40),
    )
    def test_with_replies_that_arrive_at_once_it_is_the_reference_schedule(
        self, duration_ms, step_ms, realtime, spoken_ms
    ):
        times: list[int] = []
        t = 0
        while t <= duration_ms:
            spoken = spoken_ms[len(times)] if len(times) < len(spoken_ms) else None
            times.append(t)
            t = next_query_ms(realtime, step_ms, t, spoken, arrival_ms=t)
        assert times == reference_decision_ms(duration_ms, step_ms, realtime, spoken_ms)

    @settings(max_examples=300, deadline=None)
    @given(
        realtime=st.booleans(),
        step_ms=st.integers(1, 5_000),
        t_ms=st.integers(0, 10**7),
        spoken_ms=st.one_of(st.none(), st.integers(0, 10**6)),
        arrival_ms=st.integers(0, 2 * 10**7),
    )
    def test_a_query_is_never_before_its_arrival_or_a_step_on(
        self, realtime, step_ms, t_ms, spoken_ms, arrival_ms
    ):
        after = next_query_ms(realtime, step_ms, t_ms, spoken_ms, arrival_ms)
        assert after >= arrival_ms and after >= t_ms + step_ms


class TestSessionWindows:
    def test_fixed_looks_back_one_step(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        record = run_session(store, cfg, ScriptedBackend(), SimulatedClock(), prompt_set())
        assert record.steps[3].time == 6.0
        assert window_seconds(record.steps[3].window) == [4, 5]

    def test_realtime_covers_elapsed_span(self):
        store = synth_store(duration=20.0)
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=2.0)
        # 40 words at 4 per second, then 21: queries at 0, 10 and 15.25 s.
        backend = ScriptedBackend({0: "go " * 40, 1: "go " * 21})
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert [s.time for s in record.steps[:3]] == [0.0, 10.0, 15.25]
        assert window_seconds(record.steps[2].window) == [10, 11, 12, 13, 14, 15]

    def test_any_kind_at_zero_sees_opening_frame(self):
        store = synth_store(duration=10.0)
        for kind in StrategyKind:
            cfg = StrategyConfig(kind=kind, step=2.0)
            record = run_session(store, cfg, ScriptedBackend(), SimulatedClock(), prompt_set())
            assert window_seconds(record.steps[0].window) == [0]

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(list(StrategyKind)),
        step_ms=st.one_of(st.sampled_from([250, 500]), st.integers(100, 3000)),
        cap=st.integers(1, 6),
        duration_ms=st.integers(0, 20_000),
        replies=st.lists(
            st.sampled_from(["<WAIT>", "", "go", "the red car leads", "go " * 9]),
            min_size=1,
            max_size=6,
        ),
    )
    # Frame 1 exists from 1 s on, so the stateless decision at 0.5 s cannot show it.
    @example(kind=StrategyKind.STATELESS, step_ms=250, cap=30, duration_ms=2000, replies=[""])
    def test_no_window_holds_a_frame_from_after_its_decision(
        self, kind, step_ms, cap, duration_ms, replies
    ):
        store = synth_store(duration=from_ms(duration_ms))
        cfg = StrategyConfig(kind=kind, step=from_ms(step_ms), window_cap=cap)
        script = {i: replies[i % len(replies)] for i in range(duration_ms // step_ms + 1)}
        record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompt_set())
        for step in record.steps:
            assert step.window
            assert max(window_seconds(step.window)) <= step.time


class TestStrategyConfig:
    def test_icl_shots_default_by_kind(self):
        assert StrategyConfig(kind=StrategyKind.FEEDBACK_ICL).icl_shots == 8
        assert StrategyConfig(kind=StrategyKind.FEEDBACK).icl_shots == 0

    def test_shots_rejected_outside_icl(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind=StrategyKind.FEEDBACK, icl_shots=4)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"icl_shots": -1}, "icl_shots must be non-negative"),
            ({"max_history": -1}, "max_history must be non-negative"),
        ],
    )
    def test_a_negative_count_is_refused(self, settings, message):
        with pytest.raises(ValueError) as info:
            StrategyConfig(kind=StrategyKind.FEEDBACK_ICL, **settings)
        assert str(info.value) == message

    def test_an_unknown_unit_is_refused(self):
        with pytest.raises(ValueError) as info:
            unit_tokens("the pack", "syllable")
        assert str(info.value) == "unit must be 'word' or 'character', got 'syllable'"

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind=StrategyKind.FEEDBACK, step=0.0)
        # Steps run on the millisecond grid, so one below 1 ms or between two
        # milliseconds is refused rather than rounded.
        for step in (0.0004, 0.0005, 0.0015, 2.0001):
            with pytest.raises(ValueError, match=f"whole number of milliseconds, got {step}"):
                StrategyConfig(kind=StrategyKind.FEEDBACK, step=step)
        assert StrategyConfig(kind=StrategyKind.FEEDBACK, step=0.001).step == 0.001

    @pytest.mark.parametrize(
        "kind, step, window_cap, shots, frames",
        [
            (StrategyKind.REALTIME, 2.0, 33, None, 33),
            (StrategyKind.FEEDBACK, 40.0, 40, None, 40),
            (StrategyKind.STATELESS, 32.001, 40, None, 33),
            (StrategyKind.FEEDBACK_ICL, 30.0, 30, 8, 30),
            (StrategyKind.FEEDBACK_ICL, 0.5, 30, 32, 1),
        ],
    )
    def test_windows_and_demonstrations_must_fit_the_attachment_limit(
        self, kind, step, window_cap, shots, frames
    ):
        with pytest.raises(ValueError) as info:
            StrategyConfig(kind=kind, step=step, window_cap=window_cap, icl_shots=shots)
        assert str(info.value) == (
            f"window_cap {window_cap}: windows of {frames} frames and {shots or 0} "
            "demonstrations exceed the attachment limit of 32"
        )

    @pytest.mark.parametrize(
        "kind, step, window_cap, shots",
        [
            (StrategyKind.REALTIME, 40.0, 32, None),
            (StrategyKind.FEEDBACK, 40.0, 32, None),
            (StrategyKind.STATELESS, 32.0, 40, None),
            (StrategyKind.FEEDBACK_ICL, 24.0, 30, 8),
            (StrategyKind.FEEDBACK_ICL, 0.5, 30, 31),
        ],
    )
    def test_a_config_at_the_attachment_limit_runs_to_the_end(self, kind, step, window_cap, shots):
        cfg = StrategyConfig(kind=kind, step=step, window_cap=window_cap, icl_shots=shots)
        prompts = prompt_set(demonstrations=_demos(cfg.icl_shots))
        record = run_session(synth_store(duration=100.0), cfg, ScriptedBackend(), SimulatedClock(), prompts)
        assert record.complete
        assert max(len(s.window) for s in record.steps) + cfg.icl_shots == 32

    def test_a_session_attaches_icl_shots_of_a_larger_demonstration_pool(self):
        attachments = []

        class Recording(ScriptedBackend):
            def generate(self, request):
                attachments.append(request.prompt.attachments)
                return super().generate(request)

        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK_ICL, step=2.0)
        prompts = prompt_set(demonstrations=_demos(31))
        store = synth_store(duration=10.0)
        record = run_session(store, cfg, Recording(), SimulatedClock(), prompts)
        assert record.complete
        # The init prompt carries none; each decision prompt the first eight.
        demo_counts = [sum(uri.startswith("file:///demo/") for uri in a) for a in attachments]
        assert demo_counts == [0] + [8] * (len(record.steps) - 1)
        first_eight = tuple(f"file:///demo/{i}.jpg" for i in range(8))
        assert all(a[:8] == first_eight for a in attachments[1:])

    @settings(max_examples=150, deadline=None)
    @given(
        config=st.sampled_from(StrategyKind).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.integers(100, 40_000),
                st.integers(1, 40),
                st.one_of(st.none(), st.integers(0, 40))
                if kind is StrategyKind.FEEDBACK_ICL
                else st.sampled_from([None, 0]),
            )
        ),
        duration_ms=st.integers(0, 30_000),
        speech=st.dictionaries(st.integers(0, 300), st.integers(1, 200), max_size=8),
    )
    def test_the_config_alone_keeps_every_request_within_the_attachment_limit(
        self, config, duration_ms, speech
    ):
        kind, step_ms, window_cap, shots = config
        # A window of the most frames the kind sees: realtime's spans the whole
        # video; a fixed kind's one step, ending just past a whole second.
        start = 0.0 if kind is StrategyKind.REALTIME else (41_001 - step_ms) / 1000
        largest = len(frames_between(synth_store(duration=42.0), start, 41.001, window_cap))
        if shots is None:
            demos = 8 if kind is StrategyKind.FEEDBACK_ICL else 0
        else:
            demos = shots
        try:
            cfg = StrategyConfig(kind, step_ms / 1000, window_cap, icl_shots=shots)
        except ValueError as exc:
            assert "exceed the attachment limit" in str(exc)
            assert largest + demos > ATTACHMENT_LIMIT
            return
        assert largest + cfg.icl_shots <= ATTACHMENT_LIMIT
        counts = []

        class Recording(ScriptedBackend):
            def generate(self, request):
                counts.append(len(request.prompt.attachments))
                return super().generate(request)

        # Long utterances stretch realtime's next window over what they took to say.
        script = {i: " ".join(["go"] * words) for i, words in speech.items()}
        store = synth_store(duration=duration_ms / 1000)
        prompts = prompt_set(demonstrations=_demos(40))
        record = run_session(store, cfg, Recording(script), SimulatedClock(), prompts)
        assert record.complete and len(counts) == len(record.steps)
        assert max(counts) <= ATTACHMENT_LIMIT

    def test_from_name(self):
        assert StrategyKind("feedback-icl") is StrategyKind.FEEDBACK_ICL
        with pytest.raises(ValueError):
            StrategyKind("nope")


class _FailingBackend:
    model_id = "failing"

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.calls = 0

    def generate(self, request):
        index = self.calls
        self.calls += 1
        if index == self.fail_at:
            raise TransportError("boom")
        return GeneratorResponse("the race continues on", 0.0)


class _ClockPushingBackend:
    """Simulates a slow backend by advancing the session clock before replying."""

    model_id = "slow"

    def __init__(self, clock, delay: float):
        self.clock = clock
        self.delay = delay

    def generate(self, request):
        self.clock.advance_to(self.clock.now() + self.delay)
        return GeneratorResponse("<WAIT>", self.delay)


class TestRunSession:
    def test_fixed_wait_only_session(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        record = run_session(store, cfg, ScriptedBackend(), SimulatedClock(), prompt_set())
        assert [s.time for s in record.steps] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert record.track.utterances == ()
        assert record.complete

    def test_realtime_long_utterance_shifts_schedule(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=2.0)
        backend = ScriptedBackend({0: " ".join(["word"] * 16)})
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert [s.time for s in record.steps] == [0.0, 4.0, 6.0, 8.0, 10.0]
        assert len(record.track.utterances) == 1
        assert record.track.utterances[0].est_duration == 4.0

    def test_the_run_language_is_the_decision_templates(self):
        # 12 characters at 8 per second: 1.5 s, where one English word would take 0.25 s.
        store = synth_store(duration=4.0)
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=1.0)
        backend = ScriptedBackend({0: "赤い車が先頭に立ちました"})
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set("race-ja"))
        assert [u.est_duration for u in record.track.utterances] == [1.5]
        assert [s.time for s in record.steps] == [0.0, 1.5, 2.5, 3.5]
        assert record.language == "ja"
        assert "\n#language\tja\n" in render_trace(record, seed=0)

    @pytest.mark.parametrize(
        "name, language, other", [("race-en", "en", "ja"), ("race-ja", "ja", "en")]
    )
    def test_a_rate_model_without_the_run_language_fails_before_any_request(
        self, name, language, other
    ):
        rates = SpeechRateModel({other: SpeechRate(unit="word", rate=4.0)})
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, rate_model=rates)
        backend = _FailingBackend(fail_at=0)
        message = f"^no speech rate configured for language '{language}'"
        with pytest.raises(ValueError, match=message):
            run_session(synth_store(), cfg, backend, SimulatedClock(), prompt_set(name))
        assert backend.calls == 0

    def test_utterance_lasts_at_least_a_millisecond(self):
        rates = SpeechRateModel({"en": SpeechRate(unit="word", rate=5000.0)})
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=1.0, rate_model=rates)
        backend = ScriptedBackend({0: "go"})
        record = run_session(synth_store(duration=2.0), cfg, backend, SimulatedClock(), prompt_set())
        assert record.track.utterances[0].est_duration == 0.001
        assert "00:00:00,000 --> 00:00:00,001" in to_srt(record.track)

    def test_zero_length_video_runs_only_initialization(self):
        store = synth_store(duration=0.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        record = run_session(store, cfg, ScriptedBackend(), SimulatedClock(), prompt_set())
        assert len(record.steps) == 1
        assert record.steps[0].index == 0

    def test_stateless_history_is_always_empty(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.STATELESS, step=2.0)
        backend = ScriptedBackend(default="the race goes on and on")
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert all(s.history_len == 0 for s in record.steps)
        assert len(record.track.utterances) == 6

    def test_feedback_history_grows(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        backend = ScriptedBackend(default="the race goes on and on")
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert [s.history_len for s in record.steps] == [0, 1, 2, 3, 4, 5]

    def test_max_history_caps_context(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0, max_history=2)
        backend = ScriptedBackend(default="the race goes on and on")
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert [s.history_len for s in record.steps] == [0, 1, 2, 2, 2, 2]

    def test_deterministic_given_simulated_clock(self):
        store = synth_store(duration=20.0)
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=2.0)
        script = {i: "cars battle hard for the lead" for i in range(0, 12, 3)}
        rec_a = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompt_set())
        rec_b = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompt_set())
        assert rec_a == rec_b

    def test_backend_failure_yields_partial_record(self):
        store = synth_store(duration=10.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        record = run_session(store, cfg, _FailingBackend(fail_at=3), SimulatedClock(), prompt_set())
        assert not record.complete
        assert "step 3" in record.error
        assert len(record.steps) == 3

    def test_slow_backend_pushes_next_decision(self):
        store = synth_store(duration=20.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        clock = SimulatedClock()
        backend = _ClockPushingBackend(clock, delay=5.0)
        record = run_session(store, cfg, backend, clock, prompt_set())
        # Scheduled times would be 0,2,4..., but each reply lands 5 s later.
        assert [s.time for s in record.steps] == [0.0, 5.0, 10.0, 15.0, 20.0]

    def test_empty_response_noted_as_wait(self):
        store = synth_store(duration=2.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        backend = ScriptedBackend(default="")
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert all(s.utterance is None for s in record.steps)
        assert all(s.note == "empty-response-wait" for s in record.steps)

    def test_wait_plus_content_is_spoken_and_flagged(self):
        store = synth_store(duration=0.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        backend = ScriptedBackend({0: "WAIT, no - the red car crashes!"})
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        assert record.steps[0].utterance.text == "WAIT, no - the red car crashes!"
        assert record.steps[0].note == "wait-plus-content"

    def test_fixed_decision_count_grid(self):
        cfg_base = dict(window_cap=30)
        for duration in (1.0, 4.0, 7.0, 10.0, 15.5, 20.0):
            store = synth_store(duration=duration)
            for step in (1.0, 2.0, 5.0, 10.0):
                cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=step, **cfg_base)
                record = run_session(store, cfg, ScriptedBackend(), SimulatedClock(), prompt_set())
                assert len(record.steps) == int(duration // step) + 1, (duration, step)

    def test_realtime_never_overlaps(self):
        rng = random.Random(42)
        for trial in range(10):
            duration = rng.uniform(30.0, 90.0)
            store = synth_store(video_id=f"v{trial}", duration=duration)
            script = {
                i: " ".join(["word"] * rng.randint(1, 60)) if rng.random() < 0.6 else "<WAIT>"
                for i in range(200)
            }
            cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=2.0)
            record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompt_set())
            for a, b in zip(record.track.utterances, record.track.utterances[1:]):
                assert b.start >= a.end
            assert overlap_proportion(track_entries(record.track)) == 0.0


class TestMillisecondGrid:
    # Speaking rates per language, the non-dyadic 3 words/s and 7 characters/s among them.
    RATES = [
        ("en", "word", 3.0),
        ("en", "word", 4.0),
        ("en", "word", 2.5),
        ("ja", "character", 7.0),
        ("ja", "character", 8.0),
        ("ja", "character", 11.0),
    ]
    KINDS = [StrategyKind.STATELESS, StrategyKind.FEEDBACK, StrategyKind.REALTIME]

    @settings(max_examples=200, deadline=None)
    @given(
        # A step, and a duration of up to 40 steps, in whole milliseconds.
        schedule=st.integers(1, 5000).flatmap(
            lambda step_ms: st.tuples(st.just(step_ms), st.integers(0, 40 * step_ms))
        ),
        kind=st.sampled_from(KINDS),
        speech=st.sampled_from(RATES),
        # Units spoken at each decision; None waits.
        units=st.lists(st.one_of(st.none(), st.integers(1, 30)), max_size=60),
    )
    # At step 1.24 the decision at 32.24 s looks back to 31 s, which in floats
    # is 31.000000000000004: a window that drops the frame of second 31.
    @example(schedule=(1240, 40_000), kind=StrategyKind.STATELESS, speech=RATES[1], units=[])
    def test_session_keeps_the_integer_schedule_and_its_srt(self, schedule, kind, speech, units):
        step_ms, duration_ms = schedule
        language, unit, rate = speech
        piece = "go " if language == "en" else "あ"
        script = {i: (piece * n).strip() for i, n in enumerate(units) if n is not None}
        spoken_ms = [None if n is None else round(Fraction(1000 * n) / Fraction(rate)) for n in units]
        cfg = StrategyConfig(
            kind=kind,
            step=step_ms / 1000,
            rate_model=SpeechRateModel({language: SpeechRate(unit=unit, rate=rate)}),
        )
        store = synth_store(duration=duration_ms / 1000)
        prompts = prompt_set("race-en" if language == "en" else "race-ja")
        record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)

        realtime = kind is StrategyKind.REALTIME
        times_ms = reference_decision_ms(duration_ms, step_ms, realtime, spoken_ms)
        assert [s.time for s in record.steps] == [t / 1000 for t in times_ms]
        # Realtime looks back to the previous decision, the fixed kinds one step.
        starts_ms = [0, *times_ms[:-1]] if realtime else [max(0, t - step_ms) for t in times_ms]
        assert [s.window for s in record.steps] == [
            reference_frames_between(store, a / 1000, t / 1000, cfg.window_cap)
            for a, t in zip(starts_ms, times_ms)
        ]
        track = record.track
        assert [(u.start, u.end) for u in track.utterances] == [
            (t / 1000, (t + d) / 1000) for t, d in zip(times_ms, spoken_ms) if d is not None
        ]
        srt = to_srt(track)
        entries = parse_srt(srt)
        assert [(e.text, e.start, e.end) for e in entries] == [
            (u.text, u.start, u.end) for u in track.utterances
        ]
        read_back = reference_from_srt_text(srt, track.video_id, track.video_duration)
        assert speaking_timeline(read_back) == speaking_timeline(track)
        if realtime:
            for a, b in zip(track.utterances, track.utterances[1:]):
                assert b.start >= a.end
            assert overlap_proportion(track_entries(track)) == 0.0
            assert overlap_proportion(entries) == 0.0


def _demos(n):
    return tuple(
        Demonstration(f"file:///demo/{i}.jpg", f"demo commentary {i}") for i in range(n)
    )


class TestRendererInTheSession:
    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_records_equal_those_of_fresh_renders(self, kind, monkeypatch):
        prompts = prompt_set(demonstrations=_demos(3))
        rng = random.Random(kind.value)
        for trial in range(6):
            store = synth_store(video_id=f"v{trial}", duration=rng.uniform(10.0, 60.0))
            cfg = StrategyConfig(
                kind=kind,
                step=rng.choice([1.0, 2.0, 3.5]),
                window_cap=rng.choice([2, 30]),
                max_history=rng.choice([None, 0, 2]),
            )
            script = {
                i: " ".join(rng.choice(["red", "car", "leads", "gap"]) for _ in range(3))
                for i in range(80)
                if rng.random() < 0.4
            }
            record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)
            with monkeypatch.context() as m:
                m.setattr(strategies, "DecisionRenderer", ReferenceRenderer)
                fresh = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)
            assert record == fresh

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_history_is_serialized_once_per_change(self, kind, monkeypatch):
        """Only a history that does not extend the last one rendered is serialized
        in full; an extension formats only its new lines."""
        calls = []
        serialize = prompting.serialize_history
        monkeypatch.setattr(
            prompting, "serialize_history", lambda h: calls.append(len(h)) or serialize(h)
        )
        store = synth_store(duration=30.0)
        script = {2: "red car leads", 3: "blue car passes", 7: "gap closes", 20: "final lap"}
        prompts = prompt_set(demonstrations=_demos(2))
        # The first Speak turns 'none' into a line; a sliding window of 2 also
        # rebuilds at the third and fourth.
        for max_history, rebuilds in ((None, 1), (2, 3)):
            if kind is StrategyKind.STATELESS:
                rebuilds = 0
            cfg = StrategyConfig(kind=kind, step=1.0, max_history=max_history)
            calls.clear()
            record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)
            assert len(record.steps) == 31
            assert sum(s.utterance is not None for s in record.steps) == 4
            assert len(calls) == 1 + rebuilds

    def test_hashed_text_grows_with_the_history_not_its_square(self, monkeypatch):
        """Over 600 decisions with 200 Speaks, the renderer hashes each history
        line about once: the bytes it hashes stay within a constant factor of
        the history's, plus a fixed amount per decision (template and URIs)."""
        hashed = [0]

        class CountingHash:
            def __init__(self, data=b"", inner=None):
                self._inner = hashlib.sha256() if inner is None else inner
                self.update(data)

            def update(self, data):
                hashed[0] += len(data)
                self._inner.update(data)

            def copy(self):
                return CountingHash(inner=self._inner.copy())

            def hexdigest(self):
                return self._inner.hexdigest()

        monkeypatch.setattr(prompting, "hashlib", types.SimpleNamespace(sha256=CountingHash))
        store = synth_store(duration=599.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=1.0)
        script = {i: f"the red car leads lap {i} by a wide gap" for i in range(1, 600, 3)}
        decision = PromptTemplate(id="d", language="en", kind="decision", body="so far: {context}")
        prompts = PromptSet(init=prompt_set().init, decision=decision)
        record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)
        assert len(record.steps) == 600
        said = [s.utterance.text for s in record.steps if s.utterance is not None]
        assert len(said) == 200
        history_bytes = len(prompting.serialize_history(said).encode("utf-8"))
        # A rehash of the whole text per Speak would hash about 100 times the history.
        assert hashed[0] <= 2 * history_bytes + 600 * 64


class _ReadingBackend:
    """A chat backend's frame work without the HTTP: each request's frames are loaded
    before it is sent, as the body and the cache key load them. Replies come from
    `replies` in turn, each after advancing the clock by the next of `delays_ms`.
    Records per request its attachments, the frames it was handed and the frames it
    handed on."""

    model_id = "reading"

    def __init__(self, clock, replies, delays_ms):
        self.clock = clock
        self.replies = replies
        self.delays_ms = delays_ms
        self.sent = []

    def generate(self, request):
        index = len(self.sent)
        ahead = request.read_ahead
        flight = types.SimpleNamespace(attachments=request.prompt.attachments)
        flight.found = set(ahead) if ahead is not None else set()
        request._frames  # what the body and the cache key are built from
        flight.left = set(ahead) if ahead is not None else set()
        self.sent.append(flight)
        self.clock.advance_to(self.clock.now() + from_ms(self.delays_ms[index % len(self.delays_ms)]))
        return GeneratorResponse(self.replies[index % len(self.replies)], 0.0)


def _reading_session(store, cfg, prompts, replies, delays_ms, plain=False):
    """The record of a session run by a `_ReadingBackend`, its flights and the frame
    files read; with `plain`, the session's requests hand nothing on."""
    reads = Counter()

    def read_file(path):
        reads[path] += 1
        return path.encode()

    clock = SimulatedClock()
    backend = _ReadingBackend(clock, replies, delays_ms)
    generator = HandsNothingOn(backend) if plain else backend
    with mock.patch.object(backends, "_read_file", read_file):
        record = run_session(store, cfg, generator, clock, prompts)
    return record, backend.sent, reads


class TestReadAhead:
    """Each request is handed the frames its session's previous request read, and the
    session runs as one whose requests hand nothing on runs."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(list(StrategyKind)),
        step_ms=st.integers(250, 4000),
        cap=st.integers(1, 6),
        duration_ms=st.integers(0, 25_000),
        shots=st.integers(0, 3),
        replies=st.lists(
            st.sampled_from(["<WAIT>", "", "go", "the red car leads", "go " * 20]),
            min_size=1,
            max_size=6,
        ),
        delays_ms=st.lists(st.sampled_from([0, 0, 600, 2500]), min_size=1, max_size=4),
    )
    def test_each_frame_is_read_once_per_session_and_nothing_else_changes(
        self, kind, step_ms, cap, duration_ms, shots, replies, delays_ms
    ):
        store = synth_store(duration=from_ms(duration_ms))
        icl = kind is StrategyKind.FEEDBACK_ICL
        cfg = StrategyConfig(
            kind=kind, step=from_ms(step_ms), window_cap=cap, icl_shots=shots if icl else None
        )
        prompts = prompt_set(demonstrations=_demos(shots))
        record, sent, reads = _reading_session(store, cfg, prompts, replies, delays_ms)
        plain, plain_sent, plain_reads = _reading_session(
            store, cfg, prompts, replies, delays_ms, plain=True
        )
        assert record == plain
        assert to_srt(record.track) == to_srt(plain.track)
        assert render_trace(record, 0) == render_trace(plain, 0)
        assert set(reads.values()) == {1}  # each frame file read once in the session
        assert set(reads) == set(plain_reads)
        previous: set[str] = set()
        for flight in sent:
            # Handed exactly the previous request's frames, and hands on exactly its own.
            assert flight.found == previous
            assert flight.left == set(flight.attachments)
            previous = flight.left
        assert not any(flight.found for flight in plain_sent)


class TestGenerationRecord:
    def test_track_is_the_utterances_of_the_steps(self):
        store = synth_store(duration=6.0)
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        backend = ScriptedBackend({1: "red car leads", 3: "blue car passes"})
        record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
        said = [s.utterance for s in record.steps if s.utterance is not None]
        assert record.track == CommentaryTrack("v1", tuple(said), 6.0)
        assert [(u.start, u.text) for u in said] == [(2.0, "red car leads"), (6.0, "blue car passes")]
        # Derived, so it is no field: it takes no part in the record's repr.
        assert "track=" not in repr(record)

    def test_speech_rate_validation(self):
        with pytest.raises(ValueError):
            SpeechRate(unit="syllable", rate=4.0)
        with pytest.raises(ValueError):
            SpeechRate(unit="word", rate=0.0)

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_speech_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            SpeechRate(unit="word", rate=rate)

    @pytest.mark.parametrize("rate", [1e-320, 0.0099])
    def test_speech_rate_has_a_floor(self, rate):
        # Slower speech could time an utterance past the millisecond grid.
        with pytest.raises(ValueError, match=f"at least 0.01 units per second, got {rate}"):
            SpeechRate(unit="word", rate=rate)
        assert SpeechRate(unit="word", rate=0.01).rate == 0.01
