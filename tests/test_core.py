"""Core type invariants, the per-second timeline, and the clocks."""

import copy
import math
import pickle
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commentary import (
    BUILTIN_TEMPLATES,
    CommentaryTrack,
    Demonstration,
    GeneratorResponse,
    LexicalOverlapScorer,
    PromptSet,
    ScriptedBackend,
    SimulatedClock,
    Speak,
    StrategyConfig,
    StrategyKind,
    Utterance,
    Wait,
    WallClock,
    cli,
    evaluate,
    render_init,
    run_session,
    speaking_timeline,
)
from commentary.backends import GeneratorRequest
from commentary.core import Record, check_seconds, entries_ending, from_ms, replace, to_ms
from commentary.prompting import RenderedPrompt
from commentary.subtitles import SrtEntry

from helpers import prompt_set, random_track, reference_speaking_timeline, synth_store


def utt(start, dur, text="the red car leads"):
    return Utterance(text=text, start=start, est_duration=dur)


class TestUtterance:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            utt(0.0, 1.0, text="   ")

    def test_rejects_wait_token(self):
        with pytest.raises(ValueError):
            utt(0.0, 1.0, text="<WAIT>")

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            utt(0.0, 0.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            utt(-1.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            utt(float("nan"), 1.0)

    @pytest.mark.parametrize(
        "start, dur", [(1.5, 0.0004), (1.5004, 0.0004)], ids=["ends-at-start", "ends-before"]
    )
    def test_rejects_a_duration_that_ends_no_later_than_its_start(self, start, dur):
        # Summed in whole milliseconds, 0.0004 s adds nothing to the start.
        with pytest.raises(ValueError, match=f"est_duration {dur} must end after start {start}"):
            utt(start, dur)

    def test_a_time_past_the_millisecond_grid_is_a_value_error(self):
        with pytest.raises(ValueError, match="1e\\+306 seconds is past the millisecond grid"):
            utt(0.0, 1e306)
        with pytest.raises(ValueError, match="seconds is past the millisecond grid"):
            to_ms(1e308, round_up=True)
        with pytest.raises(ValueError, match="more time than a float holds"):
            from_ms(10**400)


class TestCommentaryTrack:
    def test_rejects_equal_starts(self):
        with pytest.raises(ValueError):
            CommentaryTrack("v", (utt(1.0, 1.0), utt(1.0, 2.0)), 10.0)

    def test_rejects_decreasing_starts(self):
        with pytest.raises(ValueError):
            CommentaryTrack("v", (utt(2.0, 1.0), utt(1.0, 2.0)), 10.0)

    def test_rejects_start_after_end_of_video(self):
        with pytest.raises(ValueError):
            CommentaryTrack("v", (utt(11.0, 1.0),), 10.0)

    def test_start_at_video_end_is_allowed(self):
        track = CommentaryTrack("v", (utt(10.0, 1.0),), 10.0)
        assert track.utterances[0].start == 10.0


class TestUtteranceInterval:
    def test_plain(self):
        u = utt(10.0, 2.0)
        assert (u.start, u.end) == (10.0, 12.0)

    def test_short(self):
        u = utt(0.0, 0.25)
        assert (u.start, u.end) == (0.0, 0.25)

    def test_fractional(self):
        u = utt(7.5, 3.5)
        assert (u.start, u.end) == (7.5, 11.0)


@st.composite
def arbitrary_tracks(draw):
    """Tracks of up to 8 utterances at any starts, of any durations an utterance takes."""
    duration = draw(st.floats(0.0, 50.0))
    spans = draw(st.dictionaries(st.floats(0.0, duration), st.floats(0.0, 60.0), max_size=8))
    utterances = []
    for start, dur in sorted(spans.items()):
        try:
            utterances.append(utt(start, dur))
        except ValueError:  # a zero duration, or one that ends no later than its start
            pass
    return CommentaryTrack("v", tuple(utterances), duration)


class TestSpeakingTimeline:
    def test_empty_track(self):
        track = CommentaryTrack("v", (), 5.0)
        assert speaking_timeline(track) == [False] * 5

    def test_single_utterance(self):
        track = CommentaryTrack("v", (utt(1.0, 2.0),), 5.0)
        assert speaking_timeline(track) == [False, True, True, False, False]

    def test_fractional_boundaries(self):
        track = CommentaryTrack("v", (utt(0.5, 1.0),), 3.0)
        assert speaking_timeline(track) == [True, True, False]

    def test_touch_at_point_does_not_count(self):
        # Interval [1, 2) touches second 2 only at a single point.
        track = CommentaryTrack("v", (utt(1.0, 1.0),), 3.0)
        assert speaking_timeline(track) == [False, True, False]

    def test_length_is_ceil_of_duration(self):
        rng = random.Random(7)
        for _ in range(50):
            duration = rng.uniform(0.1, 200.0)
            track = random_track(rng, duration=duration)
            assert len(speaking_timeline(track)) == math.ceil(duration)

    @given(arbitrary_tracks())
    def test_matches_measure_oracle(self, track):
        assert speaking_timeline(track) == reference_speaking_timeline(track)

    @given(st.integers(min_value=0, max_value=50))
    def test_whole_second_shift_shifts_timeline(self, k):
        # Boundary-free intervals: strictly inside their seconds.
        base = CommentaryTrack(
            "v", (utt(0.25, 0.5), utt(3.25, 1.5), utt(6.1, 0.2)), 10.0
        )
        shifted = CommentaryTrack(
            "v",
            tuple(
                Utterance(u.text, u.start + k, u.est_duration)
                for u in base.utterances
            ),
            10.0 + k,
        )
        assert speaking_timeline(shifted) == [False] * k + speaking_timeline(base)

    def test_true_seconds_bounded_by_ceil_durations(self):
        rng = random.Random(13)
        for _ in range(40):
            track = random_track(rng, duration=rng.uniform(5.0, 120.0))
            bound = sum(math.ceil(u.est_duration) + 1 for u in track.utterances)
            assert sum(speaking_timeline(track)) <= bound


class TestClocks:
    def test_simulated_advances_and_never_rewinds(self):
        clock = SimulatedClock()
        clock.advance_to(5.0)
        assert clock.now() == 5.0
        clock.advance_to(3.0)
        assert clock.now() == 5.0

    def test_simulated_now_is_monotonic(self):
        clock = SimulatedClock()
        seen = []
        for t in (0.0, 1.5, 1.0, 7.25, 2.0):
            clock.advance_to(t)
            seen.append(clock.now())
        assert seen == sorted(seen)

    @given(st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3))
    def test_simulated_advance_takes_what_check_seconds_takes(self, t):
        """NaN, infinities and negative times raise `check_seconds`'s own error."""
        clock = SimulatedClock()
        try:
            check_seconds(t, "t")
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                clock.advance_to(t)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            assert clock.now() == 0.0
        else:
            clock.advance_to(t)
            assert clock.now() == max(0.0, t)

    def test_wall_clock_sleeps_to_target(self):
        clock = WallClock()
        before = time.monotonic()
        clock.advance_to(0.05)
        elapsed = time.monotonic() - before
        assert elapsed >= 0.045
        assert clock.now() >= 0.05

    def test_wall_clock_past_target_is_noop(self):
        clock = WallClock()
        clock.advance_to(0.0)
        assert clock.now() >= 0.0


def request():
    prompt = RenderedPrompt(
        text="t", attachments=("data:image/jpeg;base64,AAAA",), digest="0123456789abcdef"
    )
    return GeneratorRequest(prompt=prompt, model_id="m", decision_time=2.0)


class TestRecord:
    """The records' value semantics: those a frozen dataclass gave, and `replace`."""

    # The strings the frozen dataclasses printed, but for the language fields
    # since removed.
    @pytest.mark.parametrize(
        "record, expected",
        [
            (
                utt(1.5, 0.25, text="go"),
                "Utterance(text='go', start=1.5, est_duration=0.25)",
            ),
            (
                StrategyConfig(kind=StrategyKind.REALTIME, step=1.0),
                "StrategyConfig(kind=<StrategyKind.REALTIME: 'realtime'>, step=1.0, "
                "window_cap=30, icl_shots=0, rate_model=SpeechRateModel(rates=(('en', "
                "SpeechRate(unit='word', rate=4.0)), ('ja', SpeechRate(unit='character', "
                "rate=8.0)))), max_history=None)",
            ),
            (
                SrtEntry(index=1, start=0.5, end=2.0, text="a bold move"),
                "SrtEntry(index=1, start=0.5, end=2.0, text='a bold move')",
            ),
            (
                request(),
                "GeneratorRequest(prompt=RenderedPrompt(text='t', "
                "attachments=('data:image/jpeg;base64,AAAA',), digest='0123456789abcdef'), "
                "model_id='m', decision_time=2.0)",
            ),
            (Wait(), "Wait()"),
        ],
    )
    def test_repr(self, record, expected):
        assert repr(record) == expected

    def test_eq_and_hash_ignore_the_derived_end(self):
        u = utt(1.5, 0.25)
        assert u.end == 1.75
        assert u == utt(1.5, 0.25)
        assert hash(u) == hash((u.text, u.start, u.est_duration))
        assert u != utt(1.5, 0.5)

    def test_eq_and_hash_ignore_the_read_frame_bytes(self):
        read, fresh = request(), request()
        assert read._frames == {"data:image/jpeg;base64,AAAA": None}
        assert read == fresh
        assert hash(read) == hash(fresh) == hash((read.prompt, "m", 2.0))
        assert repr(read) == repr(fresh)

    def test_every_record_type_hashes(self, tmp_path):
        store = synth_store(duration=6.0)
        demo = Demonstration(store.frames[0], "lights out")
        prompts = PromptSet(*BUILTIN_TEMPLATES["race-en"], demonstrations=(demo,))
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK_ICL, icl_shots=1)
        backend = ScriptedBackend({1: "the red car leads"})
        record = run_session(store, cfg, backend, SimulatedClock(), prompts)
        step = record.steps[1]
        request = GeneratorRequest(render_init(prompts.init, step.window), "m")
        instances = [
            record, step, step.utterance, record.track,
            cfg, cfg.rate_model, cfg.rate_model.rates[0][1], store, prompts, prompts.init, demo,
            request, request.prompt, GeneratorResponse("go", 0.0), Speak("go"), Wait(),
            evaluate(record.track, record.track, LexicalOverlapScorer(), "en"),
            SrtEntry(1, 0.0, 1.0, "go"),
            cli.RunConfig(tmp_path / "m", cfg, prompts, "scripted:s", "off", None, tmp_path, 0),
        ]
        assert {type(r) for r in instances} == set(Record.__subclasses__())
        for r in instances:
            assert hash(r) == hash(copy.deepcopy(r)), r

    def test_records_of_other_types_differ(self):
        assert Wait() != ()
        assert hash(Wait()) == hash(())
        assert utt(1.5, 0.25) != SrtEntry(index=1, start=1.5, end=1.75, text="the red car leads")

    def test_fields_cannot_be_assigned_or_deleted(self):
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK)
        with pytest.raises(AttributeError, match="cannot assign to field 'step'"):
            cfg.step = 1.0
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            cfg.other = 1
        with pytest.raises(AttributeError, match="cannot delete field 'step'"):
            del cfg.step
        assert cfg.step == 2.0

    def test_replace_builds_a_checked_copy(self):
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, max_history=3)
        faster = replace(cfg, step=0.5)
        assert faster.step == 0.5
        assert faster == StrategyConfig(kind=StrategyKind.FEEDBACK, step=0.5, max_history=3)
        assert cfg.step == 2.0
        with pytest.raises(ValueError, match="step must be positive"):
            replace(cfg, step=0)
        with pytest.raises(TypeError):
            replace(cfg, steps=1.0)

    def test_default_rate_models_are_not_shared(self):
        a = StrategyConfig(kind=StrategyKind.FEEDBACK)
        b = StrategyConfig(kind=StrategyKind.FEEDBACK)
        assert a.rate_model == b.rate_model
        assert a.rate_model is not b.rate_model
        assert a.rate_model.rates is not b.rate_model.rates

    def test_generation_record_survives_pickle_and_deepcopy(self):
        store = synth_store(duration=12.0)
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=1.0)
        script = {1: "the red car takes the lead", 4: "into the last corner"}
        record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompt_set())
        assert record.track.utterances
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert copied == record
            assert copied is not record
            assert repr(copied) == repr(record)
            assert [u.end for u in copied.track.utterances] == [
                u.end for u in record.track.utterances
            ]


class TestEntriesEnding:
    """A listing by name suffix picks what `Path.glob("*<suffix>")` picks."""

    NAMES = (
        "a.srt", ".x.srt", ".srt", "X.SRT", "a.srt.bak", "summary.tsv", "b.tsv",
        "v.manifest", ".v.manifest", "V.MANIFEST", "notes.txt", "0123456789abcdef.txt",
    )

    def _dir(self, tmp_path):
        for name in self.NAMES:
            (tmp_path / name).write_text("", encoding="utf-8")
        (tmp_path / "x.manifest").mkdir()
        (tmp_path / "d.srt").mkdir()
        return tmp_path

    @pytest.mark.parametrize("suffix", [".srt", ".tsv", ".manifest", ".txt", ".SRT", "srt"])
    def test_picks_what_the_glob_picks(self, tmp_path, suffix):
        directory = self._dir(tmp_path)
        assert sorted(entries_ending(directory, suffix)) == sorted(directory.glob("*" + suffix))

    def test_picks_hidden_names_and_dirs_but_matches_case(self, tmp_path):
        directory = self._dir(tmp_path)
        names = sorted(p.name for p in entries_ending(directory, (".srt", ".manifest")))
        assert names == [".srt", ".v.manifest", ".x.srt", "a.srt", "d.srt", "v.manifest", "x.manifest"]

    def test_a_dir_that_is_missing_or_a_file_has_no_entries(self, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        for missing in (tmp_path / "missing", tmp_path / "file"):
            assert entries_ending(missing, ".txt") == list(missing.glob("*.txt")) == []
