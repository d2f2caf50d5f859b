"""Core type invariants, the per-second timeline, and the clocks."""

import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commentary import (
    CommentaryTrack,
    SimulatedClock,
    Utterance,
    WallClock,
    speaking_timeline,
)

from helpers import random_track


def utt(start, dur, text="the red car leads", language="en"):
    return Utterance(text=text, language=language, start=start, est_duration=dur)


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

    def test_matches_measure_oracle(self):
        # Independent check: second s speaks iff the interval overlap has
        # positive measure.
        rng = random.Random(11)
        for _ in range(30):
            track = random_track(rng, duration=rng.uniform(5.0, 60.0))
            flags = speaking_timeline(track)
            for s, flag in enumerate(flags):
                measure = max(
                    (
                        max(0.0, min(u.end, s + 1) - max(u.start, s))
                        for u in track.utterances
                    ),
                    default=0.0,
                )
                assert flag == (measure > 0), f"second {s}"

    @given(st.integers(min_value=0, max_value=50))
    def test_whole_second_shift_shifts_timeline(self, k):
        # Boundary-free intervals: strictly inside their seconds.
        base = CommentaryTrack(
            "v", (utt(0.25, 0.5), utt(3.25, 1.5), utt(6.1, 0.2)), 10.0
        )
        shifted = CommentaryTrack(
            "v",
            tuple(
                Utterance(u.text, u.language, u.start + k, u.est_duration)
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
