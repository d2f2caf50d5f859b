"""Metric kernels: timing agreement, ROUGE-L, binned similarity, verbosity stats."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commentary import (
    CommentaryTrack,
    LexicalOverlapScorer,
    Utterance,
    binned_similarity,
    evaluate,
    rouge_l,
    timing_alignment,
    word_stats,
)
from commentary.evaluation import (
    EmbeddingScorer,
    _lcs_length,
    reference_from_srt_text,
    reference_from_transcript_text,
)

from helpers import WORDS, dp_lcs_length, random_track

# Word tokens and Japanese characters, so both ROUGE-L units are exercised.
TOKEN_POOL = sorted(set(WORDS) | set("赤い車が先頭に立つ青のドライバーはコーナーで抜く"))


@st.composite
def token_pairs(draw):
    """Two token lists over one alphabet of 1-30 symbols, each 0-300 long, so
    bit masks cross the 64- and 128-bit boundaries and tokens repeat heavily."""
    alphabet = draw(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=30, unique=True))

    def tokens():
        n = draw(st.integers(min_value=0, max_value=300))
        return draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))

    return tokens(), tokens()


def utt(start, dur, text="the red car leads", language="en"):
    return Utterance(text=text, language=language, start=start, est_duration=dur)


def track(utterances, duration=10.0, video_id="v"):
    return CommentaryTrack(video_id, tuple(utterances), duration)


def brute_force_lcs(a: tuple, b: tuple) -> int:
    """Independent LCS oracle: recursive with memoization."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


class TestTimingAlignment:
    def test_identical_tracks(self):
        t = track([utt(1.0, 2.0)])
        assert timing_alignment(t, t) == 1.0

    def test_total_disagreement(self):
        gen = track([utt(0.0, 10.0)])
        ref = track([])
        assert timing_alignment(gen, ref) == 0.0

    def test_worked_example(self):
        gen = track([utt(1.0, 2.0)])  # speaking seconds {1, 2}
        ref = track([utt(2.0, 2.0)])  # speaking seconds {2, 3}
        assert timing_alignment(gen, ref) == 0.8

    def test_duration_mismatch(self):
        with pytest.raises(ValueError, match="duration"):
            timing_alignment(track([], 10.0), track([], 12.0))

    def test_symmetric(self):
        rng = random.Random(3)
        for _ in range(20):
            duration = rng.uniform(5.0, 60.0)
            a = random_track(rng, duration=duration)
            b = random_track(rng, duration=duration)
            assert timing_alignment(a, b) == timing_alignment(b, a)

    def test_self_alignment_is_one(self):
        rng = random.Random(4)
        for _ in range(10):
            t = random_track(rng, duration=rng.uniform(5.0, 60.0))
            assert timing_alignment(t, t) == 1.0


class TestRougeL:
    def test_identical_strings(self):
        assert rouge_l("the red car wins", "the red car wins") == 100.0

    def test_worked_example(self):
        assert rouge_l("a b c d", "a c d e") == 75.0

    def test_empty_sides(self):
        assert rouge_l("anything", "") == 0.0
        assert rouge_l("", "anything") == 0.0

    def test_japanese_uses_characters(self):
        # LCS over characters: 赤い車 vs 赤い船 shares 赤い (2 of 3).
        score = rouge_l("赤い車", "赤い船", language="ja")
        assert score == pytest.approx(100.0 * 2 / 3)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(9)
        vocab = WORDS[:6]
        for _ in range(500):
            a = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            b = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            lcs = brute_force_lcs(a, b)
            if not a or not b or lcs == 0:
                expected = 0.0
            else:
                p = lcs / len(a)
                r = lcs / len(b)
                expected = 100.0 * (2 * p * r) / (p + r)
            assert rouge_l(" ".join(a), " ".join(b)) == expected

    @settings(max_examples=150, deadline=None)
    @given(token_pairs())
    def test_bit_parallel_lcs_matches_dp(self, pair):
        a, b = pair
        assert _lcs_length(a, b) == dp_lcs_length(a, b)


class TestBinnedSimilarity:
    def test_identical_tracks_score_one_in_occupied_bins(self):
        t = track([utt(5.0, 1.0), utt(55.0, 1.0)], duration=100.0)
        scores = binned_similarity(t, t, LexicalOverlapScorer())
        assert len(scores) == 10
        assert scores[0] == 1.0
        assert scores[5] == 1.0
        assert sum(1 for s in scores if s > 0) == 2

    def test_empty_gen_side_scores_zero(self):
        gen = track([], duration=100.0)
        ref = track([utt(35.0, 1.0)], duration=100.0)
        assert binned_similarity(gen, ref, LexicalOverlapScorer()) == [0.0] * 10

    def test_bin_membership_by_start(self):
        gen = track([utt(35.0, 1.0, "identical words here")], duration=100.0)
        ref = track([utt(39.0, 1.0, "identical words here")], duration=100.0)
        scores = binned_similarity(gen, ref, LexicalOverlapScorer())
        assert scores[3] == 1.0
        assert all(s == 0.0 for i, s in enumerate(scores) if i != 3)

    def test_start_at_duration_lands_in_last_bin(self):
        gen = track([utt(100.0, 1.0, "same words")], duration=100.0)
        ref = track([utt(99.0, 1.0, "same words")], duration=100.0)
        scores = binned_similarity(gen, ref, LexicalOverlapScorer())
        assert scores[9] == 1.0

    def test_length_always_ten(self):
        rng = random.Random(8)
        for _ in range(10):
            duration = rng.uniform(3.0, 400.0)
            gen = random_track(rng, duration=duration)
            ref = random_track(rng, duration=duration)
            assert len(binned_similarity(gen, ref, LexicalOverlapScorer())) == 10


class TestWordStats:
    def test_single_track(self):
        t = track([utt(0.0, 1.0, "one two three"), utt(5.0, 1.0, "four five")])
        stats = word_stats([t])
        assert stats.avg == stats.min == stats.max == 5

    def test_two_tracks(self):
        def of_words(n, vid):
            return track([utt(0.0, 1.0, " ".join(["w"] * n))], video_id=vid)

        stats = word_stats([of_words(180, "a"), of_words(866, "b")])
        assert stats.avg == 523
        assert stats.min == 180
        assert stats.max == 866

    def test_empty_track_counts_zero(self):
        stats = word_stats([track([])])
        assert stats.avg == stats.min == stats.max == 0

    def test_requires_tracks(self):
        with pytest.raises(ValueError):
            word_stats([])


class TestScorers:
    def test_lexical_f1_hand_computed(self):
        scorer = LexicalOverlapScorer()
        # overlap {a, c} of 3 and 3 tokens: P = R = 2/3.
        assert scorer.score("a b c", "a c d") == pytest.approx(2 / 3)

    def test_lexical_self_score_is_maximum(self):
        scorer = LexicalOverlapScorer()
        rng = random.Random(6)
        for _ in range(50):
            text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 15)))
            other = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 15)))
            assert scorer.score(text, text) == 1.0
            assert scorer.score(text, other) <= 1.0

    def test_lexical_character_unit(self):
        scorer = LexicalOverlapScorer(unit="character")
        assert scorer.score("赤い", "赤い") == 1.0

    def test_embedding_scorer_cosine(self, monkeypatch):
        scorer = EmbeddingScorer(base_url="http://example.invalid", model_id="embed")
        vectors = {"a b": [1.0, 0.0], "b a": [0.0, 2.0], "same": [3.0, 4.0]}
        monkeypatch.setattr(scorer, "_embed", lambda texts: [vectors[t] for t in texts])
        assert scorer.score("a b", "b a") == pytest.approx(0.0)
        assert scorer.score("same", "same") == pytest.approx(1.0)

    def test_embedding_scorer_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("COMMENTARY_EMBED_API_BASE", raising=False)
        with pytest.raises(ValueError):
            EmbeddingScorer()


class TestEvaluate:
    def test_self_evaluation(self):
        t = track([utt(0.0, 2.0), utt(5.0, 1.0, "another line of talk")])
        report = evaluate(t, t, LexicalOverlapScorer(), "en")
        assert report.alignment == 1.0
        assert report.rouge_l == 100.0
        assert report.overlap == 0.0
        assert report.gen_words == report.ref_words

    def test_empty_gen_against_reference(self):
        gen = track([], duration=10.0)
        ref = track([utt(2.0, 2.0)], duration=10.0)  # speaking {2, 3}
        report = evaluate(gen, ref, LexicalOverlapScorer(), "en")
        assert report.alignment == 0.8
        assert report.rouge_l == 0.0

    def test_entries_that_touch_in_the_srt_do_not_overlap_read_back(self):
        # Read back, the first entry lasts 0.010 - 0.001 s; its end is the
        # second entry's start to the millisecond, not a float sum past it.
        text = (
            "1\n00:00:00,001 --> 00:00:00,010\nthe red car\n\n"
            "2\n00:00:00,010 --> 00:00:01,000\ntakes the lead\n"
        )
        gen = reference_from_srt_text(text, "v", 2.0, "en")
        assert gen.utterances[0].end == gen.utterances[1].start
        assert evaluate(gen, gen, LexicalOverlapScorer(), "en").overlap == 0.0

    def test_overlapping_gen_track_reports_overlap(self):
        gen = track([utt(0.0, 5.0), utt(2.0, 5.0), utt(20.0, 1.0)], duration=30.0)
        ref = track([], duration=30.0)
        report = evaluate(gen, ref, LexicalOverlapScorer(), "en")
        assert report.overlap == pytest.approx(1 / 2)


class TestReferenceLoaders:
    def test_from_srt_text(self):
        text = (
            "1\n00:00:02,000 --> 00:00:04,500\nthe race begins\n\n"
            "2\n00:00:08,000 --> 00:00:09,000\na bold move\n"
        )
        ref = reference_from_srt_text(text, "v", 10.0, "en")
        assert len(ref.utterances) == 2
        assert ref.utterances[0].start == 2.0
        assert ref.utterances[0].est_duration == 2.5

    def test_srt_entries_with_tied_starts_merge(self):
        text = (
            "1\n00:00:02,000 --> 00:00:03,000\nthe race\n\n"
            "2\n00:00:05,000 --> 00:00:06,000\na bold move\n\n"
            "3\n00:00:02,000 --> 00:00:04,500\nbegins now\n\n"
            "4\n00:00:02,000 --> 00:00:03,500\nin the rain\n"
        )
        ref = reference_from_srt_text(text, "v", 10.0, "en")
        assert [(u.start, u.text, u.est_duration) for u in ref.utterances] == [
            (2.0, "the race begins now in the rain", 2.5),
            (5.0, "a bold move", 1.0),
        ]

    def test_srt_entries_past_duration_dropped(self):
        text = "1\n00:00:20,000 --> 00:00:21,000\ntoo late to count\n"
        ref = reference_from_srt_text(text, "v", 10.0, "en")
        assert ref.utterances == ()

    def test_from_transcript_text(self):
        text = "1.5\tthe race begins now\n8\tfour more quick words\n"
        ref = reference_from_transcript_text(text, "v", 10.0, "en")
        assert ref.utterances[0].start == 1.5
        assert ref.utterances[0].est_duration == 1.0  # 4 words / 4 wps
        assert ref.utterances[1].est_duration == 1.0

    def test_transcript_bad_line(self):
        with pytest.raises(ValueError):
            reference_from_transcript_text("no tab here\n", "v", 10.0, "en")

    def test_transcript_bad_start_names_the_line(self):
        with pytest.raises(ValueError) as exc:
            reference_from_transcript_text("1\tgo\n\nabc\tthe race\n", "v", 10.0, "en")
        assert str(exc.value) == "line 3: bad start time 'abc'"
