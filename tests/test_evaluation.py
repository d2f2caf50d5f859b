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
    to_srt,
)
from commentary.core import from_ms
from commentary.evaluation import (
    BIN_COUNT,
    EmbeddingScorer,
    EvalReport,
    _lcs_length,
    _shared_run,
    reference_from_srt_text,
    reference_from_transcript_text,
)
from commentary.strategies import default_unit_for_language

from helpers import (
    WORDS,
    _unit_count,
    dp_lcs_length,
    random_track,
    reference_bin,
    reference_format_timestamp,
    reference_track_of_lines,
    serving_chat,
)

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


# Single characters, so that a string of them is a token sequence too.
CHAR_POOL = "abcde赤い車が先頭に立つ"


@st.composite
def shared_end_pairs(draw):
    """Two token sequences p + x + s and p + y + s, both lists or both strings,
    over 1-12 symbols: the middles drawn apart, equal, one a prefix or a suffix
    of the other, or one empty, and the sides in either order."""
    as_str = draw(st.booleans())
    alphabet = draw(
        st.lists(
            st.sampled_from(CHAR_POOL if as_str else TOKEN_POOL),
            min_size=1, max_size=12, unique=True,
        )
    )

    def tokens(max_size):
        return draw(st.lists(st.sampled_from(alphabet), max_size=max_size))

    p, x, s = tokens(80), tokens(120), tokens(80)
    shape = draw(st.sampled_from(["apart", "equal", "prefix", "suffix", "empty"]))
    if shape == "apart":
        y = tokens(120)
    elif shape == "equal":
        y = x
    elif shape == "prefix":
        y = x + tokens(40)
    elif shape == "suffix":
        y = tokens(40) + x
    else:
        x, y = [], tokens(120)
    a, b = p + x + s, p + y + s
    if draw(st.booleans()):
        a, b = b, a
    return ("".join(a), "".join(b)) if as_str else (a, b)


class _BinRecorder:
    """A scorer that scores the k-th scored bin k and keeps the candidate texts it
    was given, so a bin's score names the utterances that landed in it."""

    def __init__(self):
        self.candidates = []

    def score(self, candidate, reference):
        self.candidates.append(candidate)
        return float(len(self.candidates))


@st.composite
def ms_grid_bin_tracks(draw):
    """A track of 0-30 utterances named u0, u1, ... on the millisecond grid, many
    of them starting on a bin boundary or a millisecond before one."""
    duration_ms = draw(
        st.one_of(st.integers(1, 10**9), st.integers(1, 10**8).map(lambda n: n * BIN_COUNT))
    )
    boundary = st.tuples(st.integers(0, BIN_COUNT), st.sampled_from([0, -1])).map(
        lambda kd: -(-kd[0] * duration_ms // BIN_COUNT) + kd[1]
    )
    starts = draw(st.lists(st.one_of(st.integers(0, duration_ms), boundary), max_size=30))
    starts = sorted({ms for ms in starts if 0 <= ms <= duration_ms})
    utterances = [Utterance(f"u{i}", from_ms(ms), 0.001) for i, ms in enumerate(starts)]
    return track(utterances, from_ms(duration_ms))


def utt(start, dur, text="the red car leads"):
    return Utterance(text=text, start=start, est_duration=dur)


def track(utterances, duration=10.0, video_id="v"):
    return CommentaryTrack(video_id, tuple(utterances), duration)


@st.composite
def ms_grid_tracks(draw, duration_ms):
    """A track on the millisecond grid, its texts over the alphabet of `to_srt`'s
    property, its utterances free to overlap."""
    starts = draw(st.lists(st.integers(0, duration_ms), max_size=8, unique=True))
    utterances = [
        Utterance(
            draw(st.text(st.sampled_from("ab \n\t車"), min_size=1, max_size=8).filter(str.strip)),
            start / 1000,
            draw(st.integers(1, 20_000)) / 1000,
        )
        for start in sorted(starts)
    ]
    return track(utterances, duration_ms / 1000)


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

    @settings(max_examples=200, deadline=None)
    @given(shared_end_pairs())
    def test_lcs_of_sequences_sharing_their_ends_matches_dp(self, pair):
        a, b = pair
        assert _lcs_length(a, b) == _lcs_length(b, a) == dp_lcs_length(a, b)

    @settings(max_examples=200, deadline=None)
    @given(shared_end_pairs(), st.integers(0, 300))
    def test_shared_runs_are_the_longest_up_to_their_limit(self, pair, limit):
        a, b = pair
        limit = min(limit, len(a), len(b))

        def run(x, y):
            differing = (i for i, (u, v) in enumerate(zip(x, y)) if u != v)
            return next(differing, min(len(x), len(y)))

        assert _shared_run(a, b, limit) == min(run(a, b), limit)
        assert _shared_run(a, b, limit, from_end=True) == min(run(a[::-1], b[::-1]), limit)


class TestBinnedSimilarity:
    @settings(max_examples=300, deadline=None)
    @given(ms_grid_bin_tracks())
    def test_an_utterance_lands_in_the_bin_of_its_start_in_whole_ms(self, t):
        recorder = _BinRecorder()
        scores = binned_similarity(t, t, recorder)
        landed = {
            name: b
            for b, k in enumerate(scores)
            if k
            for name in recorder.candidates[int(k) - 1].split()
        }
        assert landed == {
            u.text: reference_bin(u.start, t.video_duration) for u in t.utterances
        }

    def test_a_start_on_a_bin_boundary_opens_that_bin(self):
        # In floats, 1.097 * 10 / 10.97 is just under 1, which put this line in bin 0.
        t = track([utt(1.097, 9.873)], duration=10.97)
        assert binned_similarity(t, t, LexicalOverlapScorer()) == [0.0, 1.0] + [0.0] * 8

    @pytest.mark.parametrize("duration", [0.0, 0.0004])
    def test_a_duration_of_zero_whole_ms_scores_zero_everywhere(self, duration):
        t = track([utt(0.0, 1.0)], duration=duration)
        assert binned_similarity(t, t, LexicalOverlapScorer()) == [0.0] * BIN_COUNT

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

    def test_tracks_of_other_durations_are_refused(self):
        with pytest.raises(ValueError) as info:
            binned_similarity(track([], 10.0), track([], 12.0), LexicalOverlapScorer())
        assert str(info.value) == "duration mismatch: 10.0 vs 12.0"

    def test_a_report_of_other_than_ten_bins_is_refused(self):
        with pytest.raises(ValueError) as info:
            EvalReport(1.0, 0.0, (0.0,) * 9, 0.0, 0, 0)
        assert str(info.value) == "bin_scores must hold 10 values"

    def test_length_always_ten(self):
        rng = random.Random(8)
        for _ in range(10):
            duration = rng.uniform(3.0, 400.0)
            gen = random_track(rng, duration=duration)
            ref = random_track(rng, duration=duration)
            assert len(binned_similarity(gen, ref, LexicalOverlapScorer())) == 10


@pytest.fixture(scope="module")
def embed_server():
    with serving_chat() as server:
        yield server


def _self_cosine(server, vector):
    """The embedding scorer's cosine of `vector` against itself, answered by `server`."""
    server.embedding = vector
    scorer = EmbeddingScorer(base_url=f"http://127.0.0.1:{server.server_address[1]}", model_id="e")
    try:
        return scorer.score("a", "a")
    finally:
        scorer.close()


class TestScorers:
    def test_lexical_f1_hand_computed(self):
        scorer = LexicalOverlapScorer()
        # overlap {a, c} of 3 and 3 tokens: P = R = 2/3.
        assert scorer.score("a b c", "a c d") == pytest.approx(2 / 3)
        assert scorer.score("a b", "c d") == 0.0  # no overlap

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

    @pytest.mark.parametrize("unit", ["word", "character"])
    @pytest.mark.parametrize("empty", ["", " \t\n "], ids=["empty", "whitespace"])
    def test_lexical_side_with_no_units_scores_zero(self, unit, empty):
        scorer = LexicalOverlapScorer(unit=unit)
        assert scorer.score(empty, "赤い car") == 0.0
        assert scorer.score("赤い car", empty) == 0.0
        assert scorer.score(empty, empty) == 0.0

    def test_embedding_scorer_cosine(self, monkeypatch):
        scorer = EmbeddingScorer(base_url="http://example.invalid", model_id="embed")
        vectors = {"a b": [1.0, 0.0], "b a": [0.0, 2.0], "same": [3.0, 4.0]}
        monkeypatch.setattr(scorer, "_embed", lambda texts: [vectors[t] for t in texts])
        assert scorer.score("a b", "b a") == pytest.approx(0.0)
        assert scorer.score("same", "same") == pytest.approx(1.0)

    @pytest.mark.parametrize("vector", [[1e200, 0.0], [1e-170, 0.0]], ids=["huge", "tiny"])
    def test_embedding_scorer_cosine_of_extreme_components(self, embed_server, vector):
        # Unscaled, [1e200, 0] overflows to inf / inf (NaN) and [1e-170, 0] underflows to 0.
        assert _self_cosine(embed_server, vector) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-300, 1e300),
                st.floats(-1e300, -1e-300),
            ),
            min_size=1,
            max_size=64,
        ).filter(any)
    )
    def test_embedding_scorer_scores_a_nonzero_vector_one_against_itself(
        self, embed_server, vector
    ):
        assert _self_cosine(embed_server, vector) == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_embedding_scorer_scores_a_zero_vector_zero(self, embed_server):
        assert _self_cosine(embed_server, [0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("candidate, reference", [(" \n", "the pack"), ("the pack", "")])
    def test_embedding_scorer_scores_a_blank_text_zero_without_a_request(
        self, embed_server, candidate, reference
    ):
        sent = len(embed_server.requests)
        base = f"http://127.0.0.1:{embed_server.server_address[1]}"
        scorer = EmbeddingScorer(base_url=base, model_id="e")
        assert scorer.score(candidate, reference) == 0.0
        assert len(embed_server.requests) == sent

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

    def test_unit_counts_are_whole_track_totals(self):
        gen = track([utt(0.0, 1.0, "one two three"), utt(5.0, 1.0, "four five")])
        report = evaluate(gen, track([]), LexicalOverlapScorer(), "en")
        assert (report.gen_words, report.ref_words) == (5, 0)
        ja = track([utt(0.0, 1.0, "赤い車"), utt(5.0, 1.0, "先頭だ")])
        assert evaluate(ja, ja, LexicalOverlapScorer(unit="character"), "ja").gen_words == 6

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 120_000), st.sampled_from(["en", "ja"]))
    def test_unit_counts_are_the_sums_over_utterances(self, data, duration_ms, language):
        gen = data.draw(ms_grid_tracks(duration_ms))
        ref = data.draw(ms_grid_tracks(duration_ms))
        scorer = LexicalOverlapScorer(default_unit_for_language(language))
        report = evaluate(gen, ref, scorer, language)
        assert (report.gen_words, report.ref_words) == (
            _unit_count(gen, language),
            _unit_count(ref, language),
        )

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
        gen = reference_from_srt_text(text, "v", 2.0)
        assert gen.utterances[0].end == gen.utterances[1].start
        assert evaluate(gen, gen, LexicalOverlapScorer(), "en").overlap == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 120_000), st.sampled_from(["en", "ja"]))
    def test_a_track_scores_as_its_srt_read_back(self, data, duration_ms, language):
        gen = data.draw(ms_grid_tracks(duration_ms))
        ref = data.draw(ms_grid_tracks(duration_ms))
        scorer = LexicalOverlapScorer(default_unit_for_language(language))
        read_back = reference_from_srt_text(to_srt(gen), gen.video_id, gen.video_duration)
        assert evaluate(read_back, ref, scorer, language) == evaluate(gen, ref, scorer, language)

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
        ref = reference_from_srt_text(text, "v", 10.0)
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
        ref = reference_from_srt_text(text, "v", 10.0)
        assert [(u.start, u.text, u.est_duration) for u in ref.utterances] == [
            (2.0, "the race begins now in the rain", 2.5),
            (5.0, "a bold move", 1.0),
        ]

    def test_transcript_lines_with_tied_starts_merge(self):
        text = "2\tthe race\n5\ta bold move\n2\tbegins now in the rain\n2.0\tat last\n"
        ref = reference_from_transcript_text(text, "v", 10.0, "en")
        # Each line's duration is its words at 4 words/s; a merged line lasts the longest.
        assert [(u.start, u.text, u.est_duration) for u in ref.utterances] == [
            (2.0, "the race begins now in the rain at last", 1.25),
            (5.0, "a bold move", 0.75),
        ]

    def test_srt_entries_past_duration_dropped(self):
        text = "1\n00:00:20,000 --> 00:00:21,000\ntoo late to count\n"
        ref = reference_from_srt_text(text, "v", 10.0)
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


# Reference lines: (start ms, duration ms, words), starts on a coarse grid so that
# ties are common, and up to 12 s against a 10 s video so that some lines are dropped.
REFERENCE_LINES = st.lists(
    st.tuples(
        st.integers(0, 24).map(lambda half_seconds: half_seconds * 500),
        st.integers(1, 4000),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join),
    ),
    max_size=12,
)


class TestReferenceLoadersMatchTheOracle:
    """Both loaders: lines in any order, tied starts merged, lines past the end dropped."""

    @settings(max_examples=100, deadline=None)
    @given(REFERENCE_LINES)
    def test_srt(self, lines):
        spans = [(start / 1000, (start + span) / 1000, words) for start, span, words in lines]
        text = "\n".join(
            f"{i}\n{reference_format_timestamp(start)} --> "
            f"{reference_format_timestamp(end)}\n{words}\n"
            for i, (start, end, words) in enumerate(spans, 1)
        )
        expected = reference_track_of_lines(
            [(start, words, end - start) for start, end, words in spans], "v", 10.0
        )
        assert reference_from_srt_text(text, "v", 10.0) == expected

    @settings(max_examples=100, deadline=None)
    @given(REFERENCE_LINES)
    def test_transcript(self, lines):
        text = "".join(f"{start / 1000:g}\t{words}\n" for start, _, words in lines)
        expected = reference_track_of_lines(
            [(start / 1000, words, len(words.split()) / 4.0) for start, _, words in lines],
            "v", 10.0,
        )
        assert reference_from_transcript_text(text, "v", 10.0, "en") == expected
