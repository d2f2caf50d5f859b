"""SRT formatting, lenient parsing, round trips, and overlap counting."""

import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commentary import CommentaryTrack, SrtEntry, Utterance, overlap_proportion, parse_srt, to_srt
from commentary.subtitles import SrtParseError, parse_timestamp

from helpers import (
    random_track,
    reference_parse_srt,
    reference_to_srt,
    track_entries,
)


def _entries_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


# Hours whose milliseconds no float holds, and hours whose end is a float but
# past the millisecond grid: both must keep the per-timestamp error.
_HOURS_PAST_A_FLOAT = "9" * 310
_HOURS_PAST_THE_GRID = "1" + "0" * 302

_SPACE = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\xa0", "\u3000"])
_WELL_FORMED_TIMESTAMP = st.builds(
    "{}:{}:{}{}{}".format,
    st.sampled_from(["00", "0", "01", "123", "\u0661"]),
    st.sampled_from(["00", "5", "59"]),
    st.sampled_from(["00", "7", "59"]),
    st.sampled_from([",", "."]),
    st.sampled_from(["0", "00", "000", "5", "250"]),
)
_TIMESTAMP = st.one_of(
    _WELL_FORMED_TIMESTAMP,
    st.builds(
        "{}:{}:{}{}{}".format,
        st.sampled_from(["00", _HOURS_PAST_A_FLOAT, _HOURS_PAST_THE_GRID]),
        st.sampled_from(["00", "60", "123", "x"]),
        st.sampled_from(["00", "99", ""]),
        st.sampled_from([",", ".", ":"]),
        st.sampled_from(["000", "1234", ""]),
    ),
)
_LINE = "{}{}{}-->{}{}{}".format
_WELL_FORMED_LINE = st.builds(
    _LINE, _SPACE, _WELL_FORMED_TIMESTAMP, _SPACE, _SPACE, _WELL_FORMED_TIMESTAMP, _SPACE
)
# Mostly well-formed lines, so that most texts parse some entries first.
_TIMESTAMP_LINE = st.one_of(
    _WELL_FORMED_LINE,
    _WELL_FORMED_LINE,
    _WELL_FORMED_LINE,
    st.builds(_LINE, _SPACE, _TIMESTAMP, _SPACE, _SPACE, _TIMESTAMP, _SPACE),
    st.sampled_from(["", "-->", "00:00:01,000 -> 00:00:02,000", "1 --> 2 --> 3"]),
)
_ANY_BLOCK = st.builds(
    lambda index, stamp, text: "\n".join([index, stamp, *text]),
    st.sampled_from(["1", "2", "2", "10", " 3 ", "\u0661", "0", "x"]),
    _TIMESTAMP_LINE,
    st.lists(
        st.sampled_from(["hello", "  two words ", "赤い車", "multi\tline", " "]), max_size=3
    ),
)


def _well_formed_block(index, start_ms, span_ms, separator, text):
    stamps = [
        f"{ms // 3_600_000:02d}:{ms // 60_000 % 60:02d}:{ms // 1000 % 60:02d}{separator}"
        f"{ms % 1000:03d}"
        for ms in (start_ms, start_ms + span_ms)
    ]
    return "\n".join([str(index), " --> ".join(stamps), *text])


_WELL_FORMED_BLOCK = st.builds(
    _well_formed_block,
    st.integers(1, 12),
    st.sampled_from([0, 1000, 61_500]) | st.integers(0, 10**8),
    st.integers(1, 10**5),
    st.sampled_from([",", "."]),
    st.lists(st.sampled_from(["hello", "  two words ", "赤い車"]), min_size=1, max_size=2),
)
# Mostly well-formed blocks, so that a malformed one often follows parsed entries.
_BLOCK = st.one_of(_WELL_FORMED_BLOCK, _WELL_FORMED_BLOCK, _ANY_BLOCK)


def utt(start, dur, text="the red car leads"):
    return Utterance(text=text, start=start, est_duration=dur)


class TestToSrt:
    def test_first_entry_timestamp_line(self):
        track = CommentaryTrack("v", (utt(0.0, 8.616),), 60.0)
        assert "00:00:00,000 --> 00:00:08,616" in to_srt(track)

    def test_empty_track(self):
        assert to_srt(CommentaryTrack("v", (), 10.0)) == ""

    def test_hour_rollover(self):
        track = CommentaryTrack("v", (utt(3661.5, 1.0),), 4000.0)
        assert "01:01:01,500 --> 01:01:02,500" in to_srt(track)

    def test_exact_layout(self):
        track = CommentaryTrack("v", (utt(0.0, 1.0, "first words"), utt(2.0, 1.5, "second words")), 10.0)
        assert to_srt(track) == (
            "1\n00:00:00,000 --> 00:00:01,000\nfirst words\n"
            "\n"
            "2\n00:00:02,000 --> 00:00:03,500\nsecond words\n"
        )


class TestParseSrt:
    def test_an_entry_of_blank_text_is_refused(self):
        with pytest.raises(ValueError, match="^entry text must be non-empty$"):
            SrtEntry(1, 0.0, 1.0, " \n ")

    def test_parse_timestamp_values(self):
        assert parse_timestamp("00:00:20,000") == 20.0
        assert parse_timestamp("00:00:24,940") == 24.94

    def test_lenient_dot_separator(self):
        entries = parse_srt("1\n00:00:01.500 --> 00:00:02.000\nhello there\n")
        assert entries[0].start == 1.5

    def test_round_trip_single(self):
        track = CommentaryTrack("v", (utt(20.0, 4.94, "steady behind them"),), 60.0)
        entries = parse_srt(to_srt(track))
        assert entries == [SrtEntry(1, 20.0, 24.94, "steady behind them")]

    def test_crlf_and_bom(self):
        text = "﻿1\r\n00:00:00,000 --> 00:00:01,000\r\nhello\r\n\r\n"
        entries = parse_srt(text)
        assert entries[0].text == "hello"

    def test_malformed_timestamp_reports_entry_and_line(self):
        text = "1\n00:00:xx,000 --> 00:00:01,000\nhello\n"
        with pytest.raises(SrtParseError, match="entry 1, line 2"):
            parse_srt(text)

    def test_non_monotonic_index_parses_without_a_warning(self):
        text = (
            "2\n00:00:00,000 --> 00:00:01,000\na b\n\n"
            "1\n00:00:02,000 --> 00:00:03,000\nc d\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = parse_srt(text)
        assert [(e.index, e.text) for e in entries] == [(2, "a b"), (1, "c d")]

    def test_multiline_text_joined(self):
        text = "1\n00:00:00,000 --> 00:00:01,000\nline one\nline two\n"
        assert parse_srt(text)[0].text == "line one line two"

    def test_empty_input(self):
        assert parse_srt("") == []

    def test_random_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            track = random_track(rng, duration=rng.uniform(10.0, 500.0))
            entries = parse_srt(to_srt(track))
            assert len(entries) == len(track.utterances)
            for entry, u in zip(entries, track.utterances):
                assert round(entry.start * 1000) == round(u.start * 1000)
                assert round(entry.end * 1000) == round(u.end * 1000)
                assert entry.text == u.text


class TestAgainstTheLineByLineParser:
    """`parse_srt` and `to_srt` against the oracles in helpers.py: the parser that
    splits each timestamp line at its arrow, and the writer that builds an
    `SrtEntry` per utterance."""

    @settings(max_examples=500, deadline=None)
    @given(
        blocks=st.lists(_BLOCK, max_size=5),
        gaps=st.lists(st.sampled_from(["\n", "\n\n", "\n \n", "\n\n\n"]), min_size=5, max_size=5),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
    )
    @example(
        blocks=["1\n00:00:01,000 --> 00:00:02,000\nhello", "1\n00:00:01.5 --> 00:00:03,000\ntied"],
        gaps=["\n\n"] * 5, newline="\r\n", bom=True,
    )
    @example(
        blocks=[f"1\n{_HOURS_PAST_A_FLOAT}:00:00,000 --> 00:00:01,000\nx"],
        gaps=["\n"] * 5, newline="\n", bom=False,
    )
    @example(
        blocks=[f"1\n00:00:00,000 --> {_HOURS_PAST_THE_GRID}:00:00,000\nx"],
        gaps=["\n"] * 5, newline="\n", bom=False,
    )
    def test_any_srt_text_parses_as_the_oracle_parses_it(self, blocks, gaps, newline, bom):
        """Result or error type and message, over gaps and duplicates in the index,
        CRLF and CR, a BOM, dot separators, multi-line text, tied starts and
        times past a float or the millisecond grid."""
        text = "".join(block + gap for block, gap in zip(blocks, gaps))
        text = ("\ufeff" if bom else "") + text.replace("\n", newline)
        assert _entries_or_error(parse_srt, text) == _entries_or_error(reference_parse_srt, text)

    @settings(max_examples=300, deadline=None)
    @given(
        starts=st.lists(st.integers(0, 400_000_000), max_size=6, unique=True),
        spans=st.lists(st.integers(1, 10_000_000), min_size=6, max_size=6),
        texts=st.lists(
            st.text(st.sampled_from("ab \n\t車"), min_size=1, max_size=8).filter(
                lambda t: t.strip() and t.strip().casefold() != "<wait>"
            ),
            min_size=6, max_size=6,
        ),
    )
    def test_any_track_writes_as_the_entry_by_entry_writer_writes_it(self, starts, spans, texts):
        utterances = tuple(
            Utterance(text, start / 1000, span / 1000)
            for start, span, text in zip(sorted(starts), spans, texts)
        )
        track = CommentaryTrack("v", utterances, 400_000.0)
        assert to_srt(track) == reference_to_srt(track)

    @given(st.floats(0.0, 1e12) | st.integers(0, 10**12))
    def test_a_track_starting_at_any_time_writes_as_the_entry_by_entry_writer_writes_it(
        self, seconds
    ):
        track = CommentaryTrack("v", (utt(seconds, 1.0),), seconds)
        assert to_srt(track) == reference_to_srt(track)


class TestOverlapProportion:
    def entry(self, i, start, end):
        return SrtEntry(index=i, start=start, end=end, text="x y")

    def test_disjoint(self):
        entries = [self.entry(1, 0, 8), self.entry(2, 18, 24)]
        assert overlap_proportion(entries) == 0.0

    def test_partial_overlap_counts_adjacent_pairs(self):
        entries = [
            self.entry(1, 18, 24.1),
            self.entry(2, 20, 24.9),
            self.entry(3, 22, 26.9),
            self.entry(4, 30, 31),
        ]
        assert overlap_proportion(entries) == pytest.approx(2 / 3)

    def test_fewer_than_two_entries(self):
        assert overlap_proportion([]) == 0.0
        assert overlap_proportion([self.entry(1, 0, 5)]) == 0.0

    def test_sorts_internally(self):
        entries = [self.entry(1, 30, 31), self.entry(2, 18, 24.1), self.entry(3, 20, 24.9)]
        assert overlap_proportion(entries) == pytest.approx(1 / 2)

    def test_track_entries_match_utterances(self):
        track = CommentaryTrack("v", (utt(0.0, 1.0), utt(5.0, 2.0)), 10.0)
        entries = track_entries(track)
        assert [e.index for e in entries] == [1, 2]
        assert entries[1].end == 7.0
