"""SRT formatting, lenient parsing, round trips, and overlap counting."""

import random
import warnings

import pytest

from commentary import CommentaryTrack, SrtEntry, Utterance, overlap_proportion, parse_srt, to_srt
from commentary.subtitles import SrtParseError, format_timestamp, parse_timestamp, track_entries

from helpers import random_track


def utt(start, dur, text="the red car leads"):
    return Utterance(text=text, start=start, est_duration=dur)


class TestFormatTimestamp:
    def test_fractional_duration(self):
        assert format_timestamp(8.616) == "00:00:08,616"

    def test_hours_minutes(self):
        assert format_timestamp(3661.5) == "01:01:01,500"

    def test_zero(self):
        assert format_timestamp(0.0) == "00:00:00,000"


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
