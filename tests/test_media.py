"""Manifest ingestion and frame-window selection."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commentary import frames_between, load_manifest
from commentary.core import replace
from commentary.media import FrameStore, ManifestError, ManifestGapError, WindowRangeError

from helpers import (
    reference_frames_between,
    reference_load_manifest,
    synth_store,
    window_seconds,
    write_manifest,
)


def _result_or_error(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def store_of(n, duration):
    frames = tuple(f"f/{s}.jpg" for s in range(n))
    return FrameStore(video_id="v1", video_duration=duration, frames=frames)


class TestLoadManifest:
    def test_complete_manifest(self, tmp_path):
        path = write_manifest(tmp_path / "v1.manifest", "v1", 10.0)
        store = load_manifest(path)
        assert store.video_id == "v1"
        assert store.video_duration == 10.0
        assert len(store.frames) == 10
        assert store.frames[3] == "file:///frames/v1/0003.jpg"

    def test_missing_second_names_the_gap(self, tmp_path):
        path = tmp_path / "gap.manifest"
        lines = ["#video_id\tv1\tduration\t10"]
        lines += [f"{s}\tfile:///f/{s}.jpg" for s in range(10) if s != 4]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ManifestGapError) as exc:
            load_manifest(path)
        assert exc.value.second == 4
        assert "4" in str(exc.value)

    @pytest.mark.parametrize("duration", ["1e12", "1e300"])
    def test_a_claimed_duration_past_the_file_reports_the_first_gap(self, tmp_path, duration):
        """Memory grows with the file, not with the duration its header claims."""
        path = tmp_path / "huge.manifest"
        path.write_text(f"#video_id\tv\tduration\t{duration}\n0\tf0.jpg\n", encoding="utf-8")
        with pytest.raises(ManifestGapError, match="second 1$") as exc:
            load_manifest(path)
        assert exc.value.second == 1

    def test_gap_error_names_the_file(self, tmp_path):
        path = tmp_path / "gap.manifest"
        path.write_text("#video_id\tv\tduration\t3\n0\tf0.jpg\n2\tf2.jpg\n", encoding="utf-8")
        with pytest.raises(ManifestGapError, match="second 1") as exc:
            load_manifest(path)
        assert str(path) in str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.one_of(
            st.binary(max_size=40),
            st.text(max_size=40).map(str.encode),
            st.tuples(
                st.text(max_size=6), st.sampled_from(["3", "2.5", "0", "-1", "nan", "x"])
            ).map(lambda h: f"#video_id\t{h[0]}\tduration\t{h[1]}".encode()),
        ),
        records=st.lists(
            st.one_of(
                st.binary(max_size=20),
                st.text(max_size=20).map(str.encode),
                st.tuples(st.integers(-2, 5), st.text(max_size=8)).map(
                    lambda r: f"{r[0]}\t{r[1]}".encode()
                ),
            ),
            max_size=6,
        ),
    )
    @example(header=b"#video_id\tv\tduration\t2", records=[b"0\tf\xff.jpg", b"1\tf.jpg"])
    def test_any_malformed_manifest_raises_value_error_naming_it(self, header, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.manifest"
            path.write_bytes(b"\n".join([header, *records]))
            try:
                load_manifest(path)
            except ValueError as exc:
                assert str(path) in str(exc)

    @settings(max_examples=400, deadline=None)
    @given(
        duration=st.sampled_from(["4", "3.5", "0", "-1", "nan", "inf", "x", "1e12", "1e300"]),
        lines=st.lists(
            st.one_of(
                st.tuples(
                    st.one_of(
                        st.integers(-1, 5).map(str),
                        st.sampled_from([" 2", "2 ", "+1", "03", "1_0", "\u0663", "x", ""]),
                    ),
                    st.sampled_from(
                        ["f.jpg", " f.jpg ", "f\u3000", "", " ", "a\0b", "a\tb", "ﬁ.jpg"]
                    ),
                ).map("\t".join),
                st.sampled_from(["", " ", "\t", " \t ", "\x0b", "1\t2\t3", "4"]),
            ),
            max_size=8,
        ),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
    )
    @example(duration="4", lines=[f"{s}\tf{s}.jpg" for s in range(4)], newline="\r\n", bom=True)
    @example(duration="1e12", lines=[], newline="\n", bom=False)
    @example(duration="1e12", lines=["0\ta.jpg", "1\tb.jpg"], newline="\n", bom=False)
    def test_a_manifest_reads_as_the_line_by_line_oracle_reads_it(
        self, duration, lines, newline, bom
    ):
        """Result or error type and message: gaps, duplicates, CRLF, a BOM, blank and
        whitespace lines, signed or spaced seconds and bad URIs alike. A header claiming
        far more seconds than the file holds reports its first gap without building a
        frame list of the claimed length."""
        text = newline.join([f"#video_id\tv\tduration\t{duration}", *lines])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.manifest"
            path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
            assert _result_or_error(load_manifest, path) == _result_or_error(
                reference_load_manifest, path
            )

    @pytest.mark.parametrize(
        "video_id", ["../escaped", "a/b", "/abs", "a\\b", "a\0b", ".", ".."]
    )
    def test_a_video_id_that_is_not_a_plain_file_name_is_refused(self, tmp_path, video_id):
        path = tmp_path / "v.manifest"
        path.write_text(f"#video_id\t{video_id}\tduration\t1\n0\ta.jpg\n", encoding="utf-8")
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: video id {video_id!r} must be a plain file name"

    @pytest.mark.parametrize("video_id", ["race01", "...", ".hidden", "a..b", "レース 1"])
    def test_a_plain_file_name_is_a_video_id(self, tmp_path, video_id):
        path = tmp_path / "v.manifest"
        path.write_text(f"#video_id\t{video_id}\tduration\t1\n0\ta.jpg\n", encoding="utf-8")
        assert load_manifest(path).video_id == video_id

    def test_fractional_duration_needs_ceil_coverage(self, tmp_path):
        path = write_manifest(tmp_path / "v2.manifest", "v2", 3.5)
        store = load_manifest(path)
        assert len(store.frames) == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "absent.manifest")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("video_id\tv1\t10\n0\tu\n", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_duplicate_second(self, tmp_path):
        path = tmp_path / "dup.manifest"
        path.write_text(
            "#video_id\tv1\tduration\t2\n0\ta.jpg\n1\tb.jpg\n1\tc.jpg\n", encoding="utf-8"
        )
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_second_outside_video(self, tmp_path):
        path = tmp_path / "out.manifest"
        path.write_text("#video_id\tv1\tduration\t2\n0\ta.jpg\n1\tb.jpg\n2\tc.jpg\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="outside"):
            load_manifest(path)

    def test_non_integer_second(self, tmp_path):
        path = tmp_path / "frac.manifest"
        path.write_text("#video_id\tv1\tduration\t1\n0.5\ta.jpg\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="non-integer"):
            load_manifest(path)

    def test_zero_duration_still_carries_frame_zero(self, tmp_path):
        path = tmp_path / "zero.manifest"
        path.write_text("#video_id\tv1\tduration\t0\n0\ta.jpg\n", encoding="utf-8")
        store = load_manifest(path)
        assert len(store.frames) == 1


class TestFramesBetween:
    def test_two_consecutive_frames(self):
        store = synth_store(duration=10.0)
        window = frames_between(store, 4.0, 6.0, cap=30)
        assert window_seconds(window) == [4, 5]

    def test_degenerate_window_yields_current_frame(self):
        store = synth_store(duration=10.0)
        window = frames_between(store, 0.0, 0.0, cap=30)
        assert window_seconds(window) == [0]

    def test_cap_keeps_newest(self):
        store = synth_store(duration=45.0)
        window = frames_between(store, 0.0, 45.0, cap=30)
        assert window_seconds(window) == list(range(15, 45))

    def test_fractional_end_includes_current_second(self):
        store = synth_store(duration=20.0)
        window = frames_between(store, 10.0, 15.25, cap=30)
        assert window_seconds(window) == [10, 11, 12, 13, 14, 15]

    def test_a_window_within_one_second_shows_no_later_frame(self):
        store = synth_store(duration=10.0)
        assert window_seconds(frames_between(store, 0.25, 0.5, cap=30)) == [0]
        assert window_seconds(frames_between(store, 2.5, 3.0, cap=30)) == [3]

    def test_degenerate_at_video_end_serves_last_frame(self):
        store = synth_store(duration=10.0)
        window = frames_between(store, 10.0, 10.0, cap=30)
        assert window_seconds(window) == [9]

    def test_integer_window_has_exact_count(self):
        store = synth_store(duration=60.0)
        for t in (0.0, 3.0, 7.5, 20.25):
            for n in (1, 2, 5, 10):
                window = frames_between(store, t, t + n, cap=30)
                assert len(window) == n, (t, n)

    def test_enlarging_keeps_newest_retained_frames(self):
        store = synth_store(duration=60.0)
        base = frames_between(store, 10.0, 20.0, cap=5)
        wider = frames_between(store, 5.0, 20.0, cap=5)
        assert base == wider

    def test_range_errors(self):
        store = synth_store(duration=10.0)
        with pytest.raises(WindowRangeError):
            frames_between(store, 5.0, 11.0, cap=30)
        with pytest.raises(WindowRangeError):
            frames_between(store, 6.0, 5.0, cap=30)
        with pytest.raises(ValueError):
            frames_between(store, 0.0, 5.0, cap=0)

    @pytest.mark.parametrize(
        "duration, t_a, t_b, cap",
        [
            (7.5, 7.5, 7.5, 30),  # t_a == t_b at a fractional end
            (10.0, 10.0, 10.0, 1),  # t_a == t_b at a whole end
            (0.0, 0.0, 0.0, 1),
            (0.4, 0.2, 0.4, 3),
            (40.0, 3.0, 40.0, 5),  # cap smaller than the window
            (12.75, 0.5, 12.75, 2),
            (10.0, 6.0, 5.0, 30),  # the errors stay the same
            (10.0, 5.0, 10.5, 30),
            (10.0, 0.0, 5.0, 0),
            (10.0, 0.0, 5.0, -1),
            (10.0, math.nan, 5.0, 30),
            (10.0, 0.0, math.nan, 30),
            (10.0, math.inf, math.inf, 30),
            (10.0, 0.0, math.inf, 30),
            (10.0, -math.inf, 5.0, 30),
            (10.0, -1.0, 5.0, 30),
            (10.0, -0.0, -0.0, 30),
        ],
    )
    def test_edge_cases_match_the_second_by_second_build(self, duration, t_a, t_b, cap):
        store = synth_store(duration=duration)
        assert _result_or_error(frames_between, store, t_a, t_b, cap) == _result_or_error(
            reference_frames_between, store, t_a, t_b, cap
        )

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_second_by_second_build(self, data):
        duration = data.draw(
            st.one_of(st.floats(0.0, 40.0), st.integers(0, 40).map(float)), label="duration"
        )
        store = synth_store(duration=duration)
        moment = st.one_of(
            st.floats(0.0, duration),
            st.integers(0, int(duration)).map(float),
            st.just(duration),
            st.floats(0.0, duration + 2.0),
        )
        t_a = data.draw(moment, label="t_a")
        t_b = data.draw(st.one_of(moment, st.just(t_a)), label="t_b")
        cap = data.draw(st.integers(0, 45), label="cap")
        assert _result_or_error(frames_between, store, t_a, t_b, cap) == _result_or_error(
            reference_frames_between, store, t_a, t_b, cap
        )

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_any_float_window_passes_or_fails_as_the_checks_say(self, data):
        """NaN, infinities, negative times, a reversed window and caps below 1 raise
        the checks' own error, type and message; every other window is served."""
        duration = data.draw(st.floats(0.0, 40.0), label="duration")
        store = synth_store(duration=duration)
        moment = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-3.0, duration + 3.0),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.0, duration]),
        )
        t_a = data.draw(moment, label="t_a")
        t_b = data.draw(moment, label="t_b")
        cap = data.draw(st.integers(-2, 45), label="cap")
        assert _result_or_error(frames_between, store, t_a, t_b, cap) == _result_or_error(
            reference_frames_between, store, t_a, t_b, cap
        )


class TestFrameStore:
    """A store holds the frame URIs of the seconds 0..n-1, in order, in one tuple."""

    def test_rejects_an_empty_frame_tuple(self):
        with pytest.raises(ValueError, match="second 0"):
            store_of(0, 4.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_store_of_any_length_matches_the_second_by_second_build(self, data):
        # The store may hold fewer frames than its video has seconds, or more.
        n = data.draw(st.integers(1, 14), label="frames")
        duration = data.draw(st.floats(0.0, 12.0), label="duration")
        store = store_of(n, duration)
        moment = st.one_of(st.floats(0.0, duration), st.integers(0, int(duration)).map(float))
        t_a = data.draw(moment, label="t_a")
        t_b = data.draw(st.one_of(moment, st.just(t_a)), label="t_b")
        cap = data.draw(st.integers(1, 14), label="cap")
        assert _result_or_error(frames_between, store, t_a, t_b, cap) == _result_or_error(
            reference_frames_between, store, t_a, t_b, cap
        )

    def test_eq_hash_and_repr_go_over_the_frame_tuple(self):
        store = synth_store(duration=3.0)
        assert window_seconds(store.frames) == [0, 1, 2]
        same = FrameStore(store.video_id, store.video_duration, list(store.frames))
        assert same == store and hash(same) == hash(store)
        assert repr(store) == (
            f"FrameStore(video_id='v1', video_duration=3.0, frames={store.frames!r})"
        )
        longer = replace(store, video_duration=5.0, frames=synth_store(duration=5.0).frames)
        assert window_seconds(frames_between(longer, 3.0, 5.0)) == [3, 4]
