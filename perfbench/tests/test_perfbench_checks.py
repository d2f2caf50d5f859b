"""Tests for the benchmark's own checkers, corpus and stub rule."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import checks  # noqa: E402
from perfbench.corpus import (  # noqa: E402
    CorpusSpec,
    RefUtterance,
    Video,
    make_videos,
    parse_srt_ms,
    srt_text,
    stub_reply,
    video_duration,
    write_corpus,
)
from perfbench.stub import CheckError, Stub  # noqa: E402


def video(*starts, duration=60, text="red car now"):
    return Video("v00", duration, tuple(RefUtterance(s, s + 750, f"{text} {i}") for i, s in enumerate(starts)))


class TestCorpus:
    def test_same_seed_same_videos_other_seed_other_words(self):
        spec = CorpusSpec(language="en", videos=2, utterances=10)
        assert make_videos(spec, 3) == make_videos(spec, 3)
        assert make_videos(spec, 3) != make_videos(spec, 4)

    def test_sizes_do_not_depend_on_the_seed(self):
        spec = CorpusSpec(language="ja", videos=2, utterances=12)
        totals = {
            sum(len(u.text) for v in make_videos(spec, seed) for u in v.utterances) for seed in range(5)
        }
        assert len(totals) == 1
        assert all(v.duration == video_duration(spec) for v in make_videos(spec, 9))

    def test_references_start_after_second_one_and_never_tie(self):
        for v in make_videos(CorpusSpec(language="en", videos=3, utterances=30), 7):
            starts = [u.start_ms for u in v.utterances]
            assert starts[0] >= 2000
            assert all(a < b for a, b in zip(starts, starts[1:]))
            assert v.utterances[-1].end_ms <= v.duration * 1000

    def test_srt_round_trip(self):
        entries = [(2000, 3125, "赤い車"), (3_600_500, 3_601_000, "pass now")]
        text = srt_text(entries)
        assert text.startswith("1\n00:00:02,000 --> 00:00:03,125\n赤い車\n\n2\n01:00:00,500")
        assert [(u.start_ms, u.end_ms, u.text) for u in parse_srt_ms(text)] == entries


class TestRules:
    def test_window_seconds(self):
        assert checks.window_seconds(0.0, 0.0, 10) == [0]
        assert checks.window_seconds(0.0, 1.0, 10) == [0]
        assert checks.window_seconds(3.25, 5.5, 10) == [4, 5]
        assert checks.window_seconds(9.0, 10.0, 10) == [9]
        assert checks.window_seconds(0.0, 50.0, 60) == list(range(20, 50))

    def test_stub_reply_speaks_earliest_start_in_window(self):
        v = video(2000, 2500, 7100)
        assert stub_reply(v, [2, 3]) == "red car now 0"
        assert stub_reply(v, [4, 5, 6]) is None
        assert stub_reply(v, [7]) == "red car now 2"

    def test_oracle_rule_speaks_each_reference_once(self):
        reply = checks.oracle_rule(video(2000, 2500, 7100))
        assert reply(0.0, None, [0]) is None
        assert reply(3.0, 0.0, []) == "red car now 0"
        # The second reference started inside the same window, so it is never spoken.
        assert reply(4.0, 3.0, []) is None
        assert reply(8.0, 4.0, []) == "red car now 2"

    def test_fixed_step_decision_count(self):
        for duration, step in ((60, 2), (61, 2), (7, 3)):
            v = video(2000, duration=duration)
            decisions, _ = checks.expected_session(v, checks.stub_rule(v), False, step, "en")
            assert decisions == math.floor(duration / step) + 1

    def test_realtime_waits_out_each_utterance(self):
        v = video(2000, 4000, 4500, 9000, text="one two three four five six seven eight nine ten")
        _, entries = checks.expected_session(v, checks.stub_rule(v), True, 1, "en")
        track = [RefUtterance(a, b, t) for a, b, t in entries]
        assert checks.overlap_free(track)
        # u2 starts in the same window as u1, so it is never spoken.
        assert [e[0] for e in entries] == [3000, 5750, 9500]
        assert all(b - a == 2750 for a, b, _ in entries)  # 11 words at 4 words/s


class TestScores:
    def test_lcs(self):
        assert checks.lcs_length(list("ABCBDAB"), list("BDCABA")) == 4
        assert checks.lcs_length([], list("abc")) == 0

    def test_rouge_l_f1(self):
        gen = [RefUtterance(0, 1000, "a b c d")]
        ref = [RefUtterance(0, 1000, "a c e")]
        p, r = 2 / 4, 2 / 3
        assert checks.rouge_l_f1(gen, ref, "en") == pytest.approx(100 * 2 * p * r / (p + r))
        assert checks.rouge_l_f1(gen, [], "en") == 0.0
        assert checks.rouge_l_f1([RefUtterance(0, 1, "赤 い車")], [RefUtterance(0, 1, "赤い")], "ja") == 80.0

    def test_agreement_counts_seconds_touched_with_nonzero_measure(self):
        gen = [RefUtterance(1000, 2000, "x")]
        ref = [RefUtterance(1500, 3000, "y")]
        # Seconds 0..3: gen speaks in 1; ref speaks in 1 and 2.
        assert checks.agreement(gen, ref, 4.0) == 3 / 4

    def test_overlap_free(self):
        assert checks.overlap_free([RefUtterance(0, 1000, "a"), RefUtterance(1000, 2000, "b")])
        assert not checks.overlap_free([RefUtterance(0, 1001, "a"), RefUtterance(1000, 2000, "b")])


@pytest.fixture()
def oracle_round(tmp_path, monkeypatch):
    """A tiny oracle-ja corpus run through the real command line."""
    from commentary.cli import main

    spec = CorpusSpec(language="ja", videos=2, utterances=8)
    videos = make_videos(spec, 5)
    write_corpus(tmp_path, spec, videos, 5)
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--manifest", "manifests", "--strategy", "realtime", "--step", "1",
                 "--templates", "race-ja", "--backend", "oracle:refs", "--out", "out", "--jobs", "1"]) == 0
    assert main(["generate", "--manifest", "manifests", "--strategy", "realtime", "--step", "1",
                 "--templates", "race-ja", "--backend", "oracle:refs", "--out", "again", "--jobs", "1"]) == 0
    assert main(["evaluate", "out", "refs", "--language", "ja", "--report", "report.tsv"]) == 0
    return videos, tmp_path


class TestCheckRound:
    def run_checks(self, videos, root, **kwargs):
        return checks.check_round(
            videos, root / "out", root / "report.tsv", language="ja", realtime=True, step=1,
            rule=checks.oracle_rule, **kwargs,
        )

    def test_program_output_passes(self, oracle_round):
        videos, root = oracle_round
        assert self.run_checks(videos, root, replay=root / "again") == []

    def test_moved_subtitle_is_caught(self, oracle_round):
        videos, root = oracle_round
        srt = root / "out" / "v00.srt"
        text = srt.read_text(encoding="utf-8")
        srt.write_text(text.replace(",000 -->", ",001 -->", 1), encoding="utf-8")
        failures = self.run_checks(videos, root)
        assert any("differ from the schedule" in f for f in failures)

    def test_wrong_score_is_caught(self, oracle_round):
        videos, root = oracle_round
        report = root / "report.tsv"
        rows = report.read_text(encoding="utf-8").replace("v01\trouge_l_concat\t", "v01\trouge_l_concat\t1")
        report.write_text(rows, encoding="utf-8")
        assert any("rouge_l_concat" in f for f in self.run_checks(videos, root))

    def test_replay_difference_is_caught(self, oracle_round):
        videos, root = oracle_round
        trace = root / "again" / "v01.trace"
        trace.write_text(trace.read_text(encoding="utf-8") + "#extra\n", encoding="utf-8")
        assert any("replay .trace" in f for f in self.run_checks(videos, root, replay=root / "again"))


class TestStubChecks:
    @pytest.fixture()
    def stub_setup(self, tmp_path, monkeypatch):
        from commentary.backends import GeneratorRequest, build_chat_payload
        from commentary.media import load_manifest
        from commentary.prompting import builtin_prompt_set, render_decision
        from commentary.strategies import frames_between

        spec = CorpusSpec(language="en", videos=1, utterances=6, frame_bytes=2048)
        videos = make_videos(spec, 2)
        write_corpus(tmp_path, spec, videos, 2)
        monkeypatch.chdir(tmp_path)
        store = load_manifest("manifests/v00.manifest")
        decision = builtin_prompt_set("race-en").decision

        def payload(t_last, t):
            """The request of a realtime decision at t whose previous query was at t_last."""
            prompt = render_decision(decision, [], [], frames_between(store, t_last, t))
            return build_chat_payload(GeneratorRequest(prompt=prompt, model_id="m"))

        def body(t_last, t):
            return json.dumps(payload(t_last, t)).encode()

        return Stub(tmp_path), videos[0], payload, body

    def test_realtime_session_gets_the_rule_reply(self, stub_setup):
        stub, v, _, body = stub_setup
        first = v.utterances[0]
        assert [stub.reply(body(a, b)) for a, b in ((0, 0), (0, 1), (1, 2))] == ["<WAIT>"] * 3
        assert stub.reply(body(2, first.start_ms // 1000 + 1)) == first.text

    def test_window_that_skips_seconds_is_rejected(self, stub_setup):
        stub, _, _, body = stub_setup
        stub.reply(body(0, 0))
        with pytest.raises(CheckError, match="does not follow"):
            stub.reply(body(3, 4))

    def test_window_before_any_session_is_rejected(self, stub_setup):
        stub, _, _, body = stub_setup
        with pytest.raises(CheckError, match="does not follow"):
            stub.reply(body(5, 6))

    def test_tampered_frame_is_rejected(self, stub_setup):
        stub, _, payload, _ = stub_setup
        request = payload(0, 0)
        url = request["messages"][0]["content"][-1]["image_url"]["url"]
        request["messages"][0]["content"][-1]["image_url"]["url"] = url[:-8] + "AAAAAAAA"
        with pytest.raises(CheckError, match="does not match"):
            stub.reply(json.dumps(request).encode())

    def test_handle_counts_failures(self, stub_setup):
        stub, _, _, body = stub_setup
        status, _ = stub.handle("POST", "/v1/chat/completions", body(5, 6))
        assert status == 422
        status, raw = stub.handle("GET", "/stats", b"")
        assert json.loads(raw)["failed"] == 1
