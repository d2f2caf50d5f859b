"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 exercises a live endpoint and is skipped unless the
COMMENTARY_API_* environment variables are set.
"""

import base64
import math
import os
import random
import time
from functools import lru_cache

import pytest

from commentary import (
    CommentaryTrack,
    OracleBackend,
    RemoteChatBackend,
    ScriptedBackend,
    SimulatedClock,
    Speak,
    SpeechRateModel,
    StrategyConfig,
    StrategyKind,
    Utterance,
    Wait,
    estimate_duration,
    overlap_proportion,
    parse_response,
    parse_srt,
    rouge_l,
    run_session,
    timing_alignment,
    to_srt,
)
from commentary.cli import main
from commentary.subtitles import track_entries

from helpers import (
    WORDS,
    poisson_reference,
    prompt_set,
    random_track,
    read_cache_log,
    synth_store,
    window_seconds,
    write_cache_log,
    write_manifest,
)

RATES = SpeechRateModel.default()


def ok(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_realtime_zero_overlap():
    started = time.monotonic()
    prompts = prompt_set()

    for seed in range(50):
        rng = random.Random(seed)
        duration = rng.uniform(40.0, 120.0)
        store = synth_store(video_id=f"rt{seed}", duration=duration)
        script = {}
        for i in range(200):
            if rng.random() < 0.6:
                script[i] = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 60)))
            else:
                script[i] = "<WAIT>"
        cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=2.0)
        record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)
        assert overlap_proportion(track_entries(record.track)) == 0.0, seed

    for seed in range(10):
        rng = random.Random(1000 + seed)
        store = synth_store(video_id=f"fb{seed}", duration=60.0)
        script = {
            i: " ".join(rng.choice(WORDS) for _ in range(rng.randint(9, 60)))
            for i in range(40)
        }
        cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=2.0)
        record = run_session(store, cfg, ScriptedBackend(script), SimulatedClock(), prompts)
        assert overlap_proportion(track_entries(record.track)) > 0.0, seed

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, "realtime zero overlap, feedback overlaps")


def test_criterion_02_step_size_direction():
    started = time.monotonic()
    prompts = prompt_set()
    store = synth_store(video_id="sweep", duration=300.0)
    references = [poisson_reference(seed) for seed in range(20)]
    steps = (1.0, 2.0, 5.0, 10.0)
    kinds = (StrategyKind.STATELESS, StrategyKind.FEEDBACK, StrategyKind.REALTIME)

    avg_by_step = []
    for step in steps:
        per_kind = []
        for kind in kinds:
            cfg = StrategyConfig(kind=kind, step=step)
            values = []
            for ref in references:
                record = run_session(store, cfg, OracleBackend(ref), SimulatedClock(), prompts)
                values.append(timing_alignment(record.track, ref))
            per_kind.append(sum(values) / len(values))
        avg_by_step.append(sum(per_kind) / len(per_kind))

    for narrow, wide in zip(avg_by_step, avg_by_step[1:]):
        assert narrow >= wide, avg_by_step
    assert avg_by_step[0] - avg_by_step[-1] >= 0.05, avg_by_step

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(2, f"alignment non-increasing over steps {[f'{a:.3f}' for a in avg_by_step]}")


def test_criterion_03_duration_formula():
    hiragana = [chr(c) for c in range(0x3042, 0x3094)]
    punctuation = ["。", "、", "！", "？"]
    rng = random.Random(99)

    for _ in range(1000):
        words = [rng.choice(WORDS) for _ in range(rng.randint(1, 40))]
        text = " ".join(words)
        expected = len(words) / 4.0
        assert abs(estimate_duration(text, "en", RATES) - expected) <= 1e-9

    for _ in range(1000):
        chars = [rng.choice(hiragana + punctuation) for _ in range(rng.randint(1, 60))]
        # Sprinkle whitespace that must not count.
        text = ""
        for ch in chars:
            text += ch
            if rng.random() < 0.1:
                text += " "
        expected = len(chars) / 8.0
        assert abs(estimate_duration(text, "ja", RATES) - expected) <= 1e-9

    ok(3, "estimated duration equals units/rate for 1000 texts per language")


def test_criterion_04_fixed_interval_decision_count():
    prompts = prompt_set()
    durations = [1.0, 2.0, 3.0, 4.5, 5.0, 6.0, 7.0, 8.0, 9.5, 10.0,
                 11.0, 12.0, 13.5, 14.0, 15.0, 16.0, 17.0, 18.5, 19.0, 20.0]
    steps = [1.0, 2.0, 5.0, 10.0]
    assert len(durations) == 20 and len(steps) == 4

    for duration in durations:
        store = synth_store(video_id=f"d{duration:g}", duration=duration)
        for step in steps:
            cfg = StrategyConfig(kind=StrategyKind.FEEDBACK, step=step)
            record = run_session(store, cfg, ScriptedBackend(), SimulatedClock(), prompts)
            expected = math.floor(duration / step) + 1
            assert len(record.steps) == expected, (duration, step)

    ok(4, "fixed-interval sessions make floor(D/N)+1 decisions on the 20x4 grid")


def _brute_force_lcs(a: tuple, b: tuple) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    result = go(0, 0)
    go.cache_clear()
    return result


def test_criterion_05_metric_oracles():
    rng = random.Random(1234)
    vocab = WORDS[:8]
    for _ in range(10_000):
        a = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        b = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        lcs = _brute_force_lcs(a, b)
        if not a or not b or lcs == 0:
            expected = 0.0
        else:
            precision = lcs / len(a)
            recall = lcs / len(b)
            expected = 100.0 * (2 * precision * recall) / (precision + recall)
        assert rouge_l(" ".join(a), " ".join(b)) == expected, (a, b)

    # Worked example: gen speaks {1,2}, ref speaks {2,3}, agree on 8 of 10.
    gen = CommentaryTrack("v", (Utterance("a b", "en", 1.0, 2.0),), 10.0)
    ref = CommentaryTrack("v", (Utterance("c d", "en", 2.0, 2.0),), 10.0)
    assert timing_alignment(gen, ref) == 0.8

    # Hand-built pairs checked against an enumerated interval-measure oracle.
    for seed in range(25):
        rng2 = random.Random(seed)
        duration = rng2.uniform(5.0, 60.0)
        a_track = random_track(rng2, duration=duration)
        b_track = random_track(rng2, duration=duration)

        def speaking(track, s):
            return any(
                min(u.end, s + 1) - max(u.start, s) > 0 for u in track.utterances
            )

        agreements = sum(
            speaking(a_track, s) == speaking(b_track, s)
            for s in range(math.ceil(duration))
        )
        assert timing_alignment(a_track, b_track) == agreements / math.ceil(duration)

    # Self comparisons hit the maxima.
    track = random_track(random.Random(77), duration=45.0)
    assert timing_alignment(track, track) == 1.0
    assert rouge_l("the red car wins the race", "the red car wins the race") == 100.0

    ok(5, "rouge matches brute-force LCS on 10000 pairs; alignment matches enumeration")


def test_criterion_06_srt_bit_exactness():
    track = CommentaryTrack("v", (Utterance("x y", "en", 0.0, 8.616),), 60.0)
    assert "00:00:00,000 --> 00:00:08,616" in to_srt(track)

    rng = random.Random(2024)
    for _ in range(1000):
        sample = random_track(rng, duration=rng.uniform(5.0, 4000.0))
        entries = parse_srt(to_srt(sample))
        assert len(entries) == len(sample.utterances)
        for entry, u in zip(entries, sample.utterances):
            assert round(entry.start * 1000) == round(u.start * 1000)
            assert round(entry.end * 1000) == round(u.end * 1000)
            assert entry.text == u.text

    ok(6, "timestamp line bit-exact; 1000 random tracks round-trip at 1 ms")


def test_criterion_07_replay_determinism(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "v1.manifest", "v1", 12.0)
    script = tmp_path / "script.tsv"
    script.write_text(
        "0\tThe drivers take their marks\n"
        "2\tA bold pass into the corner\n"
        "4\tcontact at the chicane slows the leaders\n"
        "default\t<WAIT>\n",
        encoding="utf-8",
    )

    def args(out, cache_mode):
        return [
            "generate",
            "--manifest", str(manifest),
            "--backend", f"scripted:{script}",
            "--out", str(tmp_path / out),
            "--cache", cache_mode,
            "--cache-dir", str(tmp_path / "cache"),
        ]

    assert main(args("rec", "record")) == 0
    assert main(args("rep", "replay")) == 0
    for name in ("v1.trace", "v1.srt"):
        recorded = (tmp_path / "rec" / name).read_bytes()
        replayed = (tmp_path / "rep" / name).read_bytes()
        assert recorded == replayed, name

    log = tmp_path / "cache" / "cache.log"
    records = read_cache_log(log)
    digest = records[2][0][0]
    write_cache_log(log, records[:2] + records[3:])
    assert main(args("rep2", "replay")) == 1
    err = capsys.readouterr().err
    assert digest in err

    ok(7, "record/replay byte-identical; evicted entry fails naming its digest")


WAIT_CASES = [
    ("<WAIT>", Wait()),
    ("WAIT", Wait()),
    ("wait", Wait()),
    ("Wait", Wait()),
    ("  wait ", Wait()),
    ("\twait\n", Wait()),
    ("<wait>", Wait()),
    ("< WAIT >", Wait()),
    ("**WAIT**", Wait()),
    ("**<wait>**", Wait()),
    ("(wait)", Wait()),
    ("[WAIT]", Wait()),
    ('"WAIT"', Wait()),
    ("'wait'", Wait()),
    ("`wait`", Wait()),
    ("WAIT.", Wait()),
    ("WAIT!", Wait()),
    ("wait...", Wait()),
    ("<WAIT>.", Wait()),
    (">>> WAIT <<<", Wait()),
    ("# WAIT", Wait()),
    ("- wait -", Wait()),
    ("", Wait()),
    ("   \n\t ", Wait()),
    ("WAIT, no - the red car crashes!", Speak("WAIT, no - the red car crashes!")),
    ("The blue car overtakes on turn one.", Speak("The blue car overtakes on turn one.")),
    ("wait for it, an overtake!", Speak("wait for it, an overtake!")),
    ("waiting", Speak("waiting")),
    ("The answer is WAIT", Speak("The answer is WAIT")),
    ("<WAIT> but the red car passes", Speak("<WAIT> but the red car passes")),
]


def test_criterion_08_wait_parsing_table():
    assert len(WAIT_CASES) == 30
    deviations = []
    for raw, expected in WAIT_CASES:
        actual = parse_response(raw)
        if actual != expected:
            deviations.append((raw, expected, actual))
    assert not deviations, deviations
    ok(8, "all 30 wait-parsing cases resolve per contract")


_LIVE_VARS = ("COMMENTARY_API_BASE", "COMMENTARY_API_KEY", "COMMENTARY_MODEL")

# 1x1 transparent PNG.
_TINY_PNG = base64.b64decode(
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJAAAADUlEQVR42mP8z8BQDwAEhQGAhKmMIQAAAABJRU5ErkJggg=="
)


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _LIVE_VARS),
    reason="live endpoint not configured (COMMENTARY_API_* unset)",
)
def test_criterion_09_live_endpoint_smoke(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    duration = 60.0
    from commentary import FrameStore

    frames = []
    for s in range(60):
        path = frames_dir / f"{s:04d}.png"
        path.write_bytes(_TINY_PNG)
        frames.append(str(path))
    store = FrameStore(video_id="live", video_duration=duration, frames=frames)

    cfg = StrategyConfig(kind=StrategyKind.REALTIME, step=2.0)
    backend = RemoteChatBackend()
    record = run_session(store, cfg, backend, SimulatedClock(), prompt_set())
    assert record.complete, record.error

    srt = to_srt(record.track)
    parsed = parse_srt(srt)
    assert len(parsed) == len(record.track.utterances)
    assert overlap_proportion(track_entries(record.track)) == 0.0

    prev_time = 0.0
    for step in record.steps:
        t = step.time
        expected = [
            s
            for s in range(math.ceil(prev_time), math.ceil(max(t, prev_time + 1.0)))
            if s < 60
        ]
        if not expected:
            expected = [min(math.floor(prev_time), 59)]
        expected = expected[-30:]
        assert window_seconds(step.window) == expected, step.index
        prev_time = t

    ok(9, "live realtime session: valid SRT, zero overlap, elapsed windows")
