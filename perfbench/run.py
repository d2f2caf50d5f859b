"""Offline benchmark of the commentary pipeline: generate, replay, evaluate.

Usage, from the root of the repository:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs both workloads in turn. For each workload it
builds a seeded corpus under perfbench/.work, then runs a fixed number of
whole rounds: --seconds (default: run_seconds of BENCHMARK.json) times the
workload's rounds per second at the reference speed. A round launches a
fresh interpreter that runs `commentary generate` (and, on remote-realtime,
a `--cache replay` pass) and `commentary evaluate` on the corpus.
remote-realtime talks to a loopback stub endpoint run in a second process.

The outputs of the first round go through every check in checks.py; each
later round must reproduce them byte for byte. With --trace 0 the run prints
the end-to-end metrics; with --trace 1 every other round is traced and the
run prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.corpus import CorpusSpec, make_videos, write_corpus  # noqa: E402

WORKER_TIMEOUT_S = 120
RUN_LIMIT_S = 150
ENV_SIZE = 78


@dataclass(frozen=True)
class Workload:
    """A realtime session over a corpus, at step 1 s.

    `remote` runs against the stub endpoint with `--cache record`, then a
    `--cache replay` pass; otherwise the oracle backend replays the
    references. `rounds_per_s` is how many rounds one second of `--seconds`
    buys: a run makes a fixed number of rounds, so the code under test
    cannot change how many rounds its timings are taken over.
    """

    name: str
    why: str
    spec: CorpusSpec
    templates: str
    remote: bool
    rounds_per_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-ja",
            "offline research loop: realtime oracle replay of Japanese references, "
            "character-level ROUGE-L in evaluate, no images and no HTTP",
            CorpusSpec(language="ja", videos=2, utterances=40),
            templates="race-ja", remote=False, rounds_per_s=1.2,
        ),
        Workload(
            "remote-realtime",
            "realtime against the loopback stub with --cache record then replay: "
            "small requests, so the client's fixed cost per request dominates",
            CorpusSpec(language="en", videos=1, utterances=40, frame_bytes=16384),
            templates="race-en", remote=True, rounds_per_s=0.8,
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "generate_s": "s",
    "evaluate_s": "s",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_ms": "ms",
    "media.load_manifest_ms": "ms",
    "media.frames_between_us": "us",
    "prompting.render_us": "us",
    "prompting.prompt_chars_mean": "chars",
    "prompting.parse_us": "us",
    "backends.payload_ms_p50": "ms",
    "backends.encode_calls": "count",
    "backends.encoded_mb": "MB",
    "backends.request_kb_mean": "KB",
    "backends.post_ms_p50": "ms",
    "backends.generate_self_ms_p50": "ms",
    "backends.oracle_us": "us",
    "backends.cache_write_ms": "ms",
    "backends.replay_s": "s",
    "backends.requests": "count",
    "strategies.decisions": "count",
    "strategies.utterances": "count",
    "strategies.session_self_ms": "ms",
    "subtitles.to_srt_ms": "ms",
    "cli.render_trace_ms": "ms",
    "cli.generate_self_ms": "ms",
    "subtitles.parse_srt_ms": "ms",
    "evaluation.load_reference_ms": "ms",
    "cli.evaluate_self_ms": "ms",
    "evaluation.rouge_ms": "ms",
    "evaluation.alignment_ms": "ms",
    "core.speaking_timeline_ms": "ms",
    "evaluation.binned_ms": "ms",
    "trace.overhead_s": "s",
}


def fixed_env(home: Path, port: int | None) -> dict[str, str]:
    """The whole environment of a workload's interpreter: fixed, proxy-free, 78 variables.

    `requests` scans the environment for proxy settings on every POST, so the
    size of the environment is part of what a decision costs.
    """
    env = {
        "HOME": str(home),
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "TZ": "UTC",
        "SHELL": "/bin/bash",
        "TERM": "xterm-256color",
        "USER": "bench",
        "LOGNAME": "bench",
        "SHLVL": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "COMMENTARY_API_BASE": f"http://127.0.0.1:{port or 9}/v1",
        "COMMENTARY_API_KEY": "perfbench-key",
        "COMMENTARY_MODEL": "perfbench-stub",
    }
    pad = 0
    while len(env) < ENV_SIZE:
        env[f"BENCH_PAD_{pad:02d}"] = f"/opt/tool{pad:02d}/share:" + "x" * (16 + pad % 24)
        pad += 1
    return env


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


@dataclass
class Run:
    workload: Workload
    seed: int
    seconds: int
    trace: bool
    work: Path
    rounds: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stub_failed: int = 0


class Stub:
    """The loopback endpoint process for a remote workload."""

    def __init__(self, corpus: Path, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--corpus", str(corpus)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("stub endpoint did not start")
        self.port = int(line.split()[1])

    def stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def phases(w: Workload, seed: int, round_dir: str) -> list[tuple[str, list[str]]]:
    common = [
        "--manifest", "manifests", "--strategy", "realtime", "--step", "1",
        "--templates", w.templates, "--jobs", "1", "--seed", str(seed),
        "--backend", "remote" if w.remote else "oracle:refs",
    ]
    out = f"{round_dir}/out"
    if w.remote:
        cache = ["--cache-dir", f"{round_dir}/cache"]
        plan = [
            ("generate", ["generate", *common, "--out", out, "--cache", "record", *cache]),
            ("replay", ["generate", *common, "--out", f"{round_dir}/replay", "--cache", "replay", *cache]),
        ]
    else:
        plan = [("generate", ["generate", *common, "--out", out, "--cache", "off"])]
    plan.append(("evaluate", ["evaluate", out, "refs", "--language", w.spec.language,
                              "--report", f"{round_dir}/report.tsv"]))
    return plan


def run_round(run: Run, corpus: Path, env: dict[str, str], index: int, traced: bool) -> dict:
    rel = f"rounds/r{index:03d}"
    round_dir = corpus / rel
    round_dir.mkdir(parents=True)
    plan = {
        "phases": phases(run.workload, run.seed, rel),
        "trace": traced,
        "bench_root": str(ROOT),
        "result": str(round_dir / "result.json"),
        "spans": str(round_dir / "spans.tsv"),
    }
    (round_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    with open(round_dir / "stdout.txt", "wb") as out:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(round_dir / "plan.json")],
            cwd=corpus, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"round {index} did not finish in {WORKER_TIMEOUT_S}s")
    if code != 0 or not (round_dir / "result.json").exists():
        tail = (round_dir / "stdout.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"round {index} worker exited {code}:\n{tail}")
    result = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
    result["traced"] = traced
    result["setup_s"] = result["first_advance"] - launched
    return result


def review_round(run: Run, videos, round_dir: Path, result: dict, stub: Stub | None) -> dict:
    """Count the round's operations and check its outputs.

    The first round goes through every check in checks.py; later rounds must
    reproduce its outputs byte for byte. Returns the round's output digests.
    """
    w = run.workload
    out, report = round_dir / "out", round_dir / "report.tsv"
    replay = round_dir / "replay" if w.remote else None
    evaluated = sum(1 for vid, key in checks.report_values(report) if key == "agreement@1s" and vid != "corpus")
    run.attempted += len(result["decision_s"]) + evaluated
    if replay is not None:
        run.attempted += sum(checks.trace_decisions(p) for p in replay.glob("*.trace"))
    run.failed += len(videos) - evaluated
    if stub is not None:
        stats = stub.stats()
        run.failed += stats["failed"] - run.stub_failed
        run.stub_failed = stats["failed"]
        if stats["errors"]:
            run.failures.append(f"stub rejected requests: {stats['errors']}")
    digests = {"out": digest_dir(out), "report.tsv": hashlib.sha256(report.read_bytes()).hexdigest()}
    if replay is not None:
        digests["replay"] = digest_dir(replay)
    if not run.rounds:
        run.failures += checks.check_round(
            videos, out, report, language=w.spec.language, realtime=True, step=1,
            rule=checks.stub_rule if w.remote else checks.oracle_rule, replay=replay,
        )
    return digests


def measure(run: Run) -> None:
    w = run.workload
    corpus = run.work / "corpus"
    videos = make_videos(w.spec, run.seed)
    write_corpus(corpus, w.spec, videos, run.seed)
    (corpus / "home").mkdir()
    compileall.compile_dir(ROOT / "src" / "commentary", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    stub = Stub(corpus, fixed_env(corpus / "home", None)) if w.remote else None
    env = fixed_env(corpus / "home", stub.port if stub else None)
    phase_names = [name for name, _ in phases(w, run.seed, "")]
    # Traced runs alternate traced and untraced rounds, so they need an even count.
    target = max(2, 2 * round(run.seconds * w.rounds_per_s / 2))
    started = time.monotonic()
    first_digests = None
    try:
        for index in range(target):
            if time.monotonic() - started > RUN_LIMIT_S:
                run.failures.append(f"only {index} of {target} rounds ran within {RUN_LIMIT_S}s")
                break
            traced = run.trace and index % 2 == 0
            result = run_round(run, corpus, env, index, traced)
            if list(result["exit"].values()) != [0] * len(phase_names):
                run.failures.append(f"round {index}: CLI exit codes {result['exit']}")
                if stub is not None and stub.stats()["errors"]:
                    run.failures.append(f"stub rejected requests: {stub.stats()['errors']}")
                break
            round_dir = corpus / f"rounds/r{index:03d}"
            digests = review_round(run, videos, round_dir, result, stub)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                run.failures.append(f"round {index}: outputs differ from round 0")
            if traced:
                spans = BENCH / "results" / f"{w.name}-seed{run.seed}.spans.tsv"
                spans.parent.mkdir(exist_ok=True)
                shutil.copyfile(round_dir / "spans.tsv", spans)
            run.rounds.append(result)
            shutil.rmtree(round_dir)
            if run.failures:
                break
    finally:
        if stub is not None:
            stub.close()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def least(rounds: list[dict], value) -> float:
    """A timing's lowest value over the rounds of a run.

    The machine is shared: its speed swings by a third or more over seconds
    while other tenants come and go. The least disturbed round is the one
    that repeats from run to run; a median mixes the two speeds in whatever
    share the run happened to meet. Every run makes the same number of
    rounds, so the minimum is always taken over the same count.
    """
    return min(value(r) for r in rounds)


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    decisions = [d for r in rounds for d in r["decision_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "generate_s": least(rounds, lambda r: r["seconds"]["generate"]),
        "evaluate_s": least(rounds, lambda r: r["seconds"]["evaluate"]),
        "decision_ms_p50": 1e3 * percentile(decisions, 50),
        "decision_ms_p90": 1e3 * percentile(decisions, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {
        name: least(traced, lambda r: r["layers"][name])
        for name in PER_LAYER
        if name in traced[0]["layers"]
    }
    metrics["cli.import_ms"] = least(traced, lambda r: r["import_ms"])
    metrics["backends.replay_s"] = least(traced, lambda r: r["seconds"].get("replay", 0.0))

    def work(r: dict) -> float:
        return r["seconds"]["generate"] + r["seconds"]["evaluate"]

    # Traced and untraced rounds alternate; pairing neighbours cancels the
    # machine's slow drift in speed.
    metrics["trace.overhead_s"] = statistics.median(
        work(t) - work(p) for t, p in zip(traced, plain)
    )
    return {name: metrics[name] for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = BENCH / ".work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, seconds, trace, work)
    try:
        measure(run)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        run.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    values = {}
    if run.rounds and not run.failures:
        values = per_layer(run.rounds) if trace else end_to_end(run.rounds)
    result = {
        "correct": not run.failures and bool(run.rounds),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(f"workload {name}: seed {seed}, {len(run.rounds)} rounds, "
          f"{sum(len(r['decision_s']) for r in run.rounds)} decisions")
    for failure in run.failures:
        print(f"  CHECK FAILED: {failure}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:12.4f} {metric['unit']}")
    print(f"operations: attempted={run.attempted} failed={run.failed}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, trace=trace, rounds=[
        {k: v for k, v in r.items() if k != "decision_s"} for r in run.rounds
    ])
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Offline benchmark of the commentary pipeline.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length at the reference speed, which fixes each workload's "
                             "number of rounds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "commentary" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'commentary'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
