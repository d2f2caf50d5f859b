"""Command-line entry point: generate commentary, evaluate it, sweep step sizes.

Exit codes: 0 success, 1 configuration or input error, 2 partial results
(a session aborted mid-run).
"""

from __future__ import annotations

import re
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from .backends import (
    CACHE_MODES,
    ENV_MODEL,
    BackendError,
    Generator,
    OracleBackend,
    RemoteChatBackend,
    ReplayCache,
    ReplayMissError,
    ScriptedBackend,
    configured_model,
    read_script,
)
from .core import (
    CommentaryTrack,
    SimulatedClock,
    WallClock,
    check_timeline_seconds,
    entries_ending,
    read_utf8,
    replace,
)
from .evaluation import (
    BIN_COUNT,
    EmbeddingScorer,
    EvalReport,
    LexicalOverlapScorer,
    SimilarityScorer,
    evaluate,
    load_reference,
    reference_from_srt_text,  # noqa: F401 (perfbench/tracing.py wraps it by this name)
    timing_alignment,
)
from .media import DEFAULT_WINDOW_CAP, FrameStore, load_manifest
from .prompting import (
    BUILTIN_TEMPLATES,
    PromptSet,
    PromptTemplate,
    load_demonstrations,
    load_template,
    sample_demonstrations,
)
from .strategies import (
    GenerationRecord,
    SpeechRate,
    SpeechRateModel,
    StrategyConfig,
    StrategyKind,
    default_unit_for_language,
    run_session,
)
from .subtitles import parse_srt, to_srt  # noqa: F401 (perfbench/tracing.py wraps parse_srt)

if TYPE_CHECKING:
    import argparse

    Args = argparse.Namespace | SimpleNamespace

T = TypeVar("T")
R = TypeVar("R")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2

SWEEP_KINDS = (StrategyKind.STATELESS, StrategyKind.FEEDBACK, StrategyKind.REALTIME)

# Report keys name the metric definitions so the numbers stay interpretable.
KEY_ALIGNMENT = "agreement@1s"
KEY_ROUGE = "rouge_l_concat"
KEY_OVERLAP = "overlap_adjacent_pairs"
# The EvalReport unit counts, each reported under its own name.
COUNT_KEYS = ("gen_words", "ref_words")


class CliError(Exception):
    """Configuration or input problem; maps to exit code 1."""


def _loaded(label: str, load: Callable[..., T], *args, **kwargs) -> T:
    """`load(*args, **kwargs)`; an OSError, ValueError, BackendError or replay miss is a
    CliError, `label` its prefix.

    The loaders' ValueErrors name the file, as OSError's message does.
    """
    try:
        return load(*args, **kwargs)
    except (OSError, ValueError, BackendError, ReplayMissError) as exc:
        raise CliError(f"{label}{exc}") from exc


def _resolve_templates(spec: str) -> tuple[PromptTemplate, PromptTemplate]:
    if spec in BUILTIN_TEMPLATES:
        return BUILTIN_TEMPLATES[spec]
    path = Path(spec)
    if not path.is_dir():
        known = ", ".join(sorted(BUILTIN_TEMPLATES))
        raise CliError(f"--templates must name a built-in set ({known}) or a directory")
    init = decision = None
    for file in sorted(path.iterdir()):
        if not file.is_file():
            continue
        template = load_template(file)
        if template.kind == "init":
            if init is not None:
                raise CliError(f"template directory {path} holds more than one init template")
            init = template
        else:
            if decision is not None:
                raise CliError(f"template directory {path} holds more than one decision template")
            decision = template
    if init is None or decision is None:
        raise CliError(f"template directory {path} needs one init and one decision template")
    return init, decision


def parse_rate_model(spec: str) -> SpeechRateModel:
    """Parse a rate-model flag like 'en=word:4,ja=character:8'."""
    rates: dict[str, SpeechRate] = {}
    for part in spec.split(","):
        lang, sep, rest = part.partition("=")
        unit, sep2, value = rest.partition(":")
        lang = lang.strip()
        if not sep or not sep2 or not lang:
            raise CliError(f"bad --rate-model entry {part!r}; expected lang=unit:rate")
        if lang in rates:
            raise CliError(f"bad --rate-model entry {part!r}: language {lang!r} given twice")
        try:
            rates[lang] = SpeechRate(unit=unit.strip(), rate=float(value))
        except ValueError as exc:
            raise CliError(f"bad --rate-model entry {part!r}: {exc}") from exc
    return SpeechRateModel(rates=rates)


def _run_settings(args: Args) -> tuple[StrategyConfig, PromptSet]:
    """The strategy and prompts a `generate` or `sweep` run's flags give, every flag checked."""
    init, decision = _loaded("", _resolve_templates, args.templates)
    rate_model = parse_rate_model(args.rate_model) if args.rate_model else SpeechRateModel.default()
    _loaded(f"--templates {args.templates}: ", rate_model.for_language, decision.language)
    strategy = _loaded(
        "", StrategyConfig, kind=StrategyKind(args.strategy), step=args.step,
        window_cap=args.window_cap, icl_shots=args.shots, rate_model=rate_model,
        max_history=args.max_history,
    )
    demos = ()
    if strategy.icl_shots > 0:
        if not args.demos:
            raise CliError("--demos is required when the strategy uses demonstrations")
        pool = _loaded("--demos: ", load_demonstrations, args.demos)
        label = f"--demos: {args.demos}: "
        demos = _loaded(label, sample_demonstrations, pool, strategy.icl_shots, args.seed)
    if args.cache != "off" and not args.cache_dir:
        raise CliError("--cache-dir is required when caching is enabled")
    _check_out_dir(args, Path(args.out))
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    return strategy, PromptSet(init=init, decision=decision, demonstrations=demos)


def _check_out_dir(args: Args, out_dir: Path) -> None:
    if args.cache != "off" and Path(args.cache_dir).resolve() == out_dir.resolve():
        raise CliError("output dir must be distinct from cache dir")


def _load_stores(manifest: Path) -> list[FrameStore]:
    paths = sorted(entries_ending(manifest, ".manifest")) if manifest.is_dir() else [manifest]
    if not paths:
        raise CliError(f"no *.manifest files found in {manifest}")
    stores = [_loaded("media: ", load_manifest, p) for p in paths]
    seen: set[str] = set()
    for store in stores:
        if store.video_id in seen:
            raise CliError(f"duplicate video id {store.video_id!r} across manifests")
        seen.add(store.video_id)
    return stores


def _reference_files(ref_dir: Path) -> dict[str, Path]:
    """Each reference in a dir by video id: <id>.srt, or else the transcript <id>.tsv."""
    # summary.tsv is a generate artifact, not a reference transcript.
    paths = [p for p in entries_ending(ref_dir, (".tsv", ".srt")) if p.name != "summary.tsv"]
    paths.sort(key=lambda p: p.name.endswith(".srt"))  # the .srt, put last, wins
    return {p.stem: p for p in paths}


def _load_references(
    path: Path, stores: list[FrameStore], language: str
) -> dict[str, CommentaryTrack]:
    """Each store's reference track by video id, from one file or a dir of <id>.srt/.tsv,
    read as `evaluate` reads it."""
    files = _reference_files(path) if path.is_dir() else {store.video_id: path for store in stores}
    references = {}
    for store in stores:
        ref_path = files.get(store.video_id)
        if ref_path is None:
            raise CliError(f"no reference file for video {store.video_id!r} in {path}")
        references[store.video_id] = _loaded(
            "reference: ", load_reference, ref_path, store.video_id, store.video_duration, language
        )
    return references


def _backend(
    args: Args,
    language: str,
    stores: list[FrameStore],
    references: dict[str, CommentaryTrack] | None,
) -> tuple[Generator, list[RemoteChatBackend | ReplayCache]]:
    """The run's one backend, shared by its sessions, and what the caller closes when the
    run ends: the remote client and the cache, where the run has them.

    An oracle replays `references`, or else loads each store's from its path. A replay
    builds no backend: its `ReplayCache` gets the named backend's model id or class.
    """
    spec = args.backend
    replay = args.cache == "replay"
    opened: list[RemoteChatBackend | ReplayCache] = []
    if spec == "remote":
        if replay:
            backend = _loaded("backend: ", configured_model, ENV_MODEL)
        else:
            backend = _loaded("backend: ", RemoteChatBackend)
            opened.append(backend)
    elif spec.startswith("scripted:"):
        backend = ScriptedBackend
        if not replay:
            script = _loaded("backend: ", read_script, Path(spec.partition(":")[2]))
            backend = ScriptedBackend(*script)
    elif spec.startswith("oracle:"):
        backend = OracleBackend
        if not replay:
            if references is None:
                # Read as `evaluate` reads them: the oracle uses only their starts and texts.
                references = _load_references(Path(spec.partition(":")[2]), stores, language)
            backend = OracleBackend(references)
    else:
        raise CliError(
            f"unknown backend spec {spec!r}; expected remote, scripted:<path> or oracle:<path>"
        )
    if args.cache == "off":
        return backend, opened
    cache = _loaded("cache: ", ReplayCache, backend, args.cache_dir, args.cache)
    return cache, [*opened, cache]


# A run of the characters `str.splitlines()` breaks at, which `#status` turns into one space.
_LINE_BREAKS = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def render_trace(record: GenerationRecord, seed: int) -> str:
    """Line-oriented session trace: header block, then one row per decision."""
    status = "complete" if record.complete else _LINE_BREAKS.sub(" ", f"aborted: {record.error}")
    lines = [
        f"#video_id\t{record.video_id}",
        f"#duration\t{record.video_duration:.3f}",
        f"#strategy\t{record.config.kind.value}",
        f"#step\t{record.config.step:g}",
        f"#window_cap\t{record.config.window_cap}",
        f"#icl_shots\t{record.config.icl_shots}",
        f"#language\t{record.language}",
        f"#seed\t{seed}",
        f"#status\t{status}",
    ]
    for step in record.steps:
        if step.utterance is not None:
            verdict, text = "SPEAK", step.utterance.text.replace("\t", " ")
        else:
            verdict, text = "WAIT", ""
        lines.append(f"{step.index}\t{step.time:.3f}\t{step.prompt_digest}\t{verdict}\t{text}")
    return "\n".join(lines) + "\n"


def read_trace_header(path: Path) -> tuple[float | None, str | None]:
    """The `#duration` and `#language` of a trace's header, None for a line it lacks;
    a `#duration` that is not a time a timeline can hold raises ValueError naming the file."""
    duration = language = None
    for line in read_utf8(path).splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line.partition("\t")
        if key == "#duration":
            try:
                duration = check_timeline_seconds(float(value), "#duration")
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        elif key == "#language":
            language = value
    return duration, language


def _run_in_order(run: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """`[run(item) for item in items]`, with at most `jobs` runs at once.

    The calling thread and `min(jobs, len(items)) - 1` helper threads take the
    items in order, so `jobs=1` starts no thread. A run that raises an
    `Exception` leaves the other items running; one that raises an interrupt
    or exit stops the handing out of items. Either way the first exception in
    item order is raised only once every helper has joined.
    """
    results: list = [None] * len(items)
    errors: list[BaseException | None] = [None] * len(items)
    pending = list(range(len(items) - 1, -1, -1))  # popped from the end: item order
    lock = threading.Lock()

    def stop() -> None:
        with lock:
            pending.clear()

    def work() -> None:
        while True:
            with lock:
                if not pending:
                    return
                i = pending.pop()
            try:
                results[i] = run(items[i])
            except BaseException as exc:  # re-raised below, once every helper has joined
                errors[i] = exc
                if not isinstance(exc, Exception):
                    stop()

    helpers = [threading.Thread(target=work) for _ in range(min(jobs, len(items)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        stop()  # items are left only when an interrupt ended work() early
        for helper in helpers:
            helper.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _generate(
    args: Args,
    prompts: PromptSet,
    cells: list[tuple[StrategyConfig, Path]],
    stores: list[FrameStore],
    references: dict[str, CommentaryTrack] | None = None,
) -> tuple[int, list[dict[str, GenerationRecord]]]:
    """Run the `(strategy, out_dir)` cells in turn on one backend, writing each cell's outputs
    to its dir when it ends; return the exit code and each cell's records by video id."""
    for _, out_dir in cells:
        _check_out_dir(args, out_dir)
        for store in stores:
            trace_path = out_dir / f"{store.video_id}.trace"
            if trace_path.exists() and not args.force:
                raise CliError(f"refusing to overwrite {trace_path}; pass --force to allow")
    backend, opened = _backend(args, prompts.decision.language, stores, references)

    def run_one(session: tuple[StrategyConfig, FrameStore]) -> GenerationRecord:
        strategy, store = session
        clock = WallClock() if args.wall else SimulatedClock()
        return run_session(store, strategy, backend, clock, prompts)

    cell_records = []
    try:
        for strategy, out_dir in cells:
            _loaded(f"output dir {out_dir}: ", out_dir.mkdir, parents=True, exist_ok=True)
            ended = _loaded("", _run_in_order, run_one, [(strategy, s) for s in stores], args.jobs)
            records = {record.video_id: record for record in ended}
            cell_records.append(records)
            summary_lines = ["video_id\tstatus\tdecisions\tutterances"]
            for video_id, record in sorted(records.items()):
                _write(out_dir / f"{video_id}.srt", to_srt(record.track))
                _write(out_dir / f"{video_id}.trace", render_trace(record, args.seed))
                status = "complete" if record.complete else "partial"
                summary_lines.append(
                    f"{video_id}\t{status}\t{len(record.steps)}\t{len(record.track.utterances)}"
                )
                print(
                    f"{video_id}: {len(record.steps)} decisions, "
                    f"{len(record.track.utterances)} utterances ({status})"
                )
                if not record.complete:
                    print(f"  {record.error}", file=sys.stderr)
            _write(out_dir / "summary.tsv", "\n".join(summary_lines) + "\n")
    finally:
        for resource in opened:
            resource.close()
    complete = all(record.complete for records in cell_records for record in records.values())
    return EXIT_OK if complete else EXIT_PARTIAL, cell_records


def cmd_generate(args: Args) -> int:
    strategy, prompts = _run_settings(args)
    stores = _load_stores(Path(args.manifest))
    return _generate(args, prompts, [(strategy, Path(args.out))], stores)[0]


def _make_scorer(spec: str, language: str) -> SimilarityScorer:
    if spec == "lexical":
        return LexicalOverlapScorer(unit=default_unit_for_language(language))
    if spec == "embedding":
        return _loaded("scorer: ", EmbeddingScorer)
    raise CliError(f"unknown scorer {spec!r}; expected lexical or embedding")


def _trace_duration(trace: Path, language: str) -> float | None:
    """The video's duration by its trace, None without one; a trace made in a language
    other than `language` raises ValueError."""
    if not trace.exists():
        return None
    duration, traced = read_trace_header(trace)
    if traced is not None and traced != language:
        raise ValueError(f"{trace}: generated in {traced!r}, but --language is {language!r}")
    return duration


def _scores(report: EvalReport) -> dict[str, float]:
    """The report's scores by report key, each a row and a stdout line per video and as a mean."""
    return {KEY_ALIGNMENT: report.alignment, KEY_ROUGE: report.rouge_l, KEY_OVERLAP: report.overlap}


def _write_utf8(path: Path, text: str) -> None:
    with open(path, "wb") as f:  # opened before encoding, as `Path.write_text` does
        f.write(text.encode("utf-8"))


def _write(path: Path, text: str, label: str = "output") -> None:
    """Write `text` in UTF-8 to `path`, in a dir that exists; an error doing so is a
    CliError naming `path`."""
    _loaded(f"{label} {path}: ", _write_utf8, path, text)


def _write_report(path: str | None, lines: list[str]) -> None:
    if path:
        report = Path(path)
        _loaded(f"report {report}: ", report.parent.mkdir, parents=True, exist_ok=True)
        _write(report, "\n".join(lines) + "\n", "report")


def _load_pairs(
    gen_dir: Path, ref_dir: Path, language: str
) -> list[tuple[str, CommentaryTrack, CommentaryTrack]]:
    """The (video_id, generated, reference) tracks of matching files, in sorted-id order."""
    if not gen_dir.is_dir():
        raise CliError(f"generated dir not found: {gen_dir}")
    if not ref_dir.is_dir():
        raise CliError(f"reference dir not found: {ref_dir}")
    gen_ids = {p.stem for p in entries_ending(gen_dir, ".srt")}
    ref_files = _reference_files(ref_dir)
    gen_orphans = sorted(gen_ids - set(ref_files))
    ref_orphans = sorted(set(ref_files) - gen_ids)
    if gen_orphans or ref_orphans:
        raise CliError(
            f"unmatched generated ids: {', '.join(gen_orphans) or '(none)'}; "
            f"unmatched reference ids: {', '.join(ref_orphans) or '(none)'}"
        )
    if not gen_ids:
        raise CliError(f"no .srt files found in {gen_dir}")
    pairs = []
    for video_id in sorted(gen_ids):
        label = f"{video_id}: "
        duration = _loaded(label, _trace_duration, gen_dir / f"{video_id}.trace", language)
        gen_track, ref_track = [
            _loaded(label, load_reference, path, video_id, duration, language)
            for path in (gen_dir / f"{video_id}.srt", ref_files[video_id])
        ]
        if duration is None:  # no trace: both run to the later of the two files' ends
            duration = max(gen_track.video_duration, ref_track.video_duration)
            gen_track = replace(gen_track, video_duration=duration)
            ref_track = replace(ref_track, video_duration=duration)
        pairs.append((video_id, gen_track, ref_track))
    return pairs


def cmd_evaluate(args: Args) -> int:
    language = args.language
    pairs = _load_pairs(Path(args.gen_dir), Path(args.ref_dir), language)
    scorer = _make_scorer(args.scorer, language)
    rows: list[str] = []
    reports: list[EvalReport] = []
    try:
        for video_id, gen_track, ref_track in pairs:
            report = _loaded(f"{video_id}: ", evaluate, gen_track, ref_track, scorer, language)
            reports.append(report)
            print(f"video: {video_id}")
            for key, value in _scores(report).items():
                rows.append(f"{video_id}\t{key}\t{value:.4f}")
                print(f"  {key}: {value:.4f}")
            rows.extend(f"{video_id}\tbin_{i}\t{s:.4f}" for i, s in enumerate(report.bin_scores))
            print(f"  bin_scores: {' '.join(f'{s:.2f}' for s in report.bin_scores)}")
            for key in COUNT_KEYS:
                rows.append(f"{video_id}\t{key}\t{getattr(report, key)}")
                print(f"  {key}: {getattr(report, key)}")
    finally:
        close = getattr(scorer, "close", None)  # the embedding scorer's; lexical has none
        if close is not None:
            close()

    n = len(reports)
    scores = [_scores(r) for r in reports]
    print(f"corpus ({n} videos)")
    for key in scores[0]:
        mean = sum(s[key] for s in scores) / n
        rows.append(f"corpus\t{key}\t{mean:.4f}")
        print(f"  {key}: {mean:.4f}")
    for i in range(BIN_COUNT):
        rows.append(f"corpus\tbin_{i}\t{sum(r.bin_scores[i] for r in reports) / n:.4f}")
    for key in COUNT_KEYS:
        counts = [getattr(r, key) for r in reports]
        avg, low, high = sum(counts) / n, min(counts), max(counts)
        rows.append(f"corpus\t{key}_avg\t{avg:.4f}")
        rows += [f"corpus\t{key}_min\t{low}", f"corpus\t{key}_max\t{high}"]
        print(f"  {key} avg/min/max: {avg:.1f}/{low}/{high}")
    _write_report(args.report, rows)
    return EXIT_OK


def _parse_steps(spec: str) -> list[float]:
    try:
        steps = [float(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise CliError(f"bad --steps value {spec!r}") from exc
    if not steps:
        raise CliError("--steps must list at least one step size")
    seen: set[str] = set()
    for step in steps:
        name = f"{step:g}"
        # A step's cells go to step-{name}/, so no two steps may share that name.
        if name in seen:
            raise CliError(f"--steps lists step {name} more than once")
        seen.add(name)
    return steps


def cmd_sweep(args: Args) -> int:
    steps = _parse_steps(args.steps)
    ref_dir = Path(args.ref)
    if not ref_dir.is_dir():
        raise CliError(f"reference dir not found: {ref_dir}")
    args.backend = args.backend or f"oracle:{ref_dir}"
    base, prompts = _run_settings(args)
    # Every cell's strategy is checked before the first runs.
    strategies = [
        _loaded("", replace, base, step=step, kind=kind) for step in steps for kind in SWEEP_KINDS
    ]
    cells = [(s, Path(args.out) / f"step-{s.step:g}" / s.kind.value) for s in strategies]
    stores = _load_stores(Path(args.manifest))
    references = _load_references(ref_dir, stores, prompts.decision.language)
    # An oracle of the --ref dir replays the same tracks the cells are scored against.
    spec, _, path = args.backend.partition(":")
    same_refs = spec == "oracle" and Path(path).resolve() == ref_dir.resolve()
    worst, cell_records = _generate(args, prompts, cells, stores, references if same_refs else None)
    # Each track equals its own SRT, so each value is what `evaluate` of the cell dir reads.
    values = [
        sum(timing_alignment(records[v].track, references[v]) for v in sorted(references))
        / len(references)
        for records in cell_records
    ]
    table_lines = ["step\tstateless\tfeedback\treal-time\tavg"]
    for i, step in enumerate(steps):
        row = values[i * len(SWEEP_KINDS) : (i + 1) * len(SWEEP_KINDS)]
        avg = sum(row) / len(row)
        table_lines.append(f"{step:g}\t" + "\t".join(f"{v:.3f}" for v in row) + f"\t{avg:.3f}")
    print("\n".join(table_lines))
    _write_report(args.report, table_lines)
    return worst


def _add_run_flags(parser: argparse.ArgumentParser | _Flags) -> None:
    """The run flags that `generate` and `sweep` share."""
    parser.add_argument(
        "--manifest", required=True, help="manifest file or directory of *.manifest"
    )
    parser.add_argument("--templates", default="race-en", help="built-in set name or directory")
    parser.add_argument("--rate-model", default=None, help="e.g. en=word:4,ja=character:8")
    parser.add_argument(
        "--window-cap", type=int, default=DEFAULT_WINDOW_CAP, help="max frames per window"
    )
    parser.add_argument("--cache", default="off", choices=["off", *CACHE_MODES])
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--seed", type=int, default=0, help="seed for demonstration sampling")
    parser.add_argument("--jobs", type=int, default=4, help="parallel videos")
    parser.add_argument("--force", action="store_true", help="overwrite existing traces")


# generate's own flags by dest, in help order. Each sweep cell takes the
# defaults of the _CELL_FLAGS among them; cmd_sweep sets its strategy and step.
_GENERATE_FLAGS = {
    "strategy": dict(
        default="feedback",
        choices=[k.value for k in StrategyKind],
        help="decoding strategy (default: feedback)",
    ),
    "step": dict(type=float, default=2.0, help="decision interval in seconds, whole ms"),
    "shots": dict(type=int, default=None, help="ICL demonstrations to inject"),
    "max_history": dict(type=int, default=None, help="cap on history lines"),
    "backend": dict(required=True, help="remote | scripted:<path> | oracle:<path>"),
    "out": dict(required=True, help="output directory"),
    "demos": dict(default=None, help="demonstration manifest (uri<TAB>text)"),
    "wall": dict(action="store_true", default=False, help="run against the wall clock"),
}
_CELL_FLAGS = ("strategy", "step", "shots", "max_history", "demos", "wall")


def _add_generate_flags(parser: argparse.ArgumentParser | _Flags) -> None:
    _add_run_flags(parser)
    for dest, kwargs in _GENERATE_FLAGS.items():
        parser.add_argument("--" + dest.replace("_", "-"), **kwargs)
    parser.set_defaults(func=cmd_generate)


def _add_evaluate_flags(parser: argparse.ArgumentParser | _Flags) -> None:
    parser.add_argument("gen_dir", help="directory of generated .srt (+ .trace) files")
    parser.add_argument("ref_dir", help="directory of reference .srt or .tsv transcripts")
    parser.add_argument("--scorer", default="lexical", help="lexical | embedding")
    parser.add_argument("--language", default="en", help="language tag for unit counting")
    parser.add_argument("--report", default=None, help="write the tab-separated report here")
    parser.set_defaults(func=cmd_evaluate)


def _add_sweep_flags(parser: argparse.ArgumentParser | _Flags) -> None:
    _add_run_flags(parser)
    parser.add_argument("--ref", required=True, help="reference directory")
    parser.add_argument("--steps", required=True, help="comma-separated step sizes, e.g. 1,2,5,10")
    parser.add_argument("--backend", default=None, help="defaults to oracle:<ref>")
    parser.add_argument("--out", required=True, help="output root: one dir per step and strategy")
    parser.add_argument("--report", default=None, help="write the sweep table here")
    cell_defaults = {key: _GENERATE_FLAGS[key]["default"] for key in _CELL_FLAGS}
    parser.set_defaults(func=cmd_sweep, **cell_defaults)


# Each command's help line in the top-level help, and the builder of its flags.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser | _Flags], None]]] = {
    "generate": ("run sessions over manifests and write SRT + traces", _add_generate_flags),
    "evaluate": ("score generated SRT against references", _add_evaluate_flags),
    "sweep": ("run generate, then score agreement@1s, across step sizes", _add_sweep_flags),
}


class _Flags:
    """A command's flags as its builder declares them to an argparse parser, read back
    without argparse: `parse` takes an argument list written in full."""

    def __init__(self, command: str) -> None:
        self.options: dict[str, tuple[str, dict]] = {}  # "--flag": (dest, add_argument kwargs)
        self.positionals: list[str] = []
        self.required: set[str] = set()
        self.defaults: dict[str, object] = {}
        _COMMANDS[command][1](self)
        self.set_defaults(command=command)

    def add_argument(self, name: str, **kwargs) -> None:
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            self.options[name] = (dest, kwargs)
            if kwargs.get("required"):
                self.required.add(dest)
        else:
            dest = name
            self.positionals.append(dest)
        store_true = kwargs.get("action") == "store_true"
        self.defaults[dest] = kwargs.get("default", False if store_true else None)

    def set_defaults(self, **kwargs: object) -> None:
        self.defaults.update(kwargs)

    def parse(self, args: Sequence[str]) -> SimpleNamespace | None:
        """The namespace the whole CLI's parser gives for the command and `args`, or None
        where argparse must read them: help, an abbreviation, `--`, a repeated flag, a value
        that is empty, starts with `-`, or fails its type or choices, a missing flag or
        positional, or an extra one."""
        values = dict(self.defaults)
        given: set[str] = set()
        positionals = []
        rest = iter(args)
        for arg in rest:
            if not arg.startswith("-"):
                positionals.append(arg)
                continue
            name, eq, value = arg.partition("=")
            if name not in self.options:
                return None
            dest, kwargs = self.options[name]
            if dest in given:
                return None
            given.add(dest)
            if kwargs.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                value = next(rest, "")
            if not value or value.startswith("-"):
                return None
            try:
                value = kwargs.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if value not in kwargs.get("choices", (value,)):
                return None
            values[dest] = value
        if len(positionals) != len(self.positionals) or not self.required <= given:
            return None
        values.update(zip(self.positionals, positionals))
        return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole CLI."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise CliError(message)

    parser = _Parser(prog="commentary", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command's flags written in full need no parser. Help, abbreviations and
    # errors, and a line that names no command first, go to the whole CLI's parser.
    try:
        args = _Flags(argv[0]).parse(argv[1:]) if argv and argv[0] in _COMMANDS else None
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
