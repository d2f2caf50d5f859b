"""One round of a workload in a fresh interpreter: generate, replay, evaluate.

Usage: ``python3 perfbench/worker.py PLAN.json``. The plan names the CLI
argument lists of each phase, whether to trace, and where to write the
result. The worker times each phase around ``commentary.cli.main`` and
records decision latency through the `Clock` the CLI creates: a decision
lasts from one ``advance_to`` call to the next, or to the session's return.
"""

import json
import resource
import sys
import time
from time import perf_counter

_import_start = perf_counter()
import commentary.cli as cli  # noqa: E402

IMPORT_MS = 1e3 * (perf_counter() - _import_start)


class DecisionRecorder:
    """Times decisions through the clock and session the CLI runs."""

    def __init__(self) -> None:
        self.first_advance: float | None = None
        self.samples: list[float] = []
        self.active = True

    def install(self) -> None:
        recorder = self
        base_clock = cli.SimulatedClock
        run_session = cli.run_session

        class TimedClock(base_clock):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.marks: list[float] = []

            def advance_to(self, t):
                if recorder.first_advance is None:
                    recorder.first_advance = time.monotonic()
                self.marks.append(perf_counter())
                return super().advance_to(t)

        def timed_session(store, config, backend, clock, prompts, **kwargs):
            record = run_session(store, config, backend, clock, prompts, **kwargs)
            marks = clock.marks + [perf_counter()]
            if recorder.active:
                recorder.samples.extend(b - a for a, b in zip(marks, marks[1:]))
            return record

        cli.SimulatedClock = TimedClock
        cli.run_session = timed_session


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    recorder = DecisionRecorder()
    recorder.install()
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, plan["bench_root"])
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    result = {"import_ms": IMPORT_MS, "exit": {}, "seconds": {}}
    for phase, argv in plan["phases"]:
        recorder.active = phase == "generate"
        start = perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.run_phase(phase, cli.main, argv)
        result["seconds"][phase] = perf_counter() - start
        result["exit"][phase] = code
        if code != 0:
            break

    result["first_advance"] = recorder.first_advance
    result["decision_s"] = recorder.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(recorder.samples))
        tracing.write_spans(tracer, plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
