"""One benchmark sample: a fresh interpreter that replays the given scenarios.

``run.py`` starts this file with ``python3 -I`` and writes a JSON job to its
standard input: the scenarios as ``[name, text]`` pairs, whether to replay
them at all (a set-up-only sample stops once the inputs are read) and whether to
trace the layers.  The sample prints one JSON object: the monotonic time at
which set-up ended, the wall time of the replay, the time of each step (the
parse of a scenario or one of its statements, in replay order) and which
steps are verdicts, the record statuses, the peak resident set and, when
traced, the layer metrics.

It also measures how fast the host ran meanwhile.  The process keeps to one
CPU, and a thread runs a fixed kernel of a few tens of microseconds every few
milliseconds, so the kernel shares that CPU, and the slowdowns that other
tenants of a shared host cause, with the replay.  For set-up, for the whole
replay and for each step the sample prints the kernel's mean time per call
over the probe calls made meanwhile, widened back in time to at least
``WINDOW`` calls when fewer fell inside; ``run.py`` scales each time by it.

autfn is imported from the ``src`` directory next to this benchmark, never
from an installed copy.
"""

import os
import sys
import threading
import time
from pathlib import Path

PROBE_PAUSE_S = 0.004
WINDOW = 8  # fewest probe calls that one kernel time is averaged over


def kernel() -> int:
    """Fixed pure-Python work, independent of autfn."""
    total = 0
    t = (1, 2, 3, 4)
    for i in range(300):
        t = (t[1], t[2], t[3], (t[0] * 7 + i) % 101)
        total += t[3]
    return total


class Probe(threading.Thread):
    """Times ``kernel`` from a second thread; ``history[n]`` is the seconds
    that its first n calls took."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.history = [0.0]

    def run(self) -> None:
        clock = time.perf_counter
        history = self.history
        while True:
            start = clock()
            kernel()
            history.append(history[-1] + clock() - start)
            time.sleep(PROBE_PAUSE_S)

    def mark(self) -> int:
        return len(self.history) - 1

    def kernel_s(self, since: int, until: int) -> float:
        """Mean seconds per kernel call from mark ``since`` to ``until``,
        over at least ``WINDOW`` calls where the probe has made that many."""
        since = max(0, min(since, until - WINDOW))
        return (self.history[until] - self.history[since]) / (until - since)


os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
PROBE = Probe()
PROBE.start()
while not PROBE.mark():
    time.sleep(0)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import json  # noqa: E402
import resource  # noqa: E402

import autfn  # noqa: E402
from autfn import runner, scenario  # noqa: E402

VERDICTS = (scenario.Assertion, scenario.CheckStmt)


def replay(scenarios, steps: list, kernels: list, verdict_steps: list) -> list:
    """Records of every scenario; appends each step's seconds to ``steps``,
    the kernel's time per call meanwhile to ``kernels`` and the index of each
    verdict statement's step to ``verdict_steps``."""

    class TimedEvaluator(runner.Evaluator):
        def exec_statement(self, stmt, anchor):
            if isinstance(stmt, VERDICTS):
                verdict_steps.append(len(steps))
            mark = PROBE.mark()
            start = time.perf_counter()
            try:
                return super().exec_statement(stmt, anchor)
            finally:
                steps.append(time.perf_counter() - start)
                kernels.append(PROBE.kernel_s(mark, PROBE.mark()))

    records = []
    for name, text in scenarios:
        mark = PROBE.mark()
        start = time.perf_counter()
        try:
            parsed = scenario.parse_scenario(text, name)
        except scenario.ParseError as exc:
            records.append(runner.Record(name, "(parse)", runner.ERROR, str(exc), ""))
            verdict_steps.append(len(steps))
            continue
        finally:
            steps.append(time.perf_counter() - start)
            kernels.append(PROBE.kernel_s(mark, PROBE.mark()))
        records.extend(TimedEvaluator(parsed, include_large=True).run().records)
    return records


def main() -> int:
    job = json.load(sys.stdin)
    ready = time.monotonic()
    at_ready = PROBE.mark()
    setup_kernel_s = PROBE.kernel_s(0, at_ready)
    if not Path(autfn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"autfn imported from {autfn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = {"ready": ready, "setup_kernel_s": setup_kernel_s}
    if job["replay"]:
        tracer = None
        if job["trace"]:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        steps: list[float] = []
        kernels: list[float] = []
        verdict_steps: list[int] = []
        records = replay(job["scenarios"], steps, kernels, verdict_steps)
        out["wall"] = time.monotonic() - ready
        out["kernel_s"] = PROBE.kernel_s(at_ready, PROBE.mark())
        statuses: dict[str, int] = {}
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        out.update(
            steps=steps,
            step_kernel_s=kernels,
            verdict_steps=verdict_steps,
            statuses=statuses,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            problems=[f"{r.scenario}: {r.assertion}: {r.status}: {r.detail}"
                      for r in records if r.status not in (runner.PASS, runner.NOTE)],
        )
        if tracer is not None:
            out["layers"] = tracer.metrics()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
