"""Benchmark for autfn: replays of scenario files, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports autfn from ``src``.
Workloads (``--workload all`` runs each in turn):

* ``corpus-finite-groups``: frozen copy of the finite-group scenarios, large
  checks included; all of its time goes to the residue-matrix groups.
* ``corpus-free-groups``: frozen copy of the other bundled scenarios, the
  replay traffic of small automorphisms, graph realizations and basis changes.
* ``generated-chains``: scenario text that ``chains.py`` makes from the seed,
  long random automorphism chains whose answers follow from construction.

One sample is one child process (``child.py``) that imports autfn, reads the
scenarios and replays them; ``sl_group`` tables are cached per process, so a
reused interpreter would time warm tables that no command-line user gets.
Before each sample the run starts two children that stop once set-up is
done, so set-up time is sampled across the whole run.  Samples start until
the next one would end after ``--seconds``.  Every verdict is
judged by its record status against the expectation written in the input;
any status other than pass counts as failed.

Times are seconds at reference speed.  Other tenants of a shared host slow
the whole host by up to 2x, in phases that last from under a second to
minutes, longer than a run.  Each child therefore times a fixed kernel on
its own CPU while it works (see ``child.py``), and every time is scaled by
``REF_KERNEL_S`` over the kernel's mean time per call meanwhile.  A change
to autfn moves the time and leaves the kernel alone, so it moves the scaled
time by the same share, as long as autfn holds the interpreter lock while it
works (code that released it would share the CPU with the kernel).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: spawn to ``import autfn`` done and inputs read (median over
  all children);
* ``wall_s``: set-up end to the last verdict, each step (the parse of a
  scenario or one of its statements) scaled by the kernel's speed around it
  (median over samples);
* ``verdict_p50_ms``: median over assertion and check statements of each
  statement's time, scaled by the kernel's speed around that statement
  (median over samples);
* ``peak_rss_mb``: the child's peak resident set (median over samples).

With ``--trace 1`` samples alternate between untraced and traced children,
and the run reports the per-layer metrics of ``layers.py`` (low median over
traced samples, so that counts stay whole; self times are not scaled) and
``trace.overhead_frac``, the traced over the untraced ``wall_s``, minus one.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CORPUS = HERE / "corpus"
SETUP_ONLY = 2  # set-up-only children started before each sample
# About the kernel's mean seconds per call on the machine in meta.json in
# its fast phases, so that scaled times read as seconds there.
REF_KERNEL_S = 40e-6
CHILD_TIMEOUT_S = 120  # a run of 40 s plus one stuck sample stays under 180 s

sys.path.insert(0, str(HERE))
import chains  # noqa: E402

WORKLOADS = ("corpus-finite-groups", "corpus-free-groups", "generated-chains")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def inputs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(name, text) of each scenario; the corpora do not depend on the seed."""
    if workload == "generated-chains":
        return chains.generate(seed)
    directory = CORPUS / workload.removeprefix("corpus-")
    return [(p.stem, p.read_text()) for p in sorted(directory.glob("*.scn"))]


def spawn(scenarios, replay: bool, trace: bool) -> tuple[float, dict]:
    """Set-up seconds and the output of one child process."""
    job = json.dumps({"scenarios": scenarios, "replay": replay, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", str(CHILD)], input=job, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sample exited with {proc.returncode} (run from the root "
                           f"of an autfn source checkout): {proc.stderr.strip()}")
    out = json.loads(proc.stdout)
    return out["ready"] - spawned, out


def measure(scenarios, seconds: float, trace: bool) -> dict:
    """Samples, each after its set-up-only children, for ``seconds``;
    summarized."""
    spawn(scenarios, replay=False, trace=False)  # writes bytecode caches
    deadline = time.monotonic() + seconds
    setup: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        tracing = trace and len(traced) < len(untraced)
        started = time.monotonic()
        for _ in range(SETUP_ONLY):
            setup_s, out = spawn(scenarios, replay=False, trace=False)
            setup.append(scaled(setup_s, out["setup_kernel_s"]))
        setup_s, out = spawn(scenarios, replay=True, trace=tracing)
        setup.append(scaled(setup_s, out["setup_kernel_s"]))
        (traced if tracing else untraced).append(out)
        finished = time.monotonic()
        longest = max(longest, finished - started)
        if trace and not traced:
            continue
        if finished + longest > deadline:
            break

    samples = untraced + traced
    attempted = failed = 0
    correct = True
    problems: list[str] = []
    for out in samples:
        statuses = out["statuses"]
        tried = sum(statuses.values()) - statuses.get("note", 0)
        passed = statuses.get("pass", 0)
        attempted += tried
        failed += tried - passed
        correct &= passed == tried == len(out["verdict_steps"])
        problems.extend(out["problems"])

    wall = statistics.median(map(scaled_wall, untraced))
    if trace:
        metrics = {key: statistics.median_low(out["layers"][key] for out in traced)
                   for key in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (
            statistics.median(map(scaled_wall, traced)) / wall - 1)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "verdict_p50_ms": 1000 * statistics.median(
                statistics.median(scaled(out["steps"][i], out["step_kernel_s"][i])
                                  for i in out["verdict_steps"])
                for out in untraced),
            "peak_rss_mb": statistics.median(
                out["maxrss_kb"] for out in untraced) / 1024,
        }
    return {
        "correct": correct and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "samples": (len(untraced), len(traced), len(setup)),
        "problems": sorted(set(problems)),
    }


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at reference speed, given the kernel's time meanwhile."""
    return seconds * REF_KERNEL_S / kernel_s


def scaled_wall(out: dict) -> float:
    """Wall time of one sample at reference speed: each step scaled by the
    kernel's speed around it, the time between steps by its mean speed."""
    between = out["wall"] - sum(out["steps"])
    return scaled(between, out["kernel_s"]) + sum(
        map(scaled, out["steps"], out["step_kernel_s"]))


def report(workload: str, result: dict) -> None:
    """Human-readable lines for one workload."""
    untraced, traced, setups = result["samples"]
    print(f"{workload}: {untraced} untraced and {traced} traced samples, "
          f"{setups} set-ups")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {result['failed'] / max(result['attempted'], 1):.6g} frac "
          f"({result['failed']} of {result['attempted']} verdicts)")
    for line in result["problems"][:20]:
        print(f"  not passed: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        scenarios = inputs(name, args.seed)
        results[name] = measure(scenarios, args.seconds, bool(args.trace))
        report(name, results[name])
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        summary = {k: results[args.workload][k]
                   for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
