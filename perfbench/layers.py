"""Per-layer counts and self times for one traced benchmark sample.

The tracer wraps public functions of the autfn modules from outside the
package: each wrapped name is replaced in every autfn module that bound it
(``runner`` imports ``order`` and ``change_basis``, ``endos`` imports
``multiply``, the package root re-exports most names), and methods are
replaced on their class.  Every wrapper counts calls.  A wrapper whose self
time is reported also adds the call's inclusive time minus the time of timed
calls made inside it; the other wrappers take no time, so what their calls
cost stays in the self time of the timed caller.  Some wrappers also read a
count of work out of the call, such as the length of a Nielsen log or the
order of an enumerated group.

Install it only in a fresh interpreter that runs one traced sample: the
wrappers stay in place until the process ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, name, reported): the wrapped functions and which of their "calls"
# and "self_s" the benchmark reports.  A dotted name is a method.  Only the
# functions whose self_s is reported are timed.
WRAPPED = (
    ("scenario", "parse_scenario", ("self_s",)),
    ("runner", "Evaluator.run", ()),
    ("runner", "Evaluator.exec_statement", ("self_s",)),
    ("words", "multiply", ("calls", "self_s")),
    ("words", "invert", ("calls",)),
    ("endos", "nielsen_reduce", ("calls", "self_s")),
    ("endos", "invert_automorphism", ("calls", "self_s")),
    ("endos", "is_basis", ("calls",)),
    ("endos", "change_basis", ("calls", "self_s")),
    ("endos", "compose", ("calls", "self_s")),
    ("endos", "Endomorphism.apply", ("calls",)),
    ("endos", "order", ("self_s",)),
    ("endos", "out_order", ("self_s",)),
    ("endos", "is_inner", ("calls",)),
    ("graphs", "presentation", ("calls", "self_s")),
    ("graphs", "induced_endo", ("self_s",)),
    ("graphs", "induced_out_rep", ("self_s",)),
    ("matrices", "abelianize", ("calls", "self_s")),
    ("matrices", "det", ("self_s",)),
    ("modgroups", "mat_mul", ("calls", "self_s")),
    ("modgroups", "sl_group", ("self_s",)),
    ("modgroups", "enumerate_group", ()),
    ("modgroups", "conjugacy_classes", ("self_s",)),
    ("modgroups", "normal_closure", ("calls", "self_s")),
    ("modgroups", "is_simple", ("self_s",)),
    ("modgroups", "kernel_of_reduction", ("self_s",)),
    ("modgroups", "invariant_subreps", ("self_s",)),
    ("modgroups", "splitting_search", ("self_s",)),
    ("modgroups", "section_search", ()),
    ("modgroups", "closure_spans_kernel_additively", ("self_s",)),
)

# Counts of work, each read from the arguments or result of one call.
COUNTS = (
    "scenario.bytes",
    "runner.records",
    "words.Word.constructed",
    "endos.nielsen_moves",
    "endos.cap_trips",
    "modgroups.elements_enumerated",
    "modgroups.normal_closure.elements",
    "modgroups.pairs_expanded",
    "modgroups.pairs_tried",
)


def _observe(counts: dict, name: str, args, result) -> None:
    if name == "parse_scenario":
        counts["scenario.bytes"] += len(args[0].encode())
    elif name == "Evaluator.run":
        counts["runner.records"] += len(result.records)
    elif name == "nielsen_reduce":
        counts["endos.nielsen_moves"] += len(result[1])
    elif name in ("order", "out_order"):
        counts["endos.cap_trips"] += result is None
    elif name == "enumerate_group":
        counts["modgroups.elements_enumerated"] += result.order
    elif name == "normal_closure":
        counts["modgroups.normal_closure.elements"] += result.order
    elif name == "section_search":
        counts["modgroups.pairs_expanded"] += result.pairs_expanded
        counts["modgroups.pairs_tried"] += result.pairs_tried


def _key(module: str, name: str) -> str:
    return f"{module}.{name.split('.')[-1]}"


class Tracer:
    """Counters for one process; :meth:`install` puts the wrappers in place."""

    def __init__(self) -> None:
        self.cells: dict[str, list] = {}  # key -> [calls, self seconds]
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack = [0.0]  # traced time spent inside each open call

    def _wrap(self, module: str, name: str, fn, timed: bool):
        cell = self.cells.setdefault(_key(module, name), [0, 0.0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def untimed(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            _observe(counts, name, args, result)
            return result

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - inner
            _observe(counts, name, args, result)
            return result

        return functools.wraps(fn)(wrapper if timed else untimed)

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "autfn" or key.startswith("autfn.")]
        for module, name, reported in WRAPPED:
            home = sys.modules[f"autfn.{module}"]
            timed = "self_s" in reported
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr,
                        self._wrap(module, name, getattr(cls, attr), timed))
                continue
            original = getattr(home, name)
            wrapper = self._wrap(module, name, original, timed)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        word = sys.modules["autfn.words"].Word
        word.__post_init__ = self._counted("words.Word.constructed",
                                           word.__post_init__)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for module, name, reported in WRAPPED:
            key = _key(module, name)
            calls, self_s = self.cells.get(key, (0, 0.0))
            if "calls" in reported:
                out[f"{key}.calls"] = calls
            if "self_s" in reported:
                out[f"{key}.self_s"] = self_s
        out.update(self.counts)
        return out
