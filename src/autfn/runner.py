"""Scenario evaluation and replay reports.

Definitions evaluate eagerly in order; every assertion is judged
independently and a failure never aborts the run.  A report is a flat list of
records (scenario, assertion text, status, detail, anchor) with deterministic
ordering, serializable to the JSON shape
``[{scenario, assertion, status, detail, anchor}]``.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import modgroups
from .endos import (
    DEFAULT_MAX_LEN, DEFAULT_MAX_POWER, Endomorphism, change_basis,
    equal_up_to_inner, invert_automorphism, is_inner, named, order, out_order,
    power_order,
)
from .graphs import (
    SYMMETRIES, EdgePath, EdgeStep, Graph, GraphAut, induced_endo,
    induced_out_rep, presentation,
)
from .matrices import (
    IntMatrix, abelianize, congruence_level_member, det, elementary,
    is_torelli, mod_reduce,
)
from .scenario import (
    Assertion, AutDeclExpr, AutDeclImages, AutExpr, AutIdent, AutInduced,
    AutName, AutNamedGen, AutPow, AutProd, BasisDecl, CheckStmt, ConstDecl,
    GautBlockDecl, GautBuiltinDecl, GensDecl, GraphBlockDecl, GraphCtorDecl,
    MatLit, NoteStmt, ParseError, PathLit, RankDecl, Scenario, WordDecl,
    WordLit, parse_scenario,
)
from .words import Word, format_word, reduce as reduce_word

PASS = "pass"
FAIL = "fail"
ERROR = "error"
SKIP = "skipped"
NOTE = "note"


class Record(NamedTuple):
    scenario: str
    assertion: str
    status: str
    detail: str
    anchor: str

    def to_dict(self) -> dict:
        return self._asdict()


class ReplayReport(NamedTuple):
    records: list[Record]

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.status in (FAIL, ERROR))

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.status == PASS)

    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.records], indent=2)

    def human(self) -> str:
        lines = []
        for r in self.records:
            lines.append(f"[{r.status.upper():7s}] {r.scenario}: {r.assertion}"
                         + (f"  -- {r.detail}" if r.detail else ""))
        lines.append(
            f"{self.passes} passed, {self.failures} failed/errored, "
            f"{len(self.records)} records"
        )
        return "\n".join(lines)


class _DefinitionError(Exception):
    """A definition failed; dependents report this as their cause."""


def _expand(atoms: tuple, step: Callable) -> list:
    """``step(item, k > 0)``, |k| times, for each atom ``(item, k)`` of a literal."""
    letters: list = []
    for item, k in atoms:
        letters.extend([step(item, k > 0)] * abs(k))
    return letters


def _product(values: list[Endomorphism]) -> Endomorphism:
    """The written product of evaluated factors, folded from the left."""
    out = values[0]
    for f in values[1:]:
        out = out * f
    return out


class Evaluator:
    def __init__(self, scenario: Scenario, include_large: bool = False):
        self.scenario = scenario
        self.include_large = include_large
        self.rank = scenario.rank
        self.layout = scenario.layout
        self.auts: dict[str, Endomorphism] = {}
        self.graphs: dict[str, Graph] = {}
        self.gauts: dict[str, GraphAut] = {}
        self.bases: dict[str, BasisDecl] = {}
        # Each automorphism inverted in this scenario, keyed both ways.
        self.inverses: dict[Endomorphism, Endomorphism] = {}
        self.failed_defs: dict[str, str] = {}
        self.records: list[Record] = []

    # value construction

    def word_of(self, lit: WordLit) -> Word:
        return reduce_word(
            _expand(lit.atoms, lambda ref, forward: ref.index if forward else -ref.index),
            self.rank,
        )

    def path_of(self, lit: PathLit, graph: Graph, fallback_start: str) -> EdgePath:
        steps = _expand(lit.atoms, EdgeStep)
        if not steps:
            return EdgePath(graph, fallback_start, ())
        src, dst = graph.endpoints(steps[0].edge)
        start = src if steps[0].forward else dst
        return EdgePath(graph, start, tuple(steps))

    def aut_of(self, expr: AutExpr) -> Endomorphism:
        if isinstance(expr, AutIdent):
            return Endomorphism.identity(self.rank)
        if isinstance(expr, AutName):
            if expr.name in self.failed_defs:
                raise _DefinitionError(
                    f"{expr.name!r} failed earlier: {self.failed_defs[expr.name]}"
                )
            return self.auts[expr.name]
        if isinstance(expr, AutNamedGen):
            return named(expr.kind, *(a.index for a in expr.args), rank=self.rank)
        if isinstance(expr, AutPow):
            base = self.aut_of(expr.base)
            return (base if expr.exp >= 0 else self.inverse(base)) ** abs(expr.exp)
        if isinstance(expr, AutProd):
            return _product([self.aut_of(f) for f in expr.factors])
        if isinstance(expr, AutInduced):
            return self.eval_induced(expr)
        raise AssertionError(f"unhandled expression {expr!r}")

    def inverse(self, f: Endomorphism) -> Endomorphism:
        """``invert_automorphism(f)``, computed once per map in a scenario."""
        inv = self.inverses.get(f)
        if inv is None:
            inv = invert_automorphism(f)
            self.inverses[f] = inv
            self.inverses[inv] = f
        return inv

    def order_of(
        self,
        expr: AutExpr,
        outer: bool = False,
        max_power: int = DEFAULT_MAX_POWER,
        max_word_len: int = DEFAULT_MAX_LEN,
    ) -> Optional[int]:
        """``order`` (``out_order`` when ``outer``) of an expression's value.

        For a literal conjugate ``a * ... * a^-1`` or ``a^-1 * ... * a``, every
        factor is evaluated as for the whole product, then the power loop runs
        on the middle product h.  Order, and innerness of a power, are
        conjugacy invariants, so when h's loop ends on a found k or on the
        power cap, its answer is the whole product's.  When it ends on the
        letter cap, the loop runs on the whole product instead.
        """
        factors = expr.factors if isinstance(expr, AutProd) else ()
        if len(factors) > 2 and (
            factors[-1] == AutPow(factors[0], -1) or factors[0] == AutPow(factors[-1], -1)
        ):
            values = [self.aut_of(f) for f in factors]
            got, letter_cap = power_order(
                _product(values[1:-1]), outer, max_power, max_word_len
            )
            if not letter_cap:
                return got
            whole = _product(values)
        else:
            whole = self.aut_of(expr)
        return (out_order if outer else order)(whole, max_power, max_word_len)

    def eval_induced(self, expr: AutInduced) -> Endomorphism:
        if expr.gaut in self.failed_defs:
            raise _DefinitionError(
                f"{expr.gaut!r} failed earlier: {self.failed_defs[expr.gaut]}"
            )
        aut = self.gauts[expr.gaut]
        graph = aut.graph
        if expr.mode == "at":
            base = expr.vertex
            assert base is not None
        else:
            assert expr.delta is not None
            delta_path = self.path_of(expr.delta, graph, graph.vertices[0])
            base = delta_path.start
        if expr.basis is not None:
            decl = self.bases[expr.basis]
            if decl.basepoint != base:
                raise ValueError(
                    f"basis {expr.basis!r} is based at {decl.basepoint!r}, "
                    f"induced action at {base!r}"
                )
        pres = presentation(graph, base)
        if pres.rank != self.rank:
            raise ValueError(
                f"graph rank {pres.rank} differs from scenario rank {self.rank}"
            )
        if expr.mode == "at":
            endo = induced_endo(pres, aut)
        else:
            assert expr.delta is not None
            delta_path = self.path_of(expr.delta, graph, base)
            endo = induced_out_rep(pres, aut, delta_path)
        if expr.basis is not None:
            decl = self.bases[expr.basis]
            basis_words = [Word.identity(self.rank)] * self.rank
            for ref, plit in decl.entries:
                loop = self.path_of(plit, graph, base)
                basis_words[ref.index - 1] = pres.path_to_word(loop)
            endo = change_basis(endo, basis_words)
        return endo

    def matrix_of(self, lit: MatLit) -> IntMatrix:
        if lit.form == "id":
            return IntMatrix.identity(self.rank)
        if lit.form == "negid":
            return -IntMatrix.identity(self.rank)
        if lit.form == "elementary":
            return elementary(lit.k, lit.r, lit.power, self.rank)
        return IntMatrix.from_rows(lit.rows)

    # graph automorphisms

    def build_gaut(self, stmt: GautBuiltinDecl | GautBlockDecl) -> GraphAut:
        graph = self.graphs[stmt.graph]
        if isinstance(stmt, GautBuiltinDecl):
            return SYMMETRIES[stmt.kind](graph)
        edge_map: dict[str, tuple[str, bool]] = {
            name: (name, False) for name, _, _ in graph.edges
        }
        for e, t, rev in stmt.entries:
            edge_map[e] = (t, rev)
        # Infer the vertex permutation from edge incidence.
        vmap: dict[str, str] = {}

        def bind(v: str, w: str) -> None:
            if v in vmap and vmap[v] != w:
                raise ValueError(
                    f"edge map forces vertex {v!r} to both {vmap[v]!r} and {w!r}"
                )
            vmap[v] = w

        for e, (t, rev) in edge_map.items():
            src, dst = graph.endpoints(e)
            tsrc, tdst = graph.endpoints(t)
            if rev:
                tsrc, tdst = tdst, tsrc
            bind(src, tsrc)
            bind(dst, tdst)
        for v in graph.vertices:
            vmap.setdefault(v, v)
        return GraphAut(graph, vmap, edge_map)

    # statements

    def run(self) -> ReplayReport:
        anchor = self.scenario.anchor or ""
        for stmt in self.scenario.statements:
            try:
                self.exec_statement(stmt, anchor)
            except Exception as exc:  # recorded, never fatal
                label = getattr(stmt, "name", None)
                if label is not None:
                    self.failed_defs[label] = str(exc)
                self.records.append(
                    Record(self.scenario.name, stmt.pretty(), ERROR,
                           f"{type(exc).__name__}: {exc}", anchor)
                )
        return ReplayReport(self.records)

    def exec_statement(self, stmt, anchor: str) -> None:
        # No form refers to a declared word, so it has nothing to evaluate.
        if isinstance(stmt, (RankDecl, ConstDecl, GensDecl, WordDecl, NoteStmt)):
            if isinstance(stmt, NoteStmt):
                self.records.append(
                    Record(self.scenario.name, stmt.pretty(), NOTE, stmt.text, anchor)
                )
            return
        if isinstance(stmt, AutDeclExpr):
            self.auts[stmt.name] = self.aut_of(stmt.expr)
            return
        if isinstance(stmt, AutDeclImages):
            images = [Word.generator(self.rank, i) for i in range(1, self.rank + 1)]
            for ref, lit in stmt.entries:
                images[ref.index - 1] = self.word_of(lit)
            self.auts[stmt.name] = Endomorphism(self.rank, tuple(images))
            return
        if isinstance(stmt, (GraphCtorDecl, GraphBlockDecl)):
            self.graphs[stmt.name] = stmt.graph
            return
        if isinstance(stmt, (GautBuiltinDecl, GautBlockDecl)):
            self.gauts[stmt.name] = self.build_gaut(stmt)
            return
        if isinstance(stmt, BasisDecl):
            self.bases[stmt.name] = stmt
            return
        if isinstance(stmt, Assertion):
            self.records.append(self.eval_assertion(stmt, anchor))
            return
        if isinstance(stmt, CheckStmt):
            self.records.append(self.eval_check(stmt, anchor))
            return
        raise AssertionError(f"unhandled statement {stmt!r}")

    # assertions

    def eval_assertion(self, stmt: Assertion, anchor: str) -> Record:
        name = self.scenario.name
        text = stmt.pretty()

        def verdict(ok: bool, detail: str = "") -> Record:
            return Record(name, text, PASS if ok else FAIL, detail, anchor)

        k = stmt.kind
        if k in ("order", "outorder"):
            got = self.order_of(stmt.lhs, outer=k == "outorder")
            want = stmt.number
            same = got == want
            ok = (not same) if stmt.negated else same
            shown = "unbounded(cap)" if got is None else str(got)
            return verdict(ok, f"computed {shown}")
        f = self.aut_of(stmt.lhs)
        if k == "exact":
            g = self.aut_of(stmt.rhs)
            same = f == g
            ok = (not same) if stmt.negated else same
            detail = "" if ok else f"lhs: {f}; rhs: {g}"
            return verdict(ok, detail)
        if k == "outer":
            g = self.aut_of(stmt.rhs)
            witness = equal_up_to_inner(f, g)
            return verdict(
                witness is not None,
                f"conjugator {format_word(witness, self.layout.names())}"
                if witness is not None else f"lhs: {f}; rhs: {g}",
            )
        if k == "det":
            value = det(abelianize(f))
            return verdict(value == stmt.number, f"computed {value}")
        if k == "matrix":
            lhs = abelianize(f)
            rhs = self.matrix_of(stmt.matrix)
            if stmt.modulus:
                same = mod_reduce(lhs, stmt.modulus) == mod_reduce(rhs, stmt.modulus)
            else:
                same = lhs == rhs
            ok = (not same) if stmt.negated else same
            return verdict(ok, "" if ok else f"lhs: {lhs}; rhs: {rhs}")
        if k == "level":
            member = congruence_level_member(abelianize(f), stmt.number)
            return verdict(member, f"det {det(abelianize(f))}")
        if k == "torelli":
            return verdict(is_torelli(f), "" if is_torelli(f) else str(abelianize(f)))
        if k == "inner":
            witness = is_inner(f)
            if witness is None:
                return verdict(False, "not inner")
            if stmt.word is not None and witness != self.word_of(stmt.word):
                return verdict(
                    False,
                    f"inner, but conjugator is {format_word(witness, self.layout.names())}",
                )
            return verdict(True, f"conjugator {format_word(witness, self.layout.names())}")
        if k == "notinner":
            witness = is_inner(f)
            return verdict(
                witness is None,
                "" if witness is None
                else f"inner with conjugator {format_word(witness, self.layout.names())}",
            )
        if k == "fixes":
            w = self.word_of(stmt.word)
            got = f.apply(w)
            return verdict(got == w, "" if got == w else f"image {format_word(got, self.layout.names())}")
        if k == "maps":
            w = self.word_of(stmt.word)
            want = self.word_of(stmt.word2)
            got = f.apply(w)
            return verdict(
                got == want,
                "" if got == want else f"image {format_word(got, self.layout.names())}",
            )
        raise AssertionError(f"unhandled assertion kind {k}")

    # finite-group checks

    def eval_check(self, stmt: CheckStmt, anchor: str) -> Record:
        name = self.scenario.name
        text = stmt.pretty()
        if stmt.large and not self.include_large:
            return Record(name, text, SKIP, "large check; enable with include_large", anchor)

        def verdict(ok: bool, detail: str) -> Record:
            return Record(name, text, PASS if ok else FAIL, detail, anchor)

        def pick_group(kind, n, mod):
            return (modgroups.psl_group if kind == "psl" else modgroups.sl_group)(n, mod)

        fn = stmt.fn
        if fn == "order":
            group = pick_group(*stmt.args)
            return verdict(group.order == stmt.expected[0], f"order {group.order}")
        if fn == "center":
            group = pick_group(*stmt.args)
            size = len(modgroups.center(group))
            return verdict(size == stmt.expected[0], f"center size {size}")
        if fn == "simple":
            got = modgroups.is_simple(pick_group(*stmt.args))
            want = stmt.expected[0] == "true"
            return verdict(got == want, f"simple: {got}")
        if fn == "kernel":
            n, p = stmt.args
            report = modgroups.kernel_of_reduction(n, p)
            structural = (
                report.shape_verified
                and report.additive_iso_verified
                and report.all_elements_order_p
                and report.image_order * report.kernel_order == report.group_order
            )
            ok = structural and report.kernel_order == stmt.expected[0]
            return verdict(
                ok,
                f"kernel {report.kernel_order}, image {report.image_order}, "
                f"group {report.group_order}, additive model "
                f"{'verified' if report.additive_iso_verified else 'FAILED'}",
            )
        if fn == "closure_kernel":
            n, p, power = stmt.args
            got = modgroups.closure_equals_reduction_kernel(n, p, power)
            return verdict(
                got == (stmt.expected[0] == "true"),
                f"all off-diagonal seeds agree: {got}",
            )
        if fn == "closure_span":
            n, p = stmt.args
            results = []
            for kk in range(1, n + 1):
                for rr in range(1, n + 1):
                    if kk != rr:
                        results.append(
                            modgroups.closure_spans_kernel_additively(n, p, (kk, rr))
                        )
            got = all(results)
            return verdict(
                got == (stmt.expected[0] == "true"),
                f"spans full trace-zero space for all seeds: {got}",
            )
        if fn == "splitting":
            n, p = stmt.args
            pair = modgroups.load_generating_pair(modulus=p)
            result = modgroups.splitting_search(pair, n, p)
            got = "found" if result.found else "none"
            detail = (
                f"pairs tried {result.pairs_tried}, expanded {result.pairs_expanded}"
            )
            if result.found:
                wa, wb = result.witness
                detail += f"; section lifts {list(wa)} and {list(wb)}"
            return verdict(got == stmt.expected[0], detail)
        if fn == "splitting_fixture":
            n, p = stmt.args
            result = modgroups.product_section_fixture(n, p)
            got = "found" if result.found else "none"
            return verdict(got == stmt.expected[0], f"pairs tried {result.pairs_tried}")
        if fn == "subreps":
            n = stmt.args[0]
            scan = modgroups.invariant_subreps(n)
            want = tuple(str(v) for v in stmt.expected)
            return verdict(
                scan.classification == want and scan.complete,
                f"classification {scan.classification}, dims {scan.span_dims}",
            )
        if fn == "obstruction":
            n = stmt.args[0]
            try:
                report = modgroups.split_obstruction(n)
            except ValueError as exc:
                return verdict(stmt.expected[0] == "rejected", f"rejected: {exc}")
            if report.feasible:
                return verdict(stmt.expected[0] == "feasible", "system is feasible")
            cert_ok = modgroups.verify_obstruction_certificate(report)
            return verdict(
                stmt.expected[0] == "infeasible" and cert_ok,
                f"certificate rows {report.certificate}, verified {cert_ok}",
            )
        raise AssertionError(f"unhandled check {fn}")


def run_scenario(scenario: Scenario, include_large: bool = False) -> ReplayReport:
    return Evaluator(scenario, include_large=include_large).run()


def run_text(text: str, name: str = "scenario", include_large: bool = False) -> ReplayReport:
    return run_scenario(parse_scenario(text, name), include_large=include_large)


def bundled_corpus_dir() -> Path:
    return Path(str(resources.files("autfn").joinpath("scenarios")))


def bundled_anchor_list() -> list[str]:
    path = resources.files("autfn").joinpath("scenarios", "anchors.txt")
    return [line.strip() for line in path.read_text().splitlines() if line.strip()]


def _scenario_files(corpus_dir: "Path | str | None") -> list[Path]:
    """The ``*.scn`` files of a directory (default: the bundled corpus)."""
    directory = Path(corpus_dir) if corpus_dir is not None else bundled_corpus_dir()
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    return sorted(directory.glob("*.scn"))


def replay_all(
    corpus_dir: "Path | str | None" = None, include_large: bool = False
) -> ReplayReport:
    """Run every ``*.scn`` scenario in a directory; unreadable or unparsable
    files are reported and the rest still run."""
    records: list[Record] = []
    for path in _scenario_files(corpus_dir):
        try:
            text = path.read_text()
        except OSError as exc:
            records.append(Record(path.stem, "(read file)", ERROR, str(exc), ""))
            continue
        try:
            scenario = parse_scenario(text, name=path.stem)
        except ParseError as exc:
            records.append(Record(path.stem, "(parse)", ERROR, str(exc), ""))
            continue
        records.extend(run_scenario(scenario, include_large=include_large).records)
    return ReplayReport(records)


def lint_scenarios(corpus_dir: "Path | str | None" = None) -> list[str]:
    """Check that every scenario file parses, carries an anchor comment, and
    that the anchor appears in the bundled anchor list."""
    known = set(bundled_anchor_list())
    problems: list[str] = []
    for path in _scenario_files(corpus_dir):
        try:
            scenario = parse_scenario(path.read_text(), name=path.stem)
        except ParseError as exc:
            problems.append(f"{path.name}: parse error: {exc}")
            continue
        if scenario.anchor is None:
            problems.append(f"{path.name}: missing '# anchor:' comment")
        elif scenario.anchor not in known:
            problems.append(f"{path.name}: anchor {scenario.anchor!r} not in anchors.txt")
    return problems
