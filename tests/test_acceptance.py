"""Acceptance suite: every criterion runs at its stated budget and prints one
pass/fail line (visible with ``pytest -s``).

Criterion 8 is implemented exactly as stated (the exhaustive lift-pair
search is expected to return no section).  The search in fact finds an
explicit, independently verified section at n = 3, so that criterion fails
honestly; see README for the witness and the analysis.
"""

import random
import time

from autfn import modgroups
from autfn.endos import (
    Endomorphism, compose, invert_automorphism, is_basis, is_inner, named,
    order, out_order,
)
from autfn.graphs import induced_out_rep, path_from_ids, presentation, ring, rotation_aut
from autfn.matrices import abelianize, det
from autfn.runner import bundled_corpus_dir, run_scenario
from autfn.scenario import parse_scenario
from autfn.words import parse_word


def W(text, rank):
    return parse_word(text, rank)


def report_line(num: int, ok: bool, elapsed: float, detail: str = "") -> None:
    print(f"acceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:6.2f}s)  {detail}")


def run_file(stem: str):
    path = bundled_corpus_dir() / f"{stem}.scn"
    scenario = parse_scenario(path.read_text(), name=stem)
    start = time.perf_counter()
    rep = run_scenario(scenario)
    return rep, time.perf_counter() - start


def test_criterion_01_orders_and_determinants():
    start = time.perf_counter()
    f = Endomorphism.from_images(
        [W(s, 6) for s in ("x2", "x2^-1 x1^-1", "x4", "x5", "x6", "x3")]
    )
    g = Endomorphism.from_images(
        [W(s, 4) for s in ("x2", "x3", "x4 x1 x4^-1", "x4")]
    )
    ok = (
        order(f) == 12
        and det(abelianize(f)) == -1
        and order(g) is None
        and out_order(g) == 3
        and is_inner(g * g * g) == W("x4", 4)
    )
    elapsed = time.perf_counter() - start
    report_line(1, ok and elapsed < 1.0, elapsed,
                "order/determinant/outer-order/conjugator checks")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_realizations_exact():
    total = 0.0
    ok = True
    details = []
    for stem in ("mixed-blocks-rank-six", "conjugacy-shift-rank-four"):
        rep, elapsed = run_file(stem)
        total += elapsed
        ok = ok and rep.ok() and elapsed < 1.0
        details.append(f"{stem}: {'ok' if rep.ok() else 'FAIL'}")
    report_line(2, ok, total, "; ".join(details) + "; mode=exact for both")
    assert ok


def test_criterion_03_left_multiplication_identities():
    stems = (
        "rose-five-rotation", "hairy-five-rotation",
        "hairy-complement-connected", "hairy-complement-split",
        "hairy-ten-complement-connected", "hairy-ten-complement-split",
        "rose-seven-rotation",
    )
    total = 0.0
    ok = True
    for stem in stems:
        rep, elapsed = run_file(stem)
        total += elapsed
        ok = ok and rep.ok() and elapsed < 1.0
    report_line(3, ok, total, f"{len(stems)} scenarios, each under 1s")
    assert ok


def test_criterion_04_conjugation_and_elementary_cube():
    stems = (
        "triple-blocks-conjugation", "triple-blocks-conjugation-split",
        "rank-four-twin-hairy", "rank-four-split-loops", "rank-four-twin-loops",
    )
    total = 0.0
    ok = True
    for stem in stems:
        rep, elapsed = run_file(stem)
        total += elapsed
        ok = ok and rep.ok() and elapsed < 1.0
    report_line(4, ok, total, f"{len(stems)} scenarios, each under 1s")
    assert ok


def test_criterion_05_decorated_cycle_outer_case():
    rep, elapsed = run_file("vertex-cycle-outer-five")
    ok = rep.ok() and elapsed < 1.0
    report_line(5, ok, elapsed, "cycle word fixed, L identity, det +1")
    assert ok


def test_criterion_06_involution_corpus():
    stems = sorted(
        p.stem for p in bundled_corpus_dir().glob("involution-*.scn")
    )
    start = time.perf_counter()
    ok = True
    for stem in stems:
        rep, _ = run_file(stem)
        ok = ok and rep.ok()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report_line(6, ok, elapsed, f"{len(stems)} involution scenarios")
    assert ok


def test_criterion_07_finite_group_inventory():
    start = time.perf_counter()
    g168 = modgroups.sl_group(3, 2)
    g43008 = modgroups.sl_group(3, 4)
    p5616 = modgroups.psl_group(3, 3)
    kernel = modgroups.kernel_of_reduction(3, 2)
    ok = (
        g168.order == 168
        and modgroups.is_simple(g168)
        and g43008.order == 43008
        and kernel.kernel_order == 256
        and kernel.shape_verified
        and kernel.additive_iso_verified
        and p5616.order == 5616
        and modgroups.is_simple(p5616)
        and len(modgroups.center(modgroups.sl_group(3, 3))) == 1
    )
    elapsed = time.perf_counter() - start
    report_line(7, ok and elapsed < 60.0, elapsed,
                "orders, simplicity, center, additive kernel model")
    assert ok
    assert elapsed < 60.0


def test_criterion_08_no_splitting_expected():
    start = time.perf_counter()
    fixture = modgroups.product_section_fixture()
    result = modgroups.splitting_search(modgroups.load_generating_pair())
    elapsed = time.perf_counter() - start
    fixture_ok = fixture.found
    exhaustive_ok = result.pairs_tried == 65536
    no_section_expected = not result.found  # the stated expectation
    ok = fixture_ok and exhaustive_ok and no_section_expected and elapsed < 120.0
    detail = (
        f"fixture found={fixture.found}, pairs={result.pairs_tried}, "
        f"search found={result.found}"
    )
    if result.found:
        wa, wb = result.witness
        detail += f"; verified section lifts {list(wa)} / {list(wb)}"
    report_line(8, ok, elapsed, detail)
    assert fixture_ok and exhaustive_ok
    assert elapsed < 120.0
    assert no_section_expected, (
        "expected NoSplitting, but the exhaustive lift search finds a genuine "
        "section of the mod-2 projection at n=3 (independently verified: the "
        "generated subgroup has order 168, projects bijectively, meets the "
        "kernel trivially, and satisfies the order-168 simple-group "
        "presentation relations); see README"
    )


def test_criterion_09_invariant_subspace_scan():
    start = time.perf_counter()
    s3 = modgroups.invariant_subreps(3)
    s4 = modgroups.invariant_subreps(4)
    ok = (
        s3.classification == ("0", "full") and s3.complete
        and s4.classification == ("0", "scalars", "full") and s4.complete
    )
    elapsed = time.perf_counter() - start
    report_line(9, ok and elapsed < 60.0, elapsed,
                f"n=3 {s3.classification}, n=4 {s4.classification}")
    assert ok
    assert elapsed < 60.0


def test_criterion_10_diagonal_parity_obstruction():
    start = time.perf_counter()
    r6 = modgroups.split_obstruction(6)
    r8 = modgroups.split_obstruction(8)
    rejected = False
    try:
        modgroups.split_obstruction(4)
    except ValueError:
        rejected = True
    ok = (
        not r6.feasible and modgroups.verify_obstruction_certificate(r6)
        and not r8.feasible and modgroups.verify_obstruction_certificate(r8)
        and rejected
    )
    elapsed = time.perf_counter() - start
    report_line(10, ok and elapsed < 1.0, elapsed,
                "n=6,8 infeasible with verified certificates; n=4 rejected")
    assert ok
    assert elapsed < 1.0


def test_criterion_11_closure_shadow():
    start = time.perf_counter()
    ok = modgroups.closure_equals_reduction_kernel(3, 2, 2)
    elapsed = time.perf_counter() - start
    report_line(11, ok and elapsed < 60.0, elapsed,
                "all six squared elementary seeds close to the mod-2 kernel")
    assert ok
    assert elapsed < 60.0


def test_criterion_11_gated_mod9_closure():
    start = time.perf_counter()
    ok = all(
        modgroups.closure_spans_kernel_additively(3, 3, (k, r))
        for k in range(1, 4)
        for r in range(1, 4)
        if k != r
    )
    elapsed = time.perf_counter() - start
    report_line(11, ok, elapsed, "mod 9: cubed seeds close to the mod-3 kernel")
    assert ok


def test_criterion_12_property_suites():
    start = time.perf_counter()
    rng = random.Random(20240)

    # Word-algebra laws on random raw sequences.
    from autfn.words import Word, invert, reduce as reduce_word

    for _ in range(300):
        raw = [rng.choice([i for i in range(-4, 5) if i]) for _ in range(rng.randint(0, 24))]
        w = reduce_word(raw, 4)
        assert reduce_word(w.letters, 4) == w
        assert w * invert(w) == Word.identity(4)

    # Functoriality of the abelianization on generator products.
    pool = [
        named(k, i, j, rank=4)
        for k in "LRC"
        for i in range(1, 5)
        for j in range(1, 5)
        if i != j
    ] + [named("I", i, rank=4) for i in range(1, 5)]
    for _ in range(100):
        f, g = rng.choice(pool), rng.choice(pool)
        assert abelianize(compose(f, g)) == abelianize(f) * abelianize(g)

    # Basis recognition on 10^3 random generator products.
    swap_pool = pool + [
        named("P", i, j, rank=4) for i in range(1, 5) for j in range(1, 5) if i != j
    ]
    for _ in range(1000):
        f = Endomorphism.identity(4)
        for _ in range(rng.randint(1, 10)):
            f = compose(f, rng.choice(swap_pool))
        assert is_basis(f.images)

    # Outer-representative well-definedness across connecting paths.
    g53 = ring(5, 3)
    pres = presentation(g53, "v0")
    rot = rotation_aut(g53)
    deltas = [
        path_from_ids(g53, "v0", [("s1", True)]),
        path_from_ids(g53, "v0", [("l0_1", True), ("s1", True)]),
        path_from_ids(g53, "v0", [("l0_2", False), ("s1", True)]),
        path_from_ids(
            g53, "v0",
            [("s1", True), ("s2", True), ("s2", False), ("l1_1", True), ("s1", False), ("s1", True)],
        ),
    ]
    reps = [induced_out_rep(pres, rot, d) for d in deltas]
    for a in reps:
        for b in reps:
            assert is_inner(compose(a, invert_automorphism(b))) is not None

    elapsed = time.perf_counter() - start
    report_line(12, True, elapsed,
                "word laws, functoriality, 1000 basis products, delta pairs")
