import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from autfn.endos import (
    Endomorphism, NotABasisError, apply_nielsen_log, change_basis, compose,
    equal_up_to_inner, invert_automorphism, is_basis, is_inner, named,
    nielsen_reduce, order, out_order, power_order,
)
from autfn.words import Word, free_reduce, invert, multiply, parse_word


def W(text, rank):
    return parse_word(text, rank)


def endo(rank, *images):
    return Endomorphism.from_images([W(s, rank) for s in images])


# The two worked examples used throughout: the rank-6 order-12 map and the
# rank-4 map whose cube is conjugation by x4.
F6 = endo(6, "x2", "x2^-1 x1^-1", "x4", "x5", "x6", "x3")
G4 = endo(4, "x2", "x3", "x4 x1 x4^-1", "x4")


class TestNamed:
    def test_left_multiplication(self):
        f = named("L", 1, 2, rank=3)
        assert f.images[0] == W("x2 x1", 3)
        assert f.images[1] == W("x2", 3)
        assert f.images[2] == W("x3", 3)

    def test_inversion_squares_to_identity(self):
        f = named("I", 1, rank=3)
        assert compose(f, f).is_identity()

    def test_swap_on_word(self):
        p = named("P", 1, 2, rank=2)
        assert p.apply(W("x1 x2", 2)) == W("x2 x1", 2)

    def test_rejects_equal_indices(self):
        for kind in "LRCP":
            with pytest.raises(ValueError):
                named(kind, 2, 2, rank=3)

    def test_right_and_conjugation(self):
        assert named("R", 1, 2, rank=2).images[0] == W("x1 x2", 2)
        assert named("C", 1, 2, rank=2).images[0] == W("x2 x1 x2^-1", 2)


class TestApply:
    def test_generator_image(self):
        assert F6.apply(W("x1", 6)) == W("x2", 6)

    def test_identity_word(self):
        assert G4.apply(Word.identity(4)) == Word.identity(4)

    def test_conjugated_image(self):
        assert G4.apply(W("x3", 4)) == W("x4 x1 x4^-1", 4)

    def test_homomorphic(self):
        a, b = W("x1 x3^-1", 4), W("x3 x2", 4)
        assert G4.apply(a * b) == G4.apply(a) * G4.apply(b)


class TestCompose:
    def test_rightmost_first_on_rose(self):
        rose5 = endo(5, "x2", "x3", "x4", "x5", "x1")
        L = named("L", 1, 2, rank=5)
        fi = invert_automorphism(rose5)
        phi1 = invert_automorphism(L) * rose5 * L * fi
        assert phi1.apply(W("x1", 5)) == W("x2^-1 x1", 5)
        assert phi1.apply(W("x2", 5)) == W("x3 x2", 5)
        phi2 = L * rose5 * invert_automorphism(L) * fi
        assert phi1 * phi2 == named("L", 1, 3, rank=5)

    def test_identity_is_unit(self):
        e = Endomorphism.identity(6)
        assert compose(F6, e) == F6
        assert compose(e, F6) == F6

    def test_powers_start_from_the_base(self, monkeypatch):
        import autfn.endos as endos_module

        calls = []

        def counted(f, g):
            calls.append((f, g))
            return compose(f, g)

        monkeypatch.setattr(endos_module, "compose", counted)
        assert F6**1 == F6
        assert F6**-1 == invert_automorphism(F6)
        assert F6**0 == Endomorphism.identity(6)
        assert calls == []
        assert F6**3 == compose(F6, compose(F6, F6))
        assert len(calls) == 2
        assert G4**-2 == compose(invert_automorphism(G4), invert_automorphism(G4))

    def test_associative_on_samples(self):
        rng = random.Random(7)
        gens = [named("L", 1, 2, rank=4), named("P", 3, 4, rank=4),
                named("I", 2, rank=4), named("C", 4, 1, rank=4)]
        for _ in range(20):
            a, b, c = (rng.choice(gens) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestOrder:
    def test_order_twelve(self):
        assert order(F6) == 12

    def test_identity_has_order_one(self):
        assert order(Endomorphism.identity(3)) == 1

    def test_cap_reported_for_unbounded(self):
        assert order(G4) is None

    def test_named_orders(self):
        assert order(named("P", 1, 2, rank=4)) == 2
        assert order(named("I", 3, rank=4)) == 2
        assert order(named("C", 1, 2, rank=4)) is None

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            order(F6, max_power=0)


class TestIsInner:
    def test_cube_is_conjugation(self):
        g3 = G4 * G4 * G4
        w = is_inner(g3)
        assert w == W("x4", 4)
        for i in range(1, 5):
            x = W(f"x{i}", 4)
            assert g3.apply(x) == x.conjugated_by(w)

    def test_identity_witness_is_empty(self):
        assert is_inner(Endomorphism.identity(4)) == Word.identity(4)

    def test_left_multiplication_is_not_inner(self):
        assert is_inner(named("L", 1, 2, rank=4)) is None

    def test_partial_conjugation_is_not_inner(self):
        assert is_inner(named("C", 2, 1, rank=3)) is None

    def test_global_conjugation_by_a_long_word(self):
        w = W("x2 x1^-1 x3 x1", 4)
        f = Endomorphism.from_images(
            [W(f"x{i}", 4).conjugated_by(w) for i in range(1, 5)]
        )
        assert is_inner(f) == w

    def test_rank_one(self):
        assert is_inner(Endomorphism.identity(1)) == Word.identity(1)
        assert is_inner(named("I", 1, rank=1)) is None

    @given(st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=8))
    @settings(deadline=None, max_examples=80)
    def test_witness_is_recovered_exactly(self, raw):
        from autfn.words import reduce as reduce_word

        w = reduce_word(raw, 3)
        f = Endomorphism.from_images(
            [Word.generator(3, i).conjugated_by(w) for i in range(1, 4)]
        )
        assert is_inner(f) == w


class TestOutOrder:
    def test_three_for_the_shift(self):
        assert out_order(G4) == 3

    def test_identity(self):
        assert out_order(Endomorphism.identity(4)) == 1

    def test_no_smaller_inner_power_for_f6(self):
        assert out_order(F6) == 12

    def test_outer_equality(self):
        g3 = G4 * G4 * G4
        assert equal_up_to_inner(g3, Endomorphism.identity(4)) is not None
        assert equal_up_to_inner(G4, Endomorphism.identity(4)) is None


class TestNielsen:
    def test_single_move(self):
        reduced, log = nielsen_reduce([W("x1 x2", 2), W("x2", 2)])
        assert sorted(len(w) for w in reduced) == [1, 1]
        assert len(log) == 1

    def test_already_reduced(self):
        tup = [W("x1", 3), W("x2", 3), W("x3", 3)]
        reduced, log = nielsen_reduce(tup)
        assert reduced == tuple(tup)
        assert log == []

    def test_telescoping_tuple(self):
        tup = [W("x1 x2^-1", 3), W("x2 x3^-1", 3), W("x3", 3)]
        reduced, log = nielsen_reduce(tup)
        assert sorted(abs(w.letters[0]) for w in reduced) == [1, 2, 3]
        assert log

    def test_log_replays(self):
        tup = [W("x1 x2^-1", 3), W("x2 x3^-1", 3), W("x3", 3)]
        reduced, log = nielsen_reduce(tup)
        assert apply_nielsen_log(tup, log) == reduced


def _generates_whole_group(words, rank):
    """Independent basis oracle by Stallings folding.

    Wedge a loop per word onto a base vertex, fold until the labeled graph is
    deterministic, and test whether every generator reads as a loop at the
    base.  For an n-word tuple in rank n, generating the whole group is the
    same as being a basis.  Vertices merge by union-find, and a merge that
    meets two edges with one label queues their targets for merging.
    """
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    out = {}  # vertex -> {letter: target}, targets possibly merged since
    pending = []

    def add_edge(u, a, v):
        for x, b, y in ((u, a, v), (v, -a, u)):
            edges = out.setdefault(x, {})
            if b in edges:
                pending.append((edges[b], y))
            else:
                edges[b] = y

    base = 0
    for w in words:
        cur = base
        for idx, a in enumerate(w.letters):
            tgt = base if idx == len(w.letters) - 1 else fresh()
            add_edge(cur, a, tgt)
            cur = tgt

    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    while pending:
        x, y = (find(v) for v in pending.pop())
        if x == y:
            continue
        if len(out.get(x, ())) < len(out.get(y, ())):
            x, y = y, x
        parent[y] = x
        edges = out.setdefault(x, {})
        for b, t in out.pop(y, {}).items():
            if b in edges:
                pending.append((edges[b], t))
            else:
                edges[b] = t
    b = find(base)
    loops = out.get(b, {})
    return all(a in loops and find(loops[a]) == b for a in range(1, rank + 1))


def _generates_whole_group_by_rescan(words, rank):
    """The same oracle folding one pair of edges per rescan of the graph:
    slow, but simple enough to check :func:`_generates_whole_group` on short
    tuples."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    adj: dict[tuple[int, int], set[int]] = {}

    def add_edge(u, a, v):
        adj.setdefault((u, a), set()).add(v)
        adj.setdefault((v, -a), set()).add(u)

    base = 0
    for w in words:
        cur = base
        for idx, a in enumerate(w.letters):
            tgt = base if idx == len(w.letters) - 1 else fresh()
            add_edge(cur, a, tgt)
            cur = tgt

    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    changed = True
    while changed:
        changed = False
        folded: dict[tuple[int, int], set[int]] = {}
        for (v, a), tgts in adj.items():
            folded.setdefault((find(v), a), set()).update(find(t) for t in tgts)
        adj = folded
        for tgts in adj.values():
            if len(tgts) > 1:
                keep, *rest = sorted(tgts, key=lambda t: (t != find(base), t))
                for other in rest:
                    parent[find(other)] = find(keep)
                changed = True
                break
    final: dict[tuple[int, int], set[int]] = {}
    for (v, a), tgts in adj.items():
        final.setdefault((find(v), a), set()).update(find(t) for t in tgts)
    b = find(base)
    return all(final.get((b, a)) == {b} for a in range(1, rank + 1))


def test_folding_oracles_agree_on_short_tuples():
    """Random short tuples, and short products of named maps (bases) with
    one image perhaps multiplied by another letter."""
    from autfn.words import reduce as reduce_word

    rng = random.Random(5)
    verdicts = set()
    for _ in range(1500):
        rank = rng.randint(2, 4)
        letters = [i for i in range(-rank, rank + 1) if i]
        if rng.random() < 0.5:
            words = [
                reduce_word([rng.choice(letters) for _ in range(rng.randint(0, 7))], rank)
                for _ in range(rank)
            ]
        else:
            f = Endomorphism.identity(rank)
            for _ in range(rng.randint(1, 6)):
                i, j = rng.sample(range(1, rank + 1), 2)
                kind = rng.choice("LRCPI")
                g = named("I", i, rank=rank) if kind == "I" else named(kind, i, j, rank=rank)
                f = compose(f, g)
            words = list(f.images)
            if rng.random() < 0.5:
                k = rng.randrange(rank)
                words[k] = reduce_word(list(words[k].letters) + [rng.choice(letters)], rank)
        verdict = _generates_whole_group(words, rank)
        assert verdict == _generates_whole_group_by_rescan(words, rank)
        verdicts.add(verdict)
    assert verdicts == {True, False}


class TestIsBasis:
    def test_permutation(self):
        assert is_basis([W("x2", 2), W("x1", 2)])

    def test_conjugated_basis(self):
        assert is_basis([W("x1", 2), W("x1 x2 x1^-1", 2)])

    def test_square_fails(self):
        assert not is_basis([W("x1", 2), W("x1^2", 2)])

    def test_wrong_length_fails(self):
        assert not is_basis([W("x1", 2)])

    def test_random_generator_products(self):
        rng = random.Random(2024)
        rank = 4
        pool = [
            named(k, i, j, rank=rank)
            for k in "LRCP"
            for i in range(1, rank + 1)
            for j in range(1, rank + 1)
            if i != j
        ] + [named("I", i, rank=rank) for i in range(1, rank + 1)]
        for _ in range(200):
            f = Endomorphism.identity(rank)
            for _ in range(rng.randint(1, 12)):
                f = compose(f, rng.choice(pool))
            assert is_basis(f.images)

    def test_agrees_with_folding_oracle_on_random_tuples(self):
        from autfn.words import reduce as reduce_word

        rng = random.Random(77)
        for _ in range(400):
            rank = rng.randint(2, 4)
            words = []
            for _ in range(rank):
                letters = [
                    rng.choice([i for i in range(-rank, rank + 1) if i])
                    for _ in range(rng.randint(0, 6))
                ]
                words.append(reduce_word(letters, rank))
            assert is_basis(words) == _generates_whole_group(words, rank)

    def test_half_cancelling_stall_is_resolved(self):
        # A generator product on which pure length descent stalls; the
        # well-order tie-break must still drive it to single letters.
        tup = [
            W("x1 x3 x1^-1", 4), W("x2 x1 x2", 4), W("x2 x4", 4),
            W("x2 x1 x2^2 x1 x2^-1 x1^-1 x4", 4),
        ]
        reduced, _ = nielsen_reduce(tup)
        assert sorted(len(w) for w in reduced) == [1, 1, 1, 1]
        assert is_basis(tup)


class TestInvertAutomorphism:
    def test_composition_is_the_oracle(self):
        gi = invert_automorphism(G4)
        assert compose(gi, G4).is_identity()
        assert compose(G4, gi).is_identity()

    def test_left_multiplication_inverse(self):
        li = invert_automorphism(named("L", 1, 2, rank=3))
        assert li.images[0] == W("x2^-1 x1", 3)

    def test_swap_is_involutive(self):
        p = named("P", 1, 2, rank=3)
        assert invert_automorphism(p) == p

    def test_rejects_non_automorphism(self):
        with pytest.raises(NotABasisError):
            invert_automorphism(endo(2, "x1", "x1^2"))
        with pytest.raises(NotABasisError):
            # Zero determinant on the abelianization: not even injective.
            invert_automorphism(endo(2, "x1 x2", "x2 x1"))


class TestChangeBasis:
    def test_standard_basis_is_identity(self):
        std = [W(f"x{i}", 6) for i in range(1, 7)]
        assert change_basis(F6, std) == F6

    def test_permutation_basis_conjugates(self):
        p = named("P", 1, 2, rank=4)
        basis = [W("x2", 4), W("x1", 4), W("x3", 4), W("x4", 4)]
        assert change_basis(G4, basis) == compose(p, compose(G4, p))

    def test_rejects_non_basis(self):
        with pytest.raises(NotABasisError, match="^words do not form a free basis$"):
            change_basis(G4, [W("x1", 4), W("x1", 4), W("x3", 4), W("x4", 4)])

    def test_one_nielsen_pass(self, monkeypatch):
        import autfn.endos as endos_module

        basis = [W("x1 x2", 4), W("x2", 4), W("x3 x1^-1", 4), W("x4", 4)]
        beta = Endomorphism.from_images(basis)
        expected = compose(invert_automorphism(beta), compose(G4, beta))
        calls = []
        original = endos_module.nielsen_reduce

        def counted(words):
            calls.append(words)
            return original(words)

        monkeypatch.setattr(endos_module, "nielsen_reduce", counted)
        assert change_basis(G4, basis) == expected
        assert len(calls) == 1


def _named_product(text, rank):
    """The automorphism written as a product of named maps, e.g. "L(1,2) * I(3)"."""
    f = Endomorphism.identity(rank)
    for kind, args in re.findall(r"([LRCPI])\(([\d,\s]+)\)", text):
        f = compose(f, named(kind, *map(int, args.split(",")), rank=rank))
    return f


# Bases on which greedy Nielsen descent with a whole-word tie-break stalls
# short of a signed permutation, so inversion used to raise NotABasisError.
STALLED_PRODUCTS = [
    pytest.param(
        6, "L(5,6) * C(6,2) * C(5,4) * P(6,4) * C(5,4) * R(4,3) * C(6,5) * "
        "R(4,1) * I(5) * R(3,5) * C(1,3) * P(2,3) * I(1) * P(2,1) * R(5,6) * "
        "L(3,5) * R(2,6) * C(6,1) * I(5) * R(1,5)",
        id="rank6-chain",
    ),
    pytest.param(
        4, "C(4,1) * P(1,4) * L(2,1) * C(4,2) * P(2,1) * R(2,4) * P(3,4) * "
        "C(4,1) * R(3,4) * C(3,2) * P(2,3) * L(1,2) * R(3,2) * P(2,3) * "
        "L(3,2) * I(1) * C(1,3)",
        id="rank4-chain",
    ),
    pytest.param(
        6, "I(6) * C(3,4) * P(6,2) * C(5,4) * L(2,4) * C(2,4) * L(5,3) * "
        "P(2,5) * R(3,1) * C(4,2) * R(4,1) * R(1,5) * L(1,5) * P(6,4) * "
        "L(2,1) * R(5,3) * C(1,5) * C(4,6) * R(6,1) * R(4,3) * P(3,6) * "
        "C(2,6) * C(4,6) * R(4,3) * I(3) * C(4,5) * C(5,3) * L(3,4) * R(1,3) * "
        "R(3,4) * C(5,1) * C(6,1)",
        id="rank6-seed55-g-times-h",
    ),
    pytest.param(
        4, "I(3) * C(3,1) * C(3,1) * R(1,4) * L(4,1) * R(2,1) * L(4,2) * "
        "R(3,1) * I(3) * C(1,2) * R(3,2) * P(1,2) * C(2,1) * P(2,1) * C(3,1) * "
        "R(2,3) * C(1,3) * P(3,4) * P(1,3) * C(2,3) * I(3) * C(2,1) * C(1,2) * "
        "P(2,4) * C(3,1) * C(3,1) * C(3,4) * L(3,4)",
        id="rank4-seed82-g-times-h",
    ),
    pytest.param(
        4, "C(2,4) * I(2) * C(3,2) * R(4,3) * L(1,2) * P(1,2) * R(4,3) * "
        "R(4,3) * C(4,1) * R(1,2) * I(2) * R(1,4) * L(3,1) * R(3,4) * "
        "L(4,3) * L(3,2)",
        id="rank4-seed181-g",
    ),
]

# Commutators [a, f] at rank 3, with a a product of two named maps and f the
# order-3 map x1 -> x2, x2 -> (x1 x2)^-1.
STALLED_COMMUTATORS = [
    pytest.param(
        ("x3^-1 x1^2 x3^2 x2^-1 x3^-2 x1^-1 x3 x2",
         "x2^-1 x3^-1 x1 x3^2 x2 x3^-2 x1^-1 x3 x2",
         "x2^-1 x3^-1 x1 x3^2"),
        id="commutator-1",
    ),
    pytest.param(
        ("x3 x1^2 x3^-2 x2^-1 x3^2 x1^-1 x3^-1 x2",
         "x2^-1 x3 x1 x3^-2 x2 x3^2 x1^-1 x3^-1 x2",
         "x3^2 x1^-1 x3^-1 x2"),
        id="commutator-2",
    ),
]


def _assert_inverts(f):
    assert is_basis(f.images)
    assert _generates_whole_group(f.images, f.rank)
    reduced, log = nielsen_reduce(f.images)
    assert sorted(abs(w.letters[0]) for w in reduced) == list(range(1, f.rank + 1))
    assert apply_nielsen_log(f.images, log) == reduced
    fi = invert_automorphism(f)
    assert compose(fi, f).is_identity()
    assert compose(f, fi).is_identity()


@pytest.mark.parametrize("rank, text", STALLED_PRODUCTS)
def test_stalled_products_invert(rank, text):
    _assert_inverts(_named_product(text, rank))


@pytest.mark.parametrize("images", STALLED_COMMUTATORS)
def test_stalled_commutators_invert(images):
    _assert_inverts(endo(3, *images))


def _draw_named_product(draw, rank, lo, hi):
    """A product of lo to hi named maps at the given rank."""
    index = st.integers(1, rank)
    f = Endomorphism.identity(rank)
    for _ in range(draw(st.integers(lo, hi))):
        kind = draw(st.sampled_from("LRCPI"))
        i = draw(index)
        if kind == "I":
            f = compose(f, named("I", i, rank=rank))
        else:
            j = draw(index.filter(lambda j: j != i))
            f = compose(f, named(kind, i, j, rank=rank))
    return f


@st.composite
def _named_products(draw):
    return _draw_named_product(draw, draw(st.integers(3, 5)), 10, 40)


@given(_named_products(), st.integers(0, 4))
@settings(deadline=None, max_examples=80)
def test_basis_test_agrees_with_folding_oracle_on_named_products(f, k):
    """Nielsen reduction certifies every product of named maps, and agrees
    with the folding oracle once one image is squared (not a basis)."""
    assert is_basis(f.images)
    assert _generates_whole_group(f.images, f.rank)
    images = list(f.images)
    k %= f.rank
    images[k] = images[k] * images[k]
    assert is_basis(images) == _generates_whole_group(images, f.rank)


_named_strategy = st.sampled_from(
    [("L", 1, 2), ("L", 3, 1), ("R", 2, 3), ("C", 1, 3), ("P", 2, 3), ("I", 2)]
)


@given(st.lists(_named_strategy, min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_apply_respects_multiplication(parts):
    f = Endomorphism.identity(3)
    for item in parts:
        if item[0] == "I":
            f = compose(f, named("I", item[1], rank=3))
        else:
            f = compose(f, named(item[0], item[1], item[2], rank=3))
    a, b = W("x1 x2^-1 x3", 3), W("x3^-1 x2", 3)
    assert f.apply(a * b) == f.apply(a) * f.apply(b)
    assert compose(invert_automorphism(f), f).is_identity()


def _reference_pair_key(w):
    """The Lyndon-Schupp pair key of ``nielsen_reduce``, kept here unchanged."""
    letters = w.letters
    half = (len(letters) + 1) // 2

    def half_key(seq):
        return tuple(2 * a if a > 0 else -2 * a + 1 for a in seq)

    left = half_key(letters[:half])
    left_inv = half_key([-a for a in letters[: -half - 1 : -1]]) if half else ()
    if left_inv < left:
        left, left_inv = left_inv, left
    return (len(letters), left, left_inv)


def _reference_nielsen_reduce(words):
    """Reference for :func:`nielsen_reduce`: builds and keys every one of the
    4n(n-1) candidate words on each step, then takes the least
    (length change, key, move) among the moves that lower their entry."""
    tup = list(words)
    log = []
    while True:
        best_key = best_move = best_word = None
        for i in range(len(tup)):
            current = _reference_pair_key(tup[i])
            for j in range(len(tup)):
                if i == j:
                    continue
                for side in ("L", "R"):
                    for sign in (1, -1):
                        factor = tup[j] if sign > 0 else invert(tup[j])
                        cand = (
                            multiply(factor, tup[i])
                            if side == "L"
                            else multiply(tup[i], factor)
                        )
                        if len(cand) > current[0]:
                            continue
                        cand_key = _reference_pair_key(cand)
                        if cand_key >= current:
                            continue
                        move = (side, i, j, sign)
                        key = (cand_key[0] - current[0], cand_key, move)
                        if best_key is None or key < best_key:
                            best_key, best_move, best_word = key, move, cand
        if best_move is None:
            break
        tup[best_move[1]] = best_word
        log.append(best_move)
    return tuple(tup), log


@st.composite
def _nielsen_inputs(draw):
    """Products of 10-40 named maps at ranks 2-6, the same with one image
    squared (not a basis), and random short tuples."""
    rank = draw(st.integers(2, 6))
    form = draw(st.sampled_from(("product", "squared", "random")))
    if form == "random":
        letter = st.integers(-rank, rank).filter(bool)
        return [
            Word(rank, free_reduce(draw(st.lists(letter, max_size=8))))
            for _ in range(rank)
        ]
    images = list(_draw_named_product(draw, rank, 10, 40).images)
    if form == "squared":
        k = draw(st.integers(0, rank - 1))
        images[k] = images[k] * images[k]
    return images


@given(_nielsen_inputs())
@settings(deadline=None, max_examples=150)
def test_nielsen_reduce_matches_the_reference(words):
    assert nielsen_reduce(words) == _reference_nielsen_reduce(words)


def _reference_apply(f, w):
    """Reference for :meth:`Endomorphism.apply`: pushes each letter of each
    image block onto the output and pops it against its inverse."""
    out = []
    for a in w.letters:
        img = f.images[abs(a) - 1].letters
        if a < 0:
            img = tuple(-x for x in reversed(img))
        for x in img:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return Word(f.rank, tuple(out))


def _reference_compose(f, g):
    return Endomorphism(f.rank, tuple(_reference_apply(f, w) for w in g.images))


@st.composite
def _apply_inputs(draw):
    """Two maps and a word at ranks 2-7.  Each map is a product of 5-40 named
    maps, or has random images, some of them empty (not an automorphism).
    The word's letters are inverses with a drawn share from 0 to 90%."""
    rank = draw(st.integers(2, 7))
    letter = st.integers(-rank, rank).filter(bool)

    def endomorphism():
        if draw(st.booleans()):
            return _draw_named_product(draw, rank, 5, 40)
        return Endomorphism(rank, tuple(
            Word(rank, free_reduce(draw(st.lists(letter, max_size=8))))
            for _ in range(rank)
        ))

    f, g = endomorphism(), endomorphism()
    inverse_share = draw(st.integers(0, 9))
    raw = draw(st.lists(st.tuples(st.integers(1, rank), st.integers(0, 9)), max_size=30))
    w = Word(rank, free_reduce(-i if k < inverse_share else i for i, k in raw))
    return f, g, w


@given(_apply_inputs())
@settings(deadline=None, max_examples=200)
def test_apply_and_compose_match_the_per_letter_reference(case):
    f, g, w = case
    assert f.apply(w) == _reference_apply(f, w)
    assert compose(f, g) == _reference_compose(f, g)
    assert compose(g, f) == _reference_compose(g, f)
    if is_basis(f.images):
        # f^-1 * f cancels every block of f^-1 down to a single letter.
        fi = invert_automorphism(f)
        assert compose(fi, f) == _reference_compose(fi, f) == Endomorphism.identity(f.rank)
        assert fi.apply(f.apply(w)) == w


def _reference_power_order(f, outer, max_power, max_word_len):
    """Reference for :func:`power_order`: grows powers on the right, f * f^k,
    and tests the identity against a built identity map."""
    h = f
    for k in range(1, max_power + 1):
        if (is_inner(h) is not None) if outer else h == Endomorphism.identity(f.rank):
            return k, False
        if h.max_image_length() > max_word_len:
            return None, True
        h = compose(f, h)
    return None, False


@pytest.mark.parametrize(
    "f, outer, max_power, max_len, expected",
    [
        (F6, False, 256, 4096, (12, False)),
        (F6, False, 11, 4096, (None, False)),  # power cap
        (G4, False, 8, 4096, (None, False)),  # power cap on infinite order
        (G4, True, 256, 4096, (3, False)),
        (G4, False, 256, 5, (None, True)),  # letter cap
        (named("L", 1, 2, rank=2), False, 256, 3, (None, True)),
        (named("L", 1, 2, rank=2), True, 3, 100, (None, False)),
        (named("P", 1, 2, rank=2), False, 2, 1, (2, False)),
        (named("I", 2, rank=3), True, 1, 1, (None, False)),
    ],
)
def test_power_order_matches_powers_grown_on_the_right(f, outer, max_power, max_len, expected):
    assert power_order(f, outer, max_power, max_len) == expected
    assert _reference_power_order(f, outer, max_power, max_len) == expected


@st.composite
def _short_products(draw):
    return _draw_named_product(draw, draw(st.integers(2, 4)), 1, 6)


@given(_short_products(), st.booleans(), st.integers(1, 12), st.integers(1, 30))
@settings(deadline=None, max_examples=150)
def test_power_order_matches_the_reference_on_named_products(f, outer, max_power, max_len):
    assert power_order(f, outer, max_power, max_len) == _reference_power_order(
        f, outer, max_power, max_len
    )


@pytest.mark.parametrize(
    "f",
    [
        named("P", 1, 2, rank=2),
        named("I", 1, rank=3),
        endo(3, "x2", "x3", "x1"),
        endo(2, "x1^-1", "x2^-1"),
        endo(2, "x1", "x1"),
        endo(3, "x1", "x2", "x3^-1"),
    ],
)
def test_maps_with_single_letter_images_are_not_the_identity(f):
    assert all(len(w) == 1 for w in f.images)
    assert not f.is_identity()


def test_identity_maps_are_the_identity():
    assert all(Endomorphism.identity(rank).is_identity() for rank in range(1, 6))
    assert endo(3, "x1", "x2", "x3").is_identity()
    assert not endo(2, "x1", "e").is_identity()
