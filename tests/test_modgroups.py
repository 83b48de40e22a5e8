import random
import time
from itertools import islice, permutations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import autfn.modgroups as modgroups
from autfn.modgroups import (
    _CHUNK, EnumerationCapError, SubrepScan, _additive_pairs, _additive_parts,
    _closure, _extend, _lattice_proof, _projection, _reduction, _space, _spin,
    center, closure_equals_reduction_kernel, closure_spans_kernel_additively,
    conjugacy_classes, decode, elementary_mat, encode, enumerate_group,
    find_generating_pair, invariant_subreps, is_simple, kernel_of_reduction,
    load_generating_pair, mat_identity, mat_inv, mat_mul, mat_pow, normal_closure,
    product_section_fixture, psl_group, quotient_by_center, section_search,
    sl_generators, sl_group, split_obstruction, splitting_search,
    verify_obstruction_certificate,
)
from autfn.runner import run_text


def sl_order_formula(n: int, p: int, k: int = 1) -> int:
    """Test oracle: |SL_n(Z/p^k)| = p^((k-1)(n^2-1)) * |SL_n(Z/p)|."""
    base = p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        base *= p**i - 1
    return base * p ** ((k - 1) * (n * n - 1))


class TestArithmetic:
    def test_mul_inv(self):
        g = elementary_mat(1, 2, 3, 3, 4)
        gi = mat_inv(g, 3, 4)
        assert mat_mul(g, gi, 3, 4) == mat_identity(3, 4)

    def test_inverse_of_a_one_by_one_matrix(self):
        assert mat_inv(encode([1], 5), 1, 5) == encode([1], 5)
        assert mat_inv(encode([2], 5), 1, 5) == encode([3], 5)
        with pytest.raises(ValueError, match="singular"):
            mat_inv(encode([2], 4), 1, 4)

    @pytest.mark.parametrize(
        "n, m", [(2, 3), (2, 4), (2, 9), (3, 2), (3, 4), (3, 9), (4, 3), (5, 2)]
    )
    def test_inverse_agrees_with_the_adjugate(self, n, m):
        rng = random.Random(10 * n + m)
        gens = sl_generators(n, m)
        for _ in range(40):
            a = rng.randrange(m ** (n * n))
            if rng.random() < 0.5:  # an invertible one, whatever m
                a = mat_identity(n, m)
                for _ in range(6):
                    a = mat_mul(a, rng.choice(gens), n, m)
            want = _adjugate_inverse(a, n, m)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    mat_inv(a, n, m)
            else:
                assert mat_inv(a, n, m) == want

    def test_pow(self):
        e = elementary_mat(2, 1, 1, 3, 5)
        assert mat_pow(e, 5, 3, 5) == mat_identity(3, 5)

    def test_pow_zero_and_one(self):
        e = elementary_mat(2, 1, 1, 3, 5)
        assert mat_pow(e, 0, 3, 5) == mat_identity(3, 5)
        assert mat_pow(e, 1, 3, 5) == e
        assert mat_pow(e, 3, 3, 5) == elementary_mat(2, 1, 3, 3, 5)

    @pytest.mark.parametrize("k, r", [(1, 4), (4, 1), (0, 2), (2, 0), (5, 1), (-1, 2)])
    def test_elementary_indices_are_checked(self, k, r):
        # (1, 4) at n = 3 would otherwise land on entry (2, 1).
        with pytest.raises(ValueError, match="out of range for n=3"):
            elementary_mat(k, r, 1, 3, 4)


def _cofactor_det(e, n, m):
    """Test oracle: determinant of row-major entries mod m by cofactor expansion."""
    if n == 1:
        return e[0] % m
    return sum(
        (-1) ** j * e[j]
        * _cofactor_det([e[r * n + c] for r in range(1, n) for c in range(n) if c != j], n - 1, m)
        for j in range(n)
    ) % m


def _adjugate_inverse(a, n, m):
    """Test oracle for n >= 2: the adjugate over the determinant, or None when
    the determinant is not a unit mod m."""
    e = decode(a, n, m)
    d = _cofactor_det(e, n, m)
    if gcd(d, m) != 1:
        return None
    dinv = pow(d, -1, m)
    return encode(
        [
            (-1) ** (i + j) * dinv * _cofactor_det(
                [e[r * n + c] for r in range(n) if r != j for c in range(n) if c != i],
                n - 1, m,
            )
            for i in range(n)
            for j in range(n)
        ],
        m,
    )


def _naive_product(a, b, n, m):
    """Test oracle: schoolbook product of decoded entries."""
    x, y = decode(a, n, m), decode(b, n, m)
    return encode(
        [sum(x[i * n + k] * y[k * n + j] for k in range(n))
         for i in range(n) for j in range(n)],
        m,
    )


class TestCodes:
    def test_code_order_is_entry_order(self):
        g = sl_group(3, 2)
        entries = [decode(e, 3, 2) for e in g.elements]
        assert entries == sorted(entries)
        assert [encode(e, 2) for e in entries] == list(g.elements)

    def test_encode_reduces_entries(self):
        assert encode([5, -1, 0, 9], 4) == encode([1, 3, 0, 1], 4)
        assert decode(encode([1, 3, 0, 1], 4), 2, 4) == bytes([1, 3, 0, 1])

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.sampled_from([(2, 3), (2, 4), (2, 9), (3, 3), (3, 4), (3, 9)]), st.data())
    def test_linear_row_tables_agree_with_dot_products(self, nm, data):
        n, m = nm
        space = _space(n, m)
        b = data.draw(st.integers(0, m ** (n * n) - 1))
        cols = list(zip(*space.rows(b)))
        by_dot_products = [space._times(row, cols) for row in space.row_entries]
        assert space.row_products(b) == by_dot_products

    @pytest.mark.parametrize("n, m", [(1, 5), (2, 3), (3, 4), (4, 3)])
    def test_row_maps_agree_with_schoolbook_products(self, n, m):
        # Each row map is applied to the random codes as one list, to the
        # empty list, and to a list longer than a chunk.
        rng = random.Random(100 * n + m)
        space = _space(n, m)
        gens = sl_generators(n, m) or [mat_identity(n, m)]
        codes = [rng.randrange(m ** (n * n)) for _ in range(10)]
        repeats = _CHUNK // len(codes) + 1
        for a in codes:
            b = rng.randrange(m ** (n * n))
            g = mat_identity(n, m)
            for _ in range(5):
                g = mat_mul(g, rng.choice(gens), n, m)
            g_inv = mat_inv(g, n, m)
            assert mat_mul(a, b, n, m) == _naive_product(a, b, n, m)
            maps = [space.right(b), space.conjugator(g)]
            wants = [
                [_naive_product(x, b, n, m) for x in codes],
                [_naive_product(_naive_product(g, x, n, m), g_inv, n, m) for x in codes],
            ]
            if m == 4:
                maps.append(_projection(n, m, 2))
                wants.append([encode(decode(x, n, m), 2) for x in codes])
            for f, want in zip(maps, wants):
                assert f(codes) == want
                assert f([]) == []
                assert f(codes * repeats) == want * repeats


class TestEnumeration:
    def test_sl3_mod2_order(self):
        assert sl_group(3, 2).order == sl_order_formula(3, 2) == 168

    def test_sl3_mod3_order(self):
        assert sl_group(3, 3).order == sl_order_formula(3, 3) == 5616

    def test_sl3_mod4_order(self):
        assert sl_group(3, 4).order == sl_order_formula(3, 2, k=2) == 43008

    def test_sl2_mod3_order(self):
        assert sl_group(2, 3).order == sl_order_formula(2, 3) == 24

    def test_trivial_generators(self):
        g = enumerate_group(2, 3, [mat_identity(2, 3)])
        assert g.order == 1

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_group(3, 4, sl_generators(3, 4), cap=1000)

    def test_cap_stops_a_large_layer_early(self):
        # One breadth-first layer of 100000 new elements against a cap that
        # allows 500 more: the error comes within one chunk of images.
        elems = set(range(100_000))  # closed under an empty set of steps
        made = []

        def step(xs):
            made.extend(xs)
            return [x + 100_000 for x in xs]

        with pytest.raises(EnumerationCapError):
            _extend(elems, [], step, cap=100_500)
        assert len(made) <= 500 + _CHUNK

    def test_deterministic_ordering(self):
        a = enumerate_group(2, 3, sl_generators(2, 3))
        b = enumerate_group(2, 3, sl_generators(2, 3))
        assert a.elements == b.elements

    def test_keeps_only_the_generators_its_closure_needed(self):
        e12 = elementary_mat(1, 2, 1, 2, 5)
        g = enumerate_group(2, 5, [e12, mat_pow(e12, 2, 2, 5), mat_identity(2, 5)])
        assert g.order == 5
        assert g.generators == (e12,)


def _all_elementary(n, m):
    """Test oracle: every off-diagonal elementary matrix e_ij, i != j."""
    return [
        elementary_mat(i, j, 1, n, m)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]


class TestAdjacentGenerators:
    """SL_n(Z/m) from the 2(n - 1) adjacent transvections alone."""

    @pytest.mark.parametrize(
        "n, p, k", [(2, 3, 1), (2, 5, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 2, 1)]
    )
    def test_same_element_table_as_all_elementary_matrices(self, n, p, k):
        m = p**k
        adjacent = sl_generators(n, m)
        assert len(adjacent) == 2 * (n - 1)
        assert set(adjacent) <= set(_all_elementary(n, m))
        whole = enumerate_group(n, m, _all_elementary(n, m))
        assert whole.order == sl_order_formula(n, p, k)
        assert enumerate_group(n, m, adjacent).elements == whole.elements

    @pytest.mark.parametrize("n, m", [(3, 2), (3, 4), (4, 3), (5, 9)])
    def test_commutators_of_elementary_matrices(self, n, m):
        # [e_ij, e_jk] = e_ij e_jk e_ij^-1 e_jk^-1 = e_ik for distinct i, j, k.
        for i, j, k in permutations(range(1, n + 1), 3):
            x, y = elementary_mat(i, j, 1, n, m), elementary_mat(j, k, 1, n, m)
            commutator = mat_mul(
                mat_mul(mat_mul(x, y, n, m), mat_inv(x, n, m), n, m),
                mat_inv(y, n, m), n, m,
            )
            assert commutator == elementary_mat(i, k, 1, n, m)


def _layer(frontier, steps, elems, cap):
    """Test oracle: one breadth-first layer.  Adds the images of ``frontier``
    under ``steps`` to ``elems`` and returns those that were new; the cap is
    checked every ``_CHUNK`` images."""
    new = set()
    for s in steps:
        images = map(lambda x: s([x])[0], frontier)
        while chunk := set(islice(images, _CHUNK)):
            chunk -= elems
            new |= chunk
            if cap is not None and len(elems) + len(new) > cap:
                raise EnumerationCapError(f"closure exceeded cap of {cap} elements")
    elems |= new
    return new


def _layer_closure(gens, right, identity, cap=None):
    """Test oracle: closure by breadth-first layers.  A path from the identity
    leaves the old group only through the new generator's step, so each new
    generator seeds one layer from the old group, and later layers expand
    only new elements, by every step."""
    elems = {identity}
    steps = []
    for g in gens:
        if g not in elems:
            steps.append(right(g))
            frontier = _layer(elems, steps[-1:], elems, cap)
            while frontier:
                frontier = _layer(frontier, steps, elems, cap)
    return elems


# Small groups for the oracle tests; the PSL entries are central quotients,
# whose row maps renormalize every product.
_SMALL_GROUPS = [(sl_group, 2, 5), (sl_group, 3, 2), (sl_group, 2, 3), (psl_group, 2, 5)]


@st.composite
def small_groups_with_generators(draw):
    build, n, m = draw(st.sampled_from(_SMALL_GROUPS))
    group = build(n, m)
    picks = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=3))
    return group, [group.elements[i] for i in picks]


def _capped(closure, *args):
    try:
        return closure(*args)
    except EnumerationCapError:
        return "cap"


class TestCosetOracle:
    """The coset closure of ``_extend`` against breadth-first layers."""

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(small_groups_with_generators(), st.none() | st.integers(1, 200))
    def test_agrees_with_layers(self, drawn, cap):
        group, gens = drawn
        got = _capped(lambda: _closure(gens, group.right, group.identity, cap)[0])
        want = _capped(_layer_closure, gens, group.right, group.identity, cap)
        assert got == want

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 2), (2, 3)])
    def test_whole_groups_agree_with_layers(self, n, m):
        space, ident = _space(n, m), mat_identity(n, m)
        gens = sl_generators(n, m)
        assert _closure(gens, space.right, ident)[0] == _layer_closure(
            gens, space.right, ident
        )

    def test_cyclic_subgroups_agree_with_layers(self):
        group = sl_group(2, 5)
        for a in group.elements:
            elems, kept = _closure([a], group.right, group.identity)
            assert elems == _layer_closure([a], group.right, group.identity)
            assert len(elems) == group.element_order(a)
            assert kept == ([] if a == group.identity else [a])

    def test_each_element_is_made_once(self):
        # Growing G_{i-1} to G_i by the i-th kept step tests the old group
        # by the new step once, every other coset once per step, and makes
        # each new element once.
        space, ident = _space(3, 4), mat_identity(3, 4)
        made = []

        def counted(g):
            step = space.right(g)
            return lambda xs: made.extend(xs) or step(xs)

        _, kept = _closure(sl_generators(3, 4), space.right, ident)
        orders = [
            len(_closure(kept[:i], space.right, ident)[0]) for i in range(len(kept) + 1)
        ]
        assert orders[-1] == 43008
        _closure(kept, counted, ident)
        tests = sum(
            1 + (orders[i] // orders[i - 1] - 1) * i for i in range(1, len(orders))
        )
        assert len(made) == 43008 - 1 + tests


def _simple_by_normal_closures(group):
    """Test oracle: one normal closure per nontrivial class representative."""
    if group.order == 1:
        return False
    return all(
        normal_closure([cls[0]], group).order == group.order
        for cls in conjugacy_classes(group)
        if cls[0] != group.identity
    )


class TestSimplicityOracle:
    """``is_simple`` on classes against one normal closure per class."""

    @pytest.mark.parametrize(
        "build, n, m, simple",
        [(sl_group, 3, 2, True), (psl_group, 2, 3, False), (sl_group, 2, 5, False),
         (psl_group, 2, 5, True), (sl_group, 2, 3, False)],
    )
    def test_named_groups(self, build, n, m, simple):
        group = build(n, m)
        assert is_simple(group) == _simple_by_normal_closures(group) == simple

    def test_cyclic_groups(self):
        # SL_2(Z/5) has elements of orders 1, 2, 3, 4, 5, 6 and 10; a cyclic
        # group is simple exactly when its order is prime.
        group = sl_group(2, 5)
        by_order = {group.element_order(a): a for a in group.elements}
        assert sorted(by_order) == [1, 2, 3, 4, 5, 6, 10]
        for k, a in by_order.items():
            cyclic = group.subgroup([a])
            assert is_simple(cyclic) == _simple_by_normal_closures(cyclic)
            assert is_simple(cyclic) == (k in (2, 3, 5))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(small_groups_with_generators())
    def test_subgroups(self, drawn):
        group, gens = drawn
        sub = group.subgroup(gens)
        assert is_simple(sub) == _simple_by_normal_closures(sub)


class TestCenter:
    def test_sl3_mod3_trivial(self):
        assert len(center(sl_group(3, 3))) == 1

    def test_sl2_mod3_plus_minus(self):
        zs = center(sl_group(2, 3))
        assert len(zs) == 2

    def test_abelian_group_is_its_own_center(self):
        # Cyclic order 4 inside SL_2(Z/5): rotation by i.
        rot = encode([0, 4, 1, 0], 5)
        g = enumerate_group(2, 5, [rot])
        assert g.order == 4
        assert len(center(g)) == 4


class TestNormalClosure:
    def test_trivial_seed(self):
        g = sl_group(3, 2)
        assert normal_closure([g.identity], g).order == 1

    def test_noncentral_element_generates_all_of_simple_group(self):
        g = sl_group(3, 2)
        seed = elementary_mat(1, 2, 1, 3, 2)
        assert normal_closure([seed], g).order == g.order

    def test_closure_is_verified_normal(self):
        g = sl_group(3, 4)
        seed = elementary_mat(2, 1, 2, 3, 4)
        sub = normal_closure([seed], g)
        elems = set(sub.elements)
        for gen in g.generators:
            gi = mat_inv(gen, 3, 4)
            for s in sub.generators:
                assert mat_mul(mat_mul(gen, s, 3, 4), gi, 3, 4) in elems

    def test_mod4_squared_seeds_give_kernel(self):
        assert closure_equals_reduction_kernel(3, 2, 2)


class TestKernelReport:
    def test_structure(self):
        rep = kernel_of_reduction(3, 2)
        assert rep.kernel_order == 2 ** (3 * 3 - 1) == 256
        assert rep.group_order == 43008
        assert rep.image_order == 168
        assert rep.image_order * rep.kernel_order == rep.group_order
        assert rep.shape_verified
        assert rep.additive_iso_verified
        assert rep.all_elements_order_p

    def test_every_pair_is_compared(self):
        # Each kernel element times each of the 8 kept generators; by
        # induction on word length these products cover every pair.
        rep = kernel_of_reduction(3, 2)
        assert len(rep.kernel.generators) == 8
        assert rep.products_checked == rep.kernel_order * 8 == 2048

    def test_corrupted_additive_map_fails(self, monkeypatch):
        honest = modgroups._additive_parts

        def corrupted(kernel, n, p):
            # Add 1 to the top-left entry of A for one element whose entry
            # is 0: the map stays injective (that part has trace 1, no other
            # part does), so only the pairwise identity can catch it.
            parts = honest(kernel, n, p)
            e = next(
                e for e, a in parts.items() if a != 0 and decode(a, n, p * p)[0] == 0
            )
            parts[e] += (p * p) ** (n * n - 1)
            assert len(set(parts.values())) == len(parts)
            return parts

        monkeypatch.setattr(modgroups, "_additive_parts", corrupted)
        rep = kernel_of_reduction(3, 2)
        assert rep.shape_verified and rep.all_elements_order_p
        assert not rep.additive_iso_verified
        assert rep.products_checked < 2048

    def test_every_kernel_element_squares_to_identity(self):
        rep = kernel_of_reduction(3, 2)
        for e in rep.kernel.elements:
            assert mat_mul(e, e, 3, 4) == mat_identity(3, 4)


def _additive_all_pairs(parts, steps, identity, n, p):
    """Test oracle: part(a b) = part(a) + part(b) mod p checked on every pair
    of kernel elements; returns whether all passed and how many pairs were
    compared (all unless one failed).  The row of b lists a b for every a,
    and for b = b' s it is the step s (right multiplication by a kernel
    generator) applied to the row of b'."""
    m = p * p
    elems = list(parts)

    def agrees(a, b, ab):
        got = decode(parts[ab], n, m)
        want = (x + y for x, y in zip(decode(parts[a], n, m), decode(parts[b], n, m)))
        return all(g == w % p for g, w in zip(got, want))

    seen = {identity}
    todo = [(identity, elems)]
    compared = 0
    while todo:
        b, row = todo.pop()
        compared += len(row)
        if not all(agrees(a, b, ab) for a, ab in zip(elems, row)):
            return False, compared
        for s in steps:
            (c,) = s([b])
            if c not in seen:
                seen.add(c)
                todo.append((c, s(row)))
    return True, compared


class TestAdditiveOracle:
    """The additive model checked on generator products against the check
    on every pair."""

    n, p = 3, 2

    @pytest.fixture
    def kernel(self):
        rep = kernel_of_reduction(self.n, self.p)
        group = sl_group(self.n, self.p**2)
        parts = _additive_parts(rep.kernel.elements, self.n, self.p)
        return group, rep.kernel.generators, parts

    def checks(self, kernel, parts):
        group, gens, _ = kernel
        by_generators = _additive_pairs(
            parts, gens, group.right, group.identity, self.n, self.p
        )
        steps = [group.right(g) for g in gens]
        by_pairs = _additive_all_pairs(parts, steps, group.identity, self.n, self.p)
        return by_generators, by_pairs

    def test_honest_map(self, kernel):
        assert self.checks(kernel, kernel[2]) == ((True, 2048), (True, 65536))

    def test_corruption_at_sixteen_elements(self, kernel):
        # The single-entry corruption of test_corrupted_additive_map_fails
        # (1 added to the top-left entry of a part whose entry is 0, which
        # keeps the map injective), at each of 16 kernel elements.
        n, m = self.n, self.p**2
        parts = kernel[2]
        targets = [e for e, a in parts.items() if a != 0 and decode(a, n, m)[0] == 0]
        assert len(targets[::8]) == 16
        for e in targets[::8]:
            bad = dict(parts)
            bad[e] += m ** (n * n - 1)
            assert len(set(bad.values())) == len(bad)
            (ok, checked), (ok_pairs, compared) = self.checks(kernel, bad)
            assert not ok and checked < 2048
            assert not ok_pairs and compared < 65536

    def test_identity_part_must_be_zero(self, kernel):
        # With no generators (a trivial kernel) only part(1) = 0 is left.
        group, gens, parts = kernel
        for part, verdict in ((0, True), (1, False)):
            check = ({group.identity: part}, [], group.right, group.identity, 3, 2)
            assert _additive_pairs(*check) == (verdict, 0)


def _reduction_by_projection(n, p):
    """Test oracle: reduce every element of SL_n(Z/p^2) mod p; the kernel is
    the sorted elements that reduce to I, the image the set of reductions."""
    elements = sl_group(n, p * p).elements
    images = _projection(n, p * p, p)(elements)
    ident = mat_identity(n, p)
    kernel = tuple(e for e, r in zip(elements, images) if r == ident)
    return kernel, len(set(images))


class TestReductionOracle:
    @pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (3, 2)])
    def test_membership_agrees_with_projecting_every_element(self, n, p):
        kernel, image_order = _reduction(n, p)
        assert (kernel, image_order) == _reduction_by_projection(n, p)
        assert len(kernel) == p ** (n * n - 1)
        assert image_order == sl_order_formula(n, p)


class TestSimplicity:
    def test_sl3_mod2(self):
        assert is_simple(sl_group(3, 2))

    def test_psl3_mod3(self):
        g = psl_group(3, 3)
        assert g.order == 5616
        assert is_simple(g)

    def test_psl2_mod3_is_not_simple(self):
        g = psl_group(2, 3)
        assert g.order == 12
        assert not is_simple(g)

    def test_cyclic_four_is_not_simple(self):
        rot = encode([0, 4, 1, 0], 5)
        g = enumerate_group(2, 5, [rot])
        assert g.order == 4
        assert not is_simple(g)

    def test_quotient_cosets_partition_evenly(self):
        g = sl_group(2, 3)
        q = quotient_by_center(g)
        assert q.order * len(center(g)) == g.order

    def test_class_sizes_partition_group(self):
        g = sl_group(3, 2)
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order


class TestSplitting:
    def test_fixture_pair_generates(self):
        a, b = load_generating_pair()
        assert enumerate_group(3, 2, [a, b]).order == 168

    def test_fixture_pair_reads_mod_p(self):
        # The fixture's 0/1 entries are the same entries under any modulus.
        for p in (3, 5):
            for a2, ap in zip(load_generating_pair(), load_generating_pair(modulus=p)):
                assert decode(ap, 3, p) == decode(a2, 3, 2)

    def test_find_generating_pair(self):
        pair = find_generating_pair(sl_group(2, 3))
        assert enumerate_group(2, 3, list(pair)).order == 24

    def test_product_fixture_finds_section(self):
        result = product_section_fixture()
        assert result.found
        assert result.pairs_tried == 4

    def test_exhaustive_search_counts_all_lift_pairs(self):
        result = splitting_search(load_generating_pair())
        assert result.pairs_tried == 256 * 256

    def test_search_witness_is_a_genuine_section(self):
        """The lift search finds an explicit section of the mod-2 projection
        at n = 3; verify the witness from scratch."""
        result = splitting_search(load_generating_pair())
        assert result.found
        wa, wb = result.witness
        # Fully enumerate the generated subgroup and check it maps
        # bijectively onto the 168-element quotient.
        sub = enumerate_group(3, 4, [encode(wa, 4), encode(wb, 4)])
        assert sub.order == 168
        images = _projection(3, 4, 2)(sub.elements)
        assert len(set(images)) == 168
        meets_kernel = [e for e, r in zip(sub.elements, images)
                        if r == mat_identity(3, 2) and e != mat_identity(3, 4)]
        assert meets_kernel == []

    def test_rejects_non_generating_pair(self):
        with pytest.raises(ValueError):
            splitting_search((mat_identity(3, 2), elementary_mat(1, 2, 1, 3, 2)))


def _bfs_section(a, b, op, identity, is_kernel_element, target_order):
    """Test oracle: breadth-first closure of <a, b> that rejects the pair as
    soon as the subgroup grows past the target order or meets a nontrivial
    kernel element; a pair passes when it reaches the target order."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in (a, b):
                y = op(x, g)
                if y not in seen:
                    if len(seen) >= target_order:
                        return False
                    if y != identity and is_kernel_element(y):
                        return False
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == target_order


class TestSectionOracle:
    """The capped closure of section_search against the kernel-element BFS,
    one lift pair at a time."""

    def test_agrees_on_splitting_lift_pairs(self):
        n, p, m = 3, 2, 4
        a, b = load_generating_pair()
        small = enumerate_group(n, p, [a, b])
        orders = [small.element_order(a), small.element_order(b)]
        kernel = kernel_of_reduction(n, p).kernel.elements
        ident, ident_p = mat_identity(n, m), mat_identity(n, p)
        fibers = [
            [mat_mul(encode(decode(x, n, p), m), k, n, m) for k in kernel]
            for x in (a, b)
        ]
        good = [
            [x for x in fiber if mat_pow(x, k, n, m) == ident]
            for fiber, k in zip(fibers, orders)
        ]
        verdicts = []
        for x, y in islice(product(*good), 200):
            got = section_search([x], [y], n, m, *orders, small.order).found
            want = _bfs_section(
                x, y, lambda u, v: mat_mul(u, v, n, m), ident,
                lambda u: _projection(n, m, p)([u]) == [ident_p], small.order,
            )
            assert got == want
            verdicts.append(got)
        assert len(verdicts) == 200
        assert True in verdicts and False in verdicts

    def test_agrees_on_fixture_pairs(self):
        # The oracle works in SL_3(Z/2) x Z/2 as (matrix, bit) pairs; the
        # search in GL_5(Z/2) as block-diagonal diag(matrix, swap^bit).
        n, p = 3, 2
        a, b = find_generating_pair(sl_group(n, p))
        small = enumerate_group(n, p, [a, b])
        orders = [small.element_order(a), small.element_order(b)]
        ident = mat_identity(n, p)

        def block(x, bit):
            e = list(decode(x, n, p))
            tail = [[0, 1], [1, 0]] if bit else [[1, 0], [0, 1]]
            rows = [e[i * n : i * n + n] + [0, 0] for i in range(n)]
            rows += [[0] * n + r for r in tail]
            return encode([v for row in rows for v in row], p)

        def op(u, v):
            return (mat_mul(u[0], v[0], n, p), (u[1] + v[1]) % 2)

        verdicts = []
        for bit_a, bit_b in product((0, 1), repeat=2):
            got = section_search(
                [block(a, bit_a)], [block(b, bit_b)], n + 2, p, *orders, small.order
            ).found
            want = _bfs_section(
                (a, bit_a), (b, bit_b), op, (ident, 0),
                lambda u: u[0] == ident, small.order,
            )
            assert got == want
            verdicts.append(got)
        assert verdicts[0]
        result = product_section_fixture()
        assert (result.found, result.pairs_tried, result.pairs_expanded) == (True, 4, 1)


def _xor_table(images):
    """table[v] = XOR of images[b] over the set bits b of v."""
    table = [0]
    for img in images:
        table += [t ^ img for t in table]
    return table


def _reference_invariant_subreps(n):
    """Test oracle for :func:`invariant_subreps`: the span of the conjugation
    orbit of every nonzero trace-zero matrix mod 2, found by walking all
    2^(n^2) codes.  Each span is the smallest invariant subspace holding its
    seed, so any invariant W is a union of spans of its members.  Members of
    an orbit share one span, the spin of any of them; in the orbit walk each
    generator acts through two XOR tables, one for the low byte of the code
    and one for the rest."""
    cells = n * n
    space = _space(n, 2)
    conjugators = [space.conjugator(g) for g in sl_generators(n, 2)]
    conjugations = []
    for conj in conjugators:
        images = conj([1 << bit for bit in range(cells)])
        conjugations.append((_xor_table(images[:8]), _xor_table(images[8:])))
    identity_mask = mat_identity(n, 2)
    full_dim = cells - 1

    seen = bytearray(1 << cells)
    spans = set()  # reduced echelon bases
    for v in range(1, 1 << cells):
        if seen[v] or (v & identity_mask).bit_count() % 2:
            continue
        seen[v] = 1
        queue = [v]
        while queue:  # marks v's orbit, which no earlier orbit meets
            x = queue.pop()
            low, high = x & 0xFF, x >> 8
            for low_table, high_table in conjugations:
                y = low_table[low] ^ high_table[high]
                if not seen[y]:
                    seen[y] = 1
                    queue.append(y)
        spans.add(_spin([v], conjugators, n, 2))
    scalar_span_found = (identity_mask,) in spans

    dims = tuple(sorted({len(basis) for basis in spans}))
    labels = ["0"]
    if scalar_span_found:
        labels.append("scalars")
    if full_dim in dims:
        labels.append("full")
    complete = all(d == full_dim or (d == 1 and scalar_span_found) for d in dims)
    return SubrepScan(
        n=n,
        dim=full_dim,
        span_dims=dims,
        scalar_span_found=scalar_span_found,
        classification=tuple(labels),
        complete=complete,
    )


class TestSubreps:
    def test_n3_only_zero_and_full(self):
        scan = invariant_subreps(3)
        assert scan.classification == ("0", "full")
        assert scan.span_dims == (8,)
        assert scan.complete

    def test_n4_includes_scalars(self):
        scan = invariant_subreps(4)
        assert scan.classification == ("0", "scalars", "full")
        assert scan.span_dims == (1, 15)
        assert scan.scalar_span_found
        assert scan.complete

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_the_orbit_scan(self, n):
        assert invariant_subreps(n) == _reference_invariant_subreps(n)

    def test_sizes_five_to_eight(self):
        start = time.perf_counter()
        for n in range(5, 9):
            scan = invariant_subreps(n)
            want = ("0", "full") if n % 2 else ("0", "scalars", "full")
            assert scan.classification == want
            assert scan.span_dims == ((n * n - 1,) if n % 2 else (1, n * n - 1))
            assert scan.complete
        assert time.perf_counter() - start < 2.0

    def test_a_failed_step_claims_no_lattice(self):
        # All of M_3(F_2) = <I> + sl_3 with S = 0: I is fixed by P and spins
        # to its own line, so the lemma-based proof must fail there.
        maps = _conjugation_maps(3, 2)
        ident = mat_identity(3, 2)
        spans, proved = _lattice_proof(
            [1 << bit for bit in range(9)], maps, maps[::2], (), 3
        )
        assert not proved
        assert (ident,) in spans

    def test_rejects_other_sizes(self):
        for n in (2, 9):
            with pytest.raises(ValueError):
                invariant_subreps(n)


class TestObstruction:
    def test_n6_infeasible_with_certificate(self):
        rep = split_obstruction(6)
        assert not rep.feasible
        assert verify_obstruction_certificate(rep)

    def test_n8_infeasible(self):
        rep = split_obstruction(8)
        assert not rep.feasible
        assert verify_obstruction_certificate(rep)

    def test_small_or_odd_rejected(self):
        for n in (4, 5, 7, 2):
            with pytest.raises(ValueError, match="even n >= 6"):
                split_obstruction(n)

    def test_assignment_violates_exactly_one_equation(self):
        rep = split_obstruction(10)
        violations = 0
        for mask, rhs in rep.equations:
            acc = 0
            for i in range(rep.n):
                if mask >> i & 1:
                    acc ^= rep.assignment[i]
            violations += acc != rhs
        assert violations == 1


def _reference_closure_spans(n, p, seed_pos):
    """Test oracle for :func:`closure_spans_kernel_additively`: walk the
    conjugation orbit of e_{k,r}^p through SL_n(Z/p^2) codes, checking that
    it stays in the reduction kernel, and eliminate the additive parts of the
    orbit over F_p."""
    m = p * p
    k, r = seed_pos
    seed = elementary_mat(k, r, p, n, m)
    reduce_p = _projection(n, m, p)
    ident_small = mat_identity(n, p)
    assert reduce_p([seed]) == [ident_small]
    space = _space(n, m)
    conjugators = [space.conjugator(g) for g in sl_generators(n, m)]
    seen = {seed}
    queue = [seed]
    while queue:
        x = queue.pop()
        for conj in conjugators:
            (y,) = conj([x])
            if y not in seen:
                assert reduce_p([y]) == [ident_small], "conjugate left the kernel"
                seen.add(y)
                queue.append(y)

    ident = mat_identity(n, m)
    basis, pivots = [], []
    for e in sorted(seen):
        vec = list(decode((e - ident) // p, n, m))
        for b, piv in zip(basis, pivots):
            if vec[piv] != 0:
                scale = vec[piv] * pow(b[piv], -1, p)
                vec = [(x - scale * y) % p for x, y in zip(vec, b)]
        nz = next((i for i, x in enumerate(vec) if x != 0), None)
        if nz is not None:
            basis.append(vec)
            pivots.append(nz)
    return len(basis) == n * n - 1


def _seeds(n):
    return [(k, r) for k in range(1, n + 1) for r in range(1, n + 1) if k != r]


def _conjugation_maps(n, p):
    space = _space(n, p)
    return [space.conjugator(g) for g in sl_generators(n, p)]


class TestSpin:
    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in (2, 3)])
    def test_identity_spins_to_its_line(self, n, p):
        ident = mat_identity(n, p)
        assert _spin([ident], _conjugation_maps(n, p), n, p) == (ident,)

    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in (2, 3)])
    def test_elementary_spins_to_the_trace_zero_space(self, n, p):
        seed = elementary_mat(1, 2, 1, n, p) - mat_identity(n, p)
        basis = _spin([seed], _conjugation_maps(n, p), n, p)
        assert len(basis) == n * n - 1
        for b in basis:
            assert sum(decode(b, n, p)[:: n + 1]) % p == 0
        # The scalars lie in it exactly when p divides n = tr I.
        with_ident = _spin([*basis, mat_identity(n, p)], [], n, p)
        assert (with_ident == basis) == (n % p == 0)

    @pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (3, 3), (4, 2), (2, 5)])
    def test_basis_is_reduced_and_independent_of_seed_order(self, n, p):
        rng = random.Random(n * 10 + p)
        seeds = [rng.randrange(p ** (n * n)) for _ in range(3)]
        basis = _spin(seeds, [], n, p)
        assert 0 < len(basis) <= 3
        for perm in permutations(seeds):
            assert _spin(perm, [], n, p) == basis
        for s in seeds:
            assert _spin([*basis, s], [], n, p) == basis
        rows = [decode(b, n, p) for b in basis]
        pivots = [next(i for i, e in enumerate(row) if e) for row in rows]
        assert pivots == sorted(pivots)
        for row, piv in zip(rows, pivots):
            assert [other[piv] for other in rows] == [int(o is row) for o in rows]

    def test_zero_seed_spans_nothing(self):
        assert _spin([0], _conjugation_maps(3, 3), 3, 3) == ()


def test_mod9_closure_spans_kernel():
    assert all(closure_spans_kernel_additively(3, 3, s) for s in _seeds(3))


class TestClosureSpan:
    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 4) for p in (2, 3)])
    def test_agrees_with_the_orbit_walk(self, n, p):
        for seed in _seeds(n):
            want = _reference_closure_spans(n, p, seed)
            assert closure_spans_kernel_additively(n, p, seed) == want

    @pytest.mark.parametrize("seed", [(1, 1), (0, 2), (1, 4)])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ValueError):
            closure_spans_kernel_additively(3, 3, seed)

    def test_builds_nothing_mod_p_squared(self, monkeypatch):
        _space.cache_clear()
        built = []
        honest = modgroups._Space

        def recording(n, m):
            built.append((n, m))
            return honest(n, m)

        monkeypatch.setattr(modgroups, "_Space", recording)
        try:
            assert closure_spans_kernel_additively(3, 3, (1, 2))
        finally:
            _space.cache_clear()
        assert built == [(3, 3)]

    @pytest.mark.parametrize("n, p", [(3, 3), (4, 2), (4, 3)])
    def test_all_seeds_spin_to_one_basis(self, n, p):
        maps = _conjugation_maps(n, p)
        ident = mat_identity(n, p)
        bases = {
            _spin([elementary_mat(k, r, 1, n, p) - ident], maps, n, p)
            for k, r in _seeds(n)
        }
        assert len(bases) == 1

    def test_five_by_five_mod_nine_is_quick(self):
        # The orbit walk took about 9 s for these 20 seeds.
        start = time.perf_counter()
        record = _check("closure_span(5, 3) == true")
        assert time.perf_counter() - start < 2.0
        assert record.detail == "spans full trace-zero space for all seeds: True"

    def test_sizes_past_the_mod_p_squared_bound_replay(self):
        # 9^6 and 9^8 rows were above the bound; the mod-p tables are not.
        start = time.perf_counter()
        report = run_text(
            "rank 3\n"
            "check closure_span(6, 3) == true\ncheck closure_span(8, 3) == true\n"
        )
        assert time.perf_counter() - start < 2.0
        assert [r.status for r in report.records] == ["pass", "pass"]


def _orbits(n):
    """Conjugation orbits of the nonzero trace-zero matrices mod 2."""
    maps = _conjugation_maps(n, 2)
    ident = mat_identity(n, 2)
    seen, orbits = set(), []
    for v in range(1, 1 << (n * n)):
        if v in seen or (v & ident).bit_count() % 2:
            continue
        orbit, queue = {v}, [v]
        while queue:
            x = queue.pop()
            for f in maps:
                if (y := f([x])[0]) not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def _orbit_echelon(orbit):
    """Reduced echelon basis of the span of an orbit of bitmasks, by the
    leading-bit elimination and pivot clearing that the scan used before
    it spun one vector per orbit."""
    by_top = {}
    for w in orbit:
        while w:
            b = by_top.get(w.bit_length())
            if b is None:
                by_top[w.bit_length()] = w
                break
            w ^= b
    basis = [by_top[top] for top in sorted(by_top, reverse=True)]
    for i in range(len(basis)):
        pivot = 1 << (basis[i].bit_length() - 1)
        for j in range(len(basis)):
            if i != j and basis[j] & pivot:
                basis[j] ^= basis[i]
    return tuple(sorted(basis, reverse=True))


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_spins_match_orbit_echelons(n):
    maps = _conjugation_maps(n, 2)
    orbits = _orbits(n)
    assert sum(map(len, orbits)) == 2 ** (n * n - 1) - 1
    for orbit in orbits:
        assert _spin([min(orbit)], maps, n, 2) == _orbit_echelon(orbit)


def _check(line):
    """Replay one finite-group check, which must pass; return its record."""
    (record,) = run_text(f"rank 3\ncheck {line}\n").records
    assert record.status == "pass", record
    return record


class TestWorkCounts:
    """Row-map applications per finite-group check, from cold caches,
    counted by wrapping ``_row_map`` as the number of codes each call is
    handed: a check that slid back to a sweep over pairs or over the
    elements of a larger group would fail here."""

    CACHES = ("sl_group", "psl_group", "_reduction", "_space", "_projection")

    @pytest.fixture
    def applied(self, monkeypatch):
        for name in self.CACHES:
            getattr(modgroups, name).cache_clear()
        count = [0]
        honest = modgroups._row_map

        def counting(tables, base):
            apply = honest(tables, base)

            def counted(xs):
                xs = list(xs)
                count[0] += len(xs)
                return apply(xs)

            return counted

        monkeypatch.setattr(modgroups, "_row_map", counting)
        yield count
        for name in self.CACHES:  # drop the tables built with the counter
            getattr(modgroups, name).cache_clear()

    @staticmethod
    def inside(monkeypatch, applied, name):
        """Applications made inside each call of ``modgroups.<name>``."""
        made = []
        honest = getattr(modgroups, name)

        def wrapper(*args, **kwargs):
            before = applied[0]
            result = honest(*args, **kwargs)
            made.append(applied[0] - before)
            return result

        monkeypatch.setattr(modgroups, name, wrapper)
        return made

    def test_kernel_check_multiplies_by_generators(self, applied, monkeypatch):
        made = self.inside(monkeypatch, applied, "_additive_pairs")
        record = _check("kernel(3, 2) == 256")
        assert record.detail == (
            "kernel 256, image 168, group 43008, additive model verified"
        )
        assert made == [256 * 8]

    def test_class_orbits_act_by_the_kept_generators(self, applied, monkeypatch):
        made = self.inside(monkeypatch, applied, "conjugacy_classes")
        _check("simple(psl, 3, 3) == true")
        assert len(psl_group(3, 3).generators) == 4
        assert made == [2 * 4 * 5616]  # two row maps per conjugation

    def test_one_center_pass_per_group(self, applied):
        _check("order(sl, 3, 3) == 5616")
        group = sl_group(3, 3)
        # One pass conjugates each element by the generators until one moves
        # it (all of them for a central element), two row maps each.
        one_pass = 0
        for z in group.elements:
            for tried, g in enumerate(group.generators, 1):
                if mat_mul(g, z, 3, 3) != mat_mul(z, g, 3, 3):
                    break
            one_pass += 2 * tried
        before = applied[0]
        _check("center(sl, 3, 3) == 1")
        assert applied[0] - before == one_pass
        before = applied[0]
        _check("order(psl, 3, 3) == 5616")
        assert applied[0] == before
