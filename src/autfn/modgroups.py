"""Finite matrix groups over Z/m: enumeration, normal closures, kernels,
centers, simplicity, section searches, and GF(2) obstruction systems.

An n x n matrix over Z/m is one integer, its *code*: the row-major entries
read as base-m digits, first entry most significant (:func:`encode`,
:func:`decode`).  Numeric order on codes is the lexicographic order on entry
sequences, so sorted element tables are canonical and repeated runs produce
identical tables.

Read in base M = m^n, a code has one digit per row, the row's own code.  Many
maps act on each row separately: right multiplication by a fixed matrix, the
reduction mod a divisor p of m, and transposition after either.  Such a *row
map* is n lookups in tables of M entries, one table per row position, whose
results add up to the image code (:func:`_row_map`).  Enumeration, normal
closures and the kernel checks multiply through row maps of their generators,
and conjugation by g is two of them (x g^-1, then g x g^-1 read through the
transpose).  Tables are built on first use, never at import.

The cost of the algorithms below is how often they apply a row map, and
they are built to apply few.  A group grows one generator at a time by right
cosets of the group so far (:func:`_extend`, Dimino's method), which makes
each element once.  Simplicity is decided on conjugacy classes: the normal closure of a
class is the set of classes its products reach, found with the one row map
of the class representative (:func:`is_simple`).  The reduction kernel of
SL_n(Z/p^2) comes from one cached reduction pass, and its additive model is
checked on every pair through row maps of the kernel's generators only
(:func:`kernel_of_reduction`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import islice, product, repeat
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

Mat = int


class EnumerationCapError(RuntimeError):
    """Breadth-first closure exceeded the configured size cap."""


# --- matrix codes --------------------------------------------------------------


def encode(entries: Iterable[int], m: int) -> Mat:
    """Code of the matrix with these row-major entries, each reduced mod m."""
    code = 0
    for e in entries:
        code = code * m + e % m
    return code


def decode(code: Mat, n: int, m: int) -> bytes:
    """Row-major entries of a code; inverse of :func:`encode`."""
    out = bytearray(n * n)
    for i in range(n * n - 1, -1, -1):
        code, out[i] = divmod(code, m)
    return bytes(out)


def _row_map(tables: Sequence[Sequence[int]], base: int) -> Callable[[Mat], Mat]:
    """x -> sum of tables[k][row k of x], the rows being the base-``base``
    digits of x, most significant first."""
    backwards = tables[::-1]

    def apply(x: Mat) -> Mat:
        out = 0
        for t in backwards:
            x, r = divmod(x, base)
            out += t[r]
        return out

    return apply


class _Space:
    """Codes of n x n matrices over Z/m and the row maps that act on them."""

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        self.m = m
        self.base = m**n  # number of row codes
        self.place = [m ** (n - 1 - j) for j in range(n)]  # entry j in a row
        self.row_place = [self.base ** (n - 1 - k) for k in range(n)]
        self.row_entries = [
            tuple(r // w % m for w in self.place) for r in range(self.base)
        ]
        self._conjugators: dict[Mat, Callable[[Mat], Mat]] = {}

    def rows(self, a: Mat) -> list[tuple[int, ...]]:
        return [self.row_entries[a // w % self.base] for w in self.row_place]

    def _times(self, row: Sequence[int], cols: Sequence[Sequence[int]]) -> int:
        """Row code of row * b, given the columns of b."""
        m = self.m
        return sum(sum(map(mul, row, col)) % m * w for col, w in zip(cols, self.place))

    def mul(self, a: Mat, b: Mat) -> Mat:
        cols = list(zip(*self.rows(b)))
        return sum(
            self._times(row, cols) * w for row, w in zip(self.rows(a), self.row_place)
        )

    def row_products(self, b: Mat) -> list[int]:
        """Row code of r * b for every row code r."""
        cols = list(zip(*self.rows(b)))
        return [self._times(row, cols) for row in self.row_entries]

    def right(self, b: Mat) -> Callable[[Mat], Mat]:
        """x -> x * b."""
        products = self.row_products(b)
        return _row_map([[v * w for v in products] for w in self.row_place], self.base)

    @cached_property
    def column(self) -> list[list[int]]:
        """column[k][r]: the code with row code r written as column k."""
        n, m = self.n, self.m
        return [
            [
                sum(e * m ** (n * n - 1 - (j * n + k)) for j, e in enumerate(row))
                for row in self.row_entries
            ]
            for k in range(n)
        ]

    def right_transposed(self, b: Mat) -> Callable[[Mat], Mat]:
        """x -> (x * b)^T."""
        products = self.row_products(b)
        return _row_map([[col[v] for v in products] for col in self.column], self.base)

    def conjugator(self, g: Mat) -> Callable[[Mat], Mat]:
        """x -> g x g^-1, as (g^-1)-then-transpose followed by g^T-then-transpose.
        Kept per g: callers ask for the conjugators of group generators."""
        step = self._conjugators.get(g)
        if step is None:
            n, m = self.n, self.m
            first = self.right_transposed(mat_inv(g, n, m))
            second = self.right_transposed(_transpose(g, n, m))
            step = self._conjugators[g] = lambda x: second(first(x))
        return step


@lru_cache(maxsize=None)
def _space(n: int, m: int) -> _Space:
    return _Space(n, m)


@lru_cache(maxsize=None)
def _projection(n: int, m: int, p: int) -> Callable[[Mat], Mat]:
    """Entrywise reduction mod p, from codes mod m to codes mod p."""
    space = _space(n, m)
    rows = [encode(row, p) for row in space.row_entries]
    return _row_map(
        [[v * p ** (n * (n - 1 - k)) for v in rows] for k in range(n)], space.base
    )


# --- matrix arithmetic on codes ------------------------------------------------


def mat_identity(n: int, m: int) -> Mat:
    return encode((1 if i == j else 0 for i in range(n) for j in range(n)), m)


def mat_mul(a: Mat, b: Mat, n: int, m: int) -> Mat:
    return _space(n, m).mul(a, b)


def _transpose(a: Mat, n: int, m: int) -> Mat:
    e = decode(a, n, m)
    return encode((e[j * n + i] for i in range(n) for j in range(n)), m)


def _det(e: Sequence[int], n: int, m: int) -> int:
    """Determinant of row-major entries mod m by cofactor expansion."""
    if n == 1:
        return e[0] % m
    total = 0
    for j in range(n):
        if e[j] == 0:
            continue
        minor = [e[r * n + c] for r in range(1, n) for c in range(n) if c != j]
        cof = _det(minor, n - 1, m)
        total += (e[j] * cof) if j % 2 == 0 else (-e[j] * cof)
    return total % m


def mat_det(a: Mat, n: int, m: int) -> int:
    """Determinant mod m by cofactor expansion; n stays desk-sized."""
    return _det(decode(a, n, m), n, m)


def _unit_inverse(d: int, m: int) -> int:
    d %= m
    for x in range(1, m):
        if (d * x) % m == 1:
            return x
    raise ValueError(f"{d} is not a unit mod {m}")


def mat_inv(a: Mat, n: int, m: int) -> Mat:
    """Adjugate divided by the determinant; requires det to be a unit."""
    e = decode(a, n, m)
    dinv = _unit_inverse(_det(e, n, m), m)
    out = []
    for i in range(n):
        for j in range(n):
            minor = [e[r * n + c] for r in range(n) if r != j for c in range(n) if c != i]
            sign = 1 if (i + j) % 2 == 0 else -1
            out.append(sign * _det(minor, n - 1, m) * dinv)
    return encode(out, m)


def mat_pow(a: Mat, k: int, n: int, m: int) -> Mat:
    """a^k for k >= 0, by k - 1 products starting from a."""
    if k == 0:
        return mat_identity(n, m)
    out = a
    for _ in range(k - 1):
        out = mat_mul(out, a, n, m)
    return out


def elementary_mat(k: int, r: int, power: int, n: int, m: int) -> Mat:
    if k == r:
        raise ValueError("elementary matrix needs distinct indices")
    return mat_identity(n, m) + (power % m) * m ** (n * n - 1 - ((k - 1) * n + (r - 1)))


# --- group tables ------------------------------------------------------------


class FiniteMatrixGroup:
    """A finite group of residue matrices, stored as a sorted table of codes.

    ``normalize`` (identity by default) canonicalizes products, which is how
    central quotients reuse this class: elements are distinguished coset
    representatives and every product is renormalized.
    """

    def __init__(
        self,
        n: int,
        modulus: int,
        elements: Iterable[Mat],
        generators: Sequence[Mat],
        normalize: Optional[Callable[[Mat], Mat]] = None,
    ) -> None:
        self.n = n
        self.modulus = modulus
        self.normalize = normalize
        self.elements: tuple[Mat, ...] = tuple(sorted(elements))
        self.generators: tuple[Mat, ...] = tuple(generators)
        ident = self._norm(mat_identity(n, modulus))
        if ident not in self:
            raise ValueError("table does not contain the identity")
        self.identity: Mat = ident
        for g in self.generators:
            if g not in self:
                raise ValueError("generator missing from element table")

    def _norm(self, a: Mat) -> Mat:
        return a if self.normalize is None else self.normalize(a)

    def _normalized(self, step: Callable[[Mat], Mat]) -> Callable[[Mat], Mat]:
        norm = self.normalize
        return step if norm is None else (lambda x: norm(step(x)))

    def op(self, a: Mat, b: Mat) -> Mat:
        return self._norm(mat_mul(a, b, self.n, self.modulus))

    def right(self, b: Mat) -> Callable[[Mat], Mat]:
        """Row map of x -> x * b."""
        return self._normalized(_space(self.n, self.modulus).right(b))

    def conjugator(self, g: Mat) -> Callable[[Mat], Mat]:
        """Row maps of x -> g x g^-1."""
        return self._normalized(_space(self.n, self.modulus).conjugator(g))

    def element_order(self, a: Mat) -> int:
        k = 1
        cur = a
        while cur != self.identity:
            cur = self.op(cur, a)
            k += 1
        return k

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Mat) -> bool:
        i = bisect_left(self.elements, a)
        return i < len(self.elements) and self.elements[i] == a

    def subgroup(self, generators: Iterable[Mat]) -> "FiniteMatrixGroup":
        """The subgroup the generators generate; it keeps as its generators
        those that enlarged it, in the order given."""
        gens = [self._norm(g) for g in generators]
        for g in gens:
            if g not in self:
                raise ValueError("subgroup generator outside the group")
        elems, kept = _closure(gens, self.right, self.identity)
        return FiniteMatrixGroup(self.n, self.modulus, elems, kept, self.normalize)


_CHUNK = 4096  # images made between two checks of the size cap


def _extend(
    elems: set[Mat],
    steps: list[Callable[[Mat], Mat]],
    step: Callable[[Mat], Mat],
    cap: Optional[int] = None,
) -> None:
    """Grow ``elems``, a group H closed under the right multiplications
    ``steps``, to the group that ``step`` generates along with it.

    Dimino's coset enumeration: the grown group is a union of right cosets
    Hx, and a right multiplication s maps the coset Hx onto the coset Hxs.
    So one member's image tells where the whole coset goes: if it is already
    in ``elems``, so is every image; if not, the images of the coset's
    members form a new coset, which is added and queued.  Each element is
    made once, and each coset is tested once per step (H itself only by
    ``step``, since the old steps map H onto H).  The cap is checked every
    ``_CHUNK`` images while a coset is filled, so at most that many elements
    pass it before EnumerationCapError.
    """
    steps.append(step)
    todo = [(list(elems), [step])]
    while todo:
        coset, by = todo.pop()
        for s in by:
            if s(coset[0]) in elems:
                continue
            images = map(s, coset)
            new: list[Mat] = []
            while chunk := list(islice(images, _CHUNK)):
                elems.update(chunk)
                new += chunk
                if cap is not None and len(elems) > cap:
                    raise EnumerationCapError(f"closure exceeded cap of {cap} elements")
            todo.append((new, steps))


def _closure(
    gens: Sequence[Mat],
    right: Callable[[Mat], Callable[[Mat], Mat]],
    identity: Mat,
    cap: Optional[int] = None,
) -> tuple[set[Mat], list[Mat]]:
    """Elements of the group generated by ``gens``, and the generators that
    enlarged it; ``right(g)`` is the map x -> x * g.  A generator already
    inside adds nothing and is skipped."""
    elems = {identity}
    steps: list[Callable[[Mat], Mat]] = []
    kept: list[Mat] = []
    for g in gens:
        if g not in elems:
            kept.append(g)
            _extend(elems, steps, right(g), cap)
    return elems, kept


def enumerate_group(
    n: int,
    modulus: int,
    generators: Sequence[Mat],
    cap: Optional[int] = 10_000_000,
) -> FiniteMatrixGroup:
    """Closure of invertible generators mod ``modulus``."""
    for g in generators:
        _unit_inverse(mat_det(g, n, modulus), modulus)  # raises if singular
    space = _space(n, modulus)
    elems, _ = _closure(list(generators), space.right, mat_identity(n, modulus), cap)
    return FiniteMatrixGroup(n, modulus, elems, list(generators))


def sl_generators(n: int, modulus: int) -> list[Mat]:
    """All off-diagonal elementary matrices; they generate SL_n(Z/m)."""
    return [
        elementary_mat(i, j, 1, n, modulus)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]


@lru_cache(maxsize=None)
def sl_group(n: int, modulus: int) -> FiniteMatrixGroup:
    return enumerate_group(n, modulus, sl_generators(n, modulus))


def center(group: FiniteMatrixGroup) -> list[Mat]:
    """Elements commuting with every generator, i.e. fixed by conjugation."""
    conjugators = [group.conjugator(g) for g in group.generators]
    return [z for z in group.elements if all(c(z) == z for c in conjugators)]


def quotient_by_center(group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Central quotient with least-code coset representatives."""
    zs = center(group)
    if len(zs) == 1:
        return group
    space = _space(group.n, group.modulus)
    times = [space.right(z) for z in zs]

    def rep(a: Mat) -> Mat:
        return min(t(a) for t in times)

    reps = {rep(e) for e in group.elements}
    gen_reps: list[Mat] = []
    for g in group.generators:
        r = rep(g)
        if r not in gen_reps:
            gen_reps.append(r)
    return FiniteMatrixGroup(group.n, group.modulus, reps, gen_reps, normalize=rep)


@lru_cache(maxsize=None)
def psl_group(n: int, modulus: int) -> FiniteMatrixGroup:
    return quotient_by_center(sl_group(n, modulus))


def conjugacy_classes(group: FiniteMatrixGroup) -> list[list[Mat]]:
    """Orbit partition under conjugation by the generators, each generator
    acting as a permutation of element positions."""
    elements = group.elements
    position = {e: i for i, e in enumerate(elements)}
    perms = [
        [position[y] for y in map(group.conjugator(g), elements)]
        for g in group.generators
    ]
    seen = [False] * len(elements)
    classes: list[list[Mat]] = []
    for idx in range(len(elements)):
        if seen[idx]:
            continue
        seen[idx] = True
        orbit = [idx]
        queue = [idx]
        while queue:
            x = queue.pop()
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    queue.append(y)
        classes.append([elements[i] for i in orbit])
    return classes


def normal_closure(
    seeds: Iterable[Mat], group: FiniteMatrixGroup
) -> FiniteMatrixGroup:
    """Smallest normal subgroup containing the seeds.

    Candidates start as the seeds; one outside the current closure becomes a
    generator, the closure is extended by it in place, and its conjugates by
    the group's generators become candidates.  The closure is then normal,
    because every kept generator has its conjugates inside.  Once it reaches
    the order of the group it is the whole group, and the group is returned.
    """
    candidates: list[Mat] = []
    for s in seeds:
        s = group._norm(s)
        if s not in group:
            raise ValueError("seed lies outside the group")
        candidates.append(s)
    conjugators = [group.conjugator(g) for g in group.generators]
    elems = {group.identity}
    steps: list[Callable[[Mat], Mat]] = []
    gens: list[Mat] = []
    for c in candidates:  # grows while it is read
        if c in elems:
            continue
        gens.append(c)
        _extend(elems, steps, group.right(c))
        if len(elems) == group.order:
            return group
        candidates.extend(conj(c) for conj in conjugators)
    return FiniteMatrixGroup(group.n, group.modulus, elems, gens, group.normalize)


def is_simple(group: FiniteMatrixGroup) -> bool:
    """True iff the group is nontrivial and the normal closure of every
    nontrivial conjugacy class is the whole group, decided on classes.

    The normal closure N of a class C is the union of the products C, CC,
    CCC, ..., a union of classes: those of the smallest set S of classes
    that holds C and, with each D in S, every class of D C.  The classes of
    D C are those met by D x for one x in C, since the conjugates of D x are
    the sets D (g x g^-1).  So N comes from the one row map x -> x * rep(C)
    applied to the classes it reaches, at most |G| applications.  Closures
    nest: once N meets a class whose closure is the whole group, so is N.
    """
    if group.order == 1:
        return False
    classes = conjugacy_classes(group)
    class_of = {e: i for i, cls in enumerate(classes) for e in cls}
    whole: set[int] = set()  # classes whose normal closure is the group
    for i, cls in enumerate(classes):
        if cls[0] == group.identity:
            continue
        times = group.right(cls[0])
        met, todo = {i}, [i]
        while todo:
            if len(met) == len(classes) or met & whole:
                break
            new = {class_of[y] for y in map(times, classes[todo.pop()])} - met
            met |= new
            todo += new
        else:
            return False
        whole.add(i)
    return True


# --- reduction kernels -------------------------------------------------------


@dataclass(frozen=True)
class KernelReport:
    """Structure of the kernel of SL_n(Z/p^2) -> SL_n(Z/p)."""

    n: int
    p: int
    group_order: int
    kernel_order: int
    image_order: int
    kernel: FiniteMatrixGroup
    shape_verified: bool  # kernel == {I + pA : tr A = 0 mod p}
    additive_iso_verified: bool  # (I+pA)(I+pB) -> A+B, checked pairwise
    pairs_compared: int  # pairs on which that identity was checked
    all_elements_order_p: bool


def _kernel_shape_members(n: int, p: int) -> set[Mat]:
    """All I + pA mod p^2 with tr A = 0 mod p."""
    m = p * p
    ident = mat_identity(n, m)
    return {
        ident + p * encode(a, m)
        for a in product(range(p), repeat=n * n)
        if sum(a[:: n + 1]) % p == 0
    }


@lru_cache(maxsize=None)
def _reduction(n: int, p: int) -> tuple[tuple[Mat, ...], int]:
    """Sorted codes of the kernel of SL_n(Z/p^2) -> SL_n(Z/p), and the order
    of its image, from one reduction of every element."""
    elements = sl_group(n, p * p).elements
    images = list(map(_projection(n, p * p, p), elements))
    ident_small = mat_identity(n, p)
    kernel = tuple(e for e, r in zip(elements, images) if r == ident_small)
    return kernel, len(set(images))


def _additive_parts(kernel: Iterable[Mat], n: int, p: int) -> dict[Mat, Mat]:
    """Each kernel element I + pA mapped to the code of A.  The entries of
    I + pA are those of I plus p times those of A, without carries, so the
    code of A (entries below p, read mod p^2) is (code - code of I)/p."""
    ident = mat_identity(n, p * p)
    return {e: (e - ident) // p for e in kernel}


def _additive_pairs(
    parts: dict[Mat, Mat],
    steps: Sequence[Callable[[Mat], Mat]],
    identity: Mat,
    n: int,
    p: int,
) -> tuple[bool, int]:
    """Check part(a b) = part(a) + part(b) mod p over pairs of kernel
    elements; return whether every pair compared passed, and how many were
    compared (all of them unless one failed).

    ``parts`` comes from :func:`_additive_parts` and ``steps`` are the right
    multiplications by generators of the kernel.  The row of b lists a * b
    for every a; for b = b' s it is the step s applied to the row of b', so
    each product is one application.  Parts have entries below p, so the
    identity holds exactly when A + B - part(a b) has every entry 0 or p.
    Its entries, like those of the ``carries`` (p times a code whose entries
    are 0 or 1), lie in (-p, 2p), so entries of the two differ by less than
    p^2 and equal codes mean equal entries: the identity holds exactly when
    the code difference pa + pb - part(a b) is a carry.
    """
    carries = {0}
    for k in range(n * n):
        carries |= {c + p * (p * p) ** k for c in carries}
    elems = list(parts)
    elem_parts = list(parts.values())
    seen = {identity}
    todo = [(identity, elems)]
    compared = 0
    while todo:
        b, row = todo.pop()
        pb = parts[b]
        compared += len(row)
        if not {pa + pb - parts[ab] for pa, ab in zip(elem_parts, row)} <= carries:
            return False, compared
        for s in steps:
            c = s(b)
            if c not in seen:
                seen.add(c)
                todo.append((c, list(map(s, row))))
    return True, compared


def kernel_of_reduction(n: int, p: int = 2) -> KernelReport:
    """Kernel of the mod-p reduction of SL_n(Z/p^2), with its additive model.

    Writing each kernel element as I + pA, the map I + pA -> A mod p is an
    isomorphism onto the additive group of trace-zero matrices over Z/p; the
    report checks that it is injective and checks the homomorphism identity
    on every pair (:func:`_additive_pairs`), through the row maps of the
    generators that the closure of the kernel keeps.  Kernel and image come
    from one cached reduction pass over the group.
    """
    m = p * p
    group = sl_group(n, m)
    kernel_elems, image_order = _reduction(n, p)
    sub = group.subgroup(kernel_elems)

    shape_ok = set(kernel_elems) == _kernel_shape_members(n, p)

    parts = _additive_parts(kernel_elems, n, p)
    iso_ok = len(set(parts.values())) == len(kernel_elems)
    pairs = 0
    if iso_ok:
        steps = [group.right(g) for g in sub.generators]
        iso_ok, pairs = _additive_pairs(parts, steps, group.identity, n, p)
        iso_ok = iso_ok and pairs == len(kernel_elems) ** 2

    ident = group.identity
    order_p = all(mat_pow(e, p, n, m) == ident for e in kernel_elems)
    return KernelReport(
        n=n,
        p=p,
        group_order=group.order,
        kernel_order=len(kernel_elems),
        image_order=image_order,
        kernel=sub,
        shape_verified=shape_ok,
        additive_iso_verified=iso_ok,
        pairs_compared=pairs,
        all_elements_order_p=order_p,
    )


def closure_equals_reduction_kernel(n: int, p: int, power: int) -> bool:
    """For every off-diagonal (k, r): the normal closure of e_{k,r}^power in
    SL_n(Z/p^2) is exactly the kernel of reduction mod p."""
    m = p * p
    group = sl_group(n, m)
    kernel, _ = _reduction(n, p)
    for k in range(1, n + 1):
        for r in range(1, n + 1):
            if k == r:
                continue
            seed = elementary_mat(k, r, power, n, m)
            closure = normal_closure([seed], group)
            if closure.elements != kernel:
                return False
    return True


def closure_spans_kernel_additively(n: int, p: int, seed_pos: tuple[int, int]) -> bool:
    """Kernel-level check that avoids enumerating SL_n(Z/p^2).

    The kernel of SL_n(Z/p^2) -> SL_n(Z/p) is abelian: (I+pA)(I+pB) = I+p(A+B),
    so a subgroup of it is an F_p-span.  Close the seed e_{k,r}^p under
    conjugation by the elementary generators (staying inside the kernel) and
    test whether the additive parts span the full trace-zero space.
    """
    m = p * p
    k, r = seed_pos
    seed = elementary_mat(k, r, p, n, m)
    reduce_p = _projection(n, m, p)
    ident_small = mat_identity(n, p)
    if reduce_p(seed) != ident_small:
        raise ValueError("seed does not lie in the reduction kernel")
    space = _space(n, m)
    conjugators = [space.conjugator(g) for g in sl_generators(n, m)]
    seen = {seed}
    queue = [seed]
    while queue:
        x = queue.pop()
        for conj in conjugators:
            y = conj(x)
            if y not in seen:
                if reduce_p(y) != ident_small:
                    raise AssertionError("conjugate left the kernel")
                seen.add(y)
                queue.append(y)

    # F_p Gaussian elimination on the additive parts.
    ident = mat_identity(n, m)

    def additive(e: Mat) -> list[int]:
        return list(decode((e - ident) // p, n, m))

    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in map(additive, sorted(seen)):
        for b, piv in zip(basis, pivots):
            if vec[piv] != 0:
                scale = vec[piv] * _unit_inverse(b[piv], p)
                vec = [(x - scale * y) % p for x, y in zip(vec, b)]
        nz = next((i for i, x in enumerate(vec) if x != 0), None)
        if nz is not None:
            basis.append(vec)
            pivots.append(nz)
    return len(basis) == n * n - 1


# --- section (splitting) searches --------------------------------------------


@dataclass(frozen=True)
class SectionSearchResult:
    found: bool
    pairs_tried: int
    pairs_expanded: int
    target_order: int
    witness: Optional[tuple] = None


def section_search(
    fiber_a: Sequence[Mat],
    fiber_b: Sequence[Mat],
    n: int,
    m: int,
    order_a: int,
    order_b: int,
    target_order: int,
) -> SectionSearchResult:
    """Exhaustive search for a section through lifts of two generators.

    The fibers hold n x n codes mod m over two elements that generate the
    target group, so every lift pair generates a group mapping onto the
    target.  Its order equals the target's exactly when it meets the kernel
    trivially, that is when the pair spans a section; a closure capped at the
    target order decides this.  Any section sends the generators to lifts of
    the same element orders, so lifts failing the order test are excluded
    soundly before any closure is built.
    """
    space = _space(n, m)
    ident = mat_identity(n, m)
    good_a, good_b = (
        [x for x in fiber if reduce(space.mul, repeat(x, k), ident) == ident]
        for fiber, k in ((fiber_a, order_a), (fiber_b, order_b))
    )
    pairs_tried = len(fiber_a) * len(fiber_b)
    pairs_expanded = 0
    for a in good_a:
        for b in good_b:
            pairs_expanded += 1
            try:
                sub, _ = _closure([a, b], space.right, ident, cap=target_order)
            except EnumerationCapError:
                continue
            if len(sub) == target_order:
                return SectionSearchResult(
                    True, pairs_tried, pairs_expanded, target_order, (a, b)
                )
    return SectionSearchResult(False, pairs_tried, pairs_expanded, target_order)


def splitting_search(
    pair: tuple[Mat, Mat], n: int = 3, p: int = 2
) -> SectionSearchResult:
    """Does SL_n(Z/p^2) -> SL_n(Z/p) split over the given generating pair?

    ``pair`` holds codes mod p and must generate SL_n(Z/p); this is certified
    by enumeration before the lift search runs.  Every lift pair is counted;
    completeness rests on the fact that a section restricts to one of these
    pairs.  The witness, if any, holds the row-major entries of the two lifts.
    """
    m = p * p
    a, b = pair
    small = enumerate_group(n, p, [a, b])
    if small.order != sl_group(n, p).order:
        raise ValueError("pair does not generate the target group")

    kernel_elems, _ = _reduction(n, p)
    space = _space(n, m)
    # Same entries, read mod p^2; the fiber over a is lift(a) times the kernel.
    lift_a0 = encode(decode(a, n, p), m)
    lift_b0 = encode(decode(b, n, p), m)
    result = section_search(
        [space.mul(lift_a0, k) for k in kernel_elems],
        [space.mul(lift_b0, k) for k in kernel_elems],
        n,
        m,
        order_a=small.element_order(a),
        order_b=small.element_order(b),
        target_order=small.order,
    )
    if result.witness is None:
        return result
    return replace(result, witness=tuple(decode(w, n, m) for w in result.witness))


def product_section_fixture(n: int = 3, p: int = 2) -> SectionSearchResult:
    """Sanity fixture: the projection of SL_n(Z/p) x Z/2 onto its first
    factor has an obvious section, and the search must find one.  The product
    is the block-diagonal group of diag(A, S) in GL_{n+2}(Z/p), S a power of
    the 2 x 2 swap."""
    a, b = find_generating_pair(sl_group(n, p))
    small = enumerate_group(n, p, [a, b])

    def diag(x: Mat, s: bytes) -> Mat:
        e = decode(x, n, p)
        rows = b"".join(e[i * n : i * n + n] + bytes(2) for i in range(n))
        return encode(rows + bytes(n) + s[:2] + bytes(n) + s[2:], p)

    keep, swap = bytes([1, 0, 0, 1]), bytes([0, 1, 1, 0])
    return section_search(
        [diag(a, keep), diag(a, swap)],
        [diag(b, keep), diag(b, swap)],
        n + 2,
        p,
        order_a=small.element_order(a),
        order_b=small.element_order(b),
        target_order=small.order,
    )


def load_generating_pair(
    path: Optional[str] = None, modulus: int = 2
) -> tuple[Mat, Mat]:
    """Read the cached 2-element generating set (plain-text row-major rows,
    matrices separated by a blank line) as codes mod ``modulus``."""
    if path is None:
        from importlib import resources

        text = resources.files("autfn").joinpath("data", "sl3z2_pair.txt").read_text()
    else:
        with open(path) as handle:
            text = handle.read()
    blocks = [b for b in text.strip().split("\n\n") if b.strip()]
    if len(blocks) != 2:
        raise ValueError("fixture must contain exactly two matrices")
    mats = []
    for block in blocks:
        rows = [
            [int(v) for v in line.split()]
            for line in block.strip().splitlines()
            if not line.strip().startswith("#")
        ]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("fixture matrix is not square")
        mats.append(encode((v for row in rows for v in row), modulus))
    return (mats[0], mats[1])


def find_generating_pair(group: FiniteMatrixGroup) -> tuple[Mat, Mat]:
    """Bounded search for a 2-element generating set (first hit wins)."""
    for a in group.elements:
        if a == group.identity:
            continue
        for b in group.elements:
            if b == group.identity or b == a:
                continue
            try:
                sub, _ = _closure([a, b], group.right, group.identity, cap=group.order)
            except EnumerationCapError:
                continue
            if len(sub) == group.order:
                return (a, b)
    raise ValueError("group admits no 2-element generating set")


# --- GF(2) trace-zero space and its invariant subspaces ----------------------


def _xor_table(images: Sequence[int]) -> list[int]:
    """table[v] = XOR of images[b] over the set bits b of v."""
    table = [0]
    for img in images:
        table += [t ^ img for t in table]
    return table


@dataclass(frozen=True)
class SubrepScan:
    """Orbit-span scan of the trace-zero GF(2) matrices under conjugation."""

    n: int
    dim: int  # n^2 - 1
    span_dims: tuple[int, ...]  # distinct orbit-span dimensions, sorted
    scalar_span_found: bool  # some vector spans exactly {0, I}
    classification: tuple[str, ...]  # labels among "0", "scalars", "full"
    complete: bool  # every invariant subspace is listed


def invariant_subreps(n: int) -> SubrepScan:
    """Span of the conjugation orbit of every nonzero trace-zero matrix.

    Each such span is the smallest invariant subspace containing its seed, so
    the set of spans determines all invariant subspaces: any invariant W is a
    union of spans of its members.  A matrix is its code mod 2, one bit per
    entry; conjugation is GF(2)-linear, so each generator acts through two
    tables, one for the low byte of the code and one for the rest.
    """
    if n not in (3, 4):
        raise ValueError("scan is sized for n in {3, 4}")
    cells = n * n
    space = _space(n, 2)
    conjugations = []
    for g in sl_generators(n, 2):
        images = list(map(space.conjugator(g), (1 << bit for bit in range(cells))))
        conjugations.append((_xor_table(images[:8]), _xor_table(images[8:])))
    identity_mask = mat_identity(n, 2)
    full_dim = cells - 1

    seen = bytearray(1 << cells)
    spans: dict[tuple[int, ...], int] = {}  # echelon signature -> dim
    scalar_span_found = False
    for v in range(1, 1 << cells):
        if seen[v] or (v & identity_mask).bit_count() % 2:
            continue
        orbit = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                low, high = x & 0xFF, x >> 8
                for low_table, high_table in conjugations:
                    y = low_table[low] ^ high_table[high]
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        for x in orbit:
            seen[x] = 1
        # Echelon basis keyed by leading bit; every vector is trace-zero, so
        # a basis of full_dim vectors already spans the whole space.
        by_top: dict[int, int] = {}
        for w in orbit:
            while w:
                b = by_top.get(w.bit_length())
                if b is None:
                    by_top[w.bit_length()] = w
                    break
                w ^= b
            if len(by_top) == full_dim:
                break
        basis = [by_top[top] for top in sorted(by_top, reverse=True)]
        # Clear pivot bits from the other rows so the signature is canonical
        # for the subspace, not for the particular orbit that produced it.
        for i in range(len(basis)):
            pivot = 1 << (basis[i].bit_length() - 1)
            for j in range(len(basis)):
                if i != j and basis[j] & pivot:
                    basis[j] ^= basis[i]
        signature = tuple(sorted(basis))
        spans[signature] = len(basis)
        if signature == (identity_mask,):
            scalar_span_found = True

    dims = tuple(sorted(set(spans.values())))
    labels = ["0"]
    if scalar_span_found:
        labels.append("scalars")
    if full_dim in dims:
        labels.append("full")
    complete = all(
        d == full_dim or (d == 1 and scalar_span_found) for d in dims
    )
    return SubrepScan(
        n=n,
        dim=full_dim,
        span_dims=dims,
        scalar_span_found=scalar_span_found,
        classification=tuple(labels),
        complete=complete,
    )


# --- diagonal-parity obstruction ----------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    """Infeasibility certificate for the diagonal-parity system.

    ``equations`` are (variable bitmask, parity) pairs over d_1..d_n; the
    certificate rows XOR to 0 = 1, and the all-zero assignment violates
    exactly one equation.
    """

    n: int
    feasible: bool
    equations: tuple[tuple[int, int], ...]
    certificate: tuple[int, ...]
    assignment: tuple[int, ...]


def split_obstruction(n: int) -> ObstructionReport:
    """GF(2) infeasibility of the diagonal constraints behind lifting an
    elementary involution pair through the mod-4 cover.

    Variables d_1..d_n are the diagonal entries of the correcting matrix for
    the probe pair (1, 2); commutation with disjoint pairs forces equal
    diagonal entries away from the probe, and the trace-zero requirement
    closes the contradiction.  Needs two index pairs disjoint from the probe,
    hence even n >= 6.
    """
    if n % 2 != 0 or n < 6:
        raise ValueError(
            "obstruction system needs an even n >= 6: the argument uses two "
            "disjoint index pairs away from the probe pair (1, 2)"
        )
    equations: list[tuple[int, int]] = [(0b11, 1)]  # d1 + d2 = 1
    others = list(range(3, n + 1))
    for ui in range(len(others)):
        for vi in range(ui + 1, len(others)):
            mask = (1 << (others[ui] - 1)) | (1 << (others[vi] - 1))
            equations.append((mask, 0))
    equations.append(((1 << n) - 1, 0))  # trace-zero membership

    # Eliminate, tracking provenance of each row as a set of equation indices.
    rows = [(mask, rhs, 1 << idx) for idx, (mask, rhs) in enumerate(equations)]
    reduced: list[tuple[int, int, int]] = []
    contradiction: Optional[int] = None
    for mask, rhs, prov in rows:
        for bmask, brhs, bprov in reduced:
            low = bmask & -bmask
            if mask & low:
                mask ^= bmask
                rhs ^= brhs
                prov ^= bprov
        if mask == 0:
            if rhs == 1:
                contradiction = prov
                break
        else:
            reduced.append((mask, rhs, prov))
            reduced.sort(key=lambda row: row[0] & -row[0])
    if contradiction is None:
        return ObstructionReport(n, True, tuple(equations), (), ())
    combo = tuple(i for i in range(len(equations)) if contradiction >> i & 1)
    assignment = tuple([0] * n)
    return ObstructionReport(n, False, tuple(equations), combo, assignment)


def verify_obstruction_certificate(report: ObstructionReport) -> bool:
    """Machine-check the certificate: the combo XORs to 0 = 1 and the
    assignment violates exactly one equation."""
    if report.feasible:
        return False
    mask, rhs = 0, 0
    for idx in report.certificate:
        emask, erhs = report.equations[idx]
        mask ^= emask
        rhs ^= erhs
    if mask != 0 or rhs != 1:
        return False
    violated = 0
    for emask, erhs in report.equations:
        acc = 0
        bits = emask
        i = 0
        while bits:
            if bits & 1:
                acc ^= report.assignment[i]
            bits >>= 1
            i += 1
        if acc != erhs:
            violated += 1
    return violated == 1
