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
results add up to the image code (:func:`_row_map`).  A row map takes a list
of codes and returns the list of their images: its body is one list
comprehension of n lookup terms, compiled once per row count n
(:func:`_row_kernel`), so the interpreter makes one call per list, not one
per code.  Callers hand it whole lists (a coset, the element table, a class,
the kernel) and wrap a single code as ``[x]``.  Enumeration, normal closures
and the kernel checks multiply through row maps of their generators, and
conjugation by g is two of them (x g^-1, then g x g^-1 read through the
transpose).  A table is filled by linearity, one digit of the row at a time
(:meth:`_Space.row_products`).  Tables are built on first use, never at
import.

The cost of the algorithms below is how often they apply a row map, and
they are built to apply about generators x elements, never elements^2 or
all the elements of a larger group.  SL_n(Z/m) is generated by its 2(n - 1)
adjacent elementary matrices (:func:`sl_generators`), and a group keeps only
the generators its closure needed.  A group grows one generator at a time
by right cosets of the group so far (:func:`_extend`, Dimino's method),
which makes each element once.  The center is found once per group
(:attr:`FiniteMatrixGroup.center`).  Simplicity is decided on conjugacy
classes: the normal closure of a class is the set of classes its products
reach, found with the one row map of the class representative
(:func:`is_simple`).  The reduction kernel of SL_n(Z/p^2) is the set of
lifts I + pA of the identity that are members of the group, and its
additive model is checked on the products of each kernel element with each
kernel generator, which covers every pair by induction
(:func:`kernel_of_reduction`).

Subspaces of F_p^(n x n), p prime, come from one spin-up (:func:`_spin`):
the closure of some seeds under some linear maps, as a reduced echelon
basis of codes mod p.  The mod-p^2 closure span is one such rank and builds
no group.  The subspaces of sl_n(F_2) that conjugation keeps rest on one
lemma: a p-group acting on a nonzero F_p-space fixes a nonzero vector.  So
each nonzero one holds a vector fixed by the upper unitriangular 2-group P.
Step 1 spins each nonzero vector of V^P and finds the scalars S or all of V;
step 2 spins each class of (V/S)^P outside S, with S, and finds V.  Then the
lattice is 0, S and V (:func:`_lattice_proof`), from a few spins.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import product
from operator import mul
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

Mat = int
RowMap = Callable[[Iterable[Mat]], "list[Mat]"]  # codes -> their images, in order


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


@lru_cache(maxsize=None)
def _row_kernel(n: int) -> Callable[..., RowMap]:
    """The one template of every row map on n rows, compiled once per n:
    (b, t0, w0, ..., t{n-1}, w{n-1}) -> the map from xs to the list of
    t0[x // w0] + t1[x // w1 % b] + ... + t{n-1}[x % b] for x in xs, row k
    of x being its digit of place w_k = b^(n-1-k).  Codes are below b^n, so
    the leading digit needs no reduction."""
    digits = ["x"] if n == 1 else [
        "x // w0", *(f"x // w{k} % b" for k in range(1, n - 1)), "x % b"
    ]
    terms = " + ".join(f"t{k}[{d}]" for k, d in enumerate(digits))
    params = ", ".join(f"t{k}, w{k}" for k in range(n))
    return eval(f"lambda b, {params}: lambda xs: [{terms} for x in xs]")


def _row_map(tables: Sequence[Sequence[int]], base: int) -> RowMap:
    """xs -> [sum of tables[k][row k of x] for x in xs], the rows being the
    base-``base`` digits of x, most significant first."""
    n = len(tables)
    places = (base ** (n - 1 - k) for k in range(n))
    return _row_kernel(n)(base, *(v for pair in zip(tables, places) for v in pair))


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
        self._conjugators: dict[Mat, RowMap] = {}

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
        """Row code of r * b for every row code r, filled by linearity: entry
        k of r * b is the sum over j of r_j b_jk, so column k's table over
        all rows grows one digit r_j at a time by adding the multiples of
        b_jk, and is reduced mod m once at the end."""
        m = self.m
        out = [0] * self.base
        for col, w in zip(zip(*self.rows(b)), self.place):
            table = [0]
            for e in col:
                multiples = [d * e for d in range(m)]
                table = [t + x for t in table for x in multiples]
            out = [o + t % m * w for o, t in zip(out, table)]
        return out

    def right(self, b: Mat) -> RowMap:
        """xs -> [x * b for x in xs]."""
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

    def right_transposed(self, b: Mat) -> RowMap:
        """xs -> [(x * b)^T for x in xs]."""
        products = self.row_products(b)
        return _row_map([[col[v] for v in products] for col in self.column], self.base)

    def conjugator(self, g: Mat) -> RowMap:
        """xs -> [g x g^-1 for x in xs], as (g^-1)-then-transpose followed by
        g^T-then-transpose.  Kept per g: callers ask for the conjugators of
        group generators."""
        step = self._conjugators.get(g)
        if step is None:
            n, m = self.n, self.m
            first = self.right_transposed(mat_inv(g, n, m))
            second = self.right_transposed(_transpose(g, n, m))
            step = self._conjugators[g] = lambda xs: second(first(xs))
        return step


@lru_cache(maxsize=None)
def _space(n: int, m: int) -> _Space:
    return _Space(n, m)


@lru_cache(maxsize=None)
def _projection(n: int, m: int, p: int) -> RowMap:
    """Entrywise reduction mod p, from lists of codes mod m to lists of
    codes mod p."""
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


def mat_inv(a: Mat, n: int, m: int) -> Mat:
    """a^-1, read off the row products of a: row i of a^-1 is the row r with
    r a = e_i, and there is one such r for each i exactly when a is
    invertible.  Raises ValueError when a is singular."""
    space = _space(n, m)
    row_of = {v: r for r, v in enumerate(space.row_products(a))}
    try:
        rows = [row_of[e_i] for e_i in space.place]
    except KeyError:
        raise ValueError(f"matrix is singular mod {m}") from None
    return sum(r * w for r, w in zip(rows, space.row_place))


def mat_pow(a: Mat, k: int, n: int, m: int) -> Mat:
    """a^k for k >= 0, by k - 1 products starting from a."""
    if k == 0:
        return mat_identity(n, m)
    out = a
    for _ in range(k - 1):
        out = mat_mul(out, a, n, m)
    return out


def elementary_mat(k: int, r: int, power: int, n: int, m: int) -> Mat:
    """Identity plus ``power`` at off-diagonal position (k, r); 1-based."""
    if k == r:
        raise ValueError("elementary matrix needs distinct indices")
    if not (1 <= k <= n and 1 <= r <= n):
        raise ValueError(f"indices ({k},{r}) out of range for n={n}")
    return mat_identity(n, m) + (power % m) * m ** (n * n - 1 - ((k - 1) * n + (r - 1)))


# --- group tables ------------------------------------------------------------


class FiniteMatrixGroup:
    """A finite group of residue matrices, stored as a sorted table of codes.

    ``normalize`` (identity by default) canonicalizes lists of products, which
    is how central quotients reuse this class: elements are distinguished
    coset representatives and every product is renormalized.
    """

    def __init__(
        self,
        n: int,
        modulus: int,
        elements: Iterable[Mat],
        generators: Sequence[Mat],
        normalize: Optional[RowMap] = None,
    ) -> None:
        self.n = n
        self.modulus = modulus
        self.normalize = normalize
        self.elements: tuple[Mat, ...] = tuple(sorted(elements))
        self.generators: tuple[Mat, ...] = tuple(generators)
        (ident,) = self._norm([mat_identity(n, modulus)])
        if ident not in self:
            raise ValueError("table does not contain the identity")
        self.identity: Mat = ident
        for g in self.generators:
            if g not in self:
                raise ValueError("generator missing from element table")

    def _norm(self, xs: list[Mat]) -> list[Mat]:
        return xs if self.normalize is None else self.normalize(xs)

    def _normalized(self, step: RowMap) -> RowMap:
        norm = self.normalize
        return step if norm is None else (lambda xs: norm(step(xs)))

    def op(self, a: Mat, b: Mat) -> Mat:
        return self._norm([mat_mul(a, b, self.n, self.modulus)])[0]

    def right(self, b: Mat) -> RowMap:
        """Row map of xs -> [x * b for x in xs]."""
        return self._normalized(_space(self.n, self.modulus).right(b))

    def conjugator(self, g: Mat) -> RowMap:
        """Row maps of xs -> [g x g^-1 for x in xs]."""
        return self._normalized(_space(self.n, self.modulus).conjugator(g))

    def element_order(self, a: Mat) -> int:
        k = 1
        cur = a
        while cur != self.identity:
            cur = self.op(cur, a)
            k += 1
        return k

    @cached_property
    def center(self) -> tuple[Mat, ...]:
        """Elements commuting with every generator, i.e. fixed by conjugation
        by each; found once per group, on first use.  The element list is
        filtered one generator at a time, so each element is conjugated by
        the generators up to the first that moves it."""
        fixed: Sequence[Mat] = self.elements
        for g in self.generators:
            fixed = [z for z, y in zip(fixed, self.conjugator(g)(fixed)) if y == z]
        return tuple(fixed)

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
        gens = self._norm(list(generators))
        for g in gens:
            if g not in self:
                raise ValueError("subgroup generator outside the group")
        elems, kept = _closure(gens, self.right, self.identity)
        return FiniteMatrixGroup(self.n, self.modulus, elems, kept, self.normalize)


_CHUNK = 4096  # images made between two checks of the size cap


def _extend(
    elems: set[Mat],
    steps: list[RowMap],
    step: RowMap,
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
    ``step``, since the old steps map H onto H).  A coset is mapped
    ``_CHUNK`` members at a time and the cap is checked after each slice,
    so at most that many elements pass it before EnumerationCapError.
    """
    steps.append(step)
    todo = [(list(elems), [step])]
    while todo:
        coset, by = todo.pop()
        for s in by:
            if s(coset[:1])[0] in elems:
                continue
            new: list[Mat] = []
            for start in range(0, len(coset), _CHUNK):
                chunk = s(coset[start : start + _CHUNK])
                elems.update(chunk)
                new += chunk
                if cap is not None and len(elems) > cap:
                    raise EnumerationCapError(f"closure exceeded cap of {cap} elements")
            todo.append((new, steps))


def _closure(
    gens: Sequence[Mat],
    right: Callable[[Mat], RowMap],
    identity: Mat,
    cap: Optional[int] = None,
) -> tuple[set[Mat], list[Mat]]:
    """Elements of the group generated by ``gens``, and the generators that
    enlarged it; ``right(g)`` is the row map of x -> x * g.  A generator
    already inside adds nothing and is skipped."""
    elems = {identity}
    steps: list[RowMap] = []
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
    cap: Optional[int] = 1_000_000,
) -> FiniteMatrixGroup:
    """Closure of invertible generators mod ``modulus``; the group keeps as
    its generators those that enlarged it, in the order given.

    The cap bounds memory, which grows by about 75 bytes per element:
    enumerating SL_4(Z/3) (order 12,130,560) until the default cap trips
    took 0.8-1.4 s and reached 87-90 MB of peak resident memory (Python
    3.11, 2-core x86-64 host), where a cap of 10^7 would let it reach about
    0.8 GB.
    """
    for g in generators:
        mat_inv(g, n, modulus)  # raises if singular
    space = _space(n, modulus)
    elems, kept = _closure(list(generators), space.right, mat_identity(n, modulus), cap)
    return FiniteMatrixGroup(n, modulus, elems, kept)


def sl_generators(n: int, modulus: int) -> list[Mat]:
    """The 2(n - 1) adjacent elementary matrices e_{i,i+1} and e_{i+1,i}.

    They generate SL_n(Z/m).  The elementary matrices e_ij (i != j) do, and
    each is a commutator of two nearer to the diagonal: for distinct i, j, k,
    [e_ij, e_jk] = e_ij e_jk e_ij^-1 e_jk^-1 = e_ik (Steinberg's relation):
    expanding (I + E_ij)(I + E_jk)(I - E_ij)(I - E_jk) leaves I + E_ik, as
    E_ij E_jk = E_ik while E_ij^2, E_jk^2 and E_jk E_ij vanish.  So e_ik with
    i < k is [e_{i,k-1}, e_{k-1,k}] and e_ik with i > k is [e_{i,k+1},
    e_{k+1,k}], and induction on |i - k| reaches every e_ij from the
    adjacent ones.
    """
    return [
        elementary_mat(i + a, i + 1 - a, 1, n, modulus)
        for i in range(1, n)
        for a in (0, 1)
    ]


@lru_cache(maxsize=None)
def sl_group(n: int, modulus: int) -> FiniteMatrixGroup:
    return enumerate_group(n, modulus, sl_generators(n, modulus))


def center(group: FiniteMatrixGroup) -> tuple[Mat, ...]:
    """Elements commuting with every generator (:attr:`FiniteMatrixGroup.center`)."""
    return group.center


def quotient_by_center(group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Central quotient with least-code coset representatives."""
    zs = group.center
    if len(zs) == 1:
        return group
    space = _space(group.n, group.modulus)
    times = [space.right(z) for z in zs]

    def rep(xs: list[Mat]) -> list[Mat]:
        """The least code of each coset x Z."""
        return list(map(min, *(t(xs) for t in times)))

    reps = set(rep(group.elements))
    gen_reps: list[Mat] = []
    for r in rep(group.generators):
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
        [position[y] for y in group.conjugator(g)(elements)]
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
    candidates = group._norm(list(seeds))
    if not all(s in group for s in candidates):
        raise ValueError("seed lies outside the group")
    conjugators = [group.conjugator(g) for g in group.generators]
    elems = {group.identity}
    steps: list[RowMap] = []
    gens: list[Mat] = []
    for c in candidates:  # grows while it is read
        if c in elems:
            continue
        gens.append(c)
        _extend(elems, steps, group.right(c))
        if len(elems) == group.order:
            return group
        candidates.extend(conj([c])[0] for conj in conjugators)
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
            new = {class_of[y] for y in times(classes[todo.pop()])} - met
            met |= new
            todo += new
        else:
            return False
        whole.add(i)
    return True


# --- F_p spans -----------------------------------------------------------------


def _spin(
    seeds: Iterable[Mat], maps: Sequence[RowMap], n: int, p: int
) -> tuple[Mat, ...]:
    """Reduced echelon basis, as codes mod the prime p in decreasing order,
    of the smallest subspace of F_p^(n x n) that holds the seeds and is
    mapped into itself by the linear ``maps``.

    Each round maps the vectors that enlarged the span in the round before
    through each map, as one list, and keeps the images that enlarge it.
    The basis is kept reduced, keyed by pivot: the first nonzero entry, 1 in
    its row and 0 in the others, so it is the unique reduced echelon basis
    of the span whatever order vectors arrive in.  For p = 2 a code is its
    own row (bit k is entry n^2 - 1 - k) and a row operation is one XOR; for
    odd p a row is the list of entries.
    """
    if p == 2:
        row = code = int
        lead = lambda v: v.bit_length() - 1  # -1 for the zero row
        clear = lambda v, k, b: v ^ b if v >> k & 1 else v
        unit = lambda v, k: v
    else:
        row = lambda x: list(decode(x, n, p))
        code = lambda v: encode(v, p)
        lead = lambda v: next((k for k, e in enumerate(v) if e), -1)
        clear = lambda v, k, b: (
            [(e - c * f) % p for e, f in zip(v, b)] if (c := v[k]) else v
        )
        unit = lambda v, k: [e * pow(v[k], -1, p) % p for e in v]
    basis: dict[int, Any] = {}  # pivot -> row

    def adds(x: Mat) -> bool:
        """Reduce x by the basis, and add what is left if it is not zero."""
        v = row(x)
        for k, b in basis.items():
            v = clear(v, k, b)
        k = lead(v)
        if k < 0:
            return False
        v = unit(v, k)
        for j, b in basis.items():
            basis[j] = clear(b, k, v)
        basis[k] = v
        return True

    frontier = [x for x in seeds if adds(x)]
    while frontier:
        frontier = [y for f in maps for y in f(frontier) if adds(y)]
    return tuple(sorted(map(code, basis.values()), reverse=True))


# --- reduction kernels -------------------------------------------------------


class KernelReport(NamedTuple):
    """Structure of the kernel of SL_n(Z/p^2) -> SL_n(Z/p)."""

    n: int
    p: int
    group_order: int
    kernel_order: int
    image_order: int  # order of the closure of the reduced generators
    kernel: FiniteMatrixGroup  # generators: those its closure kept
    shape_verified: bool  # kernel == {I + pA : tr A = 0 mod p}
    additive_iso_verified: bool  # I + pA -> A injective and additive
    products_checked: int  # products x * s (x in kernel, s a generator) that passed
    all_elements_order_p: bool


def _identity_lifts(n: int, p: int) -> Iterable[tuple[tuple[int, ...], Mat]]:
    """Each n x n matrix A with entries below p, in increasing code order,
    with the code of I + pA mod p^2."""
    m = p * p
    ident = mat_identity(n, m)
    for a in product(range(p), repeat=n * n):
        yield a, ident + p * encode(a, m)


def _kernel_shape_members(n: int, p: int) -> set[Mat]:
    """All I + pA mod p^2 with tr A = 0 mod p."""
    return {c for a, c in _identity_lifts(n, p) if sum(a[:: n + 1]) % p == 0}


@lru_cache(maxsize=None)
def _reduction(n: int, p: int) -> tuple[tuple[Mat, ...], int]:
    """Sorted codes of the kernel of SL_n(Z/p^2) -> SL_n(Z/p), and the order
    of its image.

    A kernel element reduces to I, so it is I + pA for some A with entries
    below p: the kernel is the p^(n^2) such lifts of I that are members of
    the group.  The image of the group generated by S is the group generated
    by the reductions of S, so its order is that of their closure mod p.
    """
    m = p * p
    group = sl_group(n, m)
    kernel = tuple(c for _, c in _identity_lifts(n, p) if c in group)
    reduce_p = _projection(n, m, p)
    image, _ = _closure(
        reduce_p(group.generators), _space(n, p).right, mat_identity(n, p)
    )
    return kernel, len(image)


def _additive_parts(kernel: Iterable[Mat], n: int, p: int) -> dict[Mat, Mat]:
    """Each kernel element I + pA mapped to the code of A.  The entries of
    I + pA are those of I plus p times those of A, without carries, so the
    code of A (entries below p, read mod p^2) is (code - code of I)/p."""
    ident = mat_identity(n, p * p)
    return {e: (e - ident) // p for e in kernel}


def _additive_pairs(
    parts: dict[Mat, Mat],
    gens: Sequence[Mat],
    right: Callable[[Mat], RowMap],
    identity: Mat,
    n: int,
    p: int,
) -> tuple[bool, int]:
    """Check part(x s) = part(x) + part(s) mod p for every kernel element x
    and every generator s; return whether all held, and how many products
    passed (|K| per generator, all |K| |S| unless one failed).

    ``parts`` comes from :func:`_additive_parts`, its keys the kernel K;
    ``gens`` generate a group holding K (those that the closure of K keeps
    do), and ``right(s)`` is the map x -> x s.  So every b in K is a product
    s_1 ... s_k of generators (in a finite group inverses are positive
    powers).  Each product x s must land in K, so a s_1 ... s_j stays in K
    for every a in K.  part(1) = 0 is checked too, and then part(a b) =
    part(a) + part(b) holds for every pair, by induction on k: for b = 1,
    part(a) = part(a) + part(1); for b = b' s,
    part(a b' s) = part(a b') + part(s) = part(a) + part(b') + part(s) =
    part(a) + part(b' s), by the check at x = a b', the induction hypothesis
    and the check at x = b'.

    Parts have entries below p, so the identity holds exactly when
    part(x) + part(s) - part(x s) has every entry 0 or p.  Its entries, like
    those of the ``carries`` (p times a code whose entries are 0 or 1), lie
    in (-p, 2p), so entries of the two differ by less than p^2 and equal
    codes mean equal entries: the identity holds exactly when that code
    difference is a carry.
    """
    if parts.get(identity) != 0:
        return False, 0
    carries = {0}
    for k in range(n * n):
        carries |= {c + p * (p * p) ** k for c in carries}
    elems = list(parts)
    elem_parts = list(parts.values())
    checked = 0
    for s in gens:
        ps = parts[s]
        products = [parts.get(y) for y in right(s)(elems)]
        if None in products or not {
            px + ps - pxs for px, pxs in zip(elem_parts, products)
        } <= carries:
            return False, checked
        checked += len(products)
    return True, checked


def kernel_of_reduction(n: int, p: int = 2) -> KernelReport:
    """Kernel of the mod-p reduction of SL_n(Z/p^2), with its additive model.

    Writing each kernel element as I + pA, the map I + pA -> A mod p is an
    isomorphism onto the additive group of trace-zero matrices over Z/p; the
    report checks that it is injective and additive, the latter on the
    products of every kernel element with each generator that the closure
    of the kernel keeps (:func:`_additive_pairs`, whose induction covers
    every pair).  Kernel and image come from :func:`_reduction`.
    """
    m = p * p
    group = sl_group(n, m)
    kernel_elems, image_order = _reduction(n, p)
    sub = group.subgroup(kernel_elems)

    shape_ok = set(kernel_elems) == _kernel_shape_members(n, p)

    parts = _additive_parts(kernel_elems, n, p)
    iso_ok = len(set(parts.values())) == len(kernel_elems)
    products = 0
    if iso_ok:
        iso_ok, products = _additive_pairs(
            parts, sub.generators, group.right, group.identity, n, p
        )
        iso_ok = iso_ok and products == len(kernel_elems) * len(sub.generators)

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
        products_checked=products,
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
    """Do the additive parts A of the normal closure of e_{k,r}^p in
    SL_n(Z/p^2) span the whole trace-zero space over F_p?

    The reduction kernel is abelian, (I + pA)(I + pB) = I + p(A + B), so the
    closure is the F_p-span of the parts of the conjugates of I + pE_{k,r}.
    Conjugating I + pA by g gives I + p g A g^-1, whose part depends on g
    mod p alone, so that span is the spin of E_{k,r} under conjugation by
    the generators of SL_n(Z/p) (:func:`_spin`).  No group is built.

    The answer is the same for every seed.  Take the permutation matrix
    that sends e_k to e_1 and e_r to e_2, with one row negated if its
    determinant is -1: it is a signed permutation matrix g in SL_n(Z/p), and
    g E_{k,r} g^-1 = +-E_{1,2}.  The spin of E_{k,r} is closed under
    conjugation by SL_n(Z/p), so it holds +-E_{1,2} and with it that
    vector's spin, and the same holds the other way round: all n(n - 1)
    seeds span one subspace, and one spin decides them all.
    """
    k, r = seed_pos
    seed = elementary_mat(k, r, 1, n, p) - mat_identity(n, p)
    space = _space(n, p)
    maps = [space.conjugator(g) for g in sl_generators(n, p)]
    return len(_spin([seed], maps, n, p)) == n * n - 1


# --- section (splitting) searches --------------------------------------------


class SectionSearchResult(NamedTuple):
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
        [x for x in fiber if mat_pow(x, k, n, m) == ident]
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

    def fiber(x: Mat) -> list[Mat]:
        """lift * k for k in the sorted kernel, the lift having x's entries
        read mod p^2, as k -> lift k lift^-1 -> lift k through the
        conjugator and the right multiplication, each built once."""
        lift = encode(decode(x, n, p), m)
        conj, times = space.conjugator(lift), space.right(lift)
        return times(conj(kernel_elems))

    result = section_search(
        fiber(a),
        fiber(b),
        n,
        m,
        order_a=small.element_order(a),
        order_b=small.element_order(b),
        target_order=small.order,
    )
    if result.witness is None:
        return result
    return result._replace(witness=tuple(decode(w, n, m) for w in result.witness))


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


def _fixed_classes(
    space: Sequence[Mat],
    maps: Sequence[RowMap],
    modulo: Sequence[Mat],
    n: int,
) -> tuple[Mat, ...]:
    """Over F_2, with M = span(modulo) inside V = span(space): a reduced
    echelon basis of the w in V with f(w) - w in M for every f in ``maps``,
    each reduced mod M.  Its nonzero sums are one member of each nonzero
    class of V/M that the maps fix.  ``modulo`` is a reduced echelon basis.

    Those w are the kernel of one linear map: w -> the differences f(w) - w,
    each reduced mod M, side by side in one integer.  Elimination on the
    images of the basis of V, carrying along the vector that each row is the
    image of, leaves the kernel as the vectors whose image reduces to 0.
    """
    cells = n * n

    def reduce(v: Mat) -> Mat:
        for b in modulo:
            if v >> (b.bit_length() - 1) & 1:
                v ^= b
        return v

    pivots: dict[int, tuple[int, Mat]] = {}  # lead bit -> (image, its preimage)
    kernel = []
    for v, *moved in zip(space, *(f(space) for f in maps)):
        image = 0
        for fv in moved:
            image = image << cells | reduce(fv ^ v)
        while image:
            k = image.bit_length() - 1
            if k not in pivots:
                pivots[k] = (image, v)
                break
            row, pre = pivots[k]
            image ^= row
            v ^= pre
        else:
            kernel.append(reduce(v))
    return _spin(kernel, [], n, 2)


def _lattice_proof(
    space: Sequence[Mat],
    maps: Sequence[RowMap],
    p_maps: Sequence[RowMap],
    scalars: tuple[Mat, ...],
    n: int,
) -> tuple[set[tuple[Mat, ...]], bool]:
    """Try to prove that the only subspaces of V = span(space) over F_2 that
    the linear ``maps`` keep are 0, S = span(scalars) and V.

    V and S must be kept by the maps, and ``p_maps`` must be maps of a
    2-group P in the group they generate.  The proof rests on one lemma: a
    p-group acting on a nonzero F_p-space fixes a nonzero vector.

    * Step 1.  A nonzero invariant W is kept by P, so it holds a nonzero w
      in V^P, and with it the spin of w.  If every nonzero w in V^P spins to
      S or to V, every nonzero W holds S or is V.
    * Step 2.  An invariant W above S gives a nonzero W/S, kept by P, so W
      holds some w outside S with w + S fixed by P: f(w) - w in S for each
      f in ``p_maps``.  If the spin of w and S is V for every such class
      w + S, W = V.

    Both steps take the classes from :func:`_fixed_classes`; when S = 0 the
    two are one.  Returns the spans computed and False at the first that
    is neither S nor V; else S and V, the cyclic submodules of a module whose
    lattice is {0, S, V} (without 0), and True.
    """
    full = _spin(space, [], n, 2)
    seen: set[tuple[Mat, ...]] = set()
    for modulo in ((), scalars) if scalars else ((),):
        classes = [0]
        for b in _fixed_classes(space, p_maps, modulo, n):
            classes += [c ^ b for c in classes]
        for w in classes[1:]:
            span = _spin([w, *modulo], maps, n, 2)
            seen.add(span)
            if span != full and span != scalars:
                return seen, False
    return {span for span in (scalars, full) if span}, True


class SubrepScan(NamedTuple):
    """The subspaces of the trace-zero GF(2) matrices kept by conjugation."""

    n: int
    dim: int  # n^2 - 1
    span_dims: tuple[int, ...]  # distinct dimensions of cyclic submodules, sorted
    scalar_span_found: bool  # some vector spans exactly {0, I}
    classification: tuple[str, ...]  # labels among "0", "scalars", "full"
    complete: bool  # every invariant subspace is listed


def invariant_subreps(n: int) -> SubrepScan:
    """The subspaces of sl_n(F_2), the trace-zero matrices, that conjugation
    by SL_n(F_2) keeps, for 3 <= n <= 8, proved to be 0, S and V.

    V = sl_n(F_2) has dimension n^2 - 1, and S is the line of I when n is
    even (tr I = n = 0) and 0 when n is odd.  P, generated by the upper
    adjacent transvections e_{i,i+1}, is a 2-group, so every nonzero
    invariant subspace holds a nonzero vector fixed by P: a vector of V^P,
    whose spins must each be S or V, and above S a class of (V/S)^P, whose
    spins with S must each be V (:func:`_lattice_proof`).  For n = 3..8
    these fixed spaces have dimension 1 or 2, so at most four spins decide
    the lattice.  When both steps pass, the cyclic submodules are S and V;
    when a step fails, the scan reports the spans it saw and is not
    complete.
    """
    if not 3 <= n <= 8:
        raise ValueError("subreps is sized for n from 3 to 8")
    space = _space(n, 2)
    maps = [space.conjugator(g) for g in sl_generators(n, 2)]
    unit = [1 << bit for bit in range(n * n - 1, -1, -1)]  # row-major entries
    trace_zero = [unit[i] for i in range(n * n) if i % (n + 1)]
    trace_zero += [unit[i * (n + 1)] | unit[-1] for i in range(n - 1)]
    identity = mat_identity(n, 2)
    p_maps = maps[::2]  # conjugation by the upper e_{i,i+1}
    scalars = (identity,) if n % 2 == 0 else ()
    spans, complete = _lattice_proof(trace_zero, maps, p_maps, scalars, n)
    full_dim = n * n - 1
    scalar_span_found = (identity,) in spans
    dims = tuple(sorted({len(basis) for basis in spans}))
    labels = ["0"]
    if scalar_span_found:
        labels.append("scalars")
    if full_dim in dims:
        labels.append("full")
    return SubrepScan(
        n=n,
        dim=full_dim,
        span_dims=dims,
        scalar_span_found=scalar_span_found,
        classification=tuple(labels),
        complete=complete,
    )


# --- diagonal-parity obstruction ----------------------------------------------


class ObstructionReport(NamedTuple):
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
