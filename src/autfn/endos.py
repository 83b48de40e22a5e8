"""Endomorphisms of a free group given by generator images.

The composition convention is fixed once and for all: ``(f * g)(w) =
f(g(w))``, so a written product applies its rightmost factor first.  Every
step-by-step chain in the bundled scenarios depends on this reading.

Automorphism certification goes through Nielsen reduction: a tuple of n words
is a basis of the rank-n free group exactly when Nielsen moves that descend
in the Lyndon-Schupp well-order drive it down to a permutation of
possibly-inverted generators.  The reduction log doubles as the inversion
witness.
"""

from __future__ import annotations

from operator import neg
from typing import Optional, Sequence

from .words import Frozen, RankMismatchError, Word, invert, multiply

NAMED_KINDS = ("L", "R", "C", "P", "I")

DEFAULT_MAX_POWER = 256
DEFAULT_MAX_LEN = 4096


class NotABasisError(ValueError):
    """The given word tuple does not form a free basis."""


class Endomorphism(Frozen):
    """Rank plus the image of each generator, in generator order."""

    __slots__ = ("rank", "images")

    def __init__(self, rank: int, images: tuple[Word, ...]) -> None:
        if len(images) != rank:
            raise ValueError(f"expected {rank} images, got {len(images)}")
        for w in images:
            if w.rank != rank:
                raise RankMismatchError(
                    f"image rank {w.rank} differs from endomorphism rank {rank}"
                )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.rank == other.rank and self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    @staticmethod
    def identity(rank: int) -> "Endomorphism":
        return Endomorphism(
            rank, tuple(Word.generator(rank, i) for i in range(1, rank + 1))
        )

    @staticmethod
    def from_images(images: Sequence[Word]) -> "Endomorphism":
        if not images:
            raise ValueError("need at least one image")
        return Endomorphism(images[0].rank, tuple(images))

    def is_identity(self) -> bool:
        return all(w.letters == (i,) for i, w in enumerate(self.images, 1))

    def apply(self, w: Word) -> Word:
        """Image of a word; homomorphic by construction.

        Each letter of w contributes the whole image block of its generator,
        reversed and negated for an inverse letter.  The output so far and
        the block are both freely reduced, so letters cancel only at the
        seam between them: the c letters that cancel are counted there and
        the rest of the block is appended in one step.
        """
        if w.rank != self.rank:
            raise RankMismatchError(f"word rank {w.rank} vs rank {self.rank}")
        images = self.images
        out: list[int] = []
        for a in w.letters:
            if a > 0:
                img = images[a - 1].letters
            else:
                img = tuple(map(neg, reversed(images[-a - 1].letters)))
            if out and img and out[-1] == -img[0]:
                n = min(len(out), len(img))
                c = 1
                while c < n and out[-1 - c] == -img[c]:
                    c += 1
                del out[-c:]
                out += img[c:]
            else:
                out += img
        return Word._reduced(self.rank, tuple(out))

    def __mul__(self, other: "Endomorphism") -> "Endomorphism":
        return compose(self, other)

    def __pow__(self, n: int) -> "Endomorphism":
        """f^n by |n| - 1 compositions starting from f (or f^-1 when n < 0)."""
        if n == 0:
            return Endomorphism.identity(self.rank)
        out = base = self if n > 0 else invert_automorphism(self)
        for _ in range(abs(n) - 1):
            out = compose(out, base)
        return out

    def max_image_length(self) -> int:
        return max(len(w) for w in self.images)

    def __str__(self) -> str:
        parts = [f"x{i + 1} -> {w}" for i, w in enumerate(self.images)]
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"Endomorphism({self.rank}, {str(self)!r})"


def named(kind: str, i: int, j: Optional[int] = None, *, rank: int) -> Endomorphism:
    """One of the five generator-level automorphisms.

    L(i,j): x_i -> x_j x_i;  R(i,j): x_i -> x_i x_j;
    C(i,j): x_i -> x_j x_i x_j^-1;  P(i,j): swap x_i, x_j;  I(i): x_i -> x_i^-1.
    All other generators are fixed.
    """
    if kind not in NAMED_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {NAMED_KINDS}")
    if not 1 <= i <= rank:
        raise ValueError(f"index i={i} out of range for rank {rank}")
    if kind == "I":
        if j is not None:
            raise ValueError("I takes a single index")
    else:
        if j is None:
            raise ValueError(f"{kind} needs two indices")
        if not 1 <= j <= rank:
            raise ValueError(f"index j={j} out of range for rank {rank}")
        if i == j:
            raise ValueError(f"{kind} needs distinct indices, got i=j={i}")

    images = [Word.generator(rank, k) for k in range(1, rank + 1)]
    xi = Word.generator(rank, i)
    if kind == "I":
        images[i - 1] = invert(xi)
    else:
        assert j is not None
        xj = Word.generator(rank, j)
        if kind == "L":
            images[i - 1] = multiply(xj, xi)
        elif kind == "R":
            images[i - 1] = multiply(xi, xj)
        elif kind == "C":
            images[i - 1] = multiply(multiply(xj, xi), invert(xj))
        elif kind == "P":
            images[i - 1] = xj
            images[j - 1] = xi
    return Endomorphism.from_images(images)


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """(f * g)(w) = f(g(w)): rightmost factor applies first."""
    if f.rank != g.rank:
        raise RankMismatchError(f"rank {f.rank} vs rank {g.rank}")
    return Endomorphism(f.rank, tuple(f.apply(w) for w in g.images))


def power_order(
    f: Endomorphism,
    outer: bool = False,
    max_power: int = DEFAULT_MAX_POWER,
    max_word_len: int = DEFAULT_MAX_LEN,
) -> tuple[Optional[int], bool]:
    """Smallest k >= 1 with f^k the identity (inner, when ``outer``), or None
    once a cap trips; the flag is True when the letter cap ended the loop,
    False when k was found or the power cap ended it.

    The caps turn infinite-order inputs into a reported outcome instead of
    unbounded growth.
    """
    if max_power < 1 or max_word_len < 1:
        raise ValueError("caps must be positive")
    h = f
    for k in range(1, max_power + 1):
        if (is_inner(h) is not None) if outer else h.is_identity():
            return k, False
        if h.max_image_length() > max_word_len:
            return None, True
        # f^k * f, not f * f^k: the same map, but substitution then copies
        # the long images of h as whole blocks into the short images of f.
        h = compose(h, f)
    return None, False


def order(
    f: Endomorphism,
    max_power: int = DEFAULT_MAX_POWER,
    max_word_len: int = DEFAULT_MAX_LEN,
) -> Optional[int]:
    """Smallest k >= 1 with f^k the identity, or None once either cap trips."""
    return power_order(f, False, max_power, max_word_len)[0]


def is_inner(f: Endomorphism) -> Optional[Word]:
    """A conjugator w with f(x) = w x w^-1 for every generator, else None.

    Deterministic, no search: cyclically reduce f(x_1) to pin the conjugator
    up to a power of x_1, read that power off f(x_2), then verify the single
    candidate on all generators.  For rank 1 inner means identity.
    """
    rank = f.rank
    if rank == 1:
        return Word.identity(1) if f.is_identity() else None

    from .words import cyclic_reduce  # local to avoid import cycle noise

    core, v = cyclic_reduce(f.images[0])
    x1 = Word.generator(rank, 1)
    if core != x1:
        return None
    # Candidate conjugators are v * x1^k; determine k from f(x_2).
    u = multiply(multiply(invert(v), f.images[1]), v)
    k = 0
    letters = u.letters
    while k < len(letters) and abs(letters[k]) == 1:
        k += 1
    if k >= len(letters) or abs(letters[k]) != 2:
        return None
    head = letters[:k]
    if any(a != head[0] for a in head):
        return None
    power = k if not head or head[0] > 0 else -k
    w = multiply(v, x1**power)
    for i, img in enumerate(f.images):
        xi = Word.generator(rank, i + 1)
        if img != xi.conjugated_by(w):
            return None
    return w


def out_order(
    f: Endomorphism,
    max_power: int = DEFAULT_MAX_POWER,
    max_word_len: int = DEFAULT_MAX_LEN,
) -> Optional[int]:
    """Smallest k >= 1 with f^k inner, or None once either cap trips."""
    return power_order(f, True, max_power, max_word_len)[0]


def equal_up_to_inner(f: Endomorphism, g: Endomorphism) -> Optional[Word]:
    """Witness that f and g agree in the outer quotient: is_inner(f * g^-1)."""
    return is_inner(compose(f, invert_automorphism(g)))


# --- Nielsen reduction -----------------------------------------------------

# A log entry (side, i, j, sign) records u_i <- u_i * u_j^sign for side "R"
# and u_i <- u_j^sign * u_i for side "L".
NielsenMove = tuple[str, int, int, int]


def apply_nielsen_log(
    words: Sequence[Word], log: Sequence[NielsenMove]
) -> tuple[Word, ...]:
    """Replay a transformation log; reconstructs nielsen_reduce output."""
    out = list(words)
    for side, i, j, sign in log:
        factor = out[j] if sign > 0 else invert(out[j])
        out[i] = multiply(out[i], factor) if side == "R" else multiply(factor, out[i])
    return tuple(out)


def _half_key(letters: Sequence[int]) -> tuple[int, ...]:
    """Letter sequence in the order x1 < x1^-1 < x2 < x2^-1 < ..."""
    return tuple(2 * a if a > 0 else -2 * a + 1 for a in letters)


def _pair_key(letters: tuple[int, ...]) -> tuple:
    """Lyndon-Schupp well-order on the pair {w, w^-1}: length, then the
    smaller and then the larger of the left halves (first ceil(|w|/2)
    letters) of w and w^-1."""
    half = (len(letters) + 1) // 2
    left = _half_key(letters[:half])
    left_inv = _half_key([-a for a in letters[: -half - 1 : -1]]) if half else ()
    if left_inv < left:
        left, left_inv = left_inv, left
    return (len(letters), left, left_inv)


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the common prefix of a and b: with a = x^-1, the letters
    that cancel in the product x * b."""
    n = min(len(a), len(b))
    c = 0
    while c < n and a[c] == b[c]:
        c += 1
    return c


def nielsen_reduce(
    words: Sequence[Word],
) -> tuple[tuple[Word, ...], list[NielsenMove]]:
    """Nielsen reduction by descent in the Lyndon-Schupp well-order.

    Repeatedly applies the elementary move u_i <- u_j^s * u_i or
    u_i <- u_i * u_j^s that most lowers u_i in the order of :func:`_pair_key`
    (length first, then the left halves of u_i and u_i^-1).  A tuple on which
    no move lowers any entry satisfies the reduction conditions N1 and N2
    (Lyndon-Schupp, *Combinatorial Group Theory*, Prop. I.2.2), so a basis
    always ends as a signed permutation of the generators; a length-only or
    whole-word tie-break can stall short of that.  Every step strictly lowers
    one entry in a well-order, so the pass terminates; among the moves that
    lower their entry, the choice minimizes (length change, new key,
    (side, i, j, sign)) for determinism.

    A move's length change is |u_j| - 2c, with c the letters that cancel at
    the seam, so it is read off the letter tuples before any word is built.
    Only the moves with the least change are built and keyed: each of them
    lowers its entry when that change is negative, and is keyed against it
    when the change is zero.
    """
    if not words:
        raise ValueError("need a nonempty tuple of words")
    rank = words[0].rank
    for w in words:
        if w.rank != rank:
            raise RankMismatchError("mixed ranks in tuple")

    tup = [w.letters for w in words]
    inv = [tuple(-a for a in reversed(u)) for u in tup]
    slots = range(len(tup))
    log: list[NielsenMove] = []
    while True:
        # (move, c) for the moves of least length change, when that is <= 0.
        least = 0
        group: list[tuple[NielsenMove, int]] = []
        for i in slots:
            u, ui = tup[i], inv[i]
            for j in slots:
                if i == j:
                    continue
                v, vi = tup[j], inv[j]
                # A change <= least needs c >= need; test letter need-1 first.
                need = (len(v) - least + 1) // 2
                if need > len(u) or need > len(v):
                    continue
                k = need - 1
                # (x^-1, y) for the product x * y that each move forms.
                for move, a, b in (
                    (("L", i, j, 1), vi, u),
                    (("L", i, j, -1), v, u),
                    (("R", i, j, 1), ui, v),
                    (("R", i, j, -1), ui, vi),
                ):
                    if k >= 0 and a[k] != b[k]:
                        continue
                    c = _common_prefix(a, b)
                    delta = len(v) - 2 * c
                    if delta < least:
                        least = delta
                        group = [(move, c)]
                    elif delta == least:
                        group.append((move, c))
        best: tuple | None = None
        for move, c in group:
            side, i, j, sign = move
            u, v = tup[i], tup[j] if sign > 0 else inv[j]
            cand = v[: len(v) - c] + u[c:] if side == "L" else u[: len(u) - c] + v[c:]
            cand_key = _pair_key(cand)
            if least == 0 and cand_key >= _pair_key(u):
                continue
            if best is None or (cand_key, move) < best[:2]:
                best = (cand_key, move, cand)
        if best is None:
            break
        _, move, cand = best
        tup[move[1]] = cand
        inv[move[1]] = tuple(-a for a in reversed(cand))
        log.append(move)
    return tuple(Word._reduced(rank, u) for u in tup), log


def _is_signed_permutation(words: Sequence[Word]) -> Optional[list[int]]:
    """If every word is a distinct single letter covering all generators,
    return ``perm`` with words[t] = x_{abs(perm[t])}^{sign(perm[t])}."""
    seen: set[int] = set()
    perm: list[int] = []
    for w in words:
        if len(w) != 1:
            return None
        a = w.letters[0]
        if abs(a) in seen:
            return None
        seen.add(abs(a))
        perm.append(a)
    if len(seen) != words[0].rank:
        return None
    return perm


def is_basis(words: Sequence[Word]) -> bool:
    """True iff Nielsen reduction lands on a permuted, possibly inverted,
    standard basis.  Requires exactly rank-many words."""
    if not words:
        return False
    if len(words) != words[0].rank:
        return False
    reduced, _ = nielsen_reduce(words)
    return _is_signed_permutation(reduced) is not None


def change_basis(f: Endomorphism, basis: Sequence[Word]) -> Endomorphism:
    """Rewrite f in the coordinates of a new free basis.

    With beta the substitution x_i -> basis[i], the result is
    beta^-1 * f * beta, so feeding the standard basis returns f unchanged.
    """
    if len(basis) != f.rank:
        raise NotABasisError(f"expected {f.rank} basis words, got {len(basis)}")
    beta = Endomorphism(f.rank, tuple(basis))
    try:
        beta_inv = invert_automorphism(beta)
    except NotABasisError:
        raise NotABasisError("words do not form a free basis") from None
    return compose(beta_inv, compose(f, beta))


def invert_automorphism(f: Endomorphism) -> Endomorphism:
    """Two-sided inverse of an automorphism.

    Nielsen-reduce the image tuple while mirroring every move on a witness
    tuple that starts at the standard basis; the invariant u_t = f(v_t) turns
    the terminal signed permutation into explicit preimages of each x_i.
    """
    rank = f.rank
    reduced, log = nielsen_reduce(f.images)
    perm = _is_signed_permutation(reduced)
    if perm is None:
        raise NotABasisError("images do not form a free basis")
    witnesses = apply_nielsen_log(
        [Word.generator(rank, i) for i in range(1, rank + 1)], log
    )
    images: list[Word] = [Word.identity(rank)] * rank
    for t, a in enumerate(perm):
        # f(witnesses[t]) = x_{abs(a)}^{sign(a)}  =>  f^-1(x_{abs(a)}) = w^{sign(a)}
        w = witnesses[t] if a > 0 else invert(witnesses[t])
        images[abs(a) - 1] = w
    return Endomorphism(rank, tuple(images))
