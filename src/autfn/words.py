"""Freely reduced words in a free group of fixed rank.

A letter is a nonzero integer: ``+i`` is the i-th generator, ``-i`` its
inverse.  The empty tuple is the identity.  Every word carries its rank and
rank mismatches are hard errors, never silent coercions.  Words are immutable,
so all operations are pure and thread-safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class RankMismatchError(ValueError):
    """Operands live in free groups of different ranks."""


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain (stack pass)."""
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word; construct through :func:`reduce` or parsing."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        prev = 0
        for a in self.letters:
            if a == 0 or abs(a) > self.rank:
                raise ValueError(f"letter {a} out of range for rank {self.rank}")
            if a == -prev:
                raise ValueError("word is not freely reduced")
            prev = a

    @classmethod
    def _reduced(cls, rank: int, letters: tuple[int, ...]) -> "Word":
        """A word from letters that are reduced and in range by construction,
        skipping the checks of ``__post_init__``; for internal results only,
        while input from outside goes through the checked constructor."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "letters", letters)
        return w

    @staticmethod
    def identity(rank: int) -> "Word":
        return Word(rank, ())

    @staticmethod
    def generator(rank: int, index: int, sign: int = 1) -> "Word":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return Word(rank, (sign * index,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else invert(self)
        out = Word.identity(self.rank)
        for _ in range(abs(n)):
            out = multiply(out, base)
        return out

    def conjugated_by(self, c: "Word") -> "Word":
        """Return c * self * c^-1."""
        return multiply(multiply(c, self), invert(c))

    def exponent_sums(self) -> tuple[int, ...]:
        """Total exponent of each generator, in generator order."""
        sums = [0] * self.rank
        for a in self.letters:
            sums[abs(a) - 1] += 1 if a > 0 else -1
        return tuple(sums)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"


def reduce(letters: Iterable[int], rank: int) -> Word:
    """The unique freely reduced form of a raw letter sequence."""
    reduced = free_reduce(letters)
    for a in reduced:
        if a == 0 or abs(a) > rank:
            raise ValueError(f"letter {a} out of range for rank {rank}")
    return Word(rank, reduced)


def _require_same_rank(a: Word, b: Word) -> None:
    if a.rank != b.rank:
        raise RankMismatchError(f"rank {a.rank} vs rank {b.rank}")


def multiply(a: Word, b: Word) -> Word:
    """Reduced concatenation; associative with the empty word as identity."""
    _require_same_rank(a, b)
    if not a.letters:
        return b
    if not b.letters:
        return a
    left = list(a.letters)
    i = 0
    bl = b.letters
    while left and i < len(bl) and left[-1] == -bl[i]:
        left.pop()
        i += 1
    return Word._reduced(a.rank, tuple(left) + bl[i:])


def invert(w: Word) -> Word:
    return Word._reduced(w.rank, tuple(-a for a in reversed(w.letters)))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conjugator * core * conjugator^-1 with the core cyclically
    reduced; the conjugator is the removed prefix."""
    letters = w.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return Word._reduced(w.rank, letters[lo:hi]), Word._reduced(w.rank, letters[:lo])


_ATOM_RE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, rank: int) -> Word:
    """Parse the shared word-literal syntax.

    Whitespace-separated atoms ``x3``, ``x3^-1``, ``x3^2`` (exponents expand
    to letter runs); ``e`` alone denotes the empty word.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty word literal; use 'e' for the identity")
    if parts == ["e"]:
        return Word.identity(rank)
    letters: list[int] = []
    for atom in parts:
        if atom == "e":
            continue
        m = _ATOM_RE.match(atom)
        if m is None:
            raise ValueError(f"bad word atom {atom!r}")
        index = int(m.group(1))
        power = int(m.group(2)) if m.group(2) is not None else 1
        if index < 1 or index > rank:
            raise ValueError(f"generator x{index} out of range for rank {rank}")
        letters.extend([index if power > 0 else -index] * abs(power))
    return reduce(letters, rank)


def format_word(w: Word, names: "list[str] | None" = None) -> str:
    """Inverse of :func:`parse_word`; runs of one letter print as powers."""
    if not w.letters:
        return "e"
    parts: list[str] = []
    i = 0
    letters = w.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        run = j - i
        idx = abs(letters[i])
        name = names[idx - 1] if names is not None else f"x{idx}"
        power = run if letters[i] > 0 else -run
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)
