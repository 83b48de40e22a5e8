"""Abelianization to integer matrices, exact determinants, residue reduction.

Column convention: entry (i, j) of an abelianized endomorphism is the
exponent sum of generator i in the image of generator j, so composition of
endomorphisms maps to matrix product in the same order.  Entries are Python
integers, hence exact at any size; the determinant uses fraction-free
(Bareiss) elimination.
"""

from __future__ import annotations

from .endos import Endomorphism
from .words import Frozen


class IntMatrix(Frozen):
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix(n={self.n!r}, rows={self.rows!r})"

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_rows(rows: "list[list[int]] | tuple") -> "IntMatrix":
        return IntMatrix(len(rows), tuple(tuple(r) for r in rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError(f"dimension {self.n} vs {other.n}")
        n = self.n
        cols = list(zip(*other.rows))
        return IntMatrix(
            n,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            ),
        )

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        out = IntMatrix.identity(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.n, tuple(tuple(-a for a in r) for r in self.rows))

    def __str__(self) -> str:
        return "; ".join(" ".join(str(a) for a in row) for row in self.rows)


def abelianize(f: Endomorphism) -> IntMatrix:
    """Exponent-sum matrix of f; functorial for composition."""
    n = f.rank
    cols = [w.exponent_sums() for w in f.images]
    return IntMatrix(n, tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.n
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mod_reduce(m: IntMatrix, modulus: int) -> IntMatrix:
    """Entrywise least residues; reducing a product of reductions again gives
    the reduction of the product."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    return IntMatrix(m.n, tuple(tuple(a % modulus for a in row) for row in m.rows))


def congruence_level_member(m: IntMatrix, level: int) -> bool:
    """True iff m is congruent to the identity mod ``level``.

    The determinant is reported separately by callers that need to tell the
    determinant-one congruence subgroup apart from its determinant +-1
    variant.
    """
    return mod_reduce(m, level) == mod_reduce(IntMatrix.identity(m.n), level)


def elementary(k: int, r: int, power: int, n: int) -> IntMatrix:
    """Identity plus ``power`` at off-diagonal position (k, r); 1-based."""
    if k == r:
        raise ValueError("elementary matrix needs distinct indices")
    if not (1 <= k <= n and 1 <= r <= n):
        raise ValueError(f"indices ({k},{r}) out of range for n={n}")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[k - 1][r - 1] = power
    return IntMatrix.from_rows(rows)


def is_torelli(f: Endomorphism) -> bool:
    """True iff f acts trivially on the abelianization."""
    return abelianize(f) == IntMatrix.identity(f.rank)
