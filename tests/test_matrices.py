import random

import pytest

from autfn.endos import Endomorphism, compose, named, order
from autfn.matrices import (
    IntMatrix, abelianize, congruence_level_member, det,
    elementary, is_torelli, mod_reduce,
)
from autfn.words import parse_word


def W(text, rank):
    return parse_word(text, rank)


F6 = Endomorphism.from_images(
    [W(s, 6) for s in ("x2", "x2^-1 x1^-1", "x4", "x5", "x6", "x3")]
)


def cofactor_det(m: IntMatrix) -> int:
    """Independent oracle: naive cofactor expansion."""
    n = m.n
    if n == 1:
        return m.rows[0][0]
    total = 0
    for j in range(n):
        minor = IntMatrix.from_rows(
            [[m.rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        )
        sign = 1 if j % 2 == 0 else -1
        total += sign * m.rows[0][j] * cofactor_det(minor)
    return total


class TestAbelianize:
    def test_left_multiplication_unit(self):
        m = abelianize(named("L", 1, 2, rank=3))
        assert m == elementary(2, 1, 1, 3)

    def test_order_twelve_map_det(self):
        assert det(abelianize(F6)) == -1

    def test_rose_rotation_companion(self):
        rose5 = Endomorphism.from_images(
            [W(s, 5) for s in ("x2", "x3", "x4", "x5", "x1")]
        )
        assert abelianize(rose5) == IntMatrix.from_rows(
            [[0, 0, 0, 0, 1],
             [1, 0, 0, 0, 0],
             [0, 1, 0, 0, 0],
             [0, 0, 1, 0, 0],
             [0, 0, 0, 1, 0]]
        )

    def test_functorial_on_random_products(self):
        rng = random.Random(11)
        pool = [
            named(k, i, j, rank=4)
            for k in "LRC"
            for i in range(1, 5)
            for j in range(1, 5)
            if i != j
        ] + [named("I", i, rank=4) for i in range(1, 5)]
        for _ in range(60):
            f, g = rng.choice(pool), rng.choice(pool)
            assert abelianize(compose(f, g)) == abelianize(f) * abelianize(g)


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(5)) == 1

    def test_cycle_block_sign(self):
        for p in (3, 5, 7):
            rows = [[0] * p for _ in range(p)]
            rows[0][p - 1] = 1
            for i in range(1, p):
                rows[i][i - 1] = 1
            assert det(IntMatrix.from_rows(rows)) == (-1) ** (p - 1) == 1

    def test_against_cofactor_oracle(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(25):
                m = IntMatrix.from_rows(
                    [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                )
                assert det(m) == cofactor_det(m)

    def test_multiplicative_on_samples(self):
        rng = random.Random(6)
        for _ in range(25):
            a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            b = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            assert det(a * b) == det(a) * det(b)

    def test_singular(self):
        assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0


class TestModReduce:
    def test_two_i_mod_two(self):
        two_i = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert mod_reduce(two_i, 2) == IntMatrix(2, ((0, 0), (0, 0)))

    def test_elementary_cube_mod_three(self):
        assert mod_reduce(elementary(3, 1, 3, 4), 3) == IntMatrix.identity(4)

    def test_negative_identity_mod_two(self):
        assert mod_reduce(-IntMatrix.identity(3), 2) == IntMatrix.identity(3)

    def test_commutes_with_multiplication(self):
        rng = random.Random(9)
        for _ in range(30):
            a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
            b = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
            assert mod_reduce(a * b, 4) == mod_reduce(mod_reduce(a, 4) * mod_reduce(b, 4), 4)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_reduce(IntMatrix.identity(2), 1)


class TestCongruenceLevel:
    def test_identity_any_level(self):
        for level in (2, 3, 4, 7):
            assert congruence_level_member(IntMatrix.identity(4), level)

    def test_fourth_elementary_power_at_level_four(self):
        assert congruence_level_member(elementary(2, 1, 4, 4), 4)
        assert not congruence_level_member(elementary(2, 1, 4, 4), 3)

    def test_inversion_levels(self):
        m = abelianize(named("I", 1, rank=3))
        assert congruence_level_member(m, 2)
        assert not congruence_level_member(m, 3)


class TestElementary:
    def test_displayed_four_by_four(self):
        assert elementary(3, 1, 3, 4) == IntMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 1]]
        )

    def test_zero_power_is_identity(self):
        assert elementary(1, 2, 0, 5) == IntMatrix.identity(5)

    def test_power_accumulates(self):
        e = elementary(2, 1, 1, 4)
        assert e * e * e * e == elementary(2, 1, 4, 4)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            elementary(2, 2, 1, 4)


class TestTorelli:
    def test_conjugation_is_torelli(self):
        assert is_torelli(named("C", 1, 2, rank=4))

    def test_left_multiplication_is_not(self):
        assert not is_torelli(named("L", 1, 2, rank=4))

    def test_finite_order_dets_are_units(self):
        pool = [named("P", 1, 2, rank=4), named("I", 3, rank=4),
                named("P", 2, 4, rank=4)]
        rng = random.Random(3)
        for _ in range(20):
            f = Endomorphism.identity(4)
            for _ in range(rng.randint(1, 6)):
                f = compose(f, rng.choice(pool))
            assert order(f) is not None
            assert det(abelianize(f)) in (1, -1)
