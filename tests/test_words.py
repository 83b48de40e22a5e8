import pytest
from hypothesis import given, settings, strategies as st

from autfn.words import (
    MAX_LITERAL_LETTERS, RankMismatchError, Word, cyclic_reduce, format_word,
    invert, multiply, parse_word, reduce,
)


def W(text, rank=4):
    return parse_word(text, rank)


class TestReduce:
    def test_cancellation(self):
        assert reduce([1, -1], 2) == Word.identity(2)

    def test_inner_cancellation(self):
        assert reduce([1, 2, -2, 3], 3) == W("x1 x3", 3)

    def test_already_reduced(self):
        assert reduce([4, 1, -4], 4) == W("x4 x1 x4^-1")

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            reduce([5], 4)
        with pytest.raises(ValueError):
            reduce([0], 4)


class TestMultiply:
    def test_adjacent_cancel(self):
        assert W("x1 x2", 3) * W("x2^-1 x3", 3) == W("x1 x3", 3)

    def test_identity(self):
        w = W("x1 x2^-1 x3")
        assert w * Word.identity(4) == w
        assert Word.identity(4) * w == w

    def test_hand_reduction(self):
        # (s1 s2^-1)(s2 s3^-1) telescopes
        assert W("x1 x2^-1", 3) * W("x2 x3^-1", 3) == W("x1 x3^-1", 3)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            multiply(W("x1", 2), W("x1", 3))


class TestInvert:
    def test_reverses_and_flips(self):
        assert invert(W("x1 x2")) == W("x2^-1 x1^-1")

    def test_identity(self):
        assert invert(Word.identity(3)) == Word.identity(3)

    def test_involution(self):
        w = W("x2^-1 x1^-1")
        assert invert(invert(w)) == w


class TestCyclicReduce:
    def test_single_conjugation(self):
        core, conj = cyclic_reduce(W("x4 x1 x4^-1"))
        assert core == W("x1")
        assert conj == W("x4")

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(W("x1 x2"))
        assert core == W("x1 x2")
        assert conj == Word.identity(4)

    def test_nested(self):
        core, conj = cyclic_reduce(W("x2 x3 x1 x3^-1 x2^-1"))
        assert core == W("x1")
        assert conj == W("x2 x3")


letters = st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=30)


@given(letters)
@settings(deadline=None)
def test_reduce_idempotent(raw):
    once = reduce(raw, 4)
    assert reduce(once.letters, 4) == once


words = letters.map(lambda raw: reduce(raw, 4))


@given(words, words, words)
@settings(deadline=None)
def test_multiply_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words)
@settings(deadline=None)
def test_inverse_law(w):
    assert w * invert(w) == Word.identity(4)
    assert len(invert(w)) == len(w)


@given(words)
@settings(deadline=None)
def test_cyclic_reduce_recombines(w):
    core, conj = cyclic_reduce(w)
    assert conj * core * invert(conj) == w


@given(words)
@settings(deadline=None)
def test_parse_format_round_trip(w):
    assert parse_word(format_word(w), 4) == w


def test_parse_exponent_runs():
    assert parse_word("x3^2", 3) == reduce([3, 3], 3)
    assert parse_word("x2^-3", 3) == reduce([-2, -2, -2], 3)
    assert parse_word("e", 3) == Word.identity(3)
    with pytest.raises(ValueError):
        parse_word("x9", 3)
    with pytest.raises(ValueError):
        parse_word("y1", 3)


def test_parse_word_writes_out_at_most_the_literal_bound():
    assert len(parse_word(f"x1^{MAX_LITERAL_LETTERS}", 2)) == MAX_LITERAL_LETTERS
    assert len(parse_word("x1^5000 x2^-5000", 2)) == MAX_LITERAL_LETTERS
    # Refused before any letter is written out, so a huge exponent costs
    # nothing; the bound counts letters written, before cancellation.
    for text in ("x1^4000000000000", "x1^5000 x2^-5001", "x1^6000 x1^-6000"):
        with pytest.raises(ValueError, match=f"more than {MAX_LITERAL_LETTERS} letters"):
            parse_word(text, 2)


def test_scenario_literals_share_the_bound():
    from autfn import scenario

    assert scenario.MAX_LITERAL_LETTERS is MAX_LITERAL_LETTERS
