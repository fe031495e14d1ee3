"""Field arithmetic, error types and the parsers' scanner."""

from fractions import Fraction

import re

import pytest

from gorquad.core import (AlgebraError, CappedComputationError, FieldSpec,
                          ParseError, scan)

from conftest import GF2, GF7, GFBIG, Q


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 32003])
def test_prime_field_matches_int_arithmetic(p):
    F = FieldSpec.prime(p)
    for a in range(min(p, 12)):
        for b in range(min(p, 12)):
            assert F.add(a, b) == (a + b) % p
            assert F.sub(a, b) == (a - b) % p
            assert F.mul(a, b) == (a * b) % p
            if b:
                assert F.mul(F.inv(b), b) == 1
                assert F.div(a, b) == (a * pow(b, p - 2, p)) % p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 32004])
def test_prime_required(bad):
    with pytest.raises(ValueError):
        FieldSpec.prime(bad)


def test_rationals_are_exact():
    a = Fraction(1, 3)
    b = Fraction(1, 6)
    assert Q.add(a, b) == Fraction(1, 2)
    assert Q.mul(Q.inv(a), a) == 1
    assert Q.zero == Fraction(0)
    assert Q.one == Fraction(1)


def test_inverse_of_zero_raises():
    for F in (Q, GF7):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


@pytest.mark.parametrize("token,p", [
    ("q", None), ("Q", None), ("qq", None), ("0", None),
    ("2", 2), ("32003", 32003),
])
def test_from_token(token, p):
    assert FieldSpec.from_token(token).p == p


def test_from_token_rejects_garbage():
    for token in ("four", "-3", "1.5", ""):
        with pytest.raises(ValueError):
            FieldSpec.from_token(token)


def test_token_roundtrip():
    for F in (Q, GF2, GFBIG):
        assert FieldSpec.from_token(F.token) == F


def test_normalize_coerces_python_numbers():
    assert GF7.normalize(-1) == 6
    assert GF7.normalize(True) == 1
    assert Q.normalize(2) == Fraction(2)
    assert isinstance(Q.normalize(2), Fraction)
    with pytest.raises(ZeroDivisionError):
        GF7.normalize(Fraction(1, 7))
    assert GF7.normalize(Fraction(1, 2)) == GF7.inv(2)


def test_random_is_seed_deterministic():
    import random

    for F in (Q, GF7):
        a = [F.random(random.Random(5)) for _ in range(4)]
        b = [F.random(random.Random(5)) for _ in range(4)]
        assert a == b
        assert F.random_nonzero(random.Random(5)) != F.zero


def test_error_hierarchy():
    assert issubclass(CappedComputationError, AlgebraError)
    assert issubclass(ParseError, AlgebraError)
    err = ParseError("bad token", line=3, col=7)
    assert "line 3" in str(err) and "col 7" in str(err)


_WORDS = re.compile(r"(?P<ws>\s+)|(?P<word>[a-z]+)|(?P<num>\d+)")


def test_scan_tokens_carry_their_line_and_column():
    assert scan(_WORDS, "ab 12\n  cd", line=4) == [
        ("word", "ab", 4, 1), ("num", "12", 4, 4), ("word", "cd", 5, 3),
        ("end", "", 5, 5)]
    assert scan(_WORDS, "") == [("end", "", 1, 1)]
    assert scan(_WORDS, "ab \n") == [("word", "ab", 1, 1), ("end", "", 2, 1)]


def test_scan_value_is_the_named_group():
    quoted = re.compile(r'(?P<ws>\s+)|"(?P<quoted>[^"]*)"')
    assert scan(quoted, ' "a b"  ""') == [
        ("quoted", "a b", 1, 2), ("quoted", "", 1, 9), ("end", "", 1, 11)]


def test_scan_names_an_unexpected_character():
    with pytest.raises(ParseError) as info:
        scan(_WORDS, "ab\n  cd ?x", line=2)
    assert (info.value.message, info.value.line, info.value.col) == (
        "unexpected character '?'", 3, 6)
