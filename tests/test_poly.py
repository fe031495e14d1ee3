"""Polynomial rings: parsing, printing, arithmetic, monomial enumeration."""

import itertools
import math
import random

import pytest

from gorquad.core import ParseError, RingMismatchError
from gorquad.orders import LEX, elimination_order
from gorquad.poly import ring

from conftest import (GF2, GF7, GFBIG, Q, oracle_compose, poly_as_dict,
                      random_poly)


@pytest.fixture
def R():
    return ring(GF7, 3)


def test_parse_str_roundtrip(R):
    texts = ["x1^2 + 3*x2*x3", "x1*x2*x3", "2*x3^4 - x1^4", "x2"]
    for text in texts:
        p = R.parse(text)
        assert R.parse(str(p)) == p


def test_parse_rational_coefficients():
    R = ring(Q, 2)
    p = R.parse("1/2*x1^2 - x2^2")
    d = poly_as_dict(p)
    assert d[(2, 0)].numerator == 1 and d[(2, 0)].denominator == 2


def test_parse_reports_location():
    R = ring(GF7, 2)
    with pytest.raises(ParseError) as info:
        R.parse("x1^2 + $")
    assert "col" in str(info.value) or "line" in str(info.value)
    with pytest.raises(ParseError):
        R.parse("x5")  # out-of-range variable
    with pytest.raises(ParseError):
        R.parse("")


def test_ring_laws(R):
    rng = random.Random(1)
    a = random_poly(R, 2, rng)
    b = random_poly(R, 2, rng)
    c = random_poly(R, 3, rng)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == R.zero
    assert a * R.one == a
    assert a * R.zero == R.zero


def test_power_and_scale(R):
    x1 = R.variable("x1")
    x2 = R.variable("x2")
    assert (x1 + x2) ** 2 == x1 * x1 + (x1 * x2).scale(2) + x2 * x2
    assert R.parse("x1").scale(R.field.normalize(-1)) == -x1


def test_homogeneity(R):
    rng = random.Random(2)
    p = random_poly(R, 3, rng)
    assert p.is_homogeneous() and p.degree() == 3
    mixed = p + R.variable("x1")
    assert not mixed.is_homogeneous()
    assert R.zero.is_homogeneous()


def test_monomials_of_degree_counts(R):
    for n in (1, 2, 3, 4):
        S = ring(GF2, n)
        for d in range(5):
            mons = list(S.monomials_of_degree(d))
            assert len(mons) == math.comb(n + d - 1, d)
            assert len(set(mons)) == len(mons)
            assert all(S.codec.degree(m) == d for m in mons)


def test_extend_preserves_polynomials(R):
    rng = random.Random(3)
    p = random_poly(R, 2, rng)
    S = ring(R.field, 5)
    q = S.parse(str(p))
    assert poly_as_dict(q) == {e + (0, 0): c for e, c in poly_as_dict(p).items()}


def test_compose_is_a_ring_map(R):
    rng = random.Random(4)
    a = random_poly(R, 2, rng)
    b = random_poly(R, 2, rng)
    images = [random_poly(R, 1, rng, density=1.0) for _ in range(3)]
    assert (a * b).compose(images) == a.compose(images) * b.compose(images)
    assert (a + b).compose(images) == a.compose(images) + b.compose(images)


def test_extend_with_var_map(R):
    S = ring(R.field, 4)
    p = R.parse("x1*x2 + x3^2")
    q = p.extend(S, var_map=(1, 2, 3))  # shift every variable right by one
    assert q == S.parse("x2*x3 + x4^2")


def _sparse_poly(R, rng, terms):
    """Seeded inhomogeneous polynomial: in each term one exponent is drawn
    from [0, 5] and the others from [0, 1]."""
    def exps():
        e = [rng.randint(0, 1) for _ in range(R.nvars)]
        e[rng.randrange(R.nvars)] = rng.randint(0, 5)
        return tuple(e)
    return R.from_terms((R.codec.key(exps()), R.field.random(rng))
                        for _ in range(terms))


def _image(R, rng):
    """A seeded image: a linear form, sometimes plus a constant or a sparse
    quadric."""
    im = random_poly(R, 1, rng, density=0.6)
    if rng.random() < 0.3:
        im = im + R.constant(rng.randint(1, 6))
    if rng.random() < 0.3:
        im = im + random_poly(R, 2, rng, density=0.15)
    return im


@pytest.mark.parametrize("field", [Q, GF7, GFBIG])
@pytest.mark.parametrize("order", [None, LEX, elimination_order(1),
                                   elimination_order(2)])
def test_compose_matches_the_term_by_term_oracle(field, order):
    rng = random.Random(f"{field}/{order}")
    source = ring(field, 3) if order is None else ring(field, 3, order)
    targets = [source, ring(field, 5),
               ring(field, 4, LEX if order is None else order)]
    top = 0
    for target in targets:
        for i in range(6):
            p = _sparse_poly(source, rng, rng.randint(1, 6))
            top = max([top] + [max(source.codec.exps(k)) for k, _ in p.terms])
            images = [_image(target, rng) for _ in range(3)]
            if i == 5:
                images[rng.randrange(3)] = target.zero
            want = oracle_compose(p, images)
            assert p.compose(images).terms == want.terms
        images = [random_poly(target, 1, rng, density=1.0) for _ in range(3)]
        for p in (source.zero, source.constant(3), source.one):
            assert p.compose(images) == oracle_compose(p, images)
        assert source.zero.compose(images) == target.zero
        assert source.constant(3).compose(images) == target.constant(3)
    assert top == 5


def test_compose_refuses_as_before():
    R = ring(GF7, 2)
    S = ring(GF7, 3)
    x1, x2 = R.variables()
    with pytest.raises(ValueError, match="one image per variable"):
        (x1 * x2).compose([x1])
    with pytest.raises(RingMismatchError, match="different rings"):
        (x1 * x2).compose([x1, S.variables()[0]])
    with pytest.raises(RingMismatchError, match="preserve the field"):
        (x1 * x2).compose(ring(GF2, 2).variables())
    # the packed bound is checked as multiplying out the powers checks it,
    # zero images included
    y1, y2, _ = S.variables()
    pool = [S.zero, S.one, y2, y1 * y2, y1 ** 3]
    for p in (S.parse("x1^31"), S.parse("x1^31*x2"), S.parse("x1*x2^31"),
              S.parse("x1^20*x2^20 + x2^3"), S.parse("x1*x2^15*x3^16")):
        for images in itertools.product(pool, repeat=3):
            try:
                want = oracle_compose(p, images)
            except ValueError as exc:
                assert "packed-monomial bound" in str(exc)
                with pytest.raises(ValueError, match="packed-monomial bound"):
                    p.compose(images)
            else:
                assert p.compose(images).terms == want.terms
