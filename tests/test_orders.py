"""Monomial key packing and term-order laws."""

import itertools
import random

import pytest

from gorquad.orders import (_FIELD_MAX, DEGREVLEX, LEX, MAX_PACKED_DEGREE,
                            MonomialOrder, elimination_order)


def all_exps(nvars, max_deg):
    rng = range(max_deg + 1)
    for e in itertools.product(rng, repeat=nvars):
        if sum(e) <= max_deg:
            yield e


@pytest.mark.parametrize("order", [DEGREVLEX, LEX, elimination_order(2)])
@pytest.mark.parametrize("nvars", [1, 3, 5])
def test_pack_unpack_roundtrip(order, nvars):
    if order.kind == "block" and order.elim_count >= nvars:
        pytest.skip("block order needs a nonempty tail")
    codec = order.codec(nvars)
    for e in all_exps(nvars, 4):
        k = codec.key(e)
        assert codec.exps(k) == e
        assert codec.degree(k) == sum(e)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX, elimination_order(2)])
def test_total_order_and_multiplicativity(order):
    codec = order.codec(3)
    keys = [codec.key(e) for e in all_exps(3, 3)]
    assert len(set(keys)) == len(keys)
    shift = codec.key((1, 0, 2))
    ranked = sorted(keys)
    shifted = [codec.mul(k, shift) for k in ranked]
    assert shifted == sorted(shifted)  # m < n implies m*t < n*t


def test_degrevlex_vs_lex_disagree():
    # x2^2 vs x1*x3: degrevlex prefers the one avoiding the last variable.
    drl = DEGREVLEX.codec(3)
    lex = LEX.codec(3)
    a, b = (0, 2, 0), (1, 0, 1)
    assert drl.key(a) > drl.key(b)
    assert lex.key(a) < lex.key(b)


def test_degrevlex_orders_variables_descending():
    codec = DEGREVLEX.codec(4)
    keys = [codec.key(tuple(int(i == j) for i in range(4))) for j in range(4)]
    assert keys == sorted(keys, reverse=True)  # x1 > x2 > x3 > x4


def test_division_and_lcm():
    codec = DEGREVLEX.codec(3)
    m = codec.key((2, 1, 0))
    n = codec.key((1, 1, 1))
    assert not codec.divides(m, n)
    assert codec.divides(codec.key((1, 1, 0)), m)
    lcm = codec.lcm(m, n)
    assert codec.exps(lcm) == (2, 1, 1)
    assert codec.exps(codec.div(lcm, m)) == (0, 0, 1)


def test_block_order_eliminates_front_variables():
    # Any monomial containing x1 or x2 beats any monomial in the tail block.
    codec = elimination_order(2).codec(4)
    front = codec.key((0, 1, 0, 0))
    tail = codec.key((0, 0, 3, 3))
    assert front > tail


def test_var_key():
    codec = DEGREVLEX.codec(3)
    assert codec.exps(codec.var_key(1)) == (0, 1, 0)


def test_exponent_range_enforced():
    codec = DEGREVLEX.codec(2)
    with pytest.raises(ValueError):
        codec.key((MAX_PACKED_DEGREE + 80, 0))


def test_named_orders():
    assert MonomialOrder("degrevlex") == DEGREVLEX
    assert MonomialOrder("lex") == LEX
    with pytest.raises(ValueError):
        MonomialOrder("weighted")


# -- the codecs against exponent arithmetic -------------------------------------

# byte extremes of a packed exponent
_PICKS = (0, 1, 2, _FIELD_MAX - 1, _FIELD_MAX)


def _orders(nvars):
    return [DEGREVLEX, LEX] + [elimination_order(k) for k in range(1, nvars)]


def _exponent_rank(order, e):
    """The order written directly on exponent vectors, as a sort key."""
    def drl(part):
        return (sum(part),) + tuple(-x for x in reversed(part))
    if order.kind == "lex":
        return tuple(e)
    if order.kind == "degrevlex":
        return drl(e)
    k = order.elim_count
    return drl(e[:k]) + drl(e[k:])


def _draw(rng, nvars, cap=None):
    """An exponent vector of byte-extreme or uniform entries, each at most
    cap[j] when cap is given."""
    cap = cap or (_FIELD_MAX,) * nvars
    return tuple(min(c, rng.choice(_PICKS + (rng.randrange(_FIELD_MAX + 1),)))
                 for c in cap)


@pytest.mark.parametrize("nvars", range(1, 11))
def test_codecs_match_exponent_arithmetic(nvars):
    rng = random.Random(nvars)
    for order in _orders(nvars):
        codec = order.codec(nvars)
        if order.kind != "block":
            assert type(codec.key((0,) * nvars)) is int
        assert codec.exps(codec.one) == (0,) * nvars
        for _ in range(60):
            a = _draw(rng, nvars)
            b = _draw(rng, nvars, tuple(_FIELD_MAX - x for x in a))  # a*b packs
            c = _draw(rng, nvars, a)                                 # c | a
            ka, kb, kc = (codec.key(e) for e in (a, b, c))
            assert codec.exps(ka) == a and codec.degree(ka) == sum(a)
            ab = tuple(x + y for x, y in zip(a, b))
            assert codec.mul(ka, kb) == codec.key(ab), (order, a, b)
            assert codec.mul(ka, codec.one) == ka
            assert codec.div(ka, kc) == codec.key(
                tuple(x - y for x, y in zip(a, c))), (order, a, c)
            assert codec.div(codec.key(ab), kb) == ka
            for x, y in ((a, b), (b, a), (c, a), (a, c), (a, a)):
                kx, ky = codec.key(x), codec.key(y)
                assert codec.divides(kx, ky) == all(
                    i <= j for i, j in zip(x, y)), (order, x, y)
                assert (kx < ky) == (_exponent_rank(order, x)
                                     < _exponent_rank(order, y)), (order, x, y)
                assert (kx == ky) == (x == y)
