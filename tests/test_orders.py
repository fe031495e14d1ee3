"""Monomial key packing and term-order laws."""

import itertools

import pytest

from gorquad.orders import (DEGREVLEX, LEX, MAX_PACKED_DEGREE, MonomialOrder,
                            elimination_order)


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
