"""Colon and intersection, with a sympy elimination oracle."""

import hashlib
import random

import pytest

from gorquad.core import AlgebraError
from gorquad.groebner import Ideal
from gorquad.idealops import (colon_form, colon_ideal, exact_divide,
                              ideal_sum, intersect, random_linear_form)
from gorquad.invariants import hilbert_value
from gorquad.orders import elimination_order
from gorquad.poly import ring

from conftest import (GF7, GFBIG, Q, from_sympy, gorquad_gb_normalized,
                      random_poly, sympy_reduced_gb, sympy_symbols, to_sympy)


def sympy_colon_oracle(I: Ideal, f) -> list:
    """I : f via sympy only: intersect I with (f) by t-elimination, then
    divide each generator by f."""
    import sympy

    R = I.ring
    syms = sympy_symbols(R)
    t = sympy.Symbol("t")
    mixed = [t * to_sympy(g, syms) for g in I.gens]
    fs = to_sympy(f, syms)
    mixed.append((1 - t) * fs)
    kwargs = {"order": "lex"}
    if R.field.p is not None:
        kwargs["modulus"] = R.field.p
    gb = sympy.groebner(mixed, t, *syms, **kwargs)
    quotients = []
    for expr in gb.exprs:
        if t in expr.free_symbols:
            continue
        q, rem = sympy.div(expr, fs, *syms)
        assert rem == 0
        if q != 0:
            quotients.append(from_sympy(q, R))
    return gorquad_gb_normalized(Ideal(R, quotients))


def sympy_intersect_oracle(I: Ideal, J: Ideal) -> list:
    """I ∩ J via sympy only: the t-free part of a lex basis of
    t*I + (1-t)*J, reduced to a degrevlex basis."""
    import sympy

    R = I.ring
    syms = sympy_symbols(R)
    t = sympy.Symbol("t")
    mixed = [t * to_sympy(g, syms) for g in I.gens]
    mixed.extend((1 - t) * to_sympy(h, syms) for h in J.gens)
    kwargs = {"order": "lex"}
    if R.field.p is not None:
        kwargs["modulus"] = R.field.p
    gb = sympy.groebner(mixed, t, *syms, **kwargs)
    free = [from_sympy(expr, R) for expr in gb.exprs
            if t not in expr.free_symbols]
    return sympy_reduced_gb(free, R)


def test_colon_small_cases():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2", "x2^2"])
    C = colon_form(I, R.parse("x1"))
    assert gorquad_gb_normalized(C) == gorquad_gb_normalized(
        Ideal.from_texts(R, ["x1", "x2^2"]))
    # colon by an element of the ideal is the unit ideal
    U = colon_form(I, R.parse("x1^2"))
    assert U.contains(R.one)


@pytest.mark.parametrize("field", [Q, GF7])
@pytest.mark.parametrize("seed", range(3))
def test_colon_matches_sympy_oracle(field, seed):
    rng = random.Random(40 + seed)
    R = ring(field, 3)
    I = Ideal(R, [random_poly(R, 2, rng) for _ in range(2)])
    f = R.parse("x1^2") if seed % 2 else R.parse("x3")
    C = colon_form(I, f)
    assert gorquad_gb_normalized(C) == sympy_colon_oracle(I, f)


def test_colon_ideal_intersects_generator_colons():
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2*x2", "x1*x3^2"])
    J = Ideal.from_texts(R, ["x1"])
    C = colon_ideal(I, J)
    assert gorquad_gb_normalized(C) == gorquad_gb_normalized(
        Ideal.from_texts(R, ["x1*x2", "x3^2"]))
    # J inside I gives the unit ideal
    U = colon_ideal(I, Ideal.from_texts(R, ["x1^2*x2"]))
    assert U.contains(R.one)


def test_intersect_principal_ideals():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1"])
    J = Ideal.from_texts(R, ["x2"])
    M = intersect(I, J)
    assert gorquad_gb_normalized(M) == gorquad_gb_normalized(
        Ideal.from_texts(R, ["x1*x2"]))


@pytest.mark.parametrize("seed", range(3))
def test_intersection_dimension_identity(seed):
    # dim (I cap J)_d = dim I_d + dim J_d - dim (I + J)_d in every degree
    rng = random.Random(60 + seed)
    R = ring(GF7, 3)
    I = Ideal(R, [random_poly(R, 2, rng) for _ in range(2)])
    J = Ideal(R, [random_poly(R, 2, rng) for _ in range(2)])
    M = intersect(I, J)
    S = ideal_sum(I, J)
    import math

    for d in range(1, 7):
        full = math.comb(R.nvars + d - 1, d)

        def ideal_dim(X):
            return full - hilbert_value(X, d)

        assert ideal_dim(M) == ideal_dim(I) + ideal_dim(J) - ideal_dim(S)


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
@pytest.mark.parametrize("artinian", [True, False], ids=["artinian", "not"])
@pytest.mark.parametrize("seed", range(2))
def test_intersect_matches_sympy_oracle(field, artinian, seed):
    rng = random.Random(90 + seed)
    R = ring(field, 3)
    I = Ideal(R, [random_poly(R, 2, rng) for _ in range(3 if artinian else 2)])
    J = Ideal(R, [random_poly(R, 1, rng, density=1.0), random_poly(R, 2, rng)])
    assert gorquad_gb_normalized(intersect(I, J)) == sympy_intersect_oracle(I, J)


def test_exact_divide_roundtrip():
    R = ring(GF7, 3)
    rng = random.Random(3)
    f = random_poly(R, 2, rng)
    g = random_poly(R, 3, rng)
    assert exact_divide(f * g, f) == g
    with pytest.raises(AlgebraError):
        exact_divide(R.parse("x1^2 + x2*x3"), R.parse("x1"))


def test_ideal_sum():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1"])
    J = Ideal.from_texts(R, ["x2"])
    assert set(map(str, ideal_sum(I, J).gens)) == {"x1", "x2"}


def test_random_linear_form_properties():
    R = ring(GF7, 4)
    rng = random.Random(9)
    for _ in range(10):
        L = random_linear_form(R, rng)
        assert not L.is_zero() and L.degree() == 1
    L = random_linear_form(R, rng, all_nonzero=True)
    d = {R.codec.exps(k): c for k, c in L.terms}
    assert len(d) == 4 and all(c != 0 for c in d.values())


def test_random_linear_form_is_deterministic():
    R = ring(GFBIG, 3)
    a = random_linear_form(R, random.Random(5))
    b = random_linear_form(R, random.Random(5))
    assert a == b


# Outside degrevlex, the elimination's degrevlex basis of a colon or an
# intersection is only a generating set; the attached basis must be the
# one the engine computes in the ring's own order. The second id is short so
# the case names differ within their first 100 characters.
@pytest.mark.parametrize("order", [elimination_order(1), elimination_order(2)],
                         ids=["block(elim=1)", "elim=2"])
@pytest.mark.parametrize("field", [GF7, Q], ids=["gf7", "q"])
@pytest.mark.parametrize("op", ["colon_form", "intersect", "colon_ideal"])
def test_colon_and_intersection_bases_follow_the_ring_order(order, field, op):
    R = ring(field, 3, order)
    I = Ideal.from_texts(R, ["x1^2 + x2*x3", "x3^2 + x1*x2"])
    f = R.parse("x1 + x3")
    if op == "colon_form":
        out = colon_form(I, f)
    elif op == "intersect":
        out = intersect(colon_form(I, f), Ideal.from_texts(R, ["x1*x2", "x3^2"]))
    else:
        out = colon_ideal(I, Ideal(R, [f, R.parse("x2^2")]))
    assert out.groebner().elements == Ideal(R, out.gens).groebner().elements


def test_colon_truncation_agrees_with_full():
    R = ring(GF7, 3)
    rng = random.Random(77)
    I = Ideal(R, [random_poly(R, 2, rng) for _ in range(3)])
    f = R.parse("x2")
    full = colon_form(I, f)
    cut = colon_form(I, f, truncate_at=3)
    for d in range(1, 4):
        assert hilbert_value(full, d) == hilbert_value(cut, d)


# sha256 of the printed reduced bases of colon_form(I, f), intersect(I, J)
# and colon_ideal(I, J) on seeded inputs in 4 variables: I is 4 quadrics
# (artinian) or 3, J a linear form and a quadric, f a quadric.
@pytest.mark.parametrize("field, artinian, truncate, want", [
    (GF7, True, None,
     ("26a49dfb27e85b717d4dec4b38f68386fd2ae07cb83723d98635c8b36523dd72",
      "c1a1a1c911b729be6de5bf6008be03c9d277791a0c2b2fa1a1a97d70831ebaf8",
      "430ba2d682132e5e49e7ace01706de7e4fa3509e3103d819c55f9f38fed10480")),
    (GF7, True, 3,
     ("26a49dfb27e85b717d4dec4b38f68386fd2ae07cb83723d98635c8b36523dd72",
      "6c0b1de3f45502d69aa25912992eb7d8dc02879428c06cbbae47ae028bd1c790",
      "b6e5a49aea3a8c1dbbc12e5ae0c00ae4ccbc7d43c4b3767ad914c0e208f994c5")),
    (GF7, False, None,
     ("18ff34a73994f00b7bdb766bef02acf041b477790f55e3f333a5e99c3663b9a2",
      "8c09412099641920c34adcc1c4fd43d4b9adc0a55f84e106939ce3990e8d09c4",
      "18ff34a73994f00b7bdb766bef02acf041b477790f55e3f333a5e99c3663b9a2")),
    (GF7, False, 3,
     ("45c129fe3beb6abdd08f90cb914cd1b7576ce9e8bb1fde9a1f91782c74751429",
      "efd62c7b356f65f5f3940da36d829d7a6a3c1a9976fda3f9526387afa3b24eb9",
      "45c129fe3beb6abdd08f90cb914cd1b7576ce9e8bb1fde9a1f91782c74751429")),
    (GFBIG, True, None,
     ("71374ebe9d634859f7c65ea074ec38a85103efc20f851dee4a08a1c5deefc076",
      "78216df5968dce428b51be51596ec36bf587f3062de089497eaf227ccca513cf",
      "65ab9658479b4ef0bb464f1abc92465ebeebcb57d8e0eda03c8e117d5ded9ad5")),
    (GFBIG, True, 3,
     ("71374ebe9d634859f7c65ea074ec38a85103efc20f851dee4a08a1c5deefc076",
      "ff6d1f6631925e9c6781fe74356cb207cad4877c88b69a1806774b44c9a7db9a",
      "4cc0c4834f23f35cb199108290f4cfbad516600b5337301a6a2b6661f39adac6")),
    (GFBIG, False, None,
     ("b56f4e3b074981062355501d5ade7ee0c0e675a9bc16acdbfe71188358839d05",
      "63c1a24230fbcf66732daf051456355ede36460ff550f21178c3aef6d37196e9",
      "b56f4e3b074981062355501d5ade7ee0c0e675a9bc16acdbfe71188358839d05")),
    (GFBIG, False, 3,
     ("bf9cca2b12ba32df33e1296e11e4576782b5c8057dff569c56773e83543f68c2",
      "74c0f61fd73c40bcb61e67e26fe94042af9bd269e682b0481487a13b25770ea5",
      "bf9cca2b12ba32df33e1296e11e4576782b5c8057dff569c56773e83543f68c2")),
    (Q, True, None,
     ("60449b5d4634cd01bd1e5ad582986b4f42f31a870a62ab122447e92c06201c6c",
      "74d24cbbcc5d57a2bdfd66094bc9ed2751978c53a20acd8b1d57faffe0e7a2ca",
      "57d724547dafb3cbe4269ea612609ff99369980433d8c072deed4dd83a8555ce")),
    (Q, True, 3,
     ("60449b5d4634cd01bd1e5ad582986b4f42f31a870a62ab122447e92c06201c6c",
      "5caca7110a9edde1881612da8dddc3073b7e402fde696d068e9050902c79308b",
      "a8a91ffd7322d7c9069cb563343b90bcf877fcc5e6b9c2d50d46a2eda454f967")),
    (Q, False, None,
     ("85aecbbc04d1f3eb2a990847513b401e34e7efec27fe86012d0b667479ba7573",
      "8dc01a73381ba728221b802d14120369d703d3ed57cf752e40b0950e32767d84",
      "85aecbbc04d1f3eb2a990847513b401e34e7efec27fe86012d0b667479ba7573")),
    (Q, False, 3,
     ("a84f8b42f436399736f379651e71beb3f9638d1cc143cc1521c766559436f24d",
      "fcf1d66424f1f6b9b032e3a889eabf2044be4e996920bca9187baeefbf9b970b",
      "a84f8b42f436399736f379651e71beb3f9638d1cc143cc1521c766559436f24d")),
], ids=[f"{field}-{kind}-{cut}" for field in ("gf7", "gf32003", "q")
         for kind in ("artinian", "not") for cut in ("full", "cut3")])
def test_colon_and_intersection_bases_are_pinned(field, artinian, truncate,
                                                 want):
    R = ring(field, 4)
    rng = random.Random(12)
    I = Ideal(R, [random_poly(R, 2, rng) for _ in range(4 if artinian else 3)])
    J = Ideal(R, [random_poly(R, 1, rng, density=1.0), random_poly(R, 2, rng)])
    f = random_poly(R, 2, rng)
    got = []
    for out in (colon_form(I, f, truncate_at=truncate),
                intersect(I, J, truncate_at=truncate),
                colon_ideal(I, J, truncate_at=truncate)):
        text = "\n".join(str(g) for g in out.gens)
        got.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(got) == want
