"""Hilbert functions, socle data, minimal generators, classification."""

import functools
import hashlib
import math
import random
import sys

import pytest

from gorquad import groebner, invariants
from gorquad.census import CensusConfig, records_to_csv, run_census
from gorquad.constructions import (apolar_ideal, double_link, link,
                                   nonunique_hf_pair,
                                   penultimate_socle_algebras, quadric_ci,
                                   random_dual_form, random_homogeneous,
                                   regular_sequence_in)
from gorquad.core import AlgebraError, GenericityError
from gorquad.groebner import Ideal
from gorquad.invariants import (HVector, annihilator, classify,
                                hilbert_function, hilbert_value,
                                ideal_degree_basis, is_artinian, is_gorenstein,
                                minimal_generator_counts, minimal_generators,
                                multiplication_rank, nonstandard_monomials,
                                presented_by_quadrics, socle_degree,
                                socle_type, standard_monomials)
from gorquad.orders import DEGREVLEX, elimination_order
from gorquad.poly import Polynomial, ring

from conftest import (GF2, GF7, GFBIG, Q, dense_rref_rank, engine_normal_form,
                      lead_scan_standard_monomials, oracle_annihilator,
                      oracle_build_level, oracle_minimal_generators,
                      oracle_socle_type, random_poly)

# -- HVector ----------------------------------------------------------------------


def test_hvector_basics():
    h = HVector((1, 3, 3, 1))
    assert h[1] == 3 and h[7] == 0 and h[-1] == 0
    assert h.socle_degree == 3
    assert h.embedding_dimension == 3
    assert h.total == 8
    assert h.is_symmetric()
    assert not HVector((1, 4, 2)).is_symmetric()
    assert str(h) == "(1,3,3,1)"
    assert HVector.parse("(1, 3, 3, 1)") == h
    with pytest.raises(ValueError):
        HVector.parse("1 3 3 1")


def test_hvector_strips_trailing_zeros():
    assert HVector((1, 2, 1, 0, 0)) == HVector((1, 2, 1))
    assert len(HVector((1, 2, 1, 0))) == 3


def test_hvector_product_is_tensor_convolution():
    a = HVector((1, 2, 1))
    b = HVector((1, 3, 1))
    assert a * b == HVector((1, 5, 8, 5, 1))
    assert a * HVector((1, 1)) == HVector((1, 3, 3, 1))


def test_macaulay_growth():
    assert HVector((1, 3, 6, 10)).is_osequence()
    assert HVector((1, 2, 3, 4)).is_osequence()
    assert not HVector((1, 2, 4)).is_osequence()  # growth 2 -> 4 impossible
    assert not HVector((2, 3)).is_osequence()  # must start at 1
    assert HVector((1, 5, 8, 5, 1)).is_osequence()


# -- Hilbert functions vs a convolution oracle ------------------------------------


def ci_hvector_oracle(degrees, nvars) -> tuple:
    """Coefficients of prod (1 + t + ... + t^(d-1)) over the quotient's
    generator degrees, padded with the free variables' factor removed:
    for a complete intersection x_i^{d_i} in exactly len(degrees) == nvars
    variables this is the full h-vector."""
    assert len(degrees) == nvars
    coeffs = [1]
    for d in degrees:
        block = [1] * d
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += a * b
        coeffs = out
    return tuple(coeffs)


@pytest.mark.parametrize("degrees", [(2, 2), (2, 3), (3, 3, 2), (2, 2, 2, 2)])
def test_monomial_ci_hilbert_function(degrees):
    R = ring(GF7, len(degrees))
    I = Ideal.from_texts(R, [f"x{i+1}^{d}" for i, d in enumerate(degrees)])
    assert tuple(hilbert_function(I)) == ci_hvector_oracle(degrees, R.nvars)


def test_zero_ideal_hilbert_values():
    R = ring(Q, 4)
    I = Ideal(R, [])
    for d in range(5):
        assert hilbert_value(I, d) == math.comb(4 + d - 1, d)
    assert not is_artinian(I)
    with pytest.raises(AlgebraError):
        hilbert_function(I)


def test_standard_monomials_partition_degree():
    R = ring(GF7, 3)
    I = Ideal.from_texts(R, ["x1^2 - x2*x3", "x2^2"])
    for d in range(5):
        std = standard_monomials(I, d)
        assert len(std) == hilbert_value(I, d)
        assert len(set(std)) == len(std)


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1)], ids=str)
def test_quotient_table_stops_at_the_packed_exponent_range(order):
    # one exponent byte holds at most 127: the table answers through degree
    # 127 and refuses degree 128 instead of listing wrapped-around keys
    R = ring(GF7, 2, order)
    I = Ideal.from_texts(R, ["x2^2"])
    std = standard_monomials(I, 127)
    assert sorted(R.codec.exps(m) for m in std) == [(126, 1), (127, 0)]
    with pytest.raises(AlgebraError, match="packed exponent range"):
        standard_monomials(I, 128)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_negative_degrees_have_an_empty_quotient(warm):
    """B_d = 0 for d < 0 on a fresh basis and on one whose table is built:
    a negative degree reads no level from the end of the table."""
    R = ring(GF7, 3)
    gb = Ideal(R, [v * v for v in R.variables()]).groebner()
    if warm:
        hilbert_function(gb)
    for d in (-1, -2):
        assert gb.standard_monomials(d) == ()
        assert not gb.standard_set(d)
        assert not gb.standard_multiples(d)
        assert standard_monomials(gb, d) == ()
        assert nonstandard_monomials(gb, d) == ()
        assert ideal_degree_basis(gb, d) == ()
        assert hilbert_value(gb, d) == 0
    # An Ideal reads no basis for a negative degree.
    I = Ideal(R, [v * v for v in R.variables()])
    for d in (-1, -2):
        assert standard_monomials(I, d) == ()
        assert hilbert_value(I, d) == 0
    assert not I._gb_cache


def test_the_table_refuses_degrees_past_the_truncation():
    """On a basis truncated at 2, every reader of the quotient table raises
    at degree 3, and so do normal_form and multiplication_rank."""
    R = ring(GF7, 3)
    x1 = R.variables()[0]
    gb = Ideal.from_texts(R, ["x1^2 + x2*x3", "x2^2", "x3^3"]).groebner(
        truncate_at=2)
    assert gb.truncated_at == 2
    m = (x1 ** 3).leading_key()
    readers = [lambda: gb.standard_monomials(3), lambda: gb.standard_set(3),
               lambda: gb.nf(m), lambda: gb.monomial_rows(3, x1.leading_key()),
               lambda: gb.product_rows(3, x1, ()),
               lambda: gb.standard_multiples(3),
               lambda: gb.normal_form(x1 ** 3),
               lambda: multiplication_rank(gb, x1, 3)]
    for read in readers:
        with pytest.raises(AlgebraError,
                           match="degree 3 is beyond the basis truncation 2"):
            read()


QUOTIENT_CASES = [
    (GF2, DEGREVLEX, 4, None), (GF7, DEGREVLEX, 4, None),
    (Q, DEGREVLEX, 3, None), (GF7, elimination_order(1), 3, None),
    (Q, elimination_order(2), 3, None), (GF2, elimination_order(3), 4, None),
    (GF7, elimination_order(1), 4, None),
    (Q, elimination_order(2), 4, None), (GF7, DEGREVLEX, 4, 3),
    (GF2, DEGREVLEX, 5, 4),
]


@pytest.mark.parametrize("field, order, n, truncate", QUOTIENT_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_quotient_table_matches_scan_and_normal_form(field, order, n,
                                                     truncate, seed):
    """standard_monomials against the leading-term scan, and the table
    normal forms of each monomial and of a random form against the engine's
    reducer, degree by degree (through the truncation for a truncated
    basis)."""
    R = ring(field, n, order)
    rng = random.Random(seed)
    gens = [random_poly(R, 2, rng) for _ in range(n - 1)]
    gens.append(R.variables()[seed % n] ** 3)
    gb = Ideal(R, gens).groebner(truncate_at=truncate)
    top = 5 if truncate is None else truncate
    for d in range(top + 1):
        assert standard_monomials(gb, d) == lead_scan_standard_monomials(gb, d)
        for m in R.monomials_of_degree(d):
            monomial = Polynomial(R, ((m, field.one),))
            want = engine_normal_form(gb, monomial)
            assert R.from_terms(gb.nf(m).items()) == want
            assert gb.normal_form(monomial) == want
        p = random_poly(R, d, rng)
        assert gb.normal_form(p) == engine_normal_form(gb, p)
        assert gb.contains(p) == engine_normal_form(gb, p).is_zero()
    if truncate is not None:
        with pytest.raises(AlgebraError):
            standard_monomials(gb, truncate + 1)


def _check_levels_against_the_oracle(gb, top):
    """Every level of gb's table through top equals the divisor-scan
    oracle's: the std tuple, the standard set (now with each monomial's
    support mask) and every NF row, keys in the same order: the level's own
    nf dict, taken before any reader can memoise a row into it, and then
    standard_monomials, standard_set and nf(b) as they read it."""
    gb = groebner.GroebnerBasis(gb.ring, gb.elements, gb.degree_cap,
                                gb.truncated_at)
    exps = gb.ring.codec.exps
    levels = []
    for d in range(top + 1):
        levels.append(oracle_build_level(gb, levels))
    for d, (std, std_set, nf) in enumerate(levels):
        want = [(b, list(row.items())) for b, row in nf.items()]
        assert ([(b, list(row.items())) for b, row in gb._level(d)[2].items()]
                == want)
        assert gb.standard_monomials(d) == std
        assert gb.standard_set(d) == {
            s: sum(1 << j for j, e in enumerate(exps(s)) if e) for s in std_set}
        assert [(b, list(gb.nf(b).items())) for b in nf] == want
    return levels


@pytest.mark.parametrize("field, order, n, truncate", QUOTIENT_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_quotient_levels_match_the_divisor_scan(field, order, n, truncate, seed):
    R = ring(field, n, order)
    rng = random.Random(seed)
    gens = [random_poly(R, 2, rng) for _ in range(n - 1)]
    gens.append(R.variables()[seed % n] ** 3)
    gb = Ideal(R, gens).groebner(truncate_at=truncate)
    _check_levels_against_the_oracle(gb, 5 if truncate is None else truncate)


@pytest.mark.parametrize("n, extra", [(8, 3), (9, 2)])
@pytest.mark.parametrize("seed", range(2))
def test_liaison_shaped_levels_match_the_divisor_scan(n, extra, seed):
    """The squares plus random quadrics over GF(32003): most nonstandard
    rows are empty, as in a liaison tower's covers."""
    R = ring(GFBIG, n)
    rng = random.Random(seed)
    gb = Ideal(R, [v * v for v in R.variables()]
               + [random_poly(R, 2, rng) for _ in range(extra)]).groebner()
    levels = _check_levels_against_the_oracle(
        gb, hilbert_function(gb).socle_degree + 1)
    rows = [row for _, _, nf in levels for row in nf.values()]
    assert sum(not row for row in rows) > len(rows) // 2
    assert not levels[-1][0]


@pytest.mark.parametrize("field, order, n, texts, truncate, top", [
    (GF7, DEGREVLEX, 4, ["x1^2", "x1*x2*x3", "x3^3", "x2^4"], None, 6),
    (Q, DEGREVLEX, 3, ["1"], None, 3),
    (Q, DEGREVLEX, 3, ["x1^2", "x1*x2"], None, 6),
    (GF7, DEGREVLEX, 4, ["x1^2 + x2*x3", "x2^2 - x3*x4", "x1*x3*x4 + x4^3",
                         "x2*x3^2 - x1*x4^2"], 3, 3),
    (GFBIG, elimination_order(1), 5, ["x1^2 + x3*x5", "x2^2 - 2*x4^2", "x3^2 + x1*x2",
                     "x4^2 + x5^2", "x5^2 + 3*x1*x4"], None, 6),
    (GFBIG, elimination_order(2), 5, ["x1^2 + x3*x5", "x2^2 - 2*x4^2",
                                      "x3^2 + x1*x2", "x4^2 + x5^2",
                                      "x5^2 + 3*x1*x4"], None, 6),
])
def test_special_levels_match_the_divisor_scan(field, order, n, texts,
                                               truncate, top):
    """A monomial ideal, the unit ideal, a non-artinian ideal, a basis
    truncated at a degree that has leading terms, and two block orders on
    an artinian quotient."""
    R = ring(field, n, order)
    gb = Ideal.from_texts(R, texts).groebner(truncate_at=truncate)
    if truncate is not None:
        assert truncate in gb.generator_degrees()
    _check_levels_against_the_oracle(gb, top)


def test_invariants_read_the_table_not_the_reducer(monkeypatch):
    R = ring(GF7, 4)
    rng = random.Random(3)
    gb = Ideal(R, [random_poly(R, 2, rng) for _ in range(4)]).groebner()
    x1 = R.variables()[0]

    def invariants(basis):
        return (hilbert_function(basis), socle_type(basis),
                annihilator(basis, [x1], 2), minimal_generators(basis),
                ideal_degree_basis(basis, 3))

    want = invariants(groebner.GroebnerBasis(R, gb.elements, gb.degree_cap))
    assert want[0] == HVector((1, 4, 6, 4, 1))

    def no_reduction(*args, **kwargs):
        raise AssertionError("an invariant called the Buchberger normal form")

    monkeypatch.setattr(groebner, "_nf", no_reduction)
    fresh = groebner.GroebnerBasis(R, gb.elements, gb.degree_cap)
    assert invariants(fresh) == want


def test_membership_and_linkage_read_the_table_not_the_reducer(monkeypatch):
    """With _nf failing for every caller but the engine's own two,
    membership, link and a census give their unpatched answers."""
    R = ring(GF7, 4)
    rng = random.Random(5)
    cover = tuple(v * v for v in R.variables())
    gens = cover + (random_poly(R, 2, rng),)
    probes = [random_poly(R, d, rng) for d in (1, 2, 2, 3)] + [
        R.zero, gens[-1], R.variables()[0] * gens[-1] + cover[1]]

    def answers():
        I = Ideal(R, gens)
        gb = I.groebner()
        membership = [(gb.normal_form(p), gb.contains(p), gb.reduces_to_zero(p),
                       I.contains(p)) for p in probes]
        linked = link(I, cover).groebner().elements
        records, summary = run_census(CensusConfig(field=GF2, r=4))
        return membership, linked, records_to_csv(summary.config, records)

    want = answers()
    assert {m[1] for m in want[0]} == {True, False}
    real = groebner._nf

    def engine_only(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller not in ("_compute_basis", "_reduce_basis"):
            raise AssertionError(f"{caller} called the Buchberger normal form")
        return real(*args)

    monkeypatch.setattr(groebner, "_nf", engine_only)
    assert answers() == want


def test_ideal_degree_basis_spans():
    R = ring(GF7, 2)
    I = Ideal.from_texts(R, ["x1^2 + x2^2"])
    basis = ideal_degree_basis(I, 3)
    assert len(basis) == 4 - hilbert_value(I, 3)
    gb = I.groebner()
    assert all(gb.reduces_to_zero(b) for b in basis)


# -- socle ------------------------------------------------------------------------


def test_socle_of_monomial_ci():
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"])
    assert socle_type(I) == (0, 0, 0, 1)
    assert is_gorenstein(I)
    assert socle_degree(I) == 3


def test_socle_of_square_of_maximal_ideal():
    R = ring(GF7, 4)
    I = Ideal(R, [R.parse(f"x{i}*x{j}") for i in range(1, 5)
                  for j in range(i, 5)])
    assert tuple(hilbert_function(I)) == (1, 4)
    assert socle_type(I) == (0, 4)
    assert not is_gorenstein(I)


def test_socle_over_gf2():
    R = ring(GF2, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2", "x1*x2"])
    assert socle_type(I) == socle_type(
        Ideal.from_texts(ring(GF7, 3), ["x1^2", "x2^2", "x3^2", "x1*x2"]))


def dense_socle_type(I: Ideal) -> tuple:
    """socle_d = h_d - rank of the stacked multiplication matrix
    [A]_d -> [A]_{d+1}^n, one dense row per standard monomial of degree d,
    built from public normal forms."""
    R = I.ring
    gb = I.groebner()
    out = []
    for d in range(socle_degree(I) + 1):
        target = standard_monomials(gb, d + 1)
        col = {k: i for i, k in enumerate(target)}
        rows = []
        for m in standard_monomials(gb, d):
            row = []
            for v in R.variables():
                block = [R.field.zero] * len(target)
                image = gb.normal_form(v * R.from_terms([(m, R.field.one)]))
                for k, c in image.terms:
                    block[col[k]] = c
                row.extend(block)
            rows.append(row)
        out.append(len(rows) - dense_rref_rank(rows, R.field))
    return tuple(out)


@pytest.mark.parametrize("field", [GF2, GF7, Q])
@pytest.mark.parametrize("seed", range(8))
def test_socle_type_matches_dense_oracle(field, seed):
    # variable powers make the quotient artinian; random forms shape it
    rng = random.Random(300 + seed)
    R = ring(field, rng.choice((2, 3, 4)))
    gens = [v ** rng.choice((2, 3)) for v in R.variables()]
    gens += [random_poly(R, rng.choice((2, 3)), rng, density=0.5)
             for _ in range(rng.choice((1, 2, 3)))]
    I = Ideal(R, [g for g in gens if not g.is_zero()])
    assert socle_type(I) == dense_socle_type(I)


# -- minimal generators -----------------------------------------------------------


def brute_force_generator_counts(I: Ideal) -> dict:
    """nu_d = dim I_d - dim (R_1 * I_{d-1})_d by dense ranks, independent of
    the package's normal-form shortcut."""
    R = I.ring
    gb = I.groebner()
    top = max((g.degree() for g in gb.elements), default=0)
    out = {}
    prev_basis = []
    for d in range(1, top + 1):
        mons = R.monomials_of_degree(d)
        col = {k: i for i, k in enumerate(mons)}

        def densify(p):
            row = [R.field.zero] * len(mons)
            for k, c in p.terms:
                row[col[k]] = c
            return row

        cur = [m_poly for m_poly in ideal_degree_basis(gb, d)]
        dim_full = dense_rref_rank([densify(p) for p in cur], R.field)
        grown = [v * p for p in prev_basis for v in R.variables()]
        dim_grown = dense_rref_rank([densify(p) for p in grown], R.field)
        if dim_full - dim_grown:
            out[d] = dim_full - dim_grown
        prev_basis = cur
    return out


@pytest.mark.parametrize("field", [GF7, GFBIG, Q])
def test_generator_counts_match_brute_force_fixed(field):
    R = ring(field, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"])
    counts = minimal_generator_counts(I)
    assert counts == {2: 3, 3: 1} == brute_force_generator_counts(I)


@pytest.mark.parametrize("seed", range(100))
def test_generator_counts_match_brute_force_random(seed):
    rng = random.Random(seed)
    nvars = rng.choice((2, 3, 4))
    field = rng.choice((GF2, GF7, GFBIG, Q))
    R = ring(field, nvars)
    gens = [random_poly(R, rng.choice((1, 2, 2, 3)), rng, density=0.6)
            for _ in range(rng.choice((1, 2, 3)))]
    I = Ideal(R, [g for g in gens if not g.is_zero()])  # may be the zero ideal
    assert minimal_generator_counts(I) == brute_force_generator_counts(I)


@pytest.mark.parametrize("order", [elimination_order(1), elimination_order(2)],
                         ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_generator_counts_match_brute_force_in_other_orders(order, seed):
    """The counts agree with dense ranks and with the degree tally of
    minimal_generators, which generate the ideal, outside degrevlex too."""
    rng = random.Random(200 + seed)
    R = ring((GF2, GF7, GFBIG, Q)[seed % 4], 3, order)
    gens = [random_poly(R, rng.choice((1, 2, 2, 3)), rng, density=0.6)
            for _ in range(rng.choice((1, 2, 3)))]
    gens.append(R.variables()[seed % 3] ** 3)
    I = Ideal(R, gens)
    counts = minimal_generator_counts(I)
    assert counts == brute_force_generator_counts(I)
    mingens = minimal_generators(I)
    tally = {}
    for g in mingens:
        tally[g.degree()] = tally.get(g.degree(), 0) + 1
    assert counts == tally
    assert Ideal(R, mingens).groebner().elements == I.groebner().elements


def _mingens_sha(*ideals) -> str:
    text = "\n".join(str(g) for I in ideals for g in minimal_generators(I))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the printed minimal generators of a seeded cubic's apolar ideal
# and of six seeded quadrics, in 5 variables; a change to which elements
# m - NF(m) are kept shows here.
@pytest.mark.parametrize("field, apolar_sha, quadrics_sha", [
    (GF2, "af08a1fcac29da37597033bc44fa808d4b049167330cc288e4059fb2e1239bdf",
     "f758ba894c6e02b8e76fac8cfc3dbbf5eebf40010a87b929dde24216c27e7219"),
    (GF7, "c94f978bd75bd44726f95be68581a7df2fd19dddf931a5ebe233957bb41301ef",
     "a05cef29ad9ae6cde0a22876e2a9aac9b26f19591f8bbd23bc13b226a0b5aca1"),
    (GFBIG, "1c24fbe0a2dceb71ec384364df6f0fd3db24c0986d09da25e921501111aa5523",
     "741bc7fb01b833e935156c28c60d0b96a50342014d2066f444264b761019a921"),
    (Q, "357d711cef649aae809351f942c573c1b38c3837b7437192e971fa5eb3340ba6",
     "84f5008a8438c704ae1e77c8493f6f19cd6b86842ebc178f8d3e7aefcae246e0"),
], ids=["gf2", "gf7", "gf32003", "q"])
def test_minimal_generators_are_pinned(field, apolar_sha, quadrics_sha):
    R = ring(field, 5)
    apolar = apolar_ideal(random_dual_form(R, 3, random.Random(4)))
    rng = random.Random(5)
    quadrics = Ideal(R, [random_homogeneous(R, 2, rng) for _ in range(6)])
    assert _mingens_sha(apolar) == apolar_sha
    assert _mingens_sha(quadrics) == quadrics_sha


def test_penultimate_socle_minimal_generators_are_pinned():
    assert _mingens_sha(*penultimate_socle_algebras(6)) == (
        "08bb837c8eccd77f58cfffd594bde0a134eec704d24721cfd6e093d29d1043c5")


@pytest.mark.parametrize("field", [GF7, GF2, Q])
def test_minimal_generators_generate(field):
    R = ring(field, 3)
    I = Ideal.from_texts(R, ["x1^2 + x2*x3", "x2^2", "x1^3"])
    gens = minimal_generators(I)
    counts = minimal_generator_counts(I)
    assert len(gens) == sum(counts.values())
    J = Ideal(R, gens)
    assert J.groebner().elements == I.groebner().elements


# -- minimal generators without unit rows: every row of R_1 * [I]_{d-1} is the
# oracle


def _fresh(gb):
    """A copy of gb with no cached table or invariant."""
    return groebner.GroebnerBasis(gb.ring, gb.elements, gb.degree_cap)


@functools.lru_cache(maxsize=3)
def _tower_outputs(r: int) -> tuple:
    """The outputs of the four tower jobs in r variables over GF(32003),
    built once for the tests that read them (r = 7, 8, 9)."""
    return (penultimate_socle_algebras(r, GFBIG)
            + nonunique_hf_pair(r, "alpha1", field=GFBIG)
            + nonunique_hf_pair(r, "alpha0", field=GFBIG, seed=r)
            + double_link(r, GFBIG))


@pytest.mark.parametrize("r", [7, 8, 9])
def test_minimal_generators_of_tower_outputs_match_the_oracle(r):
    for I in _tower_outputs(r):
        gb = I.groebner()
        assert minimal_generators(_fresh(gb)) == oracle_minimal_generators(
            _fresh(gb))


# -- multiplication ranks: h_d minus the annihilator's dimension is the oracle


@pytest.mark.parametrize("field", [Q, GF7, GFBIG])
def test_multiplication_rank_is_h_minus_the_annihilator(field):
    rng = random.Random(f"rank/{field}")
    for I in (Ideal(ring(field, 4), [v * v for v in ring(field, 4).variables()]),
              apolar_ideal(random_dual_form(ring(field, 4), 4, rng)),
              Ideal(ring(field, 3), [v ** 3 for v in ring(field, 3).variables()]
                    + [ring(field, 3).parse("x1*x2*x3")])):
        gb = I.groebner()
        h = hilbert_function(gb)
        for e in (1, 2, 3):
            g = random_homogeneous(gb.ring, e, rng)
            for d in range(h.socle_degree + 1):
                assert (multiplication_rank(gb, g, d)
                        == h[d] - len(annihilator(gb, [g], d)))
            assert multiplication_rank(gb, gb.elements[0] * g, 1) == 0


# -- the annihilator one generator at a time: the one left kernel of every
# generator's rows side by side is the oracle, vector for vector


def _annihilator_covers(field):
    """A squares cover, a random quadric complete intersection and squares
    perturbed by lower terms (their leading terms are the squares), all in
    four variables."""
    R = ring(field, 4)
    x1, x2, x3, x4 = R.variables()
    return (Ideal(R, [v * v for v in R.variables()]),
            quadric_ci(4, field, style="random", seed=5),
            Ideal(R, [x1 * x1 + x2 * x3, x2 * x2 + x3 * x4, x3 * x3,
                      x4 * x4 + x1 * x3]))


@pytest.mark.parametrize("field", [Q, GF7, GFBIG], ids=str)
def test_annihilator_matches_the_concatenated_oracle(field):
    rng = random.Random(f"annihilator/{field}")
    pick = random.Random(f"annihilator subsets/{field}")
    shrunk = restricted = 0
    for cover in _annihilator_covers(field):
        gb = cover.groebner()
        assert hilbert_function(gb) == HVector((1, 4, 6, 4, 1))
        R = gb.ring
        x1 = R.variables()[0]
        inside = [cover.gens[0], x1 * cover.gens[1]]
        lin, lin2 = (random_homogeneous(R, 1, rng) for _ in range(2))
        quad, cubic = (random_homogeneous(R, e, rng) for e in (2, 3))
        for gens in ([], [inside[0]], [inside[0], lin, quad],
                     [lin], [lin, quad, cubic], [quad, inside[1], lin2, cubic],
                     [lin, lin2, quad], list(R.variables())):
            for d in range(7):      # the socle degree is 4
                got = annihilator(gb, gens, d)
                assert got == oracle_annihilator(gb, gens, d), (gens, d)
                shrunk += len(gens) > 1 and len(got) < len(
                    annihilator(gb, gens[:1], d))
                # ascending subsets, as the census passes them: each vector
                # is 1 at its largest key, and those keys are distinct
                ascending = gb.standard_monomials(d)[::-1]
                for sub in (ascending, ascending[1::2],
                            [m for m in ascending if pick.random() < 0.5], []):
                    got = annihilator(gb, gens, d, sub)
                    assert got == oracle_annihilator(gb, gens, d, sub), (
                        gens, d, sub)
                    leads = [max(v) for v in got]
                    assert all(v[m] == 1 for v, m in zip(got, leads))
                    assert len(set(leads)) == len(leads)
                    restricted += len(gens) > 1 and 0 < len(got) < len(
                        annihilator(gb, gens[:1], d, sub))
    assert shrunk and restricted


# -- the socle from corner monomials: the annihilator of the variables is the
# oracle


def _quotient_with_socle(field, seed) -> Ideal:
    """A seeded artinian quotient, most often not Gorenstein."""
    rng = random.Random(500 + seed)
    R = ring(field, rng.choice((3, 4, 5)))
    gens = [v ** rng.choice((2, 3)) for v in R.variables()]
    gens += [random_poly(R, rng.choice((2, 3)), rng, density=0.4)
             for _ in range(rng.choice((1, 2, 3)))]
    return Ideal(R, gens)


def _corner_counts(gb) -> dict:
    """{d: the number of standard m of degree d with every x_j * m
    nonstandard}, for the degrees where there is one."""
    mul = gb.ring.codec.mul
    xs = [v.leading_key() for v in gb.ring.variables()]
    out = {}
    for d in range(socle_degree(gb) + 1):
        above = set(standard_monomials(gb, d + 1))
        n = sum(all(mul(v, m) not in above for v in xs)
                for m in standard_monomials(gb, d))
        if n:
            out[d] = n
    return out


@pytest.mark.parametrize("field", [GF2, GF7, GFBIG, Q], ids=str)
def test_socle_type_matches_the_annihilator_oracle(field):
    not_gorenstein = 0
    for seed in range(12):
        gb = _quotient_with_socle(field, seed).groebner()
        st = socle_type(_fresh(gb))
        assert st == oracle_socle_type(_fresh(gb))
        not_gorenstein += sum(st) > 1
    assert not_gorenstein >= 6


@pytest.mark.parametrize("r", [7, 8, 9])
def test_socle_type_of_tower_outputs_matches_the_oracle(r):
    for I in _tower_outputs(r):
        gb = I.groebner()
        assert socle_type(_fresh(gb)) == oracle_socle_type(_fresh(gb))
        if r == 9:      # the nine outputs have few corners, none below 4
            corners = _corner_counts(gb)
            assert min(corners) >= 4 and max(corners.values()) <= 14


def test_socle_type_runs_no_kernel_without_corners(monkeypatch):
    """socle_type echelons the corner rows once in each degree that has
    corners, and runs no left kernel."""
    cases = [_fresh(I.groebner()) for I in _tower_outputs(7)]
    cases += [_quotient_with_socle(GF7, seed).groebner() for seed in range(6)]
    want = [(oracle_socle_type(_fresh(gb)), list(_corner_counts(gb).values()))
            for gb in cases]
    rooms = []
    real = invariants.echelon

    def record(rows, field, room=None):
        rooms.append(room)
        return real(rows, field, room)

    def refuse(*args, **kwargs):
        raise AssertionError("socle_type ran a left kernel")

    monkeypatch.setattr(invariants, "echelon", record)
    monkeypatch.setattr(invariants, "left_kernel", refuse)
    for gb, (st, corners) in zip(cases, want):
        rooms.clear()
        assert socle_type(gb) == st
        assert rooms == corners


@pytest.mark.parametrize("field", [GF2, GF7, GFBIG, Q], ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_minimal_generators_of_quadric_ideals_match_the_oracle(field, n):
    for seed in range(4):
        rng = random.Random(60 + seed)
        R = ring(field, n)
        gens = [random_poly(R, 2, rng, 0.4) for _ in range(n + seed)]
        gens += [v ** 3 for v in R.variables()]    # artinian, some in I
        gb = Ideal(R, gens).groebner()
        assert minimal_generators(_fresh(gb)) == oracle_minimal_generators(
            _fresh(gb))


def test_presented_by_quadrics():
    R = ring(GF7, 3)
    assert presented_by_quadrics(Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"]))
    assert not presented_by_quadrics(
        Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2", "x1*x2*x3"]))
    assert not presented_by_quadrics(Ideal.from_texts(R, ["x1", "x2^2", "x3^2"]))


def test_quadric_count_complements_h2():
    # with no linear forms, nu_2 + h_2 fills all of degree 2
    rng = random.Random(11)
    R = ring(GFBIG, 4)
    for _ in range(5):
        I = Ideal(R, [random_poly(R, 2, rng) for _ in range(3)])
        nu = minimal_generator_counts(I)
        h2 = hilbert_value(I, 2)
        assert nu.get(2, 0) + h2 == math.comb(4 + 1, 2)


# -- classification ---------------------------------------------------------------


def test_classify_reports_golden_line():
    R = ring(GF7, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"])
    cls = classify(I)
    assert str(cls) == "(1,3,3,1) gorenstein presented_by_quadrics h2=3"
    assert cls.alpha == math.comb(3, 2) - 3
    assert not cls.had_linear_forms
    assert cls.socle_degree == 3 and cls.embedding_dimension == 3


def test_classify_without_socle():
    R = ring(GF7, 2)
    I = Ideal.from_texts(R, ["x1^2", "x2^2"])
    cls = classify(I, with_socle=False)
    assert cls.gorenstein is None and cls.socle_tuple is None
    assert "gorenstein" not in str(cls)


def test_classify_flags_linear_forms():
    R = ring(GF7, 3)
    cls = classify(Ideal.from_texts(R, ["x1", "x2^2", "x3^2"]))
    assert cls.had_linear_forms
    assert not cls.presented_by_quadrics


def test_quadric_regular_sequence_detection():
    R = ring(GFBIG, 3)
    ci = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"])
    seq = regular_sequence_in(ci, [2] * 3, random.Random(1))
    assert len(seq) == 3 and all(ci.contains(q) for q in seq)
    assert hilbert_function(Ideal(R, seq)) == HVector((1, 3, 3, 1))
    # too few independent quadrics: the span of two squares in 3 variables
    thin = Ideal.from_texts(R, ["x1^2", "x2^2"])
    with pytest.raises(GenericityError):
        regular_sequence_in(thin, [2] * 3, random.Random(1))


def test_gorenstein_detection_examples():
    R = ring(GF7, 2)
    assert is_gorenstein(Ideal.from_texts(R, ["x1^2", "x2^3"]))
    assert not is_gorenstein(Ideal.from_texts(R, ["x1^2", "x1*x2", "x2^3"]))
