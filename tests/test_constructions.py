"""Apolarity, tensor products, group-table cells, and liaison chains."""

import hashlib
import math
import random

import pytest

from gorquad.constructions import (LinkageError, apolar_ideal,
                                   complete_intersection_hvector, contract,
                                   double_link, embed_with_linear_gens,
                                   expected_group_hvector,
                                   expected_link_hvector, gorenstein_cut,
                                   group_table_algebra, link, link_by_squares,
                                   linkage_grow, nonunique_hf_pair,
                                   penultimate_socle_algebras, quadric_ci,
                                   random_dual_form, random_homogeneous,
                                   regular_sequence_in, squarefree_full_form,
                                   tensor_algebras)
from gorquad import constructions, invariants
from gorquad.census import colon_quotient
from gorquad.core import (CappedComputationError, FieldSpec, GenericityError,
                          RingMismatchError)
import gorquad.groebner as groebner_module
from gorquad.gin import check_wlp, gin
from gorquad.groebner import GroebnerBasis, Ideal, _compute_basis
from gorquad.idealops import colon_ideal, random_linear_form
from gorquad.invariants import (HVector, annihilator, classify,
                                hilbert_function, is_gorenstein,
                                minimal_generator_counts,
                                presented_by_quadrics, standard_monomials)
from gorquad.linalg import left_kernel
from gorquad.orders import DEGREVLEX, elimination_order
from gorquad.poly import Polynomial, RingCtx, ring
from gorquad.recipes import format_ideal

from conftest import GF2, GF7, GFBIG, Q, oracle_apolar_ideal, random_poly

# -- complete intersections --------------------------------------------------------


def convolve(*rows):
    out = [1]
    for row in rows:
        new = [0] * (len(out) + len(row) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(row):
                new[i + j] += a * b
        out = new
    return tuple(out)


@pytest.mark.parametrize("degrees", [(2,), (2, 2), (2, 3), (2, 2, 2, 2),
                                     (1, 2, 2, 2, 2), (3, 4)])
def test_expected_ci_hvector(degrees):
    blocks = [[1] * d for d in degrees]
    assert tuple(complete_intersection_hvector(degrees)) == convolve(*blocks)


def test_ci_hvector_special_values():
    assert complete_intersection_hvector([2, 2, 2, 2]) == HVector((1, 4, 6, 4, 1))
    assert complete_intersection_hvector([1, 2, 2, 2, 2]) == HVector((1, 4, 6, 4, 1))


@pytest.mark.parametrize("field", [Q, GF2, GFBIG])
def test_monomial_quadric_ci(field):
    I = quadric_ci(4, field)
    assert hilbert_function(I) == HVector((1, 4, 6, 4, 1))
    assert presented_by_quadrics(I)
    assert is_gorenstein(I)


def test_random_quadric_ci_matches_monomial_hf():
    I = quadric_ci(4, GF7, style="random", seed=42)
    assert hilbert_function(I) == HVector((1, 4, 6, 4, 1))
    J = quadric_ci(3, GFBIG, style="random", seed=0)
    assert hilbert_function(J) == HVector((1, 3, 3, 1))


def _certificate_cases():
    """(ideal, accepted) for the regular-sequence certificate, with ids."""
    for field in (GF7, GFBIG, Q):
        R = ring(field, 4)
        yield pytest.param(Ideal(R, [v * v for v in R.variables()]), True,
                           id=f"squares-{field}")
        for seed in range(2):
            yield pytest.param(quadric_ci(3, field, "random", seed=seed), True,
                               id=f"random-ci-{field}-{seed}")
    x = ring(GF7, 2).variables()
    # a linear form repeated up to a scalar: R/(x1, x2^2) is still the
    # complete intersection its degrees predict
    yield pytest.param(Ideal(x[0].ring, [x[0], 2 * x[0], x[1] ** 2]), True,
                       id="repeated-linear")
    y = ring(GF7, 3).variables()
    yield pytest.param(Ideal(y[0].ring, [y[0] ** 2, y[1] ** 2]), False,
                       id="too-few")
    yield pytest.param(Ideal(x[0].ring, [x[0] ** 2, x[0] * x[1], x[1] ** 2]),
                       False, id="all-quadrics")
    yield pytest.param(Ideal(y[0].ring, [y[0] * y[1], y[0] * y[2], y[2] ** 2]),
                       False, id="shared-factor")


@pytest.mark.parametrize("I, accepted", list(_certificate_cases()))
def test_regular_sequence_certificate(I, accepted):
    got = constructions._regular_sequence_hvector(I)
    if accepted:
        assert got == complete_intersection_hvector(
            [g.degree() for g in I.gens]) == hilbert_function(I)
    else:
        assert got is None


def test_quadric_ci_edge_cases():
    assert hilbert_function(quadric_ci(1, Q)) == HVector((1, 1))
    with pytest.raises(ValueError):
        quadric_ci(0, Q)
    with pytest.raises(ValueError):
        quadric_ci(3, Q, style="sparse")


# -- contraction / apolarity -------------------------------------------------------


def test_contract_is_exponent_subtraction():
    R = ring(Q, 3)
    F = R.parse("x1^2*x2")
    assert contract(R.parse("x1*x2"), F) == R.parse("x1")
    assert contract(R.parse("x3"), F).is_zero()
    assert contract(R.one, F) == F


def test_contract_composition_law():
    R = ring(GF7, 3)
    rng = random.Random(5)
    F = random_poly(R, 4, rng)
    p = random_poly(R, 1, rng)
    q = random_poly(R, 2, rng)
    assert contract(p, contract(q, F)) == contract(p * q, F)


def test_apolar_of_pure_power():
    R = ring(Q, 3)
    I = apolar_ideal(R.parse("x1^4"))
    assert hilbert_function(I) == HVector((1, 1, 1, 1, 1))
    gens = {str(g) for g in I.gens}
    assert "x2" in gens and "x3" in gens and "x1^5" in gens


def test_apolar_of_full_rank_quadric():
    R = ring(GFBIG, 5)
    I = apolar_ideal(R.parse("x1^2 + x2^2 + x3^2 + x4^2 + x5^2"))
    assert hilbert_function(I) == HVector((1, 5, 1))


def test_apolar_gorenstein_symmetry():
    R = ring(GFBIG, 3)
    rng = random.Random(12)
    F = random_dual_form(R, 3, rng)
    I = apolar_ideal(F)
    h = hilbert_function(I)
    assert h.is_symmetric() and is_gorenstein(I)
    assert h == HVector((1, 3, 3, 1))  # generic cubic in three variables


def test_apolar_rejects_zero():
    R = ring(Q, 2)
    with pytest.raises(ValueError):
        apolar_ideal(R.zero)


def test_squarefree_full_form():
    R = ring(Q, 4)
    F = squarefree_full_form(R, 2)
    assert len(F.terms) == math.comb(4, 2)
    assert hilbert_function(apolar_ideal(F)) == HVector((1, 4, 1))
    with pytest.raises(ValueError):
        squarefree_full_form(R, 5)
    with pytest.raises(ValueError):
        squarefree_full_form(R, 0)


def test_random_dual_form_over_gf2_depends_on_its_seed():
    R = ring(GF2, 5)
    forms = {random_dual_form(R, 3, random.Random(seed)) for seed in range(4)}
    assert len(forms) > 1
    # over odd p and Q the draw stays dense
    for field in (GF7, Q):
        F = random_dual_form(ring(field, 3), 3, random.Random(2))
        assert len(F.terms) == len(F.ring.monomials_of_degree(3))


# -- apolar ideals against the Groebner-basis construction -------------------------


def groebner_apolar_gens(F):
    """apolar_ideal's generators found with Groebner bases: a catalecticant
    kernel vector is kept when a basis of the lower-degree generators does
    not reduce it to zero, and the degree-(e+1) generators are the standard
    monomials of that basis."""
    R, codec, field = F.ring, F.ring.codec, F.ring.field
    e = F.degree()
    gens = []
    for d in range(1, e + 1):
        mons = R.monomials_of_degree(d)
        rows = [{codec.div(kf, m): cf for kf, cf in F.terms
                 if codec.divides(m, kf)} for m in mons]
        batch = [R.from_terms((mons[i], c) for i, c in v.items())
                 for v in left_kernel(rows, field)]
        if batch and gens:
            gb = Ideal(R, gens).groebner()
            batch = [p for p in batch if not gb.reduces_to_zero(p)]
        gens.extend(batch)
    if gens:
        extra = standard_monomials(Ideal(R, gens).groebner(), e + 1)
    else:
        extra = R.monomials_of_degree(e + 1)
    return Ideal(R, gens + [Polynomial(R, ((k, field.one),))
                            for k in extra]).gens


def _without_last_variable(F):
    codec, last = F.ring.codec, F.ring.nvars - 1
    return F.ring.from_terms((k, c) for k, c in F.terms
                             if codec.exps(k)[last] == 0)


def _seeded_dual_forms(field):
    for n in range(2, 7):
        for e in range(1, 5):
            if n + e > 8:
                continue
            rng = random.Random(100 * n + e)
            R = ring(field, n)
            yield random_homogeneous(R, e, rng)
            G = _without_last_variable(random_homogeneous(R, e, rng))
            if not G.is_zero():
                yield G                          # h_1 < n
            yield random_poly(R, e, rng, density=0.3)
    for n, d in ((3, 2), (4, 2), (4, 3), (5, 3), (6, 2), (6, 4)):
        yield squarefree_full_form(ring(field, n), d)


@pytest.mark.parametrize("field", [GF2, GF7, GFBIG, Q], ids=str)
def test_apolar_ideal_matches_groebner_construction(field):
    cases = 0
    for F in _seeded_dual_forms(field):
        if F.is_zero():
            continue
        assert apolar_ideal(F).gens == groebner_apolar_gens(F), str(F)
        cases += 1
    assert cases >= 40


@pytest.mark.parametrize("field", [GF2, GF7, Q], ids=str)
def test_apolar_ideal_computes_no_groebner_basis(field, monkeypatch):
    R = ring(field, 4)
    forms = [random_homogeneous(R, 3, random.Random(5)),
             _without_last_variable(random_homogeneous(R, 4, random.Random(6))),
             squarefree_full_form(R, 2)]
    want = [groebner_apolar_gens(F) for F in forms]

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    monkeypatch.setattr(groebner_module, "_compute_basis", refuse)
    assert [apolar_ideal(F).gens for F in forms] == want


# -- apolar ideals modulo the monomial part: the catalecticant oracle ---------------


def _oracle_forms(field):
    """Seeded dense and sparse forms in 1-5 variables of degree 1-4."""
    for n in range(1, 6):
        for e in range(1, 5):
            rng = random.Random(900 + 10 * n + e)
            R = ring(field, n)
            yield random_homogeneous(R, e, rng)
            for density in (0.4, 0.15):
                yield random_poly(R, e, rng, density=density)


def _agrees_with_the_oracle(F):
    I = apolar_ideal(F)
    gens, h = oracle_apolar_ideal(F)
    assert [str(g) for g in I.gens] == [str(g) for g in Ideal(F.ring, gens).gens]
    assert tuple(I._hilbert[d] for d in range(len(h) + 2)) == h + (0, 0)


@pytest.mark.parametrize("field", [GF2, GF7, GFBIG, Q], ids=str)
def test_apolar_ideal_matches_the_catalecticant_oracle(field):
    cases = 0
    for F in _oracle_forms(field):
        if not F.is_zero():
            _agrees_with_the_oracle(F)
            cases += 1
    assert cases >= 40


@pytest.mark.parametrize("n,d", [(5, 3), (6, 4), (7, 6), (8, 6)])
def test_apolar_ideal_of_squarefree_forms_matches_the_oracle(n, d):
    _agrees_with_the_oracle(squarefree_full_form(ring(GFBIG, n), d))


def test_apolar_ideal_lists_no_monomials_past_degree_one(monkeypatch):
    """Only the divisors of F's terms and their near-divisors are built."""
    real = RingCtx.monomials_of_degree

    def linear_only(self, d):
        if d >= 2:
            raise AssertionError(f"R_{d} was listed")
        return real(self, d)

    monkeypatch.setattr(RingCtx, "monomials_of_degree", linear_only)
    I = apolar_ideal(squarefree_full_form(ring(GFBIG, 10), 8))
    h = tuple(I._hilbert[d] for d in range(10))
    assert h == tuple(math.comb(10, min(d, 8 - d)) for d in range(9)) + (0,)


# -- tensor products ---------------------------------------------------------------


def test_tensor_hf_is_product():
    A = quadric_ci(2, GFBIG)                     # (1,2,1)
    B = apolar_ideal(ring(GFBIG, 3).parse("x1^2 + x2^2 + x3^2"))  # (1,3,1)
    T = tensor_algebras(A, B)
    assert hilbert_function(T) == HVector((1, 5, 8, 5, 1))
    assert hilbert_function(T) == hilbert_function(A) * hilbert_function(B)
    assert presented_by_quadrics(T)
    assert is_gorenstein(T)


def test_tensor_with_one_node():
    # A (x) k[x]/(x^2) has h-vector the running pairwise sums
    A = quadric_ci(3, GF7)                       # (1,3,3,1)
    node = quadric_ci(1, GF7)                    # (1,1)
    T = tensor_algebras(A, node)
    assert hilbert_function(T) == HVector((1, 4, 6, 4, 1))


def test_tensor_requires_same_field():
    with pytest.raises(Exception):
        tensor_algebras(quadric_ci(2, Q), quadric_ci(2, GF7))


# -- group table cells -------------------------------------------------------------


def test_group_cell_hvectors_small():
    for r in range(3, 7):
        for i in range(r - 1):
            h = expected_group_hvector(r, i)
            assert h[2] == math.comb(r, 2) - math.comb(i + 2, 2) + 1
            assert h.embedding_dimension == r
            assert h.is_symmetric()
            I = group_table_algebra(r, i, GFBIG)
            assert hilbert_function(I) == h
            assert presented_by_quadrics(I)
            assert is_gorenstein(I)


def _group_table_oracle(r, i, field):
    """group_table_algebra as written before it went through tensor_algebras:
    the block's generators extended by hand, then the other squares."""
    if i == 0:
        return quadric_ci(r, field, style="monomial")
    m = i + 2
    Rm = ring(field, m)
    F = Rm.zero
    for v in Rm.variables():
        F = F + v * v
    block = apolar_ideal(F)
    R = ring(field, r)
    ys = R.variables()
    gens = [p.extend(R, tuple(range(m))) for p in block.gens]
    gens += [ys[j] * ys[j] for j in range(m, r)]
    return Ideal(R, gens)


@pytest.mark.parametrize("field", [GFBIG, Q], ids=str)
@pytest.mark.parametrize("r", range(3, 8))
def test_group_table_algebra_matches_the_hand_built_generators(r, field):
    for i in range(r - 1):
        got = group_table_algebra(r, i, field)
        want = _group_table_oracle(r, i, field)
        assert got.ring == want.ring
        assert [p.terms for p in got.gens] == [p.terms for p in want.gens]


def test_group_cell_bounds():
    with pytest.raises(ValueError):
        group_table_algebra(4, 3, Q)  # i must stay <= r - 2
    with pytest.raises(ValueError):
        expected_group_hvector(2, 1)


def test_group_zero_is_full_ci():
    assert expected_group_hvector(5, 0) == complete_intersection_hvector([2] * 5)


def test_group_top_is_minimal_gorenstein():
    assert expected_group_hvector(6, 4) == HVector((1, 6, 1))


# -- linkage -----------------------------------------------------------------------


def test_expected_link_hvector_formula():
    # h(i) = h_cover(i) - h_inside(s - i)
    h = expected_link_hvector(HVector((1, 4, 6, 4, 1)), HVector((1, 2, 1)))
    assert h == HVector((1, 4, 5, 2))
    unit = expected_link_hvector(HVector((1, 2, 1)), HVector((1, 2, 1)))
    assert unit == HVector(())
    with pytest.raises(LinkageError):
        expected_link_hvector(HVector((1, 2, 1)), HVector((1, 3, 3, 1)))


def test_link_small_monomial_case():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2", "x1*x2", "x2^2"])  # h = (1,2)
    step = (R.parse("x1^2"), R.parse("x2^2"))
    J = link(I, step)
    assert hilbert_function(J) == expected_link_hvector(
        HVector((1, 2, 1)), HVector((1, 2)))
    # linking twice returns to the original ideal
    back = link(J, step)
    assert back.groebner().elements == I.groebner().elements


def test_link_rejects_forms_outside_ideal():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2", "x1*x2"])
    with pytest.raises(LinkageError):
        link(I, (R.parse("x1^2"), R.parse("x2^2")))


@pytest.mark.parametrize("cover", [("x2^2", "x2^2", "x3^2", "x1"),
                                   ("x1", "x1", "x2^2", "x3^2"),
                                   ("x1", "0", "x2^2", "x3^2")],
                         ids=["repeated-quadric", "repeated-linear", "zero"])
def test_link_refuses_a_repeated_or_zero_form(cover):
    """A listed sequence with a repeat or a zero is no regular sequence,
    although the ideal of its distinct nonzero forms is a complete
    intersection."""
    R = ring(GF7, 3)
    I = Ideal.from_texts(R, ["x1", "x2^2", "x3^2"])
    with pytest.raises(LinkageError, match="not a regular sequence"):
        link(I, tuple(R.parse(t) for t in cover))


def test_link_needs_forms_of_the_ideals_ring():
    R = ring(GF7, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2", "x1*x2"])
    with pytest.raises(LinkageError, match="at least one form"):
        link(I, ())
    S = ring(GF7, 4)
    with pytest.raises(RingMismatchError, match="the ideal's ring"):
        link(I, tuple(v * v for v in S.variables()))


def test_link_self_is_unit():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2", "x2^2"])
    J = link(I, tuple(I.gens))
    assert J.contains(R.one)


def test_link_by_squares_agrees_with_link():
    R = ring(Q, 3)
    squares = [R.parse("x1^2"), R.parse("x2^2"), R.parse("x3^2")]
    I = Ideal(R, squares + [R.parse("x1*x2 - x2*x3")])
    via_link = link(I, tuple(squares))
    via_dual = link_by_squares(I)
    assert via_link.groebner().elements == via_dual.groebner().elements
    with pytest.raises(LinkageError):
        link_by_squares(Ideal.from_texts(R, ["x1^2", "x2^2"]))


def _squares_plus(field, r, extra):
    R = ring(field, r)
    squares = [v * v for v in R.variables()]
    return Ideal(R, squares + [R.parse(t) for t in extra]), squares


def _random_cover_plus_quadric():
    cover = list(quadric_ci(4, GFBIG, style="random", seed=2).gens)
    R = cover[0].ring
    F = random_poly(R, 2, random.Random(5))
    return Ideal(R, cover + [F]), cover


def _double_link_first_step():
    r = 5
    R = ring(Q, r)
    xs = R.variables()
    seed = [xs[j] * xs[j] for j in range(r - 3)] + list(xs[r - 3:])
    cover = ([xs[r - 3]] + [xs[j] * xs[j] for j in range(r - 3)]
             + [xs[r - 2] * xs[r - 2], xs[r - 1] * xs[r - 1]])
    return Ideal(R, seed), cover


def _cubic_cover():
    R = ring(Q, 3)
    cover = [R.parse(t) for t in ("x1^2 + x2*x3", "x2^2 - x1*x3", "x3^3")]
    extra = [R.parse(t) for t in ("x1*x2 + 2*x3^2", "x1*x3^2")]
    return Ideal(R, cover + extra), cover


@pytest.mark.parametrize("build, squares", [
    (lambda: _squares_plus(GF2, 4, ["x1*x2 + x3*x4", "x1*x3*x4"]), True),
    (lambda: _squares_plus(GF7, 4, ["x1*x2 + 3*x3*x4 - x2*x4",
                                    "x1 + 2*x3"]), True),
    (lambda: _squares_plus(Q, 3, ["x1*x2 - x2*x3"]), True),
    (lambda: _squares_plus(Q, 4, ["x1*x2 + x3*x4", "x1*x3 - 2*x2*x4"]),
     True),
    (_random_cover_plus_quadric, False),
    (_double_link_first_step, False),
    (_cubic_cover, False),
], ids=["squares-gf2", "squares-gf7", "squares-q3", "squares-q4",
        "random-ci-gfbig", "double-link-first", "cubic-ci-q"])
def test_link_is_the_colon_out_of_its_cover(build, squares):
    # the elimination path in idealops is the independent oracle
    I, cover = build()
    oracle = colon_ideal(Ideal(I.ring, cover), I).groebner().elements
    assert link(I, tuple(cover)).groebner().elements == oracle
    if squares:
        assert link_by_squares(I).groebner().elements == oracle


def _sha_of_generators(ideals) -> str:
    text = "".join(format_ideal(I) for I in ideals)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the generator lists `gorquad construct` would write; the
# square-cover and growth steps return generators that are not canonical.
@pytest.mark.parametrize("build, want", [
    (lambda: linkage_grow(seed_131(), rounds=2),
     "36036930ac37f6e9ca448f75fba4caa6e612246872d3e96ca4fb486ccd2166e5"),
    (lambda: (link_by_squares(_squares_plus(Q, 3, ["x1*x2 - x2*x3"])[0]),),
     "838ec1cad32025cd84993423c874cc9d7206dcf949e8605b78b8492754502d4f"),
    (lambda: (link_by_squares(_squares_plus(
        GF7, 5, ["x1*x2 + 3*x3*x4 - x2*x5", "x1 + 2*x2 - x3 + 3*x4"])[0]),),
     "5d66fca0ca9edd8bccea8cc8832c78608096386cdcf7942d29241125f9e43e8c"),
    (lambda: penultimate_socle_algebras(6),
     "505487eb590482939b53879d1d30bf1af83aa80de1807587a0225ff367bc24ba"),
    (lambda: nonunique_hf_pair(7, "alpha0", seed=3),
     "a6b5fe6678bade54860fc8c757871942689612db756e17a0340ac622ba69314b"),
    (lambda: double_link(5),
     "d6f28dec7f3b6d5cd2804b13fc1d88e9c5db15602e71ad52eb3a4f3f8edc656d"),
], ids=["grow-131-2", "squares-q3", "squares-gf7-r5", "penultimate-6",
        "alpha0-7", "double-link-5"])
def test_construction_generators_are_pinned(build, want):
    assert _sha_of_generators(build()) == want


def test_double_link_realizes_binomial_formula():
    r = 5
    mid, final = double_link(r)
    expected = HVector(tuple(
        math.comb(r - 1, j) + (math.comb(r - 3, j - 1) if j else 0)
        for j in range(r)))
    assert hilbert_function(final) == expected == HVector((1, 5, 8, 5, 1))
    assert hilbert_function(mid) == HVector((1, 4, 5, 2))
    with pytest.raises(ValueError):
        double_link(4)


# -- liaison growth ----------------------------------------------------------------


def seed_131(field=GFBIG):
    """Annihilator of the full squarefree quadric in three variables: (1,3,1)."""
    return apolar_ideal(squarefree_full_form(ring(field, 3), 2))


def test_linkage_grow_one_round_stages():
    stages = linkage_grow(seed_131(), rounds=1)
    assert len(stages) == 2
    aci, gor = stages
    assert hilbert_function(aci) == HVector((1, 4, 5, 1))
    assert hilbert_function(gor) == HVector((1, 5, 9, 5, 1))
    assert is_gorenstein(gor)
    counts = minimal_generator_counts(gor)
    assert counts == {2: 6, 3: 2}  # a quadric-deficient cell with cubic generators
    assert counts.get(3, 0) >= 1


def test_linkage_grow_from_tiny_ci():
    stages = linkage_grow(quadric_ci(2, GFBIG), rounds=1, first_new_vars=2)
    assert [tuple(hilbert_function(s)) for s in stages] == [
        (1, 4, 5, 2), (1, 5, 8, 5, 1)]
    assert is_gorenstein(stages[-1])


def test_linkage_grow_needs_square_cover():
    R = ring(GFBIG, 2)
    I = Ideal.from_texts(R, ["x1^2", "x1*x2"])
    with pytest.raises(LinkageError):
        linkage_grow(I)
    with pytest.raises(ValueError):
        linkage_grow(quadric_ci(2, GFBIG), rounds=0)


# -- proven h-vectors and bases read with no engine run: the engine is the
# oracle


ORACLE_FIELDS = [GF7, GFBIG, Q]


def _stored_vector(I: Ideal, h: HVector) -> HVector:
    """I's stored h-vector read through two degrees past the socle degree
    of h."""
    return HVector(tuple(I._hilbert[d] for d in range(len(h) + 2)))


def _check_stored(I: Ideal):
    """I's stored h-vector is the engine's Hilbert function, and its basis is
    the engine's, element for element."""
    plain = _compute_basis(I.ring, I.gens, None)
    h = hilbert_function(plain)
    assert isinstance(I._hilbert, HVector) and _stored_vector(I, h) == h
    assert I.groebner().elements == plain.elements


def _check_colon(I: Ideal):
    """A colon's basis is read off its cover's table: no engine run made it,
    its elements are the engine's, and its stored h-vector is the engine's."""
    plain = _compute_basis(I.ring, I.gens, None)
    assert I.groebner().stats is None
    assert I.groebner().elements == plain.elements
    h = hilbert_function(plain)
    assert _stored_vector(I, h) == h


@pytest.fixture
def colons(monkeypatch):
    """Every ideal _colon_out_of returns while the test runs."""
    seen = []
    real = constructions._colon_out_of

    def record(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(constructions, "_colon_out_of", record)
    return seen


def _no_engine(monkeypatch):
    """Make every engine run through Ideal.groebner fail the test."""
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(groebner_module, "_compute_basis", no_engine)


@pytest.mark.parametrize("field", [GF2] + ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_hinted_apolar_ideals_match_the_unhinted_engine(field, seed,
                                                        monkeypatch):
    """An apolar ideal's basis, read off its dual form by the FGLM walk with
    no engine run, is the engine's on its generators, element for element,
    in full and truncated at every degree; its stored h-vector is the
    engine's.  Dense and sparse forms."""
    rng = random.Random(700 + seed)
    forms = []
    for n, e in ((3, 2), (3, 4), (4, 3), (5, 2), (5, 3), (4, 4)):
        R = ring(field, n)
        forms.append(random_dual_form(R, e, rng))
        sparse = random_poly(R, e, rng, density=0.3)
        if not sparse.is_zero():
            forms.append(sparse)
    ideals = [apolar_ideal(F) for F in forms]
    _no_engine(monkeypatch)
    for I in ideals:
        for top in range(I._dual_form.degree() + 2):
            cut = I.groebner(truncate_at=top)
            assert cut.stats is None
            assert cut.elements == _compute_basis(I.ring, I.gens, top).elements
        assert I.groebner().stats is None
        _check_stored(I)
    assert any(len(g.terms) > 1 for I in ideals for g in I.groebner())


@pytest.mark.parametrize("order", [elimination_order(1), elimination_order(2)],
                         ids=str)
@pytest.mark.parametrize("field", [GF2, GFBIG, Q], ids=str)
def test_apolar_bases_in_block_orders_match_the_engine(order, field):
    """The walk keys b o F and its tags in the degrevlex codec, so in a
    block order it converts the ring's keys both ways."""
    rng = random.Random(760)
    for e in (2, 3, 4):
        I = apolar_ideal(random_dual_form(ring(field, 4, order), e, rng))
        assert I.groebner().stats is None
        assert I.groebner().elements == _compute_basis(I.ring, I.gens,
                                                       None).elements


@pytest.mark.parametrize("cap, raises", [(2, True), (4, True), (5, False)])
def test_apolar_bases_past_the_degree_cap_take_the_engine(monkeypatch, cap,
                                                          raises):
    """When two of an apolar ideal's generators have degrees summing past
    the degree cap, the engine computes the basis, and raises as it would.
    Here they have degrees 2, 2, 2, 3 and 3."""
    F = ring(GF7, 3).parse("x1^2*x2 + x3^3")
    assert sorted(g.degree() for g in apolar_ideal(F).gens) == [2, 2, 2, 3, 3]
    want = apolar_ideal(F).groebner().elements
    monkeypatch.setattr(groebner_module, "DEFAULT_DEGREE_CAP", cap)
    I = apolar_ideal(F)
    try:
        plain = _compute_basis(I.ring, I.gens, None)
    except CappedComputationError as exc:
        assert raises
        with pytest.raises(CappedComputationError) as caught:
            I.groebner()
        assert (caught.value.cap, caught.value.degree) == (exc.cap, exc.degree)
    else:
        assert not raises
        gb = I.groebner()
        assert gb.stats is not None
        assert gb.elements == plain.elements == want


def _capped(build):
    """build()'s reduced basis, or the cap and degree it raised at."""
    try:
        return build().elements
    except CappedComputationError as exc:
        return (exc.cap, exc.degree)


@pytest.mark.parametrize("kind", ["apolar", "colon", "pairless"])
def test_known_bases_under_low_caps_match_the_engine(monkeypatch, kind):
    """Under every cap 1..8 a basis read with no engine run equals the
    engine's, or both raise at the same cap and degree.  The apolar ideal
    has generators of degree 2 only but basis elements of degree 3, so a
    cap that bounds only the inputs would let it through at cap 4.  The
    colon is read off a cover whose basis is built at the default cap."""
    R = ring(GF7, 4)
    if kind == "apolar":
        F = random_dual_form(ring(GF7, 3), 3, random.Random(5))
        build = lambda: apolar_ideal(F)
    elif kind == "colon":
        cover = Ideal(R, [v * v for v in R.variables()])
        f = R.parse("x1*x2 + 3*x3*x4 - x2*x4")
        expected = hilbert_function(link_by_squares(
            Ideal(R, cover.gens + (f,))))
        cover.groebner()
        build = lambda: constructions._colon_out_of(cover, [f], expected)
    else:
        texts = ["x1^2 + x2*x3", "x2^3 - x3*x4^2", "x3^3", "x4^4"]
        build = lambda: Ideal.from_texts(R, texts)
    for cap in range(1, 9):
        monkeypatch.setattr(groebner_module, "DEFAULT_DEGREE_CAP", cap)
        I = build()
        assert _capped(I.groebner) == _capped(
            lambda: _compute_basis(I.ring, I.gens, None)), cap
    assert I.groebner().stats is None       # cap 8 reads the known basis


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_hinted_links_match_the_unhinted_engine(field, seed, colons):
    rng = random.Random(800 + seed)
    R = ring(field, 4)
    squares = [v * v for v in R.variables()]
    I = Ideal(R, squares + [random_homogeneous(R, 2, rng),
                            random_homogeneous(R, 3, rng)])
    link_by_squares(I)
    G = apolar_ideal(random_dual_form(ring(field, 4), 3, rng))
    linked = link(G, regular_sequence_in(G, [2] * 4, rng))
    assert len(colons) == 2
    assert linked.groebner() is colons[-1].groebner()
    for colon in colons:
        _check_colon(colon)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_hinted_growth_and_double_links_match_the_unhinted_engine(field,
                                                                  colons):
    aci, gor = linkage_grow(seed_131(field), rounds=1)
    _check_stored(aci)
    assert colons == [gor]
    double_link(5, field)
    assert len(colons) == 3
    for colon in colons:
        _check_colon(colon)


@pytest.mark.parametrize("wrong", [
    lambda h: HVector(h.values[:-1]),
    lambda h: HVector(h.values + (1,)),
    lambda h: HVector((1, h[1] + 1) + h.values[2:]),
    lambda h: HVector((1, h[1], h[2] - 1) + h.values[3:]),
], ids=["shorter", "longer", "bigger-h1", "smaller-h2"])
def test_a_wrong_prediction_still_raises(wrong):
    R = ring(GF7, 4)
    squares = [v * v for v in R.variables()]
    I = Ideal(R, squares + [R.parse("x1*x2 + 3*x3*x4 - x2*x4")])
    cover = Ideal(R, squares)
    right = expected_link_hvector(hilbert_function(cover), hilbert_function(I))
    assert hilbert_function(
        constructions._colon_out_of(cover, I.gens, right)) == right
    with pytest.raises(LinkageError, match="does not match the predicted"):
        constructions._colon_out_of(cover, I.gens, wrong(right))


# -- h(cover + f) from the cover's quotient table: the engine is the
# oracle


def _oracle_cases(field, seed):
    """(cover, f, paired) on seeded inputs: squares and random quadric
    complete intersections with forms f of degree 1 to 3, f inside the
    cover, and a cover that is no complete intersection."""
    rng = random.Random(1300 + seed)
    R = ring(field, 4)
    squares = Ideal(R, [v * v for v in R.variables()])
    random_ci = quadric_ci(3, field, "random", seed=seed)
    for cover in (squares, random_ci):
        for e in (1, 2, 3):
            yield cover, random_homogeneous(cover.ring, e, rng), True
        inside = cover.gens[0] * random_homogeneous(cover.ring, 1, rng)
        yield cover, inside, True
    x = R.variables()
    crowded = Ideal(R, [v * v for v in x] + [x[0] * x[1]])
    for e in (1, 2):
        yield crowded, random_homogeneous(R, e, rng), False


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_hvector_with_form_is_the_engine_hvector(field, seed, monkeypatch):
    ranks = []
    real = constructions.multiplication_rank

    def counted(*args):
        ranks.append(args[2])
        return real(*args)

    monkeypatch.setattr(constructions, "multiplication_rank", counted)
    for cover, f, paired in _oracle_cases(field, seed):
        ranks.clear()
        got = constructions._hvector_with_form(cover, f)
        want = hilbert_function(Ideal(cover.ring, cover.gens + (f,)))
        assert got == want
        s, e = hilbert_function(cover).socle_degree, f.degree()
        # a complete-intersection cover computes the lower half of the
        # ranks only, any other cover every degree
        top = (s - e) // 2 if paired else s - e
        assert ranks == list(range(top + 1))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_a_repeated_linear_cover_pairs_its_ranks(field, monkeypatch):
    """A cover that lists a linear form twice, up to a scalar, passes the
    certificate with more forms than variables: B is the complete
    intersection of the squares in the other variables, so only the lower
    half of the ranks is computed, and h still matches the engine's."""
    ranks = []
    real = constructions.multiplication_rank
    monkeypatch.setattr(constructions, "multiplication_rank",
                        lambda *args: ranks.append(args[2]) or real(*args))
    x = ring(field, 4).variables()
    cover = Ideal(x[0].ring, [x[0], 3 * x[0]] + [v * v for v in x[1:]])
    rng = random.Random(77)
    for e in (1, 2):
        f = random_homogeneous(cover.ring, e, rng)
        ranks.clear()
        got = constructions._hvector_with_form(cover, f)
        assert got == hilbert_function(Ideal(cover.ring, cover.gens + (f,)))
        assert ranks == list(range((3 - e) // 2 + 1))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_tower_residuals_carry_their_engine_hvector(field, colons):
    stages = linkage_grow(quadric_ci(2, field), rounds=2, first_new_vars=2)
    assert [tuple(hilbert_function(s)) for s in stages] == [
        (1, 4, 5, 2), (1, 5, 8, 5, 1), (1, 6, 14, 15, 7, 1),
        (1, 7, 20, 28, 20, 7, 1)]
    for aci in stages[::2]:
        _check_stored(aci)
    for colon in colons:
        _check_colon(colon)


@pytest.mark.parametrize("wrong", [
    lambda h: HVector(h.values[:-1]),
    lambda h: HVector(h.values + (1,)),
    lambda h: HVector((1, h[1], h[2] - 1) + h.values[3:]),
], ids=["shorter", "longer", "smaller-h2"])
def test_a_wrong_residual_prediction_still_raises(wrong, monkeypatch):
    G = seed_131()
    cover = [v * v for v in G.ring.variables()]
    constructions._residual_almost_ci(G, cover, 1)     # the right prediction
    real = constructions._embedding

    def perturbed(I, new_count):
        R, vmap, expected = real(I, new_count)
        return R, vmap, wrong(expected)

    monkeypatch.setattr(constructions, "_embedding", perturbed)
    with pytest.raises(LinkageError, match="residual h-vector"):
        constructions._residual_almost_ci(G, cover, 1)


@pytest.mark.parametrize("cover", [("x1^2", "x1^2", "x3^2"),
                                   ("x1^2", "x2^2", "x1^2 + x2^2")],
                         ids=["repeated", "dependent"])
def test_the_gorenstein_residual_checks_its_cover(cover):
    """The Gorenstein half of a growth round links through _link: with the
    squares it gives the linked vector, and a cover that is no regular
    sequence raises LinkageError rather than a quotient that is not
    artinian."""
    R = ring(GFBIG, 3)
    squares = [v * v for v in R.variables()]
    extra = R.parse("x1*x2 + x2*x3")
    J = Ideal(R, squares + [extra])
    G, _ = constructions._residual_gorenstein(J, squares, extra)
    assert hilbert_function(G) == HVector((1, 4, 4, 1))
    bad = [R.parse(t) for t in cover]
    with pytest.raises(LinkageError, match="not a regular sequence"):
        constructions._residual_gorenstein(J, bad, extra)


def test_link_takes_the_cover_as_an_ideal(monkeypatch):
    """link(I, C) for an Ideal C is link(I, C.gens), and it uses C with its
    basis: every cover it certifies is C, and no second cover basis is
    built."""
    R = ring(GF7, 3)
    C = Ideal(R, [v * v for v in R.variables()])
    I = Ideal(R, list(C.gens) + [R.parse("x1*x2 + 2*x2*x3")])
    basis = C.groebner()
    expected = link(I, C.gens).gens
    certified = []
    real = constructions._regular_sequence_hvector

    def record(J):
        certified.append(J)
        return real(J)

    monkeypatch.setattr(constructions, "_regular_sequence_hvector", record)
    assert link(I, C).gens == expected
    assert certified and all(J is C for J in certified)
    assert C.groebner() is basis


def test_the_tower_jobs_reduce_no_pair(monkeypatch):
    """The tower jobs of the liaison benchmark, each output classified with
    its socle, run no engine: the covers' leading terms are pairwise
    coprime, the colons are read off their covers' tables, and the apolar
    seeds' bases are read off their dual forms."""
    _no_engine(monkeypatch)
    for outputs in (penultimate_socle_algebras(7, GFBIG),
                    nonunique_hf_pair(7, "alpha1", field=GFBIG),
                    nonunique_hf_pair(7, "alpha0", field=GFBIG, seed=3),
                    double_link(7, GFBIG)):
        for I in outputs:
            classify(I, with_socle=True)


def test_the_gin_job_runs_no_engine(monkeypatch):
    """The gin job of the liaison benchmark on a seeded random quadric
    complete intersection in 7 variables: its basis is built with it, the
    coordinate changes are read off its quotient table, and check_wlp reads
    the same table, so neither call runs the engine."""
    I = quadric_ci(7, GFBIG, style="random", seed=3)

    def no_engine(*args, **kwargs):
        raise AssertionError("the gin job ran the engine")

    monkeypatch.setattr(groebner_module, "_compute_basis", no_engine)
    res = gin(I, seed=5)
    assert res.attempts_agreed == 3
    assert check_wlp(I).has_wlp


# -- colon bases from the cover's quotient table: the engine is the
# oracle


def _seeded_colons(field, order, seed):
    """link_by_squares, link by a regular sequence in an apolar ideal, and a
    census colon, on seeded inputs in four variables."""
    rng = random.Random(1100 + seed)
    R = ring(field, 4, order)
    squares = [v * v for v in R.variables()]
    link_by_squares(Ideal(R, squares + [random_homogeneous(R, 2, rng),
                                        random_homogeneous(R, 3, rng)]))
    G = apolar_ideal(random_dual_form(R, 3, rng))
    link(G, regular_sequence_in(G, [2] * 4, rng))
    colon_quotient(Ideal(R, squares), random_homogeneous(R, 2, rng))


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1)], ids=str)
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(2))
def test_colon_bases_from_the_table_match_the_engine(order, field, seed,
                                                     colons):
    _seeded_colons(field, order, seed)
    assert len(colons) == 3
    for colon in colons:
        _check_colon(colon)
    assert any(len(g.terms) > 1 for g in colons[1].groebner())


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_cover_members_leave_the_annihilator_unchanged(field, seed):
    """Dropping the gens inside the cover drops empty columns only."""
    rng = random.Random(1200 + seed)
    R = ring(field, 4)
    x1, x2 = R.variables()[:2]
    squares = [v * v for v in R.variables()]
    for cover in (Ideal(R, squares),
                  quadric_ci(4, field, style="random", seed=seed)):
        gb = cover.groebner()
        inside = [cover.gens[0], x1 * cover.gens[1] + x2 * cover.gens[2]]
        outside = [random_homogeneous(R, 2, rng), random_homogeneous(R, 3, rng)]
        for gens in ([inside[0], outside[0], inside[1], outside[1]],
                     [inside[0], outside[0], inside[1]], inside):
            kept = [g for g in gens if not gb.contains(g)]
            assert len(kept) == len(gens) - 2
            for d in range(5):
                assert annihilator(gb, gens, d) == annihilator(gb, kept, d)


def _record_engine_inputs(monkeypatch) -> list:
    """The generators of every _compute_basis run while the test runs, as
    tuples of terms."""
    inputs = []
    real = groebner_module._compute_basis

    def record(ring_, polys, *args, **kwargs):
        inputs.append(tuple(p.terms for p in polys))
        return real(ring_, polys, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "_compute_basis", record)
    return inputs


def test_liaison_runs_no_engine_on_a_colon(monkeypatch, colons):
    inputs = _record_engine_inputs(monkeypatch)
    R = ring(GF7, 4)
    squares = [v * v for v in R.variables()]
    I = Ideal(R, squares + [random_homogeneous(R, 2, random.Random(12))])
    results = [link_by_squares(I), link(I, tuple(squares))]
    results += linkage_grow(seed_131(GF7), rounds=2)
    results += double_link(5, GF7)
    for J in results:
        classify(J)
    assert len(colons) == 6 and inputs
    for colon in colons:
        assert tuple(g.terms for g in colon.gens) not in inputs


def test_an_apolar_hvector_is_the_stored_one():
    I = apolar_ideal(squarefree_full_form(ring(GFBIG, 5), 3))
    h = hilbert_function(I)
    assert h is I._hilbert and isinstance(h, HVector)
    assert h == HVector((1, 5, 5, 1))
    assert not I._gb_cache


def test_penultimate_seeds_build_no_basis(monkeypatch):
    """An apolar seed's h-vector is its stored one, and its squares are
    among its generators, so linkage_grow asks it for no basis."""
    seeds = [apolar_ideal(squarefree_full_form(ring(GFBIG, 6 - beta), 3))
             for beta in (1, 2, 3)]
    assert [tuple(hilbert_function(G)) for G in seeds] == [
        (1, 5, 5, 1), (1, 4, 4, 1), (1, 3, 3, 1)]
    assert not any(G._gb_cache for G in seeds)
    inputs = _record_engine_inputs(monkeypatch)
    penultimate_socle_algebras(6, GFBIG)
    for G in seeds:
        assert tuple(g.terms for g in G.gens) not in inputs


@pytest.mark.parametrize("cap, raises", [(2, True), (3, False), (5, False)])
def test_colons_past_the_degree_cap_take_the_engine(monkeypatch, cap, raises):
    R = ring(GF7, 4)
    squares = [v * v for v in R.variables()]
    I = Ideal(R, squares + [R.parse("x1*x2 + 3*x3*x4 - x2*x4")])
    want = link_by_squares(I).groebner().elements
    monkeypatch.setattr(groebner_module, "DEFAULT_DEGREE_CAP", cap)
    colon = link_by_squares(I)
    try:
        plain = _compute_basis(R, colon.gens, None)
    except CappedComputationError as exc:
        assert raises
        with pytest.raises(CappedComputationError) as caught:
            colon.groebner()
        assert (caught.value.cap, caught.value.degree) == (exc.cap, exc.degree)
    else:
        assert not raises
        gb = colon.groebner()
        assert gb.stats is not None
        assert gb.elements == plain.elements == want


def test_penultimate_socle_family():
    algebras = penultimate_socle_algebras(5)
    hs = [hilbert_function(a) for a in algebras]
    assert [h[2] for h in hs] == [10, 9, 8]
    for h in hs:
        assert h.socle_degree == 4 and h.embedding_dimension == 5
    for a in algebras:
        assert is_gorenstein(a)
    with pytest.raises(ValueError):
        penultimate_socle_algebras(4)
    with pytest.raises(ValueError):
        penultimate_socle_algebras(5, FieldSpec.prime(2))


# -- matched-border pairs ----------------------------------------------------------


def test_alpha1_pair_r7():
    A, B = nonunique_hf_pair(7, target="alpha1")
    hA, hB = hilbert_function(A), hilbert_function(B)
    assert hA == HVector((1, 7, 20, 28, 20, 7, 1))
    assert hB == HVector((1, 7, 20, 29, 20, 7, 1))
    assert (hA[0], hA[1], hA[2]) == (hB[0], hB[1], hB[2])
    assert is_gorenstein(A) and is_gorenstein(B)


def test_alpha1_needs_odd_characteristic_and_size():
    with pytest.raises(ValueError):
        nonunique_hf_pair(6, target="alpha1")
    with pytest.raises(ValueError):
        nonunique_hf_pair(7, target="alpha1", field=FieldSpec.prime(2))
    with pytest.raises(ValueError):
        nonunique_hf_pair(7, target="colon")


def test_a_wrong_empty_prediction_still_raises():
    """A degree that the prediction leaves empty gets a rank certificate,
    and a rank short of |std_d| falls through to the kernel.  Here x1 kills
    x1 in B_1 = R_1 over the squares, so h_1 = 3, and a prediction of 4
    there must raise."""
    R = ring(GF7, 4)
    x1 = R.variables()[0]
    cover = Ideal(R, [v * v for v in R.variables()])
    right = expected_link_hvector(HVector((1, 4, 6, 4, 1)),
                                  HVector((1, 3, 3, 1)))
    assert right == HVector((1, 3, 3, 1))
    colon = constructions._colon_out_of(cover, [x1], right)
    assert hilbert_function(colon) == right
    for gens in ([x1], [x1, x1 * x1]):
        with pytest.raises(LinkageError):
            constructions._colon_out_of(cover, gens, HVector((1, 4, 3, 1)))


def _record_alpha0_build(monkeypatch):
    """One warm alpha0 build over GF(32003) with its annihilators, rank
    certificates and multiplication-rank echelons recorded: returns the
    (basis, forms, degree) of each annihilator and of each degree that a
    full multiplication_rank proves empty, and the (basis, form, degree)
    of each echelon of a form's rows."""
    nonunique_hf_pair(7, "alpha0", field=GFBIG, seed=2)
    seen = {"kernels": [], "dims": [], "empty": [], "echelons": []}
    real_ann = constructions.annihilator
    real_rank = constructions.multiplication_rank
    real_rows, real_echelon = GroebnerBasis.product_rows, invariants.echelon
    rows_of = {}

    def key(gb, gens, d):
        return id(gb), tuple(g.terms for g in gens), d

    def ann(gb, gens, d):
        out = real_ann(gb, gens, d)
        seen["kernels"].append(key(gb, gens, d))
        seen["dims"].append(len(out))
        return out

    def rank(gb, g, d):
        out = real_rank(gb, g, d)
        if out == len(gb.standard_monomials(d)):
            seen["empty"].append(key(gb, [g], d))
        return out

    def rows(gb, d, g, monomials):
        out = real_rows(gb, d, g, monomials)
        rows_of[id(out)] = (out, (id(gb), g.terms, d))   # keeps the id alive
        return out

    def echelon(rows_, field, room=None):
        if id(rows_) in rows_of:
            seen["echelons"].append(rows_of[id(rows_)][1])
        return real_echelon(rows_, field, room)

    monkeypatch.setattr(constructions, "annihilator", ann)
    monkeypatch.setattr(constructions, "multiplication_rank", rank)
    monkeypatch.setattr(GroebnerBasis, "product_rows", rows)
    monkeypatch.setattr(invariants, "echelon", echelon)
    nonunique_hf_pair(7, "alpha0", field=GFBIG, seed=2)
    return seen


def test_alpha0_certifies_empty_degrees_without_a_kernel(monkeypatch):
    """The colons by a linear form read the ranks of their h-vector check:
    no degree that an echelon proved empty reaches left_kernel, every
    kernel that runs finds a vector, and no (basis, form, degree) is
    echeloned twice."""
    seen = _record_alpha0_build(monkeypatch)
    assert seen["empty"] and seen["kernels"]
    assert not set(seen["empty"]) & set(seen["kernels"])
    assert all(seen["dims"])
    assert len(set(seen["echelons"])) == len(seen["echelons"])


def test_alpha0_builds_one_squares_cover(monkeypatch):
    """The special colon and every general draw share one cover Ideal, so
    its basis (and with it the quotient table) is built once."""
    bases = []
    real = groebner_module._pairless_basis

    def record(ring_, gens, *args):
        bases.append(tuple(g.terms for g in gens))
        return real(ring_, gens, *args)

    monkeypatch.setattr(groebner_module, "_pairless_basis", record)
    squares = tuple((v * v).terms for v in ring(GFBIG, 7).variables())
    nonunique_hf_pair(7, "alpha0", field=GFBIG, seed=2)
    assert bases.count(squares) == 1


def test_alpha0_needs_large_characteristic():
    with pytest.raises(ValueError):
        nonunique_hf_pair(7, target="alpha0", field=GF7)


# -- generic Gorenstein reduction --------------------------------------------------


def test_gorenstein_cut_reaches_minimal_hf():
    I = quadric_ci(4, GFBIG)
    J = gorenstein_cut(I, seed=3)
    assert hilbert_function(J) == HVector((1, 4, 1))
    assert is_gorenstein(J)
    # already-minimal input comes back unchanged
    assert gorenstein_cut(J, seed=3) is J


# -- helpers -----------------------------------------------------------------------


def test_regular_sequence_in_finds_ci_inside():
    R = ring(GFBIG, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2", "x1*x2"])
    rng = random.Random(4)
    seq = regular_sequence_in(I, [2, 2, 2], rng)
    C = Ideal(R, seq)
    assert hilbert_function(C) == HVector((1, 3, 3, 1))
    gb = I.groebner()
    assert all(gb.reduces_to_zero(f) for f in seq)


def test_embed_with_linear_gens():
    I = quadric_ci(2, Q)
    E = embed_with_linear_gens(I, 4)
    assert E.ring.nvars == 4
    assert hilbert_function(E) == hilbert_function(I)
    assert minimal_generator_counts(E) == {1: 2, 2: 2}


def test_random_homogeneous_determinism():
    R = ring(GF7, 3)
    a = random_homogeneous(R, 2, random.Random(9))
    b = random_homogeneous(R, 2, random.Random(9))
    assert a == b and a.degree() == 2 and a.is_homogeneous()


class ZeroRng:
    """Draws zero every time, and raises after 10^5 draws so that a sampler
    which never gives up fails instead of hanging."""

    def __init__(self):
        self.draws = 0

    def _draw(self, *args):
        self.draws += 1
        if self.draws > 10**5:
            raise RuntimeError("the sampler is not bounded")
        return 0

    randrange = randint = _draw


@pytest.mark.parametrize("field", [GF7, Q], ids=["gf7", "q"])
def test_random_forms_give_up_on_zero_draws(field):
    R = ring(field, 3)
    with pytest.raises(GenericityError):
        random_homogeneous(R, 2, ZeroRng())
    with pytest.raises(GenericityError):
        random_linear_form(R, ZeroRng())
