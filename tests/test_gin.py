"""Generic initial ideals, multiplication ranks, Lefschetz checks."""

import importlib
import random

import pytest

import gorquad
from gorquad import groebner, linalg
from gorquad.constructions import (_hvector_with_form, apolar_ideal,
                                   quadric_ci, random_dual_form)
from gorquad.core import AlgebraError, GenericityError
from gorquad.gin import (GenericityPolicy, GinUncertifiedError,
                         _initial_ideal_from_table, _inverse_change,
                         check_injectivity_conjecture, check_wlp,
                         generic_times_rank, gin, gin_monomial_census,
                         hyperplane_restriction_identity, is_borel_fixed,
                         random_coordinate_change, reduction_number,
                         times_L_rank)
from gorquad.groebner import Ideal
from gorquad.idealops import random_linear_form
from gorquad.invariants import hilbert_function, is_artinian
from gorquad.linalg import Echelon, rows_over
from gorquad.orders import DEGREVLEX, elimination_order
from gorquad.poly import Polynomial, Substitution, ring

from conftest import (GF2, GF7, GFBIG, Q, oracle_generic_times_rank,
                      oracle_is_borel_fixed)


@pytest.fixture(scope="module")
def ci4():
    return quadric_ci(4, GFBIG)


@pytest.fixture(scope="module")
def gin_ci4(ci4):
    return gin(ci4, seed=1)


# -- gin ---------------------------------------------------------------------------


def test_gin_of_squares_r3_over_q():
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"])
    res = gin(I, seed=0)
    assert res.attempts_agreed >= 3
    assert sorted(str(g) for g in res.monomial_ideal.gens) == [
        "x1*x2", "x1*x3^2", "x1^2", "x2*x3^2", "x2^2", "x3^4"]
    assert res.ring is I.ring
    assert hilbert_function(res.monomial_ideal) == hilbert_function(I)


def test_gin_fixes_borel_monomial_ideal():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2", "x1*x2", "x2^3"])
    res = gin(I, seed=2)
    assert {str(g) for g in res.monomial_ideal.gens} == {str(g) for g in I.gens}


def test_gin_preserves_hilbert_function(ci4, gin_ci4):
    assert hilbert_function(gin_ci4.monomial_ideal) == hilbert_function(ci4)
    assert is_borel_fixed(gin_ci4.monomial_ideal)


def _engine_consensus(I, seed):
    """gin's consensus rebuilt from engine bases of its coordinate changes:
    the first lead ideal three changes agree on, and their seeds."""
    tally = {}
    for s in range(seed, seed + 6):
        images = random_coordinate_change(I.ring, random.Random(s))
        moved = Ideal(I.ring, [g.compose(images) for g in I.gens])
        keys = tuple(sorted(moved.groebner().lead_keys))
        tally.setdefault(keys, []).append(s)
        if len(tally[keys]) == 3:
            return keys, tuple(tally[keys])
    raise AssertionError("no 3-way agreement")


@pytest.mark.parametrize("seed", [0, 4])
def test_gin_of_a_non_artinian_ideal_matches_unhinted_bases(seed):
    # a non-artinian I has no finite table, so gin runs the engine
    I = Ideal.from_texts(ring(Q, 3), ["x1^2", "x1*x2"])
    res = gin(I, seed=seed)
    assert (res.lead_keys, res.seeds) == _engine_consensus(I, seed)
    assert is_borel_fixed(res.monomial_ideal)


def test_gin_of_ci4_matches_unhinted_bases(ci4, gin_ci4):
    assert (gin_ci4.lead_keys, gin_ci4.seeds) == _engine_consensus(ci4, 1)


def test_gin_runs_no_engine_on_monomial_ideals(monkeypatch, ci4, gin_ci4):
    """The squares it starts from and the consensus ideal is_borel_fixed
    reads take the monomial basis, and the coordinate changes of an
    artinian input are read off its quotient table: no engine run."""
    def no_engine(*args, **kwargs):
        raise AssertionError("gin ran the engine on an artinian input")

    monkeypatch.setattr(groebner, "_compute_basis", no_engine)
    res = gin(Ideal(ci4.ring, ci4.gens), seed=1)
    assert (res.lead_keys, res.seeds) == (gin_ci4.lead_keys, gin_ci4.seeds)
    assert is_borel_fixed(res.monomial_ideal)
    assert res.monomial_ideal.groebner().stats is None


# -- the table read: the engine on sigma(I) is the oracle ----------------------


def _table_read_inputs(field, order, seed):
    """A random quadric complete intersection, a Gorenstein apolar ideal
    that is no complete intersection, an ideal with a linear generator and
    the unit ideal, in four variables under the order."""
    R = ring(field, 4, order)
    rng = random.Random(seed)
    ci = quadric_ci(4, field, style="random", seed=seed)
    into = Substitution(ci.ring, R.variables())
    apolar = apolar_ideal(random_dual_form(R, 3, rng))
    x1, x2, x3, x4 = R.variables()
    linear = Ideal(R, [x1 + x2.scale(2) - x4, x2 * x3, x3 * x3, x4 * x4 * x2,
                       x2 * x2 * x2 + x3 * x4 * x4, x4 * x4 * x4])
    return [Ideal(R, [into(g) for g in ci.gens]), apolar, linear,
            Ideal(R, [R.one])]


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1),
                                   elimination_order(2)], ids=str)
@pytest.mark.parametrize("field", [Q, GF7, GFBIG], ids=str)
@pytest.mark.parametrize("seed", range(2))
def test_table_read_matches_the_unhinted_engine(order, field, seed):
    ci, apolar, linear, unit = _table_read_inputs(field, order, seed)
    assert len(apolar.gens) > 4 and {g.degree() for g in apolar.gens} == {2}
    assert linear.gens[0].degree() == 1
    x = ci.ring.variables()
    # a random change is generic, and so is its inverse: special changes
    # tell sigma from sigma^-1
    special = [x[1:] + x[:1], [x[0] + x[1], x[1] + x[2].scale(3), x[2], x[3]]]
    for I in (ci, apolar, linear, unit):
        gb = I.groebner()
        assert is_artinian(gb)
        for images in special + [random_coordinate_change(
                I.ring, random.Random(s)) for s in range(3)]:
            change = Substitution(I.ring, images)
            want = Ideal(I.ring, [change(g) for g in I.gens]).groebner()
            got = _initial_ideal_from_table(gb, images)
            assert sorted(got) == sorted(want.lead_keys)
        identity = _initial_ideal_from_table(gb, I.ring.variables())
        assert sorted(identity) == sorted(gb.lead_keys)
    assert got == [unit.ring.codec.one]     # the unit ideal's, read last


@pytest.mark.parametrize("seed", range(3))
def test_the_table_read_stops_reducing_at_full_rank(monkeypatch, seed):
    """Once h_d monomials of degree d are standard, the walk reduces no
    more images there: fewer reductions than standard monomials plus
    leading terms, since past the socle degree none is reduced at all.
    The count is of the echelon rows_over gives the field, which the walk
    must be using: it reduces at least one image."""
    I = quadric_ci(5, GFBIG, style="random", seed=seed)
    gb = I.groebner()
    images = random_coordinate_change(I.ring, random.Random(seed))
    calls = []
    used = type(rows_over(gb.standard_monomials(1), gb.ring.field))
    real = used.reduce
    monkeypatch.setattr(used, "reduce",
                        lambda self, row: calls.append(1) or real(self, row))
    leads = _initial_ideal_from_table(gb, images)
    assert 0 < len(calls) < sum(hilbert_function(gb)) + len(leads)


@pytest.mark.parametrize("r", range(4, 8))
def test_gin_on_packed_rows_matches_the_dict_path(monkeypatch, r):
    """The walk over GF(p) reads packed rows; with linalg's switch sent to
    the dict Echelon, the oracle path, gin finds the same ideal."""
    I = quadric_ci(r, GFBIG, style="random", seed=r)
    packed = gin(Ideal(I.ring, I.gens), seed=r)
    switched = []
    monkeypatch.setattr(linalg, "_PackedRows", lambda columns, field:
                        switched.append(columns) or Echelon(field))
    dicts = gin(Ideal(I.ring, I.gens), seed=r)
    assert switched
    assert (dicts.lead_keys, dicts.seeds) == (packed.lead_keys, packed.seeds)


@pytest.mark.parametrize("field", [Q, GF7, GFBIG], ids=str)
def test_the_inverse_change_undoes_the_change(field):
    for n, order in ((1, DEGREVLEX), (4, DEGREVLEX), (5, elimination_order(2))):
        R = ring(field, n, order)
        for s in range(4):
            images = random_coordinate_change(R, random.Random(s))
            inverse = _inverse_change(R, images)
            assert all(ell.degree() == 1 for ell in inverse)
            assert [Substitution(R, images)(ell) for ell in inverse] \
                == list(R.variables())
        assert _inverse_change(R, R.variables()) == list(R.variables())


def test_gin_refuses_small_fields():
    I = quadric_ci(3, GF7)
    with pytest.raises(ValueError):
        gin(I)
    assert issubclass(GinUncertifiedError, AlgebraError)


def test_uncertified_gin_raises_the_package_error(monkeypatch, ci4):
    # a different lead set per coordinate change: no three ever agree
    gin_module = importlib.import_module("gorquad.gin")
    monkeypatch.setattr(gin_module, "_lead_ideal_in_random_coordinates",
                        lambda I, seed: (seed,))
    with pytest.raises(gorquad.GinUncertifiedError) as info:
        gin(ci4, seed=10)
    assert info.value.candidates == tuple((s,) for s in range(10, 16))
    assert GinUncertifiedError is gorquad.GinUncertifiedError


def test_gin_is_seed_stable(ci4, gin_ci4):
    again = gin(ci4, seed=1)
    assert again.monomial_ideal.gens == gin_ci4.monomial_ideal.gens


def test_is_borel_fixed_fixtures():
    R = ring(Q, 2)
    assert is_borel_fixed(Ideal.from_texts(R, ["x1^2", "x1*x2", "x2^2"]))
    assert not is_borel_fixed(Ideal.from_texts(R, ["x2^2"]))
    S = ring(Q, 3)
    assert is_borel_fixed(Ideal.from_texts(S, ["x1"]))
    assert not is_borel_fixed(Ideal.from_texts(S, ["x3"]))


@pytest.mark.parametrize("n, order", [
    (n, order) for n in (2, 3, 4)
    for order in [DEGREVLEX] + [elimination_order(k) for k in range(1, min(n, 3))]
], ids=str)
def test_is_borel_fixed_matches_the_exponent_oracle(n, order):
    """On 40 seeded monomial ideals per ring, Borel-fixed or not, and on
    the Borel closure of each ideal's generators."""
    R = ring(Q, n, order)
    rng = random.Random(10 * n + len(str(order)))
    verdicts = set()
    for _ in range(40):
        gens = [_monomial(R, [rng.randrange(3) for _ in range(n)])
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if g.degree() > 0] or [R.variables()[-1]]
        for I in (Ideal(R, gens), Ideal(R, _borel_closure(R, gens))):
            want = oracle_is_borel_fixed(I.groebner())
            assert is_borel_fixed(I) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def _monomial(R, exps):
    return Polynomial(R, ((R.codec.key(tuple(exps)), R.field.one),))


def _borel_closure(R, gens):
    """Each generator's moves x_i * m / x_j, i < j, repeated until none is
    new: a Borel-fixed monomial set."""
    exps, closed = R.codec.exps, {g.leading_key(): g for g in gens}
    todo = list(closed.values())
    while todo:
        e = exps(todo.pop().leading_key())
        for j in range(len(e)):
            for i in range(j):
                if e[j]:
                    f = list(e)
                    f[j] -= 1
                    f[i] += 1
                    g = _monomial(R, f)
                    if g.leading_key() not in closed:
                        closed[g.leading_key()] = g
                        todo.append(g)
    return list(closed.values())


def test_gin_checks_pack_no_exponent_vectors(monkeypatch, ci4, gin_ci4):
    """is_borel_fixed and reduction_number's pure-power check form their
    monomials from the codec's variable keys."""
    codec = ci4.ring.codec
    real = type(codec).key
    calls = []
    monkeypatch.setattr(type(codec), "key", lambda self, e:
                        calls.append(e) or real(self, e))
    gb = gin_ci4.monomial_ideal.groebner()
    assert is_borel_fixed(gb) and calls == []
    for s in range(4):
        reduction_number(ci4, s, gin_result=gin_ci4)    # fills the caches
        start = len(calls)
        plain = reduction_number(ci4, s)
        middle = len(calls)
        assert reduction_number(ci4, s, gin_result=gin_ci4) == plain
        assert len(calls) - middle == middle - start


def test_random_coordinate_change_is_invertible_map():
    R = ring(GFBIG, 3)
    images = random_coordinate_change(R, random.Random(0))
    assert len(images) == 3
    assert all(im.degree() == 1 for im in images)
    # composing a polynomial through the change preserves degree and HF
    I = Ideal(R, [g.compose(images) for g in quadric_ci(3, GFBIG).gens])
    assert hilbert_function(I) == hilbert_function(quadric_ci(3, GFBIG))


# -- multiplication ranks ----------------------------------------------------------


def test_times_L_rank_on_ci7():
    I = quadric_ci(7, GFBIG)
    L = random_linear_form(I.ring, random.Random(3))
    r2 = times_L_rank(I, 2, L)
    assert (r2.rank, r2.kernel_dim) == (21, 0)
    r3 = times_L_rank(I, 3, L)
    assert (r3.rank, r3.kernel_dim) == (35, 0)
    r4 = times_L_rank(I, 4, L)  # 35 -> 21 must drop rank
    assert (r4.rank, r4.kernel_dim) == (21, 14)


def test_times_L_rank_flags_non_generic_form(ci4, gin_ci4):
    generic = random_linear_form(ci4.ring, random.Random(1))
    ok = times_L_rank(ci4, 1, generic, gin_result=gin_ci4)
    assert ok.rank == 4
    x4 = ci4.ring.variable("x4")
    with pytest.raises(GenericityError):
        times_L_rank(ci4, 1, x4, gin_result=gin_ci4)  # x4^2 = 0 kills rank


def test_times_L_rank_needs_artinian():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2"])
    with pytest.raises(AlgebraError):
        times_L_rank(I, 1, R.parse("x1 + x2"))


def test_generic_times_rank_agrees_with_gin_count(ci4, gin_ci4):
    rep = generic_times_rank(ci4, 1, GenericityPolicy(num_samples=3, seed=5),
                             gin_result=gin_ci4)
    assert rep.rank == 4


# -- reduction numbers -------------------------------------------------------------


def test_reduction_numbers_of_ci4(ci4, gin_ci4):
    values = [reduction_number(ci4, s, gin_result=gin_ci4 if s < 4 else None)
              for s in range(5)]
    assert values == [4, 2, 1, 1, 0]


def test_reduction_number_accepts_a_basis(ci4):
    for s in range(ci4.ring.nvars):
        assert reduction_number(ci4, s) == reduction_number(ci4.groebner(), s)


def test_reduction_number_validates_input():
    with pytest.raises(ValueError):
        reduction_number(quadric_ci(2, GFBIG), -1)
    R = ring(GFBIG, 2)
    with pytest.raises(AlgebraError):
        reduction_number(Ideal.from_texts(R, ["x1^2"]), 0)


# -- injectivity and WLP -----------------------------------------------------------


def test_injectivity_holds_on_ci5():
    rep = check_injectivity_conjecture(quadric_ci(5, GFBIG))
    assert rep.applicable and rep.injective
    assert (rep.rank, rep.expected) == (5, 5)
    assert rep.detail == ""


def test_injectivity_preconditions_reported_not_raised():
    rep2 = check_injectivity_conjecture(quadric_ci(4, GF2))
    assert not rep2.applicable and "characteristic 2" in rep2.detail

    R = ring(GFBIG, 3)
    cubical = Ideal.from_texts(R, ["x1^3", "x2^3", "x3^3"])
    rep3 = check_injectivity_conjecture(cubical)
    assert not rep3.applicable
    assert rep3.detail == "ideal is not presented by quadrics"

    from gorquad.constructions import apolar_ideal
    flat = apolar_ideal(R.parse("x1^2 + x2^2 + x3^2"))   # socle degree 2
    rep4 = check_injectivity_conjecture(flat)
    assert not rep4.applicable and "socle degree 2 < 3" in rep4.detail


def test_wlp_holds_for_monomial_ci6():
    rep = check_wlp(quadric_ci(6, GFBIG))
    assert rep.has_wlp and rep.failing_degrees() == ()
    hf = hilbert_function(quadric_ci(6, GFBIG))
    for r, ok in zip(rep.reports, rep.maximal):
        assert ok and r.rank == min(hf[r.degree], hf[r.degree + 1])


def test_wlp_fails_for_squares_over_gf2():
    rep = check_wlp(quadric_ci(3, GF2))
    assert not rep.has_wlp
    assert rep.failing_degrees() == (1,)
    assert [r.rank for r in rep.reports] == [1, 2, 1]


# GF(7) with the squares reaches the bound in degree 2 at the second draw;
# GF(2) never reaches it in degree 1.
_WLP_CASES = ([(r, GFBIG, style) for r in range(3, 7)
               for style in ("monomial", "random")]
              + [(4, Q, "random"), (5, GF7, "monomial"), (3, GF2, "monomial")])


@pytest.mark.parametrize("r, field, style", _WLP_CASES)
def test_generic_times_rank_matches_the_full_budget(r, field, style):
    I = quadric_ci(r, field, style, seed=r)
    for d in range(hilbert_function(I).socle_degree + 1):
        for policy in (GenericityPolicy(), GenericityPolicy(3, seed=7),
                       GenericityPolicy(1, seed=2)):
            assert (generic_times_rank(I, d, policy)
                    == oracle_generic_times_rank(I, d, policy)), (d, policy)


def test_check_wlp_draws_once_per_degree_when_the_first_form_is_maximal(
        monkeypatch):
    gin_module = importlib.import_module("gorquad.gin")
    calls = []
    real = gin_module.times_L_rank

    def counted(I, d, L, gin_result=None):
        calls.append(d)
        return real(I, d, L, gin_result)

    monkeypatch.setattr(gin_module, "times_L_rank", counted)
    rep = check_wlp(quadric_ci(6, GFBIG))
    assert rep.has_wlp
    assert calls == list(range(6))
    calls.clear()
    assert not check_wlp(quadric_ci(3, GF2)).has_wlp
    assert calls == [0, 1, 1, 1, 1, 1, 2]    # the budget at the failing degree


# -- gin combinatorics -------------------------------------------------------------


def test_gin_monomial_census_of_squares_r3():
    R = ring(Q, 3)
    res = gin(Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"]), seed=0)
    c2 = gin_monomial_census(res, 2)
    assert (c2.standard_total, c2.standard_divisible,
            c2.generators_divisible) == (3, 3, 0)
    c3 = gin_monomial_census(res, 3)
    assert (c3.standard_total, c3.standard_divisible,
            c3.generators_divisible) == (1, 1, 2)


def test_hyperplane_restriction_identity(ci4, gin_ci4):
    assert hyperplane_restriction_identity(ci4, gin_ci4, seed=0)
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2", "x3^2"])
    assert hyperplane_restriction_identity(I, gin(I, seed=0), seed=0)


def _cut_inputs():
    """Seeded artinian ideals: quadric complete intersections, apolar
    ideals that are not complete intersections, an ideal with a linear
    generator and a monomial one."""
    rng = random.Random(27)
    R4, R5 = ring(GFBIG, 4), ring(GF7, 5)
    yield quadric_ci(4, GFBIG, style="random", seed=3)
    yield quadric_ci(5, Q, style="random", seed=3)
    yield apolar_ideal(random_dual_form(R4, 3, rng))
    yield apolar_ideal(random_dual_form(R5, 4, rng))
    yield apolar_ideal(random_dual_form(ring(Q, 3), 4, rng))
    yield Ideal(R4, [R4.parse("x1 - 2*x3")] + [v * v for v in R4.variables()])
    yield Ideal.from_texts(R5, ["x1^2", "x2^3", "x3^2", "x4^2", "x5^2",
                                "x1*x2*x3"])


def test_hyperplane_cuts_read_off_the_table_match_the_engine():
    """h(I + L) read off B = R/I equals the engine basis's Hilbert
    function, for seeded general and special linear forms L."""
    rng = random.Random(28)
    checked = 0
    for I in _cut_inputs():
        R = I.ring
        xs = R.variables()
        for L in [random_linear_form(R, rng) for _ in range(3)] + [xs[0],
                                                                  xs[-1]]:
            engine = groebner._compute_basis(R, I.gens + (L,), None)
            assert _hvector_with_form(I, L) == hilbert_function(engine), (
                str(I), str(L))
            checked += 1
    assert checked == 35


def test_hyperplane_restriction_runs_no_engine_on_artinian_ideals(
        monkeypatch):
    """On an artinian I the identity builds no basis of I + L, and its
    verdict is the one the engine's Hilbert functions give."""
    cases = []
    for I in _cut_inputs():
        if I.ring.field.is_rationals or I.ring.field.p == GFBIG.p:
            I.groebner()
            cases.append((I, gin(I, seed=0)))

    def engine_cut(I, L):
        return hilbert_function(groebner._compute_basis(
            I.ring, I.gens + (L,), None))

    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("gorquad.gin"),
                      "_hvector_with_form", engine_cut)
        want = [hyperplane_restriction_identity(I, res, seed=s)
                for I, res in cases for s in range(3)]

    def no_engine(*args):
        raise AssertionError("engine run")

    monkeypatch.setattr(groebner, "_compute_basis", no_engine)
    assert [hyperplane_restriction_identity(I, res, seed=s)
            for I, res in cases for s in range(3)] == want
    assert len(cases) == 5 and any(want)


def test_hyperplane_restriction_of_a_non_artinian_ideal_runs_the_engine():
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2", "x1*x2 + x2^2"])
    assert not is_artinian(I)
    res = gin(I, seed=0)
    runs = []
    engine = groebner._compute_basis

    def recording(*args):
        runs.append(args[1])
        return engine(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_compute_basis", recording)
        verdict = hyperplane_restriction_identity(I, res, seed=0)
    assert runs and verdict in (True, False)
