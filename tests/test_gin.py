"""Generic initial ideals, multiplication ranks, Lefschetz checks."""

import importlib
import random

import pytest

import gorquad
from gorquad import groebner
from gorquad.constructions import quadric_ci
from gorquad.core import AlgebraError, GenericityError
from gorquad.gin import (GenericityPolicy, GinUncertifiedError,
                         check_injectivity_conjecture, check_wlp,
                         generic_times_rank, gin, gin_monomial_census,
                         hyperplane_restriction_identity, is_borel_fixed,
                         random_coordinate_change, reduction_number,
                         times_L_rank)
from gorquad.groebner import Ideal
from gorquad.idealops import random_linear_form
from gorquad.invariants import hilbert_function
from gorquad.poly import ring

from conftest import GF2, GF7, GFBIG, Q, oracle_generic_times_rank


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
    assert res.borel_fixed
    assert res.attempts_agreed >= 3
    assert sorted(str(g) for g in res.monomial_ideal.gens) == [
        "x1*x2", "x1*x3^2", "x1^2", "x2*x3^2", "x2^2", "x3^4"]
    assert hilbert_function(res.monomial_ideal) == hilbert_function(I)


def test_gin_fixes_borel_monomial_ideal():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2", "x1*x2", "x2^3"])
    res = gin(I, seed=2)
    assert {str(g) for g in res.monomial_ideal.gens} == {str(g) for g in I.gens}


def test_gin_preserves_hilbert_function(ci4, gin_ci4):
    assert hilbert_function(gin_ci4.monomial_ideal) == hilbert_function(ci4)
    assert gin_ci4.borel_fixed
    assert is_borel_fixed(gin_ci4.monomial_ideal)


def _unhinted_consensus(I, seed):
    """gin's consensus rebuilt from unhinted bases of its coordinate changes:
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
    # gin hints its engine with I's Hilbert function, which here is infinite
    I = Ideal.from_texts(ring(Q, 3), ["x1^2", "x1*x2"])
    res = gin(I, seed=seed)
    assert (res.lead_keys, res.seeds) == _unhinted_consensus(I, seed)
    assert is_borel_fixed(res.monomial_ideal)


def test_gin_of_ci4_matches_unhinted_bases(ci4, gin_ci4):
    assert (gin_ci4.lead_keys, gin_ci4.seeds) == _unhinted_consensus(ci4, 1)


def test_gin_runs_no_engine_on_monomial_ideals(monkeypatch, ci4, gin_ci4):
    """The squares it starts from and the consensus ideal is_borel_fixed
    reads take the monomial basis; only the coordinate changes run the
    engine."""
    real = groebner._compute_basis
    runs = []

    def non_monomial_only(ring_, polys, truncate_at, hilbert=None):
        polys = list(polys)
        if all(len(p.terms) == 1 for p in polys):
            raise AssertionError("the engine ran on monomial generators")
        runs.append(hilbert is not None)
        return real(ring_, polys, truncate_at, hilbert=hilbert)

    monkeypatch.setattr(groebner, "_compute_basis", non_monomial_only)
    res = gin(Ideal(ci4.ring, ci4.gens), seed=1)
    assert (res.lead_keys, res.seeds) == (gin_ci4.lead_keys, gin_ci4.seeds)
    assert is_borel_fixed(res.monomial_ideal)
    assert res.monomial_ideal.groebner().stats is None
    assert runs == [True] * len(runs) and len(runs) >= 3


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
    assert r2.method == "direct_linear_algebra"


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
