"""Groebner engine cross-checked against sympy's implementation."""

import hashlib
import random

import pytest

from gorquad import groebner
from gorquad import orders as orders_module
from gorquad.constructions import apolar_ideal, quadric_ci, random_homogeneous
from gorquad.core import AlgebraError, CappedComputationError
from gorquad.gin import random_coordinate_change
from gorquad.groebner import GroebnerBasis, Ideal, _compute_basis
from gorquad.invariants import hilbert_function
from gorquad.orders import _FIELD_MAX, DEGREVLEX, elimination_order
from gorquad.poly import ring

from conftest import (GF2, GF7, GFBIG, Q, gorquad_gb_normalized, random_poly,
                      sympy_reduced_gb)

FIXED_SYSTEMS = [
    (Q, 3, ["x1^2 - x2*x3", "x2^2 - x1*x3", "x3^2 - x1*x2"]),
    (Q, 2, ["x1^3 + x2^3", "x1*x2^2"]),
    (GF7, 3, ["x1^2 + x2^2 + x3^2", "x1*x2 + x2*x3", "x3^3"]),
    (GF2, 4, ["x1*x2 + x3*x4", "x1*x3 + x2*x4", "x1^2", "x2^2"]),
    (GFBIG, 3, ["x1^2 + 2*x2^2", "x2^2 + 3*x3^2", "x1*x3"]),
]


@pytest.mark.parametrize("field,n,texts", FIXED_SYSTEMS)
def test_reduced_basis_matches_sympy(field, n, texts):
    R = ring(field, n)
    I = Ideal.from_texts(R, texts)
    assert gorquad_gb_normalized(I) == sympy_reduced_gb(I.gens, R)


@pytest.mark.parametrize("field", [Q, GF7, GF2])
@pytest.mark.parametrize("seed", range(3))
def test_random_systems_match_sympy(field, seed):
    rng = random.Random(10 * seed + 1)
    R = ring(field, 3)
    gens = [g for g in (random_poly(R, 2, rng) for _ in range(3))
            if not g.is_zero()]
    if not gens:
        pytest.skip("empty sample")
    I = Ideal(R, gens)
    assert gorquad_gb_normalized(I) == sympy_reduced_gb(I.gens, R)


def test_basis_is_generator_order_independent():
    R = ring(GF7, 3)
    texts = ["x1^2 - x2*x3", "x2^2 - x1*x3", "x3^2 - x1*x2"]
    bases = []
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        I = Ideal.from_texts(R, [texts[i] for i in perm])
        bases.append(gorquad_gb_normalized(I))
    assert bases[0] == bases[1] == bases[2]


@pytest.mark.parametrize("field", [Q, GF2], ids=["q", "gf2"])
def test_membership_and_normal_form(field):
    R = ring(field, 3)
    I = Ideal.from_texts(R, ["x1^2", "x2^2"])
    gb = I.groebner()
    member = R.parse("x1^3 + x1*x2^2")
    assert gb.reduces_to_zero(member)
    assert gb.contains(member)
    outsider = R.parse("x1*x2*x3")
    assert not gb.contains(outsider)
    assert gb.normal_form(outsider) == outsider
    # normal form is linear and idempotent
    rng = random.Random(8)
    a, b = random_poly(R, 3, rng), random_poly(R, 3, rng)
    nf = gb.normal_form
    assert nf(a + b) == nf(a) + nf(b)
    assert nf(nf(a)) == nf(a)
    # and every element's normal form against its own ideal vanishes
    assert all(nf(g).is_zero() for g in I.gens)


def test_leading_term_ideal_and_degrees():
    R = ring(Q, 2)
    I = Ideal.from_texts(R, ["x1^2 + x2^2", "x1*x2"])
    gb = I.groebner()
    lt = {R.codec.exps(k) for k in gb.lead_keys}
    assert lt == {(2, 0), (1, 1), (0, 3)}
    assert gb.generator_degrees() == (2, 2, 3)
    assert gb.certify_complete()


def test_degree_cap_escalation(monkeypatch):
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2 - x2*x3", "x2^3 - x1*x3^2"])
    # two quadrics whose S-pair has degree 3
    J = Ideal.from_texts(R, ["x1^2 - x2*x3", "x1*x2"])
    with monkeypatch.context() as patch:
        # the engine reads the cap when it is called
        patch.setattr(groebner, "DEFAULT_DEGREE_CAP", 2)
        with pytest.raises(CappedComputationError) as info:
            I.groebner()
        # the cubic input itself is over the cap
        assert (info.value.cap, info.value.degree) == (2, 3)
        assert "degree cap 2" in str(info.value)
        with pytest.raises(CappedComputationError) as info:
            J.groebner()
        assert (info.value.cap, info.value.degree) == (2, 3)
    gb = I.groebner()  # default cap succeeds
    assert gb.certify_complete()


def test_inhomogeneous_generators_rejected():
    R = ring(Q, 2)
    with pytest.raises(AlgebraError):
        Ideal.from_texts(R, ["x1^2 + x2"])


def test_inhomogeneous_basis_has_no_quotient_table():
    R = ring(GF7, 2)
    gb = GroebnerBasis(R, (R.parse("x1^2 - x2"), R.parse("x2^2")), 40)
    with pytest.raises(AlgebraError, match="homogeneous"):
        hilbert_function(gb)
    with pytest.raises(AlgebraError, match="homogeneous"):
        gb.normal_form(R.parse("x1^3"))


def test_ideal_dedupes_and_drops_zero():
    R = ring(GF7, 2)
    p = R.parse("x1*x2")
    I = Ideal(R, [p, p, R.zero, p + p - p - p])
    assert I.gens == (p,)


def test_truncated_basis_guards_tail_queries():
    R = ring(Q, 3)
    I = Ideal.from_texts(R, ["x1^2 - x2*x3", "x2^2 - x1*x3", "x3^2 - x1*x2"])
    full = I.groebner()
    cut = I.groebner(truncate_at=2)
    probe = R.parse("x1*x2*x3")
    with pytest.raises(AlgebraError):
        cut.normal_form(probe)
    assert full.normal_form(probe) is not None


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1),
                                   elimination_order(2), elimination_order(3)],
                         ids=str)
@pytest.mark.parametrize("field", [GF7, GFBIG], ids=["gf7", "gf32003"])
@pytest.mark.parametrize("truncate", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_truncated_basis_is_the_low_degree_part(order, field, truncate, seed):
    """A basis truncated at D is the full reduced basis's elements of total
    degree <= D, block orders included."""
    R = ring(field, 4, order)
    rng = random.Random(seed)
    gens = [random_poly(R, 2, rng) for _ in range(3)]
    gens.append(R.variables()[seed % 4] ** 3)
    I = Ideal(R, gens)
    degree = R.codec.degree
    want = [p for p in I.groebner().elements
            if degree(p.leading_key()) <= truncate]
    assert list(I.groebner(truncate_at=truncate).elements) == want


# -- monomial generators: the engine is the oracle ---------------------------------


def _monomial_gens(R, rng, count):
    """Seeded monomials of degrees 1-4 with random coefficients, repeats and
    multiples of one another included."""
    gens = []
    for _ in range(count):
        m = R.one
        for _ in range(rng.randint(1, 4)):
            m = m * R.variables()[rng.randrange(R.nvars)]
        gens.append(m.scale(R.field.random_nonzero(rng)))
    return gens


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1),
                                   elimination_order(2), elimination_order(3)],
                         ids=str)
@pytest.mark.parametrize("field", [GF2, GF7, Q], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_monomial_bases_match_the_engine(monkeypatch, order, field, seed):
    R = ring(field, 4, order)
    gens = _monomial_gens(R, random.Random(seed), 3 + 2 * seed)
    want = {t: _compute_basis(R, Ideal(R, gens).gens, t)
            for t in (None, 1, 2, 3)}

    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran on monomial generators")

    monkeypatch.setattr(groebner, "_compute_basis", refuse)
    I = Ideal(R, gens)
    for t, engine in want.items():
        gb = I.groebner(truncate_at=t)
        assert gb.elements == engine.elements
        assert gb.truncated_at == engine.truncated_at == t
        assert gb.degree_cap == engine.degree_cap
        assert gb.stats is None


def _pairless(I) -> bool:
    """Each pair of I's generators is two monomials or has leading terms
    with no common variable, by exponent vectors."""
    exps = I.ring.codec.exps
    gens = [(len(g.terms) == 1, exps(g.terms[0][0])) for g in I.gens]
    return all(mono_a and mono_b or not any(a and b for a, b in zip(ea, eb))
               for i, (mono_a, ea) in enumerate(gens)
               for mono_b, eb in gens[:i])


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(2)], ids=str)
@pytest.mark.parametrize("field", [GF2, GF7, Q], ids=str)
def test_coprime_leading_terms_take_no_engine_run(order, field):
    """Seeded sparse quadrics, some monomials, in four variables:
    generators whose pairs are monomial or have coprime leading terms are a
    Groebner basis, read with no engine run; any other set runs the
    engine.  Both give the engine's basis, in full and truncated."""
    R = ring(field, 4, order)
    rng = random.Random(42)
    kinds = set()
    for _ in range(30):
        gens = [random_poly(R, 2, rng, rng.choice((0.1, 0.2)))
                for _ in range(rng.randint(1, 3))]
        I = Ideal(R, [g for g in gens if not g.is_zero()])
        for t in (None, 3):
            gb = I.groebner(truncate_at=t)
            assert gb.elements == _compute_basis(R, I.gens, t).elements
            assert (gb.stats is None) == _pairless(I)
        kinds.add((_pairless(I), all(len(g.terms) == 1 for g in I.gens)))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_monomial_bases_keep_the_degree_cap(monkeypatch):
    R = ring(GF7, 3)
    monkeypatch.setattr(groebner, "DEFAULT_DEGREE_CAP", 5)
    # an input beyond the cap, and two quartics whose pair has degree 6
    for texts, degree in ((["x1^2", "x2^6"], 6), (["x1^3*x2", "x1*x2^3"], 6)):
        I = Ideal.from_texts(R, texts)
        with pytest.raises(CappedComputationError) as engine:
            _compute_basis(R, I.gens, None)
        with pytest.raises(CappedComputationError) as info:
            I.groebner()
        assert (info.value.cap, info.value.degree) == (5, degree)
        assert str(info.value) == str(engine.value)
    # truncated at the cap, no pair beyond it is popped
    I = Ideal.from_texts(R, ["x1^3*x2", "x1*x2^3", "x3^5"])
    cut = I.groebner(truncate_at=5)
    assert cut.elements == _compute_basis(R, I.gens, 5).elements
    assert cut.stats is None


def _gf2_apolar(n, degree, seed):
    # Over GF(2) random_dual_form draws its coefficients uniformly, exactly
    # as random_homogeneous does here; these hashes pin such forms.
    R = ring(GF2, n)
    F = random_homogeneous(R, degree, random.Random(seed))
    return Ideal(R, apolar_ideal(F).gens)


def _gf2_quadrics(n, count, seed):
    R = ring(GF2, n)
    rng = random.Random(seed)
    return Ideal(R, [random_homogeneous(R, 2, rng) for _ in range(count)])


# sha256 of the printed reduced bases of GF(2) ideals whose bases take
# several rounds of S-pairs (up to degree 6 and 50 elements).
@pytest.mark.parametrize("build, want", [
    (lambda: _gf2_apolar(6, 3, 1),
     "3037124dbd0f2f83baddc52e19467e55a18a91060a0b99246f0104ed2f85ce2c"),
    (lambda: _gf2_apolar(7, 3, 2),
     "8adb2312cf87df43c21a7a521c2aba501876e14dd204d56607a25d472d635021"),
    (lambda: _gf2_apolar(6, 4, 3),
     "3401c59d25f07aab195146dda2453130d7ece97df7d4aee7c1fbe9982aa6d2f0"),
    (lambda: _gf2_quadrics(6, 6, 4),
     "94fd75290f1df3e1f5e91f063af32090e55fe28e0caf31c1b165d1ed8cf75554"),
    (lambda: _gf2_quadrics(6, 5, 6),
     "621aeaddfc912a2f807edd6b265be5381791e4373e9c7e2d64e34b8c6677b286"),
    (lambda: _gf2_quadrics(7, 5, 7),
     "42c1ec2ae7e1001e6c61a6812b0668395c35ab842e4c7f1859d02f1a880299e3"),
], ids=["apolar-6-3", "apolar-7-3", "apolar-6-4", "quadrics-6-6",
        "quadrics-6-5", "quadrics-7-5"])
def test_gf2_reduced_bases_are_pinned(build, want):
    text = "\n".join(str(g) for g in build().groebner().elements)
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("n, degree, seed, want", [
    (6, 3, 1,
     "3037124dbd0f2f83baddc52e19467e55a18a91060a0b99246f0104ed2f85ce2c"),
    (7, 3, 2,
     "8adb2312cf87df43c21a7a521c2aba501876e14dd204d56607a25d472d635021"),
    (6, 4, 3,
     "3401c59d25f07aab195146dda2453130d7ece97df7d4aee7c1fbe9982aa6d2f0"),
], ids=["apolar-6-3", "apolar-7-3", "apolar-6-4"])
def test_gf2_apolar_bases_read_off_the_form_are_pinned(n, degree, seed, want):
    """The pinned GF(2) apolar bases above, read off their dual forms by the
    FGLM walk with no engine run."""
    F = random_homogeneous(ring(GF2, n), degree, random.Random(seed))
    gb = apolar_ideal(F).groebner()
    assert gb.stats is None
    text = "\n".join(str(g) for g in gb.elements)
    assert hashlib.sha256(text.encode()).hexdigest() == want


# -- the engine's counters, and its runs on gin's coordinate changes -----------


def _moved(I, seed):
    """I in seeded random coordinates, as gin draws them."""
    images = random_coordinate_change(I.ring, random.Random(seed))
    return Ideal(I.ring, [g.compose(images) for g in I.gens])


def _non_artinian(field):
    return Ideal.from_texts(ring(field, 3), ["x1^2", "x1*x2"])


CHANGE_INPUTS = [
    pytest.param(lambda s: quadric_ci(4, GFBIG, style="random", seed=s),
                 id="ci4-gf32003"),
    pytest.param(lambda s: quadric_ci(4, GF7, style="random", seed=s),
                 id="ci4-gf7"),
    pytest.param(lambda s: quadric_ci(4, Q, style="random", seed=s),
                 id="ci4-q"),
    pytest.param(lambda s: _non_artinian(Q), id="non-artinian-q"),
]


@pytest.mark.parametrize("field", [GFBIG, GF7, Q], ids=str)
def test_engine_counters_add_up(field):
    I = quadric_ci(4, field, style="random", seed=2)
    moved = _moved(I, 3)
    gb = moved.groebner()
    st = gb.stats
    # every queued pair is chain-pruned or popped and reduced
    assert st.queued == st.chain_pruned + st.reduced
    assert st.reduced_to_zero <= st.reduced
    # each installed element meets every earlier one once as a candidate
    installed = len(moved.gens) + st.reduced - st.reduced_to_zero
    assert (st.gm_pruned + st.coprime_pruned + st.queued
            == installed * (installed - 1) // 2)
    assert st.basis_size == len(gb)
    assert st.top_degree == max(gb.generator_degrees())


def test_bases_built_by_hand_carry_no_counters():
    R = ring(GF7, 2)
    gb = GroebnerBasis(R, (R.parse("x1^2"), R.parse("x2^2")), 40, None)
    assert gb.stats is None


# -- the divisor index: a plain scan over the reducers is the oracle ------------


def _scan_nf(ring_, terms, reducers):
    """_nf by a linear scan: the largest key is rewritten by the first
    reducer, in (degree, lm) order, whose lm divides it."""
    codec, field = ring_.codec, ring_.field
    work = dict(terms)
    out = {}
    while work:
        k = max(work)
        c = work.pop(k)
        hit = next(((lm, tail) for _, lm, tail in reducers.entries
                    if codec.divides(lm, k)), None)
        if hit is None:
            out[k] = c
            continue
        q = codec.div(k, hit[0])
        for kt, ct in hit[1].items():
            t = codec.mul(q, kt)
            w = field.sub(work.get(t, field.zero), field.mul(c, ct))
            if w == field.zero:
                work.pop(t, None)
            else:
                work[t] = w
    return out


def _indexed_and_scanned(monkeypatch, run):
    """run() with the engine's divisor index, then with the plain scan."""
    indexed = run()
    with monkeypatch.context() as m:
        m.setattr(groebner, "_nf", _scan_nf)
        scanned = run()
    return indexed, scanned


def _mixed_degree_gens(R, rng):
    """Seeded quadrics, a cubic and a quartic: in block orders the inputs
    are seeded out of degree order, and in every order pairs pop below the
    quartic's degree."""
    gens = [random_poly(R, 2, rng, 0.5) for _ in range(3)]
    gens += [random_poly(R, 3, rng, 0.3), random_poly(R, 4, rng, 0.2)]
    return [g for g in gens if not g.is_zero()]


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1),
                                   elimination_order(3)], ids=str)
@pytest.mark.parametrize("field", [GF2, GF7, GFBIG, Q], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_divisor_index_matches_the_scan(monkeypatch, order, field, seed):
    R = ring(field, 4, order)
    gens = _mixed_degree_gens(R, random.Random(300 + seed))
    indexed, scanned = _indexed_and_scanned(
        monkeypatch, lambda: _compute_basis(R, gens, None))
    assert indexed.elements == scanned.elements
    assert indexed.stats == scanned.stats


@pytest.mark.parametrize("build", CHANGE_INPUTS)
@pytest.mark.parametrize("seed", range(2))
def test_divisor_index_matches_the_scan_on_gins_changes(monkeypatch, build,
                                                         seed):
    moved = _moved(build(seed), 40 + seed)
    indexed, scanned = _indexed_and_scanned(
        monkeypatch, lambda: _compute_basis(moved.ring, moved.gens, None))
    assert indexed.elements == scanned.elements
    assert indexed.stats == scanned.stats


def test_a_lower_degree_install_drops_the_memo_above_it():
    R = ring(GF7, 3)
    x1, x2, x3 = R.variables()
    entries = groebner._Reducers()
    cubic = (x1 * x2 * x3).terms
    assert groebner._nf(R, cubic, entries) == dict(cubic)   # memoises "none"
    assert entries.memo[3]
    # x2*x3 + x1^2 divides the cubic: x1*x2*x3 reduces to -x1^3
    entries.install(2, (x2 * x3).leading_key(), {(x1 ** 2).leading_key(): 1})
    assert 3 not in entries.memo
    assert R.from_terms(groebner._nf(R, cubic, entries).items()) == -(x1 ** 3)


# -- the pair update: the all-pairs Gebauer-Moeller scan is the oracle ----------


def _scan_gm_kept(codec, lcms, lm_degs, lm_deg):
    """_gm_kept by comparing every candidate lcm with every other one: pair
    i is dropped when an earlier pair has its lcm or another pair's lcm
    properly divides it; a kept pair's class is coprime when one of its
    pairs has coprime leading monomials."""
    kept = []
    for i, li in enumerate(lcms):
        if any(j != i and (lj == li and j < i
                           or lj != li and codec.divides(lj, li))
               for j, lj in enumerate(lcms)):
            continue
        li_deg = codec.degree(li)
        coprime = any(lj == li and li_deg == lm_degs[j] + lm_deg
                      for j, lj in enumerate(lcms))
        kept.append((li_deg, li, i, coprime))
    return kept


@pytest.mark.parametrize("order", [DEGREVLEX, elimination_order(1),
                                   elimination_order(3)], ids=str)
@pytest.mark.parametrize("field", [GF2, GF7, GFBIG, Q], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_pair_update_matches_the_scan(monkeypatch, order, field, seed):
    R = ring(field, 4, order)
    gens = _mixed_degree_gens(R, random.Random(500 + seed))
    minimal = _compute_basis(R, gens, None)
    with monkeypatch.context() as m:
        m.setattr(groebner, "_gm_kept", _scan_gm_kept)
        scanned = _compute_basis(R, gens, None)
    assert minimal.elements == scanned.elements
    assert minimal.stats == scanned.stats
    assert minimal.stats.gm_pruned > 0


@pytest.mark.parametrize("build", CHANGE_INPUTS)
def test_pair_update_matches_the_scan_on_gins_changes(monkeypatch, build):
    moved = _moved(build(2), 60)
    minimal = _compute_basis(moved.ring, moved.gens, None)
    with monkeypatch.context() as m:
        m.setattr(groebner, "_gm_kept", _scan_gm_kept)
        scanned = _compute_basis(moved.ring, moved.gens, None)
    assert minimal.elements == scanned.elements
    assert minimal.stats == scanned.stats


# -- packed lcm: the exponent-vector lcm of _Codec is the oracle -----------------


@pytest.mark.parametrize("nvars", range(1, 11))
def test_packed_lcm_matches_the_exponent_lcm(nvars):
    rng = random.Random(nvars)
    orders = [DEGREVLEX] + [elimination_order(k) for k in range(1, nvars)]
    picks = (0, 1, 2, _FIELD_MAX - 1, _FIELD_MAX)
    for order in orders:
        codec = order.codec(nvars)
        zero = (0,) * nvars
        for _ in range(60):
            a, b = ([rng.choice(picks + (rng.randrange(_FIELD_MAX + 1),))
                     for _ in range(nvars)] for _ in range(2))
            for ea, eb in ((a, b), (a, zero), (zero, b), (zero, zero),
                           (a, a)):
                ka, kb = codec.key(tuple(ea)), codec.key(tuple(eb))
                want = orders_module._Codec.lcm(codec, ka, kb)
                assert codec.lcm(ka, kb) == want, (order, ea, eb)
                assert codec.exps(want) == tuple(map(max, ea, eb))


# -- the order-ideal step: divisor-scan oracles and a work guard ----------------


def test_table_levels_make_no_divides_or_key_calls(monkeypatch):
    """The level step reads support masks and the codec's variable tuple:
    building a whole table packs no exponent vector and tests no
    divisibility."""
    R = ring(GFBIG, 8)
    rng = random.Random(1)
    gb = Ideal(R, [v * v for v in R.variables()]
               + [random_poly(R, 2, rng) for _ in range(3)]).groebner()
    top = hilbert_function(gb).socle_degree + 1
    codec = R.codec
    units = tuple(codec.key(tuple(int(i == j) for i in range(8)))
                  for j in range(8))
    fresh = GroebnerBasis(R, gb.elements, gb.degree_cap)
    calls = []
    for name in ("divides", "key"):
        real = getattr(type(codec), name)
        monkeypatch.setattr(type(codec), name,
                            lambda self, *args, _real=real, _name=name:
                            calls.append(_name) or _real(self, *args))
    levels = [fresh.standard_monomials(d) for d in range(top + 1)]
    assert calls == []
    assert sum(map(len, levels)) == sum(hilbert_function(gb))
    assert codec.var_keys == units
    assert ring(GFBIG, 8).codec.var_keys is DEGREVLEX.codec(8).var_keys \
        is codec.var_keys
