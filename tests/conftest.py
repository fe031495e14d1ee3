"""Shared helpers: deterministic polynomial sampling and independent
oracles (dense linear algebra, sympy Groebner bases) used to cross-check
the package's own computations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gorquad.core import FieldSpec
from gorquad.poly import Polynomial, RingCtx, ring

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF7 = FieldSpec.prime(7)
GFBIG = FieldSpec.prime(32003)


def random_poly(R: RingCtx, degree: int, rng: random.Random,
                density: float = 0.7) -> Polynomial:
    """Dense-ish random homogeneous polynomial with seeded coefficients."""
    terms = []
    for m in R.monomials_of_degree(degree):
        if rng.random() < density:
            c = R.field.random(rng)
            if c != R.field.zero:
                terms.append((m, c))
    return R.from_terms(terms)


def poly_as_dict(p: Polynomial) -> dict:
    """Exponent-tuple -> coefficient view, independent of key packing."""
    codec = p.ring.codec
    return {codec.exps(k): c for k, c in p.terms}


# -- dense linear algebra oracle (positional lists, no sparse dicts) -------------


def dense_rref_rank(rows, field: FieldSpec) -> int:
    """Row reduction on dense coefficient lists; returns the rank."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != field.zero),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != field.zero:
                c = rows[i][col]
                rows[i] = [field.sub(a, field.mul(c, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# -- leading-term scan oracle (every monomial against every leading term) -------


def lead_scan_standard_monomials(gb, d: int) -> tuple:
    """Degree-d monomial keys that no leading term of gb divides, descending
    in the ring order."""
    divides = gb.ring.codec.divides
    return tuple(m for m in gb.ring.monomials_of_degree(d)
                 if not any(divides(lk, m) for lk in gb.lead_keys))


# -- Buchberger reducer oracle (the engine's scan over the leading terms) -------


def engine_normal_form(gb, p: Polynomial) -> Polynomial:
    """NF(p) by the engine's own reducer, _nf, over gb's elements: an oracle
    for GroebnerBasis.normal_form, which reads the quotient table."""
    from gorquad.groebner import _nf, _Reducers

    degree = gb.ring.codec.degree
    reducers = sorted(((degree(g.terms[0][0]), g.terms[0][0], dict(g.terms[1:]))
                       for g in gb.elements), key=lambda e: (e[0], e[1]))
    return gb.ring.from_terms(_nf(gb.ring, p.terms, _Reducers(reducers)).items())


# -- sympy bridge -----------------------------------------------------------------


def sympy_symbols(R: RingCtx):
    import sympy

    return sympy.symbols(f"x1:{R.nvars + 1}")


def to_sympy(p: Polynomial, syms):
    import sympy

    codec = p.ring.codec
    expr = sympy.Integer(0)
    for k, c in p.terms:
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(
            c, Fraction) else sympy.Integer(c)
        for j, e in enumerate(codec.exps(k)):
            if e:
                term *= syms[j] ** e
        expr += term
    return expr


def sympy_reduced_gb(gens, R: RingCtx):
    """Reduced degrevlex Groebner basis computed by sympy, normalized to a
    set of monic exponent->coefficient dicts for order-free comparison."""
    import sympy

    syms = sympy_symbols(R)
    kwargs = {"order": "grevlex"}
    if R.field.p is not None:
        kwargs["modulus"] = R.field.p
    gb = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, **kwargs)
    out = []
    for poly in gb.polys:
        entry = {}
        for exps, coeff in poly.terms():
            if R.field.p is None:
                entry[tuple(exps)] = Fraction(int(coeff.numerator),
                                              int(coeff.denominator))
            else:
                entry[tuple(exps)] = int(coeff) % R.field.p
        out.append(_monic_by_codec(entry, R))
    return sorted(out, key=sorted)


def from_sympy(expr, R: RingCtx) -> Polynomial:
    """Inverse of :func:`to_sympy` (expression must live in R's variables)."""
    import sympy

    syms = sympy_symbols(R)
    poly = sympy.Poly(expr, *syms)
    pairs = []
    for exps, coeff in poly.terms():
        if R.field.p is None:
            c = Fraction(int(coeff.numerator), int(coeff.denominator))
        else:
            c = int(coeff) % R.field.p
        pairs.append((R.codec.key(tuple(exps)), R.field.normalize(c)))
    return R.from_terms(pairs)


def _monic_by_codec(entry: dict, R: RingCtx) -> dict:
    """Scale a exponent->coeff dict so the ring's own leading term is 1
    (sympy normalizes by lex regardless of the basis order)."""
    lead = max(entry, key=R.codec.key)
    inv = R.field.inv(R.field.normalize(entry[lead]))
    return {e: R.field.mul(inv, R.field.normalize(c)) for e, c in entry.items()}


def gorquad_gb_normalized(I) -> list:
    """The package's reduced basis in the same normal form as
    :func:`sympy_reduced_gb`."""
    gb = I.groebner()
    return sorted((poly_as_dict(g) for g in gb.elements), key=sorted)


# -- catalecticant oracle (every monomial of R_d, every linear multiple) --------


def _linear_multiples(vectors, R: RingCtx):
    """The products x_j * v of vectors {monomial key: coeff}, spanning
    R_1 * span(vectors), read lazily."""
    codec = R.codec
    return ({codec.mul(vk, m): c for m, c in v.items()}
            for v in vectors for vk in codec.var_keys)


def oracle_apolar_ideal(F: Polynomial):
    """apolar_ideal over all of R_d: one catalecticant row per monomial of
    degree d, a kernel vector kept when it lies outside the span of the
    products x_j * v over the whole previous kernel, and the degree-(e+1)
    generators the monomials leading no product of the degree-e kernel.
    Returns (generators, h-vector)."""
    from gorquad.linalg import echelon, left_kernel

    R = F.ring
    e = F.degree()
    codec = R.codec
    gens = []
    kernel = []
    h = [1]
    for d in range(1, e + 1):
        mons = R.monomials_of_degree(d)
        rows = [{codec.div(kf, m): cf for kf, cf in F.terms
                 if codec.divides(m, kf)} for m in mons]
        prev, kernel = kernel, [{mons[i]: c for i, c in v.items()}
                                for v in left_kernel(rows, R.field)]
        h.append(len(mons) - len(kernel))
        below = echelon(_linear_multiples(prev, R), R.field, len(kernel))
        if below.rank < len(kernel):
            gens.extend(R.from_terms(v.items()) for v in kernel
                        if below.reduce(v))
    top = R.monomials_of_degree(e + 1)
    leading = echelon(_linear_multiples(kernel, R), R.field, len(top)).pivots
    one = R.field.one
    gens += [Polynomial(R, ((k, one),)) for k in top if k not in leading]
    return gens, tuple(h)


# -- minimal generators oracle (every row x_j * (m - NF(m))) ---------------------


def _generator_rows(gb, d: int, column: dict):
    """The products x_j * (m - NF(m)), m nonstandard of degree d-1, as dict
    rows over the nonstandard monomials of degree d, read lazily; column
    maps each of those monomials to its row key."""
    from gorquad.invariants import _minus_nf, nonstandard_monomials

    codec = gb.ring.codec
    for m in nonstandard_monomials(gb, d - 1):
        element = _minus_nf(gb, m).terms
        for vk in codec.var_keys:
            yield {column[t]: c for t, c in
                   ((codec.mul(vk, k), c) for k, c in element) if t in column}


def oracle_minimal_generators(gb) -> tuple:
    """minimal_generators with every row of R_1 * [I]_{d-1} echeloned,
    monomial ones included."""
    from gorquad.invariants import _minus_nf, nonstandard_monomials
    from gorquad.linalg import echelon

    degree = gb.ring.codec.degree
    out = []
    for d in sorted({degree(k) for k in gb.lead_keys}):
        if d == 0:
            out.append(gb.ring.one)
            continue
        nonstd_d = nonstandard_monomials(gb, d)
        column = {m: i for i, m in enumerate(nonstd_d)}
        span = echelon(_generator_rows(gb, d, column), gb.ring.field,
                       len(nonstd_d))
        out.extend(_minus_nf(gb, m) for m, i in column.items()
                   if i not in span.pivots)
    return tuple(out)


# -- socle oracle (the annihilator of the variables, every row) -----------------


def oracle_socle_type(gb) -> tuple:
    """socle_type as the annihilator of the variables: one left kernel of the
    rows (NF(x_j * m))_j of every standard monomial m, in each degree."""
    from gorquad.invariants import annihilator, hilbert_function

    xs = gb.ring.variables()
    return tuple(len(annihilator(gb, xs, d))
                 for d in range(hilbert_function(gb).socle_degree + 1))


# -- annihilator oracle (one left kernel of every generator's rows) -------------


def oracle_annihilator(x, gens, d: int, monomials=None) -> list:
    """invariants.annihilator as one left kernel: the row of each given
    standard monomial m (by default every one, descending) holds the normal
    forms NF(m * g) of every generator side by side, and the basis is
    left_kernel's on those rows."""
    from gorquad.invariants import as_basis, standard_monomials
    from gorquad.linalg import left_kernel

    gb = as_basis(x)
    std = standard_monomials(gb, d) if monomials is None else monomials
    parts = [gb.product_rows(d, g, std) for g in gens]
    rows = [{(gi, k): v for gi, part in enumerate(parts)
             for k, v in part[i].items()} for i in range(len(std))]
    return [{std[i]: c for i, c in v.items()}
            for v in left_kernel(rows, gb.ring.field)]


# -- census oracle (the annihilator of F in every degree, every product) --------


def oracle_census_classify(cover_gb, F):
    """census.classify with the whole annihilator of F in each degree below
    r - 1 and every product x_j * v of the previous degree's kernel in the
    echelon for nu_d, d >= 3.  It calls invariants.annihilator, as the
    census now does, so the census's independent oracle is
    test_census.py::test_classify_matches_the_groebner_oracle, which
    classifies a Groebner basis of each colon."""
    import math

    from gorquad.core import AlgebraError
    from gorquad.invariants import (HVector, QuadricClassification,
                                    annihilator, hilbert_value)
    from gorquad.linalg import axpy, echelon

    if not (F.is_homogeneous() and F.degree() == 2):
        raise AlgebraError(f"the census colons by quadrics, not by {F}")
    r, field = cover_gb.ring.nvars, cover_gb.ring.field
    kernels = [annihilator(cover_gb, [F], d) for d in range(r - 1)]
    h = [hilbert_value(cover_gb, d) - len(J)
         for d, J in enumerate(kernels)] + [0, 0]
    if h[0] == 0:
        raise AlgebraError("the form lies in the cover")

    def image(v, rows):
        w = {}
        for m, c in v.items():
            axpy(w, c, rows[m], field)
        return w

    counts = {1: r - h[1], 2: math.comb(h[1] + 1, 2) - h[2]}
    for d in range(3, r):
        target = hilbert_value(cover_gb, d) - h[d]
        times_var = [cover_gb.monomial_rows(d - 1, x.leading_key())
                     for x in cover_gb.ring.variables()]
        products = (image(v, rows)
                    for v in kernels[d - 1] for rows in times_var)
        counts[d] = target - echelon(products, field, target).rank
    nu = {d: n for d, n in counts.items() if n}
    return QuadricClassification(
        hvector=HVector(tuple(h)),
        socle_tuple=None,
        generator_counts=nu,
        gorenstein=None,
        presented_by_quadrics=(set(nu) == {2}),
        had_linear_forms=1 in nu,
    )


# -- compose oracle (each term rebuilt from Polynomial powers and products) -----


def oracle_compose(p: Polynomial, images) -> Polynomial:
    """Polynomial.compose term by term: each term is a constant times the
    powers images[j] ** e_j, multiplied and added as Polynomials."""
    images = tuple(images)
    target = images[0].ring
    exps = p.ring.codec.exps
    out = target.zero
    for k, c in p.terms:
        term = target.constant(c)
        for j, e in enumerate(exps(k)):
            if e:
                term = term * images[j] ** e
        out = out + term
    return out


# -- WLP oracle (every draw of the budget) ----------------------------------------


def oracle_generic_times_rank(I, d: int, policy=None):
    """generic_times_rank drawing all policy.num_samples forms: the first
    report of the highest rank."""
    from gorquad.gin import GenericityPolicy, times_L_rank
    from gorquad.idealops import random_linear_form
    from gorquad.invariants import as_basis

    policy = policy or GenericityPolicy()
    gb = as_basis(I)
    rng = random.Random(policy.seed)
    best = None
    for _ in range(max(policy.num_samples, 1)):
        report = times_L_rank(gb, d, random_linear_form(gb.ring, rng))
        if best is None or report.rank > best.rank:
            best = report
    return best


# -- order-ideal oracles (the divisor scan, per candidate monomial) -------------


def oracle_build_level(gb, levels: list) -> tuple:
    """Degree len(levels) of a basis's quotient table by a divisor scan, on
    this oracle's own levels (std descending, frozenset(std), nf, the rows
    NF(b) of every b in B_1 * std_{d-1}): b = x_j * s, s standard,
    is standard iff it is no leading term and every b / x_k is standard,
    and a nonstandard b reduces through the first x_k dividing b with
    b / x_k nonstandard."""
    from gorquad.linalg import axpy

    d = len(levels)
    codec, field = gb.ring.codec, gb.ring.field
    mul, div, divides = codec.mul, codec.div, codec.divides
    neg, one = field.neg, field.one
    var_keys = [codec.key(tuple(int(i == j) for i in range(codec.nvars)))
                for j in range(codec.nvars)]
    tails = {p.terms[0][0]: p.terms[1:] for p in gb.elements
             if codec.degree(p.terms[0][0]) == d}
    if d == 0:
        prev_set, prev_nf, candidates = frozenset(), {}, {codec.one}
    else:
        prev_std, prev_set, prev_nf = levels[d - 1]
        candidates = {mul(v, s) for v in var_keys for s in prev_std}
    nf = {}
    std = []
    for b in sorted(candidates):
        tail = tails.get(b)
        if tail is not None:
            nf[b] = {k: neg(c) for k, c in tail}
            continue
        vk = next((v for v in var_keys
                   if divides(v, b) and div(b, v) not in prev_set), None)
        if vk is None:
            std.append(b)
            nf[b] = {b: one}
            continue
        row = nf[b] = {}
        for t, c in prev_nf[div(b, vk)].items():
            axpy(row, c, nf[mul(vk, t)], field)
    std.reverse()
    return tuple(std), frozenset(std), nf


def oracle_is_borel_fixed(gb) -> bool:
    """gin.is_borel_fixed on a monomial basis, on exponent vectors: each
    x_i * m / x_j, i < j, of a leading term m must be nonstandard."""
    codec = gb.ring.codec
    for m in gb.lead_keys:
        std = gb.standard_set(codec.degree(m))
        exps = codec.exps(m)
        for j, e in enumerate(exps):
            if not e:
                continue
            for i in range(j):
                shifted = list(exps)
                shifted[j] -= 1
                shifted[i] += 1
                if codec.key(tuple(shifted)) in std:
                    return False
    return True
