"""Builders for the artinian algebras under study.

Everything here returns `Ideal` objects whose quotients are artinian, and
every randomized builder takes an explicit seed and raises
`GenericityError` after a bounded number of rescue attempts instead of
looping forever.  The linkage machinery verifies each step against the
predicted h-vector and refuses to return an unverified result.
"""

from __future__ import annotations

import itertools
import math
import random

from .core import (
    AlgebraError,
    FieldSpec,
    GenericityError,
    LinkageError,
    RingMismatchError,
)
from .groebner import Ideal, _known_basis, _order_ideal_step
from .idealops import random_homogeneous, random_linear_form
from .invariants import (
    HVector,
    _variable_multiples,
    annihilator,
    classify,
    hilbert_function,
    ideal_degree_basis,
    multiplication_rank,
)
from .linalg import axpy, echelon, left_kernel
from .poly import Polynomial, RingCtx, ring

__all__ = [
    "apolar_ideal",
    "complete_intersection_hvector",
    "contract",
    "double_link",
    "embed_with_linear_gens",
    "expected_group_hvector",
    "expected_link_hvector",
    "gorenstein_cut",
    "group_table_algebra",
    "link",
    "link_by_squares",
    "nonunique_hf_pair",
    "quadric_ci",
    "random_dual_form",
    "random_homogeneous",
    "regular_sequence_in",
    "tensor_algebras",
]


# -- random forms ----------------------------------------------------------------


def random_dual_form(R: RingCtx, degree: int, rng: random.Random) -> Polynomial:
    """Dense random form used as a dual socle generator (all coefficients
    nonzero, so no accidental rank drop at the monomial level).  Over GF(2)
    that form is the sum of all monomials whatever the seed, so there the
    coefficients are drawn uniformly instead."""
    return random_homogeneous(R, degree, rng, all_nonzero=R.field.p != 2)


# -- complete intersections ------------------------------------------------------


def complete_intersection_hvector(degrees) -> HVector:
    """h-vector of an artinian complete intersection with the given
    generator degrees: the coefficientwise product of all-ones blocks."""
    out = HVector((1,))
    for d in degrees:
        if d < 1:
            raise ValueError(f"generator degree {d} must be positive")
        out = out * HVector((1,) * d)
    return out


def _regular_sequence_hvector(I: Ideal) -> HVector | None:
    """The certificate that the generators of I form a regular sequence:
    h(I) when it is the complete-intersection vector of their degrees, and
    None when it is not or the quotient is not artinian.  A degree-1 factor
    of that vector is 1, so a linear generator in the span of the other
    linear ones passes too: R/I is still a complete intersection (see
    _hvector_with_form)."""
    try:
        h = hilbert_function(I)
    except AlgebraError:
        return None
    ci = complete_intersection_hvector([g.degree() for g in I.gens])
    return h if h == ci else None


def quadric_ci(r: int, field: FieldSpec | None = None, style: str = "monomial",
               seed: int = 0) -> Ideal:
    """Complete intersection of r quadrics in r variables.

    ``style="monomial"`` takes the squares of the variables;
    ``style="random"`` draws dense quadrics from the seed and accepts them
    only if the h-vector comes out binomial, reseeding up to ten times.
    """
    if r < 1:
        raise ValueError("need at least one variable")
    field = field if field is not None else FieldSpec.rationals()
    R = ring(field, r)
    xs = R.variables()
    if style == "monomial":
        return Ideal(R, [v * v for v in xs])
    if style != "random":
        raise ValueError(f"unknown style {style!r}")
    rng = random.Random(seed)
    for _ in range(10):
        cand = Ideal(R, [random_homogeneous(R, 2, rng) for _ in range(r)])
        if _regular_sequence_hvector(cand) is not None:
            return cand
    raise GenericityError(
        f"no complete intersection of quadrics after 10 draws (r={r}, seed={seed})")


# -- inverse systems -------------------------------------------------------------


def contract(p: Polynomial, F: Polynomial) -> Polynomial:
    """Contraction action of the ring on its graded dual: a monomial acts on
    a dual monomial by exponent subtraction with coefficient one (and kills
    it when some exponent would go negative).  Unlike differentiation this
    pairing stays perfect in every characteristic."""
    if p.ring != F.ring:
        raise RingMismatchError("contraction needs both forms in one ring")
    div, divides = p.ring.codec.div, p.ring.codec.divides
    acc = {}
    for kp, cp in p.terms:
        axpy(acc, cp, {div(kf, kp): cf for kf, cf in F.terms if divides(kp, kf)},
             p.ring.field)
    return Polynomial(p.ring, tuple(sorted(acc.items(), reverse=True)))


def apolar_ideal(F: Polynomial) -> Ideal:
    """Annihilator of a homogeneous dual form under contraction.

    Ann(F)_d is the degree-d catalecticant kernel for d <= e = deg(F), and
    R_{e+1} lies in Ann(F).  A monomial that divides no term of F has an
    empty catalecticant row, so Ann(F)_d is M_d, the span of those
    non-divisors, plus the kernel K_d of the rows of the divisors D_d.
    Hence h_d = |D_d| - dim K_d for d <= e, and h_d = 0 above e: that is
    the Hilbert function, which the ideal stores.  It records F too, and
    its Groebner basis is read off F (groebner._apolar_entries).

    A kernel vector is a new generator when it lies outside
    R_1 * Ann(F)_{d-1}, and the degree-(e+1) generators are the monomials
    leading no element of R_1 * Ann(F)_e.  That span test needs no Groebner
    basis and is exact: the generators below degree d span Ann(F) in each
    lower degree, so their degree-d part is R_1 * Ann(F)_{d-1}, and an
    echelon form's pivots are the leading terms of its span.  The test runs
    modulo the monomial subspace P_d = R_1 * M_{d-1}, which lies in that
    span, by dropping P_d's columns: outside P_d are the divisors and the
    minimal non-divisors N_d (those whose every quotient by a variable is a
    divisor), and modulo P_d the span is R_1 * K_{d-1}.  So the candidates,
    in the descending order of the monomials they are found at, are the
    unit vectors of N_d and the vectors of K_d, and R_d is never listed
    (Iarrobino-Kanev, LNM 1721, 1999, for the inverse-system facts).

    The generating set need not be minimal: kernel vectors that depend on
    one another modulo R_1 * Ann(F)_{d-1} are all kept, so F = x1^2 + x1*x2
    + x1*x3 over GF(2) gives 6 generators for 3 minimal ones.  Use
    `invariants.minimal_generators` for a minimal set.
    """
    R = F.ring
    if F.is_zero() or not F.is_homogeneous():
        raise ValueError("need a nonzero homogeneous dual form")
    e = F.degree()
    if e < 1:
        raise ValueError("the dual form must have positive degree")
    codec, field = R.codec, R.field
    div, divides = codec.div, codec.divides
    one = field.one
    divisors = [set() for _ in range(e + 2)]    # D_d, empty for d = e + 1
    divisors[e].update(k for k, _ in F.terms)
    for d in range(e, 0, -1):
        divisors[d - 1].update(div(m, v) for m in divisors[d]
                               for v in codec.var_keys if divides(v, m))
    gens: list[Polynomial] = []
    kernel: list[dict] = []         # K_{d-1}, as {monomial key: coeff}
    h = [1]
    below = {codec.one: 0}          # D_{d-1}, as {monomial key: support mask}
    for d in range(1, e + 2):
        D = divisors[d]
        # D is an order ideal, so one step up from D_{d-1} gives every
        # divisor's mask and, outside D, the minimal non-divisors N_d
        gen, supp = _order_ideal_step(codec, below)
        fresh = [c for c, m in supp.items() if gen[c] == m and c not in D]
        below = {c: supp[c] for c in D}
        mons = sorted(D, reverse=True)
        rows = [{div(kf, m): cf for kf, cf in F.terms if divides(m, kf)}
                for m in mons]
        prev, kernel = kernel, [{mons[i]: c for i, c in v.items()}
                                for v in left_kernel(rows, field)]
        kept = {k: k for k in itertools.chain(D, fresh)}
        span = echelon(_variable_multiples(codec, (v.items() for v in prev),
                                           kept),
                       field, len(fresh) + len(kernel))
        if d > e:
            gens.extend(Polynomial(R, ((k, one),))
                        for k in sorted(fresh, reverse=True)
                        if k not in span.pivots)
            break
        h.append(len(D) - len(kernel))
        if span.rank < len(fresh) + len(kernel):   # else it is Ann(F)_d mod P_d
            # the vector found at a divisor row is 1 there, its lowest key
            found = [(min(v), v) for v in kernel]
            found += [(k, {k: one}) for k in fresh]
            found.sort(key=lambda kv: kv[0], reverse=True)
            gens.extend(R.from_terms(v.items()) for _, v in found
                        if span.reduce(v))
    I = Ideal(R, gens)
    I._hilbert = HVector(tuple(h))
    I._dual_form = F
    return I


# -- tensor products and the (r, i) family ---------------------------------------


def tensor_algebras(I: Ideal, J: Ideal) -> Ideal:
    """Present the tensor product of the two quotients in the polynomial
    ring on the disjoint union of their variables.  The h-vector of the
    result is the coefficientwise product of the factors' h-vectors."""
    RI, RJ = I.ring, J.ring
    if RI.field != RJ.field:
        raise RingMismatchError("tensor factors must share one coefficient field")
    R = ring(RI.field, RI.nvars + RJ.nvars)
    left = tuple(range(RI.nvars))
    right = tuple(range(RI.nvars, RI.nvars + RJ.nvars))
    gens = [p.extend(R, left) for p in I.gens]
    gens += [q.extend(R, right) for q in J.gens]
    return Ideal(R, gens)


def _check_cell(r: int, i: int) -> None:
    if r < 2:
        raise ValueError("the family needs at least two variables")
    if not 0 <= i <= r - 2:
        raise ValueError(f"cell index i={i} out of range for r={r}")


def expected_group_hvector(r: int, i: int) -> HVector:
    """Predicted h-vector for the (r, i) cell: (1, i+2, 1) times r-i-2
    copies of (1, 1)."""
    _check_cell(r, i)
    out = HVector((1, i + 2, 1))
    for _ in range(r - i - 2):
        out = out * HVector((1, 1))
    return out


def group_table_algebra(r: int, i: int, field: FieldSpec | None = None) -> Ideal:
    """Quadric-presented Gorenstein algebra realizing the (r, i) cell, with
    h2 = C(r,2) - C(i+2,2) + 1.

    For i = 0 this is the complete intersection of squares; otherwise the
    annihilator of a sum of i+2 squares (a full-rank quadric in every
    characteristic under contraction) juxtaposed with r-i-2 one-variable
    square quotients.
    """
    _check_cell(r, i)
    field = field if field is not None else FieldSpec.rationals()
    if i == 0:
        return quadric_ci(r, field, style="monomial")
    m = i + 2
    Rm = ring(field, m)
    xs = Rm.variables()
    F = Rm.zero
    for v in xs:
        F = F + v * v
    block = apolar_ideal(F)
    R = ring(field, r)
    ys = R.variables()
    gens = [p.extend(R, tuple(range(m))) for p in block.gens]
    gens += [ys[j] * ys[j] for j in range(m, r)]
    return Ideal(R, gens)


# -- linkage ---------------------------------------------------------------------


def expected_link_hvector(h_ci: HVector, h_inside: HVector) -> HVector:
    """Predicted h-vector of the colon of an ideal out of an artinian
    complete-intersection cover: h(i) = h_c(i) - h_I(s - i), where s is the
    socle degree of the cover.  A negative entry means the inputs were not
    nested and raises LinkageError."""
    s = h_ci.socle_degree
    vals = []
    for idx in range(s + 1):
        v = h_ci[idx] - h_inside[s - idx]
        if v < 0:
            raise LinkageError(
                f"linkage arithmetic gives h({idx}) = {v} < 0; "
                "the algebra being linked does not fit inside the cover")
        vals.append(v)
    return HVector(tuple(vals))


def _hvector_with_form(cover: Ideal, f: Polynomial) -> HVector:
    """h(cover + (f)) of an artinian cover and a form f, with no basis of
    that ideal: in B = R/cover the degree-d part of (cover + (f))/cover is
    the image of multiplication by f from B_{d-e}, e = deg f, so h_d =
    h_B(d) - rank(x f: B_{d-e} -> B_d), each rank one echelon in the
    cover's table (invariants.multiplication_rank).  Those ranks are cached
    on the cover's basis, and _colon_out_of reads them back as its
    certificates of the degrees where f kills nothing.

    When the cover passes the regular-sequence certificate, B is Gorenstein
    of socle degree s: h_B is then the product of 1 + t + ... + t^(d_i - 1)
    over the generators, so if the linear ones span rho dimensions, h_B(1)
    = n - rho counts the others, and B is an artinian quotient of a
    polynomial ring in n - rho variables by n - rho forms, a complete
    intersection.  So B's pairing B_k x B_{s-k} -> B_s is perfect, under it
    multiplication by f from B_k is the transpose of multiplication by f
    from B_{s-e-k}, the two ranks agree, and only k <= (s - e)/2 is
    computed.  Any other cover computes every degree."""
    gb = cover.groebner()
    h_B = hilbert_function(gb)
    s, e = h_B.socle_degree, f.degree()
    paired = _regular_sequence_hvector(cover) is not None
    rank = {}
    for k in range(s - e + 1):
        rank[k] = (rank[s - e - k] if paired and s - e - k < k
                   else multiplication_rank(gb, f, k))
    return HVector(tuple(h_B[d] - rank.get(d - e, 0) for d in range(s + 1)))


def _colon_out_of(cover: Ideal, gens, expected: HVector) -> Ideal:
    """cover : (gens) for an artinian complete intersection cover, called
    only by `_link`: the cover plus the lifts of the annihilator of the gens
    in B = R/cover, degree 1 through top, one past the predicted socle
    degree or B's socle degree if that is lower.  Raises LinkageError unless
    the result has the predicted h-vector, and otherwise stores that
    h-vector and attaches its reduced basis, read off B's table with no
    engine run.

    Per degree: the annihilator is an ideal of B, so for d <= top the result
    J has J_d = cover_d + lift(ann_d) = (cover : gens)_d, and h_d = h_B(d) -
    dim ann_d.  Above top h_d = 0 once that vector is the prediction: then
    B_{top+1} = 0, or h_top = 0, so J_top = R_top.  The gens inside the
    cover multiply B to zero, so they are dropped first: their columns are
    empty, and the kernel is the same.

    Where linkage predicts an empty annihilator, h_B(d) = expected(d), the
    degree gets a rank certificate in place of a kernel: the
    multiplication_rank of the first form, for a single form the rank
    _link's h-vector check already took.  The annihilator of the gens lies
    in the first form's, so full rank |std_d| proves ann_d = 0 for any
    number of forms, h_d = h_B(d) is still a computed number, and the
    h-vector check compares computed numbers with the prediction.  A rank
    short of |std_d| falls through to the kernel, whose vectors put h_d
    below the prediction, so a wrong prediction still raises.

    The basis (as in FGLM, Faugere-Gianni-Lazard-Mora 1993): the lifts of
    ann_d are written over B's standard monomials, so the pivots of their
    echelon form are leading terms of J_d outside LT(cover).  They number
    dim ann_d = dim J_d - dim cover_d, so with LT(cover)_d they are all of
    LT(J)_d, and the cover's basis plus the echelon rows of every degree
    through top is a Groebner basis of J; above top, LT(J) is generated
    already.  groebner._known_basis reduces it, unless the engine could
    meet the degree cap on J's generators, and then it runs as before."""
    R = cover.ring
    gb = cover.groebner()
    h_B = hilbert_function(gb)
    gens = [g for g in gens if not gb.contains(g)]
    out = list(cover.gens)
    entries = [(p.terms[0][0], dict(p.terms[1:])) for p in gb.elements]
    got = [h_B[0]]
    for d in range(1, min(expected.socle_degree + 1, h_B.socle_degree) + 1):
        if (h_B[d] == expected[d] and gens
                and multiplication_rank(gb, gens[0], d) == h_B[d]):
            got.append(h_B[d])
            continue
        ann = annihilator(gb, gens, d)
        out.extend(R.from_terms(v.items()) for v in ann)
        got.append(h_B[d] - len(ann))
        for lm, row in echelon(ann, R.field).pivots.items():
            entries.append((lm, {k: c for k, c in row.items() if k != lm}))
    got = HVector(tuple(got))
    if got != expected:
        raise LinkageError(
            f"linked h-vector {got} does not match the predicted {expected}")
    colon = Ideal(R, out)
    colon._hilbert = got
    basis = _known_basis(R, colon.gens, entries)
    if basis is not None:
        colon.attach_groebner(basis)
    return colon


def _link(I: Ideal, cover) -> Ideal:
    """The colon of the ideal out of the complete intersection cover, given
    as its generators or as an Ideal of them, checked: the generators must
    lie in the ideal's ring and in the ideal and form a regular sequence,
    and the colon must have the predicted linked h-vector; any failure
    raises LinkageError.  A cover with nothing left over gives the unit
    ideal.  The generators are the cover's, then the annihilator's degree
    by degree, as `_colon_out_of` builds them.  Its callers, every linkage
    step: link, link_by_squares, _residual_gorenstein, nonunique_hf_pair.

    A cover given as an Ideal is used as it is, so callers that colon
    several ideals out of one cover share its basis, quotient table,
    regular-sequence certificate and cached ranks.  A cover form among the
    ideal's generators, term for term, lies in it with no membership test.
    When those hold every cover form and the ideal's generators outside the
    cover are one form f, the ideal is cover + (f), and h(I) comes from the
    verified cover's table (_hvector_with_form); so the ideal needs no
    basis, and the colon reads its certificates back from those ranks."""
    R = I.ring
    gens = tuple(cover.gens if isinstance(cover, Ideal) else cover)
    if not gens:
        raise LinkageError("a linkage step needs at least one form")
    listed = {g.terms for g in I.gens}
    for g in gens:
        if g.ring != R:
            raise RingMismatchError("linkage forms must live in the ideal's ring")
        if g.terms not in listed and not I.contains(g):
            raise LinkageError("the complete intersection is not inside the ideal")
    ci = cover if isinstance(cover, Ideal) else Ideal(R, gens)
    h_ci = _regular_sequence_hvector(ci)
    if h_ci is None or len(ci.gens) < len(gens):    # Ideal drops 0 and repeats
        raise LinkageError("the chosen forms are not a regular sequence")
    in_cover = {g.terms for g in ci.gens}
    rest = [g for g in I.gens if g.terms not in in_cover]
    h_I = (_hvector_with_form(ci, rest[0]) if len(rest) == 1
           else hilbert_function(I))
    expected = expected_link_hvector(h_ci, h_I)
    if expected.total == 0:
        return Ideal(R, [R.one])
    return _colon_out_of(ci, rest, expected)


def link(I: Ideal, cover) -> Ideal:
    """Colon the ideal out of a complete intersection contained in it, the
    cover given as its forms or as an Ideal of them.

    The colon is the cover c plus the annihilator of the ideal in the cover
    quotient B: (c : I)/c is {p in B : p*I = 0 in B}.  The checks are
    `_link`'s, so a LinkageError reports forms outside the ideal, forms
    that are no regular sequence, or a colon off the predicted h-vector.
    Returns the colon as its reduced Groebner basis, attached; linking an
    ideal to itself returns the unit ideal.
    """
    gb = _link(I, cover).groebner()
    out = Ideal(I.ring, gb.elements)
    out.attach_groebner(gb)
    return out


def link_by_squares(I: Ideal) -> Ideal:
    """Colon the ideal out of the complete intersection of variable squares.

    B = R/(x1^2, ..., xn^2) has the squarefree monomials as its standard
    monomials: in the inverse-system picture it is the apolar algebra of
    the dual monomial x1...xn.  The checks are `link`'s; unlike `link` the
    generators are returned as built, the squares first and then the
    annihilator degree by degree.  An ideal that lists every square among
    its generators, plus one more form, needs no basis of its own (see
    `_link`).  nonunique_hf_pair's alpha0 colons take `_link` with one
    squares cover for all of them.
    """
    return _link(I, [v * v for v in I.ring.variables()])


def _squarefree_exps(n: int, d: int):
    for combo in itertools.combinations(range(n), d):
        e = [0] * n
        for j in combo:
            e[j] = 1
        yield tuple(e)


# The sparse draws regular_sequence_in makes, then its dense ones.
_SPARSE_ATTEMPTS = 10
_DENSE_ATTEMPTS = 20


def regular_sequence_in(I: Ideal, degrees, rng: random.Random) -> tuple:
    """Random forms of the prescribed degrees inside the ideal that form a
    regular sequence, certified by the complete-intersection h-vector.
    _SPARSE_ATTEMPTS sparse draws come first, then _DENSE_ATTEMPTS dense
    ones.  Raises GenericityError once the sample budget runs out."""
    R = I.ring
    field = R.field
    gb = I.groebner()
    bases = {}
    for d in set(degrees):
        bases[d] = ideal_degree_basis(gb, d)
        if not bases[d]:
            raise GenericityError(f"the ideal has no elements of degree {d}")
    degrees = tuple(degrees)
    for attempt in range(_SPARSE_ATTEMPTS + _DENSE_ATTEMPTS):
        # start with very sparse combinations and widen on each retry; any
        # verified regular sequence gives the same linkage arithmetic, and a
        # sparse cover has short generators, which makes its h-vector check
        # (a Groebner basis) cheaper; link's annihilator in R/cover costs
        # about the same either way.  Then draw uniform elements of the
        # whole degree-d part: over GF(2) a sparse draw is a plain sum of a
        # few basis elements, and once the width reaches the basis size it
        # is always the same sum.
        picks = []
        for d in degrees:
            if attempt < _SPARSE_ATTEMPTS:
                p = _random_combination(bases[d], field, rng, 2 + attempt,
                                        field.random_nonzero)
            else:
                p = _random_combination(bases[d], field, rng, len(bases[d]),
                                        field.random)
            if p is None:
                break
            picks.append(p)
        if len(picks) != len(degrees):
            continue
        if _regular_sequence_hvector(Ideal(R, picks)) is not None:
            return tuple(picks)
    raise GenericityError(
        f"no regular sequence of degrees {degrees} in "
        f"{_SPARSE_ATTEMPTS + _DENSE_ATTEMPTS} attempts")


def _random_combination(polys, field, rng, width, coefficient):
    """A nonzero combination of `width` of the polys, each scaled by
    coefficient(rng); None after five zero draws."""
    take = min(len(polys), max(width, 1))
    for _ in range(5):
        acc = None
        for b in rng.sample(polys, take):
            c = coefficient(rng)
            t = b.scale(c)
            acc = t if acc is None else acc + t
        if acc is not None and not acc.is_zero():
            return acc
    return None


def embed_with_linear_gens(I: Ideal, nvars: int) -> Ideal:
    """View the same quotient in a larger polynomial ring by adding the new
    variables as linear generators; the h-vector does not change."""
    R = I.ring
    if nvars < R.nvars:
        raise ValueError("cannot embed into fewer variables")
    if nvars == R.nvars:
        return I
    T = ring(R.field, nvars, R.order)
    ts = T.variables()
    gens = [p.extend(T, tuple(range(R.nvars))) for p in I.gens]
    gens += [ts[j] for j in range(R.nvars, nvars)]
    return Ideal(T, gens)


def double_link(r: int, field: FieldSpec | None = None) -> tuple:
    """Two deterministic linkage steps from a monomial seed in r variables,
    landing on the symmetric h-vector with entries C(r-1, j) + C(r-3, j-1).

    The seed is the squares of the first r-3 variables plus the last three
    variables; the first cover swaps one of those variables for the missing
    squares, and the second cover is the full complete intersection of
    squares, which lies in the first colon because every square multiplies
    the seed into the first cover.  Returns (intermediate, final).
    """
    if r < 5:
        raise ValueError("the double link needs at least five variables")
    field = field if field is not None else FieldSpec.rationals()
    R = ring(field, r)
    xs = R.variables()
    seed_gens = [xs[j] * xs[j] for j in range(r - 3)] + list(xs[r - 3:])
    I0 = Ideal(R, seed_gens)
    first = tuple([xs[r - 3]] + [xs[j] * xs[j] for j in range(r - 3)]
                  + [xs[r - 2] * xs[r - 2], xs[r - 1] * xs[r - 1]])
    J1 = link(I0, first)
    second = tuple(v * v for v in xs)
    J2 = link(J1, second)
    return J1, J2


# -- pairs with matching border data ----------------------------------------------


def _embedding(I: Ideal, new_count: int) -> tuple:
    """The ring with new_count fresh leading variables, the map of the
    ideal's variables into it, and the h-vector predicted for the ideal's
    link there by a complete intersection of quadrics."""
    n = I.ring.nvars + new_count
    expected = expected_link_hvector(
        complete_intersection_hvector([2] * n), hilbert_function(I))
    return ring(I.ring.field, n), tuple(range(new_count, n)), expected


def _residual_almost_ci(G: Ideal, cover: list, new_count: int) -> tuple:
    """Embed a Gorenstein stage with fresh leading variables and link it by
    the quadric complete intersection (new squares) + cover.

    The residual of a Gorenstein ideal out of any complete-intersection
    cover is the cover plus a single extra generator; at every stage of the
    towers built here that generator is a quadric, the degree-2 annihilator
    of the embedded stage in the cover quotient.  Returns (residual, its
    cover, extra quadric).

    The residual is cover + (extra), so its h-vector is read off the
    cover's table (_hvector_with_form) with no basis of the residual.  That
    vector is exact, so the residual stores it.  It must be the linkage
    prediction: the residual lies in cover : inside, whose h-vector
    the prediction is (Peskine-Szpiro), so equal vectors prove the two
    ideals equal.
    """
    R, vmap, expected = _embedding(G, new_count)
    new_lin = list(R.variables()[:new_count])
    big_cover = [v * v for v in new_lin] + [g.extend(R, vmap) for g in cover]
    inside = new_lin + [g.extend(R, vmap) for g in G.gens]
    cover_ideal = Ideal(R, big_cover)
    cover_gb = cover_ideal.groebner()
    # the embedded squares lie in the cover: empty columns, the same kernel
    sols = annihilator(cover_gb, [g for g in inside if not cover_gb.contains(g)],
                       2)
    if len(sols) != 1:
        raise LinkageError(
            f"expected one residual quadric over the cover, found {len(sols)}")
    extra = R.from_terms(sols[0].items())
    got = _hvector_with_form(cover_ideal, extra)
    if got != expected:
        raise LinkageError(
            f"residual h-vector {got} does not match the predicted {expected}")
    residual = Ideal(R, big_cover + [extra])
    residual._hilbert = got
    return residual, big_cover, extra


def _residual_gorenstein(J: Ideal, cover: list, extra) -> tuple:
    """Embed an almost complete intersection (cover + one quadric) with a
    fresh leading variable and link it by the cover whose new square absorbs
    the extra quadric.

    That cover turns the embedded ideal into (cover) + (new variable), so
    the residual is Gorenstein; its generators beyond the cover are the
    annihilator of the new variable in the cover quotient, checked by
    `_link` as every other step.  Returns (residual, its cover).
    """
    R = ring(J.ring.field, J.ring.nvars + 1)
    vmap = tuple(range(1, R.nvars))
    x0 = R.variables()[0]
    big_cover = ([x0 * x0 + extra.extend(R, vmap)]
                 + [g.extend(R, vmap) for g in cover])
    return _link(Ideal(R, big_cover + [x0]), Ideal(R, big_cover)), big_cover


def linkage_grow(G: Ideal, rounds: int = 1, first_new_vars: int = 1) -> tuple:
    """Grow a Gorenstein quotient by alternating liaison inside covers of
    perturbed squares.

    Each round embeds the current stage with fresh leading variables and
    links it to an almost complete intersection (the cover plus one extra
    quadric), then embeds once more and links back, absorbing the extra
    quadric into the newest square so the residual cover stays inside the
    ideal; the result is Gorenstein with socle degree two higher.  The seed's
    ideal must contain the square of every variable.  Returns all the stages
    in order: (aci_1, gorenstein_1, aci_2, gorenstein_2, ...).
    """
    if rounds < 1:
        raise ValueError("need at least one growth round")
    cover = [v * v for v in G.ring.variables()]
    listed = {g.terms for g in G.gens}
    for sq in cover:
        if sq.terms not in listed and not G.contains(sq):
            raise LinkageError(
                "the growth seed must contain every variable square")
    stages = []
    new_count = first_new_vars
    for _ in range(rounds):
        J, cover, extra = _residual_almost_ci(G, cover, new_count)
        stages.append(J)
        G, cover = _residual_gorenstein(J, cover, extra)
        stages.append(G)
        new_count = 1
    return tuple(stages)


def squarefree_full_form(R: RingCtx, d: int) -> Polynomial:
    """The sum of every squarefree degree-d monomial; its annihilator is a
    Gorenstein quotient of socle degree d containing all variable squares."""
    if not 0 < d <= R.nvars:
        raise ValueError("degree must be between 1 and the variable count")
    one = R.field.one
    return R.from_terms((R.codec.key(e), one) for e in _squarefree_exps(R.nvars, d))


def penultimate_socle_algebras(r: int, field: FieldSpec | None = None) -> tuple:
    """Gorenstein quotients in r variables with socle degree r - 1, one for
    each achievable drop of the middle value: h2 = C(r,2) - beta + 1 for
    beta = 1, 2, 3.

    Each starts from the annihilator of the full squarefree form of degree
    r - 3 in r - beta variables (socle degree r - 3) and runs one liaison
    growth round, embedding with beta - 1 extra variables on the way to the
    almost-complete-intersection stage.  Returned in order beta = 1, 2, 3.
    """
    if r < 5:
        raise ValueError("the sweep needs r >= 5")
    field = field if field is not None else FieldSpec.prime(32003)
    if field.p == 2:
        raise ValueError("square-cover liaison needs odd or zero characteristic")
    out = []
    for beta in (1, 2, 3):
        seed = apolar_ideal(squarefree_full_form(ring(field, r - beta), r - 3))
        out.append(linkage_grow(seed, rounds=1, first_new_vars=beta - 1)[-1])
    return tuple(out)


def _alpha1_towers(r: int, field: FieldSpec) -> tuple:
    """Two alternating linkage towers ending in r variables: one seeded on a
    complete intersection of squares, one on an apolar algebra of the same
    socle degree with one more variable."""
    # The squarefree quadric's annihilator has the (1, 3, 1) quotient of a
    # sum of squares and contains every square, as square covers need.
    offdiagonal = apolar_ideal(squarefree_full_form(ring(field, 3), 2))
    if r % 2:
        seed_a, jump_a = quadric_ci(2, field), 2
        seed_b = offdiagonal
    else:
        seed_a, jump_a = quadric_ci(3, field), 2
        seed_b = tensor_algebras(offdiagonal, quadric_ci(1, field))
    pair = []
    for G, jump in ((seed_a, jump_a), (seed_b, 1)):
        rounds = (r - G.ring.nvars - jump + 1) // 2
        pair.append(linkage_grow(G, rounds=rounds, first_new_vars=jump)[-1])
    return tuple(pair)


def nonunique_hf_pair(r: int, target: str = "alpha1",
                      field: FieldSpec | None = None, seed: int = 0) -> tuple:
    """Two Gorenstein algebras in r variables whose Hilbert functions agree
    through degree 2 and split in the middle.

    ``target="alpha1"`` (h2 one below the generic quadric count) alternates
    almost-complete-intersection and Gorenstein linkage steps from seeds of
    matching parity, choosing every cover among minimal generators so the
    residuals stay Gorenstein; fully deterministic (the seed argument is
    unused), needs r >= 7 and odd or zero characteristic (default
    GF(32003)).

    ``target="alpha0"`` (h2 equal to the generic quadric count) colons the
    complete intersection of squares by a general linear form versus one
    supported on only five variables; needs r >= 7 and characteristic zero
    or p > r (default rationals), since the general colon relies on
    maximal-rank multiplication maps.
    """
    if target == "alpha1":
        if r < 7:
            raise ValueError("the tower construction needs r >= 7")
        field = field if field is not None else FieldSpec.prime(32003)
        if field.p == 2:
            raise ValueError("the tower construction needs odd or zero "
                             "characteristic")
        pair = _alpha1_towers(r, field)
        hA = hilbert_function(pair[0])
        hB = hilbert_function(pair[1])
        if (hA[0], hA[1], hA[2]) != (hB[0], hB[1], hB[2]) or hA == hB:
            raise GenericityError(f"tower pair came out wrong: {hA} vs {hB}")
        return pair
    if target == "alpha0":
        if r < 7:
            raise ValueError("the colon pair needs r >= 7")
        field = field if field is not None else FieldSpec.rationals()
        if field.p is not None and field.p <= r:
            raise ValueError("needs characteristic zero or p > r")
        R = ring(field, r)
        xs = R.variables()
        squares = [v * v for v in xs]
        cover = Ideal(R, squares)     # one basis and table for every colon
        special = xs[0] + xs[1] + xs[2] + xs[3] + xs[4]
        I_special = _link(Ideal(R, squares + [special]), cover)
        rng = random.Random(seed)
        target_h3 = math.comb(r, 3)
        for _ in range(5):
            L = random_linear_form(R, rng, all_nonzero=True)
            I_general = _link(Ideal(R, squares + [L]), cover)
            if hilbert_function(I_general)[3] == target_h3:
                return I_general, I_special
        raise GenericityError(
            f"no sufficiently general linear form in 5 draws (seed={seed})")
    raise ValueError(f"unknown target {target!r}")


# -- generic Gorenstein reduction --------------------------------------------------


def gorenstein_cut(I: Ideal, seed: int = 0) -> Ideal:
    """Add h2 - 1 random quadrics to a quadric-presented algebra, aiming at
    the minimal Gorenstein h-vector (1, r, 1); verifies the result and
    retries up to five seeds."""
    R = I.ring
    h = hilbert_function(I)
    h2 = h[2]
    target = HVector((1, R.nvars, 1))
    if h2 <= 1 and h == target:
        return I
    rng = random.Random(seed)
    for _ in range(5):
        extra = [random_homogeneous(R, 2, rng) for _ in range(max(h2 - 1, 0))]
        J = Ideal(R, tuple(I.gens) + tuple(extra))
        try:
            cls = classify(J)
        except AlgebraError:
            continue
        if cls.hvector == target and cls.gorenstein:
            return J
    raise GenericityError(
        f"no cut down to {target} in 5 attempts (seed={seed})")
