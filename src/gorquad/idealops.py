"""Ideal arithmetic: sums, products, intersections, colons, embeddings.

Intersections and colons use the single-auxiliary-variable trick: for ideals
I, J in R = k[x], the ideal t*I + (1-t)*J of k[t, x] meets k[x] exactly in
I ∩ J, so one elimination basis suffices.  A colon by a single polynomial f
is (I ∩ (f)) / f; dividing a basis of the intersection termwise by f gives a
basis of the colon, which we interreduce without re-running the engine.

Everything here is exact.  The auxiliary generators are homogeneous in the
x-grading but not in total degree, so they form no Ideal: the elimination
hands them to the engine (_compute_basis) directly.  Its tail-degree
truncation stays sound in the x-grading; callers that truncate are expected
to certify the result (see GroebnerBasis.certify_complete).
"""

from __future__ import annotations

from .core import AlgebraError, RingMismatchError
from .groebner import (DEFAULT_DEGREE_CAP, GroebnerBasis, Ideal,
                       _compute_basis, interreduce_known_basis)
from .orders import elimination_order
from .poly import Polynomial, RingCtx, ring


def ideal_sum(*ideals: Ideal) -> Ideal:
    if not ideals:
        raise ValueError("need at least one ideal")
    base = ideals[0].ring
    gens = []
    for I in ideals:
        if I.ring != base:
            raise RingMismatchError("summands live in different rings")
        gens.extend(I.gens)
    return Ideal(base, gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatchError("factors live in different rings")
    return Ideal(I.ring, [f * g for f in I.gens for g in J.gens])


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """The exact quotient g / f; raises AlgebraError if f does not divide g."""
    if f.is_zero():
        raise AlgebraError("division by zero polynomial")
    ringc = g.ring
    codec, field = ringc.codec, ringc.field
    lf_key, lf_c = f.terms[0]
    q_terms = []
    rem = g
    while not rem.is_zero():
        lk, lc = rem.terms[0]
        if not codec.divides(lf_key, lk):
            raise AlgebraError("polynomial is not an exact multiple")
        qk = codec.div(lk, lf_key)
        qc = field.div(lc, lf_c)
        q_terms.append((qk, qc))
        rem = rem - Polynomial(ringc, ((qk, qc),)) * f
    return Polynomial(ringc, tuple(q_terms))


# -- the auxiliary-variable machinery -------------------------------------------


def _aux_ring(base: RingCtx) -> RingCtx:
    for candidate in ("t", "t0", "t1", "t2"):
        if candidate not in base.names:
            return ring(base.field, base.nvars + 1, elimination_order(1),
                        names=(candidate,) + base.names)
    raise AlgebraError("could not pick an auxiliary variable name")


def _restrict(p: Polynomial, base: RingCtx) -> Polynomial:
    """Map an aux-variable-free polynomial back down to the base ring."""
    exps = p.ring.codec.exps
    key = base.codec.key
    terms = []
    for k, c in p.terms:
        e = exps(k)
        if e[0]:
            raise AlgebraError("polynomial still involves the auxiliary variable")
        terms.append((key(e[1:]), c))
    return base.from_terms(terms)


def _aux_combination(I: Ideal, J: Ideal, aux: RingCtx):
    """Generators of t*I + (1-t)*J inside the auxiliary ring."""
    shift = tuple(range(1, aux.nvars))
    t = aux.variables()[0]
    one_minus_t = aux.one - t
    gens = [t * g.extend(aux, shift) for g in I.gens]
    gens.extend(one_minus_t * h.extend(aux, shift) for h in J.gens)
    return gens


def _elimination_basis(I: Ideal, J: Ideal, truncate_tail_at):
    """Reduced basis elements of (t*I + (1-t)*J) ∩ k[x], still in the aux ring."""
    aux = _aux_ring(I.ring)
    elements = _compute_basis(aux, _aux_combination(I, J, aux), truncate_tail_at)
    return [p for p in elements if p.terms[0][0][0] == 0], aux


def intersect(I: Ideal, J: Ideal, truncate_at: int | None = None) -> Ideal:
    """I ∩ J, with the reduced basis of the intersection attached."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    free, _ = _elimination_basis(I, J, truncate_at)
    base = I.ring
    elements = tuple(_restrict(p, base) for p in free)
    gb = GroebnerBasis(base, elements, DEFAULT_DEGREE_CAP, truncate_at)
    gb.certify_complete()
    out = Ideal(base, elements)
    out.attach_groebner(gb)
    return out


def colon_form(I: Ideal, f: Polynomial, truncate_at: int | None = None) -> Ideal:
    """The colon I : f for a single nonzero homogeneous f, as an ideal with
    its reduced basis attached.

    With truncate_at = D, the basis is exact through degree D (the auxiliary
    elimination is truncated at D + deg f, which is what dividing by f
    consumes); pass None for the fully computed colon.
    """
    if f.ring != I.ring:
        raise RingMismatchError("polynomial is not in the ideal's ring")
    if f.is_zero():
        raise AlgebraError("colon by the zero polynomial")
    if not f.is_homogeneous():
        raise AlgebraError("colon divisor must be homogeneous")
    base = I.ring
    aux_truncate = None if truncate_at is None else truncate_at + f.degree()
    free, aux = _elimination_basis(I, Ideal(base, [f]), aux_truncate)
    f_aux = f.extend(aux, tuple(range(1, aux.nvars)))
    quotients = [_restrict(exact_divide(p, f_aux), base) for p in free]
    gb = interreduce_known_basis(base, quotients, truncate_at)
    gb.certify_complete()
    out = Ideal(base, gb.elements)
    out.attach_groebner(gb)
    return out


def colon_ideal(I: Ideal, J: Ideal, truncate_at: int | None = None) -> Ideal:
    """The colon I : J, intersecting single-generator colons; generators of J
    already inside I contribute the unit ideal and are skipped."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    result = None
    for f in J.gens:
        if I.contains(f):
            continue
        step = colon_form(I, f, truncate_at=truncate_at)
        if result is None:
            result = step
        else:
            result = intersect(result, step, truncate_at=truncate_at)
    if result is None:
        return Ideal(I.ring, [I.ring.one])
    return result


# -- linear forms and ring embeddings --------------------------------------------


def random_linear_form(ring_: RingCtx, rng, all_nonzero: bool = False) -> Polynomial:
    """A random nonzero linear form; with all_nonzero, every coordinate is a
    unit (useful as a cheap genericity proxy over small fields)."""
    field = ring_.field
    vs = ring_.variables()
    for _ in range(1000):
        if all_nonzero:
            coeffs = [field.random_nonzero(rng) for _ in vs]
        else:
            coeffs = [field.random(rng) for _ in vs]
        if any(c != field.zero for c in coeffs):
            out = ring_.zero
            for c, v in zip(coeffs, vs):
                if c != field.zero:
                    out = out + v.scale(c)
            return out
    raise AlgebraError("could not sample a nonzero linear form")


def embed_ideal(I: Ideal, target: RingCtx, var_map=None) -> Ideal:
    """Re-embed the generators of I into a larger ring."""
    return Ideal(target, [g.extend(target, var_map) for g in I.gens])
