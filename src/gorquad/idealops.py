"""Ideal arithmetic: sums, intersections, colons.

Intersections and colons eliminate one auxiliary variable.  For homogeneous
ideals I, J in R = k[x], the ideal K = t*I + (u-t)*J of k[t, x, u] is
homogeneous, and K ∩ k[x, u] = u*(I ∩ J): setting t = 0 sends K into u*J and
t = u sends it into u*I, while u*p = t*p + (u-t)*p for p in I ∩ J.  So the
t-free elements of K's reduced basis in the order eliminating t are u*q, q
running over the degrevlex reduced basis of I ∩ J, and a basis of K
truncated at degree D + 1 gives that of I ∩ J through degree D.  A colon by
a single polynomial f is (I ∩ (f)) / f; dividing a basis of the intersection
termwise by f gives generators of the colon.  The attached basis is
Ideal.groebner's on those generators, in the ring's own order.  Everything
here is exact.
"""

from __future__ import annotations

from .core import AlgebraError, GenericityError, RingMismatchError
from .groebner import Ideal
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


# -- the auxiliary-variable elimination ------------------------------------------


def _elimination_basis(I: Ideal, J: Ideal, truncate_at):
    """The degrevlex reduced basis of I ∩ J (through degree truncate_at),
    read off the t-free elements u*q of the basis of t*I + (u-t)*J."""
    base = I.ring
    aux = ring(base.field, base.nvars + 2, elimination_order(1))
    shift = tuple(range(1, base.nvars + 1))
    t, u = aux.variables()[0], aux.variables()[-1]
    gens = [t * g.extend(aux, shift) for g in I.gens]
    gens.extend((u - t) * h.extend(aux, shift) for h in J.gens)
    gb = Ideal(aux, gens).groebner(
        truncate_at=None if truncate_at is None else truncate_at + 1)
    exps, key = aux.codec.exps, base.codec.key
    # every term of a t-free element is u times a term of q
    return [base.from_terms([(key(exps(k)[1:-1]), c) for k, c in p.terms])
            for p in gb.elements if not exps(p.terms[0][0])[0]]


def intersect(I: Ideal, J: Ideal, truncate_at: int | None = None) -> Ideal:
    """I ∩ J, with the reduced basis of the intersection attached."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    out = Ideal(I.ring, _elimination_basis(I, J, truncate_at))
    gb = out.groebner(truncate_at)
    gb.certify_complete()
    out.attach_groebner(gb)
    return out


def colon_form(I: Ideal, f: Polynomial, truncate_at: int | None = None) -> Ideal:
    """The colon I : f for a single nonzero homogeneous f, as an ideal with
    its reduced basis attached.

    With truncate_at = D, the basis is exact through degree D (the
    intersection with (f) is truncated at D + deg f, which is what dividing
    by f consumes); pass None for the fully computed colon.
    """
    if f.ring != I.ring:
        raise RingMismatchError("polynomial is not in the ideal's ring")
    if f.is_zero():
        raise AlgebraError("colon by the zero polynomial")
    if not f.is_homogeneous():
        raise AlgebraError("colon divisor must be homogeneous")
    base = I.ring
    meet_truncate = None if truncate_at is None else truncate_at + f.degree()
    quotients = [exact_divide(q, f)
                 for q in _elimination_basis(I, Ideal(base, [f]), meet_truncate)]
    gb = Ideal(base, quotients).groebner(truncate_at)
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


def random_homogeneous(ring_: RingCtx, degree: int, rng,
                       all_nonzero: bool = False) -> Polynomial:
    """Random homogeneous form of the given degree, resampled until nonzero;
    raises GenericityError after 1000 zero draws.

    With ``all_nonzero`` every monomial gets a nonzero coefficient, which is
    the right notion of "dense" for small fields.
    """
    mons = ring_.monomials_of_degree(degree)
    if not mons:
        raise ValueError(f"no monomials of degree {degree}")
    field = ring_.field
    draw = field.random_nonzero if all_nonzero else field.random
    for _ in range(1000):
        p = ring_.from_terms((k, draw(rng)) for k in mons)
        if not p.is_zero():
            return p
    raise GenericityError(f"no nonzero form of degree {degree} in 1000 draws")


def random_linear_form(ring_: RingCtx, rng, all_nonzero: bool = False) -> Polynomial:
    """A random nonzero linear form; with all_nonzero, every coordinate is a
    unit (useful as a cheap genericity proxy over small fields)."""
    return random_homogeneous(ring_, 1, rng, all_nonzero)
