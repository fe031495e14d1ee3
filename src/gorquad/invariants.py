"""Numerical invariants of artinian graded quotients.

Everything is computed from a reduced Groebner basis, read through the
methods of GroebnerBasis that own its table of the quotient B = R/I.
Hilbert functions count standard monomials.  Minimal generators are the
elements m - NF(m) outside (linear forms) * (degree d-1 part), found by
linalg.echelon's span test, and their counts are the degree tally of those
generators; the multiples x_j * m of the monomials m in the ideal are
pivots of that span without linear algebra, so only the other rows reach
the echelon.  The multiplication maps of B go through one row builder,
GroebnerBasis.product_rows: the normal forms NF(m * g) of given standard
monomials m, summed from the basis's cached monomial_rows.  Two functions
turn those rows into linear algebra, for the whole package.  `annihilator`,
the degree-d elements of B that given forms multiply to zero, is the left
kernel of those rows over the standard monomials its caller chooses (all
of them by default; the census passes those outside its known leading
terms), restricted one form at a time.  The rank of multiplication by a
form, `multiplication_rank`, is one echelon of those rows, cached per form
and degree.  For an ideal J containing I (a complete intersection, in
linkage) the colon I : J is I plus the lifts of the annihilator of J.  The
socle is the annihilator of the variables, but socle_type counts it
without that kernel: the rows of the standard monomials m with a standard
multiple x_j * m (GroebnerBasis.standard_multiples) are unitriangular, so
only the corner monomials, those with none, reach an echelon.  The linear
algebra is linalg's on sparse dict rows, one code path for every
coefficient field.

Functions accept either an Ideal or a GroebnerBasis, and keep per-basis
results on the basis (GroebnerBasis.cached).  hilbert_function reads an
Ideal's proven h-vector instead, when its constructor stored one, and
builds no basis.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .core import AlgebraError
from .groebner import GroebnerBasis, Ideal
from .linalg import axpy, combination, echelon, left_kernel, scaled
from .poly import Polynomial

_HVEC_RE = re.compile(r"\(\s*(-?\d+\s*(,\s*-?\d+\s*)*)?\)")


@dataclass(frozen=True)
class HVector:
    """The Hilbert function of an artinian graded algebra, as a tuple."""

    values: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        while vals and vals[-1] == 0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def socle_degree(self) -> int:
        return len(self.values) - 1

    @property
    def embedding_dimension(self) -> int:
        return self[1]

    @property
    def total(self) -> int:
        return sum(self.values)

    def is_symmetric(self) -> bool:
        return self.values == self.values[::-1]

    def __mul__(self, other: "HVector") -> "HVector":
        """Coefficientwise polynomial product: the Hilbert function of a
        tensor product of graded algebras."""
        if not self.values or not other.values:
            return HVector(())
        out = [0] * (len(self.values) + len(other.values) - 1)
        for i, a in enumerate(self.values):
            for j, b in enumerate(other.values):
                out[i + j] += a * b
        return HVector(tuple(out))

    def is_osequence(self) -> bool:
        """Macaulay's growth condition for Hilbert functions of standard
        graded algebras."""
        if not self.values:
            return True
        if self.values[0] != 1:
            return False
        for d in range(1, len(self.values) - 1):
            if self.values[d + 1] > _macaulay_bound(self.values[d], d):
                return False
        return all(v >= 0 for v in self.values)

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.values) + ")"

    @staticmethod
    def parse(text: str) -> "HVector":
        m = _HVEC_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not an h-vector literal: {text!r}")
        inner = m.group(1)
        if not inner:
            return HVector(())
        return HVector(tuple(int(p) for p in inner.split(",")))


def _macaulay_rep(c: int, d: int):
    """Greedy binomial (Macaulay) representation of c in degree d."""
    rep = []
    while c > 0 and d >= 1:
        k = d
        while math.comb(k + 1, d) <= c:
            k += 1
        rep.append((k, d))
        c -= math.comb(k, d)
        d -= 1
    return rep


def _macaulay_bound(c: int, d: int) -> int:
    return sum(math.comb(k + 1, j + 1) for k, j in _macaulay_rep(c, d))


# -- basis plumbing --------------------------------------------------------------


def as_basis(x) -> GroebnerBasis:
    if isinstance(x, GroebnerBasis):
        return x
    if isinstance(x, Ideal):
        return x.groebner()
    raise TypeError(f"expected Ideal or GroebnerBasis, got {type(x).__name__}")


def is_artinian(x) -> bool:
    """True iff the quotient is finite-dimensional: every variable has a pure
    power among the leading terms."""
    gb = as_basis(x)

    def build():
        exps = gb.ring.codec.exps
        covered = set()
        for e in map(exps, gb.lead_keys):
            support = [j for j, v in enumerate(e) if v]
            if len(support) == 1:
                covered.add(support[0])
            elif not support:
                return True  # unit ideal
        return len(covered) == gb.ring.nvars

    return gb.cached("artinian", build)


def standard_monomials(x, d: int) -> tuple:
    """Degree-d monomial keys outside the leading-term ideal, descending."""
    return as_basis(x).standard_monomials(d) if d >= 0 else ()


def nonstandard_monomials(x, d: int) -> tuple:
    gb = as_basis(x)
    std = gb.standard_set(d)
    return tuple(m for m in gb.ring.monomials_of_degree(d) if m not in std)


def hilbert_value(x, d: int) -> int:
    return len(standard_monomials(x, d))


def hilbert_function(x) -> HVector:
    """The full h-vector of an artinian quotient.  An Ideal with a proven
    h-vector (constructions.apolar_ideal, _colon_out_of and
    _residual_almost_ci store one) returns it, and no basis is built."""
    if isinstance(x, Ideal) and x._hilbert is not None:
        return x._hilbert
    gb = as_basis(x)

    def build():
        if not is_artinian(gb):
            raise AlgebraError("quotient is not artinian; h-vector is infinite")
        vals = []
        while c := hilbert_value(gb, len(vals)):
            vals.append(c)
        return HVector(tuple(vals))

    return gb.cached("hf", build)


def socle_degree(x) -> int:
    return hilbert_function(x).socle_degree


# -- multiplication maps ----------------------------------------------------------


def _minus_nf(gb: GroebnerBasis, m) -> Polynomial:
    """The ideal element m - NF(m) of a nonstandard monomial m; every key of
    NF(m) is below m."""
    field = gb.ring.field
    return Polynomial(gb.ring, ((m, field.one),) + tuple(sorted(
        scaled(gb.nf(m), -1, field).items(), reverse=True)))


def annihilator(x, gens, d: int, monomials=None) -> list:
    """A basis of {p in B_d : p * g = 0 in B for every g in gens}, where B is
    the quotient by the ideal of x and p is restricted to the given
    standard monomials of degree d (a sequence; by default all of
    standard_monomials(x, d), descending), as dicts over them.

    The kernel K shrinks one generator at a time: left_kernel of the first
    generator's rows NF(m * g) (GroebnerBasis.product_rows) over the
    monomials m, then for each next generator g the sums sum_k u[k] * K[k]
    over the vectors u of left_kernel of the images K[k] * g, which read
    only the rows of the monomials K touches.  It stops once K is 0; with
    no generator K is every unit vector.

    K is the basis left_kernel gives on the rows of all generators side by
    side, which depends only on the kernel and the row order: its vector at
    a dependent row i is 1 there and 0 after i and at every other dependent
    row.  Restriction keeps that shape with no re-echelon: K[k] reads 1 at
    its row i_k and 0 at the other K[k']'s, so sum_k u[k] * K[k] reads u[k]
    at each i_k, and u is 1 at its last index, 0 after it and at the other
    u's last indices.  So over ascending monomials each vector is 1 at its
    largest key, and those keys are distinct: the census reads them as
    leading terms.  For an ideal I containing x's ideal c, the lifts of
    the default bases in every degree, together with c, generate c : I."""
    gb = as_basis(x)
    std = gb.standard_monomials(d) if monomials is None else monomials
    field = gb.ring.field
    kernel = None
    for g in gens:
        if kernel is None:
            kernel = left_kernel(gb.product_rows(d, g, std), field)
        else:
            touched = list({i for v in kernel for i in v})
            rows = dict(zip(touched, gb.product_rows(
                d, g, [std[i] for i in touched])))
            restricted = left_kernel([combination(rows, v, field)
                                      for v in kernel], field)
            if len(restricted) < len(kernel):
                kernel = [combination(kernel, u, field) for u in restricted]
        if not kernel:
            return []
    if kernel is None:
        kernel = [{i: field.one} for i in range(len(std))]
    return [{std[i]: c for i, c in v.items()} for v in kernel]


def multiplication_rank(x, g: Polynomial, d: int) -> int:
    """The rank of multiplication by the form g from B_d to B_{d + deg g},
    where B is the quotient by the ideal of x: one echelon of the rows
    GroebnerBasis.product_rows gives over the standard monomials of degree
    d, which stops reading them once the rank fills min(h_d,
    h_{d + deg g}).  As there, g may be given modulo the ideal.  The rank is cached on the
    basis per form and degree, so a linkage colon reads back the ranks
    that its h-vector check took."""
    gb = as_basis(x)

    def build():
        std = gb.standard_monomials(d)
        room = min(len(std), hilbert_value(gb, d + g.degree()))
        return echelon(gb.product_rows(d, g, std), gb.ring.field, room).rank

    return gb.cached(("rank", g.terms, d), build)


# -- socle --------------------------------------------------------------------


def socle_type(x) -> tuple:
    """Dimension of the socle, the annihilator of the variables, in each
    degree 0..socle degree, counted from the corner monomials.

    socle_d is the left kernel of the rows (NF(x_j * m))_j of the standard
    monomials m of degree d.  If some x_j * m is standard, m's row has a 1
    at its own column (j, x_j * m), and another row m' is nonzero there
    only if m' > m, since NF(x_j * m') has no term above x_j * m'.  So the
    rows with an own column are unitriangular there, hence independent.
    The corner rows are left: those of the corners C_d, the standard m with
    no standard multiple x_j * m (GroebnerBasis.standard_multiples).
    Clearing their own-column entries with the triangular rows, largest m
    first, leaves rows whose rank is the corner rows' rank modulo the others
    (clearing m's column touches only the own columns of monomials below
    m), and socle_d = |C_d| - that rank.  A degree without corners has no
    socle and runs no linear algebra."""
    gb = as_basis(x)

    def build():
        codec, field = gb.ring.codec, gb.ring.field
        mul, var_keys, nf = codec.mul, codec.var_keys, gb.nf
        out = []
        for d in range(hilbert_function(gb).socle_degree + 1):
            owned = []      # (own column, m), m descending
            corners = []
            for m, ups in gb.standard_multiples(d).items():
                if ups:
                    t, j = ups[0]
                    owned.append(((j, t), m))
                else:
                    corners.append(m)
            rows = {}

            def row(m):
                if m not in rows:
                    rows[m] = {(j, t): c for j, v in enumerate(var_keys)
                               for t, c in nf(mul(v, m)).items()}
                return rows[m]

            def cleared(m):
                work = dict(row(m))
                for col, t in owned:
                    if work.get(col):
                        axpy(work, -work[col], row(t), field)
                return work

            out.append(len(corners) - echelon(map(cleared, corners), field,
                                              len(corners)).rank
                       if corners else 0)
        return tuple(out)

    return gb.cached("socle", build)


def is_gorenstein(x) -> bool:
    """True iff the artinian quotient has a one-dimensional socle."""
    st = socle_type(x)
    return sum(st) == 1 and st[-1] == 1 if st else False


# -- minimal generators ---------------------------------------------------------


def minimal_generator_counts(x) -> dict:
    """Number of minimal generators of the ideal in each degree, as a dict
    {degree: count} with only nonzero entries, ascending: the degree tally
    of `minimal_generators`."""
    degree = as_basis(x).ring.codec.degree
    return dict(Counter(degree(g.leading_key()) for g in minimal_generators(x)))


def _variable_multiples(codec, vectors, column: dict):
    """The products x_j * v of vectors v, given as (monomial key, coeff)
    pairs, as dict rows read lazily: column maps each monomial it keeps to
    its row key, and the others are dropped.  Multiplying by x_j keeps the
    terms of v distinct."""
    for v in vectors:
        for vk in codec.var_keys:
            yield {column[t]: c for t, c in
                   ((codec.mul(vk, m), c) for m, c in v) if t in column}


def presented_by_quadrics(x) -> bool:
    """True iff the ideal's minimal generators all sit in degree 2."""
    nu = minimal_generator_counts(x)
    return set(nu) == {2} if nu else False


def minimal_generators(x) -> tuple:
    """An explicit minimal generating set, ascending by degree: in each
    degree d of a reduced-basis element, the elements m - NF(m) that lie
    outside R_1 * [I]_{d-1} plus the span of the m' - NF(m') with m' > m.

    The monomials of I do not reach the echelon: when m lies in I (NF(m) =
    0), each x_j * m is a unit row, so its column is a pivot of the span
    whatever the other rows are.  Those columns are dropped, and only the
    rows of the other m - NF(m) are echeloned, in the space that is left.
    The pivots of a span are its leading terms, which do not depend on how
    the span is reached, so the set found is the same."""
    gb = as_basis(x)

    def build():
        codec = gb.ring.codec
        out = []
        for d in sorted({codec.degree(k) for k in gb.lead_keys}):
            if d == 0:
                out.append(gb.ring.one)  # the unit ideal
                continue
            lower = nonstandard_monomials(gb, d - 1)
            inside = {codec.mul(vk, m) for m in lower
                      if not gb.nf(m) for vk in codec.var_keys}
            # [I]_d has the triangular basis {m - NF(m)}, so an element of it
            # is fixed by its nonstandard coefficients.  Over these columns
            # m - NF(m) is the unit vector at m, so it lies in R_1 * [I]_{d-1}
            # plus the span of the m' - NF(m'), m' > m, exactly when m is the
            # lowest term of an element of the former.  Keyed by position in
            # the descending nonstandard monomials, the echelon's pivots are
            # those lowest terms.
            column = {m: i for i, m in enumerate(nonstandard_monomials(gb, d))
                      if m not in inside}
            rows = _variable_multiples(codec, (_minus_nf(gb, m).terms
                                               for m in lower
                                               if gb.nf(m)), column)
            span = echelon(rows, gb.ring.field, len(column))
            out.extend(_minus_nf(gb, m) for m, i in column.items()
                       if i not in span.pivots)
        return tuple(out)

    return gb.cached("mingens", build)


# -- classification --------------------------------------------------------------


def ideal_degree_basis(x, d: int) -> tuple:
    """A basis of the degree-d part of the ideal: one element m - NF(m) per
    non-standard monomial m of degree d."""
    gb = as_basis(x)
    return tuple(_minus_nf(gb, m) for m in nonstandard_monomials(gb, d))


@dataclass(frozen=True)
class QuadricClassification:
    """Summary of one artinian quotient, as reported by the census and CLI.

    ``alpha`` is the quadric deficiency of the degree-2 part relative to a
    complete intersection's: binomial(h1, 2) - h2."""

    hvector: HVector
    socle_tuple: tuple | None
    generator_counts: dict
    gorenstein: bool | None
    presented_by_quadrics: bool
    had_linear_forms: bool = False

    @property
    def socle_degree(self) -> int:
        return self.hvector.socle_degree

    @property
    def embedding_dimension(self) -> int:
        return self.hvector.embedding_dimension

    @property
    def alpha(self) -> int:
        return math.comb(self.hvector[1], 2) - self.hvector[2]

    def __str__(self):
        bits = [str(self.hvector)]
        if self.gorenstein is not None:
            bits.append("gorenstein" if self.gorenstein else "not-gorenstein")
        bits.append("presented_by_quadrics" if self.presented_by_quadrics
                    else "not-presented-by-quadrics")
        bits.append(f"h2={self.hvector[2]}")
        return " ".join(bits)


def classify(x, with_socle: bool = True) -> QuadricClassification:
    """Classify an artinian quotient.  ``with_socle=False`` skips the socle
    computation (the most expensive step) and leaves ``socle_tuple`` and
    ``gorenstein`` as None; bulk sweeps that already know the socle shape
    use this."""
    gb = as_basis(x)
    hv = hilbert_function(gb)
    nu = minimal_generator_counts(gb)
    return QuadricClassification(
        hvector=hv,
        socle_tuple=socle_type(gb) if with_socle else None,
        generator_counts=nu,
        gorenstein=is_gorenstein(gb) if with_socle else None,
        presented_by_quadrics=presented_by_quadrics(gb),
        had_linear_forms=1 in nu,
    )
