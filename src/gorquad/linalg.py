"""Exact sparse linear algebra over the coefficient fields.

Rows are dicts {column: coeff} with totally ordered column labels (monomial
keys in practice); the same code serves the rationals and every GF(p).  A
stored coefficient is never zero: over GF(p) it is an int in [1, p), over
the rationals a Fraction.  The per-term loops do that arithmetic inline on
p = field.p: each sum or product is taken as Python numbers and reduced mod
p when p is set, so the scalars passed in may be negative or unreduced.
axpy and scaled are the coefficient kernel of every layer: polynomial
arithmetic, contraction, the engine and the invariants do their per-term
arithmetic through them, or inline in the same way, never through a
FieldSpec method call per term.

echelon(rows, field, room) is the one span test: it reads rows lazily and
stops once their rank fills room, the dimension of a space known to contain
their span.  left_kernel(rows) returns a basis of vectors v with
sum_i v[i]*rows[i] == 0, i.e. the kernel of the linear map whose images are
the given rows.  Its vectors are sparse too, dicts {row index: coeff} with
no zero entries, so a caller maps them straight onto its own row labels.
"""

from __future__ import annotations

from .core import FieldSpec


def axpy(dst: dict, c, src: dict, field: FieldSpec):
    """dst += c * src, dropping zeros."""
    p = field.p
    get = dst.get
    for k, v in src.items():
        w = get(k, 0) + c * v
        if p:
            w %= p
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def scaled(row: dict, c, field: FieldSpec) -> dict:
    """c * row for a nonzero scalar c."""
    p = field.p
    return {k: c * v % p if p else c * v for k, v in row.items()}


def combination(vectors, u: dict, field: FieldSpec) -> dict:
    """sum_k u[k] * vectors[k] over the keys k of u."""
    w = {}
    for k, c in u.items():
        if vectors[k]:
            axpy(w, c, vectors[k], field)
    return w


class Echelon:
    """Incremental row echelon over QQ or GF(p); tracks rank only."""

    __slots__ = ("field", "pivots", "rank")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivots = {}
        self.rank = 0

    def add(self, row: dict) -> bool:
        """Insert a row; returns True iff it enlarged the span."""
        work = self.reduce(row)
        if work:
            self.install(work, max(work))
        return bool(work)

    def install(self, work: dict, pivot):
        """Make work, a nonzero remainder of reduce, the pivot row at pivot."""
        inv = self.field.inv(work[pivot])
        if inv != 1:
            work = scaled(work, inv, self.field)
        self.pivots[pivot] = work
        self.rank += 1

    def reduce(self, row: dict) -> dict:
        """Remainder of row modulo the current span (row unchanged)."""
        field, pivots = self.field, self.pivots
        work = dict(row)
        while work:
            pivot = max(work)
            hit = pivots.get(pivot)
            if hit is None:
                return work
            axpy(work, -work[pivot], hit, field)
        return work


def echelon(rows, field: FieldSpec, room: int | None = None) -> Echelon:
    """The Echelon of rows, read lazily: none is read once the rank is room."""
    ech = Echelon(field)
    if ech.rank != room:
        for row in rows:
            ech.add(row)
            if ech.rank == room:
                break
    return ech


def left_kernel(rows, field: FieldSpec) -> list:
    """Basis of {v : sum_i v[i]*rows[i] == 0}, as dicts {row index: coeff}
    without zero entries.  The vector found at row i has coefficient one
    there and touches no later row, so the basis is triangular."""
    one = field.one
    pivots = {}
    kernel = []
    for i, r in enumerate(rows):
        main = dict(r)
        aug = {i: one}
        while main:
            pivot = max(main)
            hit = pivots.get(pivot)
            if hit is None:
                break
            c = -main[pivot]
            axpy(main, c, hit[0], field)
            axpy(aug, c, hit[1], field)
        if main:
            inv = field.inv(main[max(main)])
            if inv != 1:
                main = scaled(main, inv, field)
                aug = scaled(aug, inv, field)
            pivots[max(main)] = (main, aug)
        else:
            kernel.append(aug)
    return kernel
