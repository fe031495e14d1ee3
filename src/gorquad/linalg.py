"""Exact sparse linear algebra over the coefficient fields.

Rows are dicts {column: coeff} with totally ordered column labels (monomial
keys in practice); the same code serves the rationals and every GF(p).

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
    add, mul, zero = field.add, field.mul, field.zero
    for k, v in src.items():
        w = add(dst.get(k, zero), mul(c, v))
        if w == zero:
            dst.pop(k, None)
        else:
            dst[k] = w


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
        if not work:
            return False
        field = self.field
        p = max(work)
        inv = field.inv(work[p])
        if inv != field.one:
            work = {k: field.mul(inv, v) for k, v in work.items()}
        self.pivots[p] = work
        self.rank += 1
        return True

    def reduce(self, row: dict) -> dict:
        """Remainder of row modulo the current span (row unchanged)."""
        field = self.field
        work = dict(row)
        while work:
            p = max(work)
            hit = self.pivots.get(p)
            if hit is None:
                return work
            axpy(work, field.neg(work[p]), hit, field)
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
            p = max(main)
            hit = pivots.get(p)
            if hit is None:
                break
            c = field.neg(main[p])
            axpy(main, c, hit[0], field)
            axpy(aug, c, hit[1], field)
        if main:
            inv = field.inv(main[max(main)])
            if inv != one:
                main = {k: field.mul(inv, v) for k, v in main.items()}
                aug = {k: field.mul(inv, v) for k, v in aug.items()}
            pivots[max(main)] = (main, aug)
        else:
            kernel.append(aug)
    return kernel
