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

rows_over(columns, field) is the one place that picks how the rows over a
fixed descending tuple of columns are held: as dicts in an Echelon over the
rationals, and over GF(p) as ints with a slot per column, the first column
on top, laid out by columns and p alone.  Either way it is an empty echelon
whose reduce returns dicts, with row and vector to convert from and to
dicts and combination to sum rows.  A packed combination is a multiply-add
per row and a % p per slot at the end; reduce reads slots top down and adds
a multiple of a pivot row at each nonzero one.  A reduced row takes at most
n pivot rows, n columns, each adding at most (p-1)^2 to a slot: slot_bits
hold (n+1)(p-1)^2, and a combination reduces its sum whenever it holds
that many products.
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

    @staticmethod
    def row(vec: dict) -> dict:
        return vec

    vector = row

    def combination(self, vectors, u: dict) -> dict:
        return combination(vectors, u, self.field)

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


def rows_over(columns: tuple, field: FieldSpec):
    """An empty echelon of the rows over columns (module docstring)."""
    return _PackedRows(columns, field) if field.p else Echelon(field)


class _PackedRows:
    """GF(p) rows over columns as ints, column c in the slot_bits bits from
    slot_of[c], and an echelon of them.  A pivot row is kept as reduce left
    it, with the inverse of its pivot coefficient, not made monic."""

    __slots__ = ("columns", "field", "slot_bits", "slot_mask", "slot_of",
                 "pivots", "rank")

    def __init__(self, columns: tuple, field: FieldSpec):
        p, n = field.p, len(columns)
        self.columns, self.field, self.pivots, self.rank = columns, field, {}, 0
        bits = self.slot_bits = ((n + 1) * (p - 1) ** 2).bit_length()
        self.slot_mask = (1 << bits) - 1
        self.slot_of = {c: bits * (n - 1 - i) for i, c in enumerate(columns)}

    def row(self, vec: dict) -> int:
        """The row of a dict with coefficients in [0, p)."""
        return sum(c << self.slot_of[k] for k, c in vec.items())

    def vector(self, row: int) -> dict:
        p, mask = self.field.p, self.slot_mask
        return {k: c for k, s in self.slot_of.items()
                if (c := (row >> s & mask) % p)}

    def reduced(self, row: int) -> int:
        p, mask = self.field.p, self.slot_mask
        return sum((row >> s & mask) % p << s for s in self.slot_of.values())

    def combination(self, vectors, u: dict) -> int:
        p = self.field.p
        cap, total, held = self.slot_mask // (p - 1) ** 2, 0, 0
        for k, c in u.items():
            if held == cap:
                total, held = self.reduced(total), 1
            total += c % p * vectors[k]
            held += 1
        return self.reduced(total)

    def reduce(self, row: int) -> dict:
        """Echelon.reduce of a reduced row: its remainder as a dict."""
        p, mask, pivots = self.field.p, self.slot_mask, self.pivots
        for col, s in self.slot_of.items():
            if c := (row >> s & mask) % p:
                if col not in pivots:
                    return self.vector(row)
                inv, hit = pivots[col]
                row += (p - c) * inv % p * hit
        return {}

    def install(self, rest: dict, pivot):
        self.pivots[pivot] = self.field.inv(rest[pivot]), self.row(rest)
        self.rank += 1
