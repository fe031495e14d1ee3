"""Sparse echelon forms checked against a dense elimination oracle, and
packed GF(p) rows checked against the dict path."""

import random
from fractions import Fraction

import pytest

from gorquad.linalg import (Echelon, axpy, combination, echelon, left_kernel,
                            rows_over)

from conftest import GF2, GF7, GFBIG, Q, dense_rref_rank


def random_rows(field, nrows, ncols, rng, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                c = field.random(rng)
                if c != field.zero:
                    row[j] = c
        rows.append(row)
    return rows


def densify(row, ncols, field):
    return [row.get(j, field.zero) for j in range(ncols)]


@pytest.mark.parametrize("field", [Q, GF7, GF2])
@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_dense_oracle(field, seed):
    rng = random.Random(seed)
    rows = random_rows(field, 8, 6, rng)
    expected = dense_rref_rank([densify(r, 6, field) for r in rows], field)
    assert echelon(rows, field).rank == expected


@pytest.mark.parametrize("field", [Q, GF7, GF2])
@pytest.mark.parametrize("seed", range(4))
def test_echelon_reads_no_row_once_the_rank_is_room(field, seed):
    rows = random_rows(field, 10, 6, random.Random(200 + seed))
    full = echelon(rows, field).rank
    for room in range(full + 2):
        # the first prefix of rows whose rank is room; none when room > full
        cut = next((k for k in range(len(rows) + 1)
                    if echelon(rows[:k], field).rank == room), None)

        def guarded():
            yield from rows[:cut]
            if cut is not None:
                raise AssertionError(f"read a row past room {room}")

        assert echelon(guarded(), field, room).rank == min(room, full)


@pytest.mark.parametrize("field", [Q, GF7, GF2])
def test_echelon_reduce_is_membership_test(field):
    rows = [{0: field.one, 1: field.one}, {1: field.one, 2: field.one}]
    ech = Echelon(field)
    for r in rows:
        ech.add(dict(r))
    inside = {0: field.one, 2: field.normalize(-1)}  # row0 - row1
    assert ech.reduce(dict(inside)) == {}
    outside = {0: field.one, 1: field.one, 2: field.one}
    assert ech.reduce(dict(outside)) != {}


@pytest.mark.parametrize("field", [Q, GF7, GF2])
@pytest.mark.parametrize("seed", range(3))
def test_left_kernel_annihilates_rows(field, seed):
    rng = random.Random(100 + seed)
    nrows, ncols = 7, 5
    rows = random_rows(field, nrows, ncols, rng)
    kernel = left_kernel(rows, field)
    rank = dense_rref_rank([densify(r, ncols, field) for r in rows], field)
    assert len(kernel) == nrows - rank
    for combo in kernel:
        assert combo and set(combo) <= set(range(nrows))
        assert all(c != field.zero for c in combo.values())
        acc = {}
        for i, c in combo.items():
            for j, v in rows[i].items():
                acc[j] = field.add(acc.get(j, field.zero), field.mul(c, v))
        assert all(v == field.zero for v in acc.values())
    # kernel vectors are linearly independent
    assert echelon(kernel, field).rank == len(kernel)


@pytest.mark.parametrize("field", [Q, GF7, GF2])
@pytest.mark.parametrize("shape", [(3, 8), (12, 4), (9, 9)])
def test_left_kernel_is_sparse_with_dense_oracle_dimension(field, shape):
    nrows, ncols = shape
    rows = random_rows(field, nrows, ncols, random.Random(nrows * ncols), 0.3)
    rows[1] = {}                         # a zero row is a kernel vector alone
    kernel = left_kernel(rows, field)
    dense = [densify(r, ncols, field) for r in rows]
    assert len(kernel) == nrows - dense_rref_rank(dense, field)
    assert {1: field.one} in kernel
    for combo in kernel:
        assert all(isinstance(i, int) and 0 <= i < nrows for i in combo)
        assert field.zero not in combo.values()


def test_empty_inputs():
    assert echelon([], Q).rank == 0
    assert left_kernel([], Q) == []
    assert left_kernel([{}], Q) == [{0: Q.one}]


# -- canonical coefficients: a loop over FieldSpec arithmetic is the reference --


def _ref_axpy(dst: dict, c, src: dict, field):
    c = field.normalize(c)
    for k, v in src.items():
        w = field.add(dst.get(k, field.zero), field.mul(c, v))
        if w == field.zero:
            dst.pop(k, None)
        else:
            dst[k] = w


def _ref_monic(row: dict, field) -> dict:
    inv = field.inv(row[max(row)])
    return {k: field.mul(inv, v) for k, v in row.items()}


def _ref_pivots(rows, field) -> dict:
    pivots = {}
    for row in rows:
        work = dict(row)
        while work and max(work) in pivots:
            _ref_axpy(work, field.neg(work[max(work)]), pivots[max(work)], field)
        if work:
            pivots[max(work)] = _ref_monic(work, field)
    return pivots


def _ref_left_kernel(rows, field) -> list:
    pivots, kernel = {}, []
    for i, row in enumerate(rows):
        main, aug = dict(row), {i: field.one}
        while main and max(main) in pivots:
            c = field.neg(main[max(main)])
            hit = pivots[max(main)]
            _ref_axpy(main, c, hit[0], field)
            _ref_axpy(aug, c, hit[1], field)
        if main:
            inv = field.inv(main[max(main)])
            pivots[max(main)] = (
                _ref_monic(main, field),
                {k: field.mul(inv, v) for k, v in aug.items()})
        else:
            kernel.append(aug)
    return kernel


def _canonical(row: dict, field) -> bool:
    """Nonzero Fractions over QQ; ints in [1, p) over GF(p)."""
    if field.p is None:
        return all(type(v) is Fraction and v for v in row.values())
    return all(type(v) is int and 0 < v < field.p for v in row.values())


def _raw_scalars(field, rng) -> list:
    """Negative, unreduced and zero scalars, none of them canonical."""
    if field.p is None:
        return [Fraction(-7, 3), Fraction(-1), Fraction(0),
                Fraction(rng.randint(-50, -1), rng.randint(1, 9))]
    p = field.p
    return [-1, -p - 3, 2 * p + 5, p, rng.randrange(-3 * p, -1)]


KERNEL_FIELDS = [GF2, GF7, GFBIG, Q]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_axpy_keeps_coefficients_canonical(field, seed):
    rng = random.Random(400 + seed)
    dst, src = random_rows(field, 2, 12, rng)
    for c in _raw_scalars(field, rng):
        want = dict(dst)
        _ref_axpy(want, c, src, field)
        axpy(dst, c, src, field)
        assert dst == want and _canonical(dst, field)
    axpy(dst, -1, dict(dst), field)
    assert dst == {}


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_echelon_and_left_kernel_match_the_reference(field, seed):
    rng = random.Random(500 + seed)
    rows = random_rows(field, 9, 6, rng)
    rows.append(rows[0])                     # a dependent row for the kernel
    ech = echelon(rows, field)
    assert ech.pivots == _ref_pivots(rows, field)
    assert all(_canonical(row, field) for row in ech.pivots.values())
    for row in random_rows(field, 4, 6, rng):
        rest = ech.reduce(row)
        assert _canonical(rest, field)
        assert (rest == {}) == (echelon(rows + [row], field).rank == ech.rank)
    kernel = left_kernel(rows, field)
    assert kernel == _ref_left_kernel(rows, field)
    assert kernel and all(_canonical(v, field) for v in kernel)


# -- packed rows: the dict Echelon and combination are the oracle ---------------


PACKED_FIELDS = [GF2, GF7, GFBIG]
COLUMNS = tuple(range(8, -1, -1))       # descending, as rows_over expects


def _reduce_side_by_side(packed, rows, field):
    """Feed rows to a packed echelon and to the dict Echelon, installing
    each nonzero remainder; every remainder must agree."""
    ech = Echelon(field)
    for r in rows:
        want, got = ech.reduce(r), packed.reduce(packed.row(r))
        assert got == want
        if want:
            ech.install(want, max(want))
            packed.install(got, max(got))
    assert packed.rank == ech.rank
    assert set(packed.pivots) == set(ech.pivots)
    return ech


def test_rows_over_packs_exactly_the_prime_fields():
    assert type(rows_over(COLUMNS, Q)) is Echelon
    for field in PACKED_FIELDS:
        assert type(rows_over(COLUMNS, field)) is not Echelon


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=str)
@pytest.mark.parametrize("density", [0.9, 0.2], ids=["dense", "sparse"])
@pytest.mark.parametrize("seed", range(3))
def test_packed_echelon_matches_the_dict_echelon(field, density, seed):
    rng = random.Random(600 + seed)
    rows = random_rows(field, 12, len(COLUMNS), rng, density)
    rows += [rows[0], {}]                     # a dependent row, a zero row
    ech = _reduce_side_by_side(rows_over(COLUMNS, field), rows, field)
    assert ech.rank == dense_rref_rank(
        [densify(r, len(COLUMNS), field) for r in rows], field)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=str)
@pytest.mark.parametrize("density", [0.9, 0.2], ids=["dense", "sparse"])
@pytest.mark.parametrize("seed", range(3))
def test_packed_combination_matches_combination(field, density, seed):
    # 40 rows: more products than one slot holds, on every field
    rng = random.Random(700 + seed)
    vectors = random_rows(field, 40, len(COLUMNS), rng, density)
    u = {k: field.random(rng) for k in range(len(vectors))}
    u.update(enumerate(_raw_scalars(field, rng)))
    packed = rows_over(COLUMNS, field)
    got = packed.combination([packed.row(v) for v in vectors], u)
    assert packed.vector(got) == combination(vectors, u, field)
    assert packed.vector(got) == packed.vector(packed.row(packed.vector(got)))


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=str)
def test_packed_echelon_at_the_slot_bound(field):
    """n rows over n columns, every coefficient p - 1: rows j < n - 1 are
    p - 1 at columns j and n - 1, the last row is p - 1 everywhere.  That
    row takes n - 1 pivot hits, each multiplying by p - 1, so the last
    slot sums (p - 1) + (n - 1)(p - 1)^2 = n - 2 mod p.  n is the smallest
    at which that sum needs every bit of the slot, so that one bit fewer
    carries, and the last row is independent, so that its remainder shows
    the carry."""
    p = field.p
    n = next(n for n in range(3, 64)
             if ((n + 1) * (p - 1) ** 2).bit_length()
             == ((n - 1) * (p - 1) ** 2 + p - 1).bit_length()
             and (n - 2) % p)
    columns = tuple(range(n - 1, -1, -1))
    last = columns[-1]
    rows = [{columns[j]: p - 1, last: p - 1} for j in range(n - 1)]
    rows.append({c: p - 1 for c in columns})
    packed = rows_over(columns, field)
    assert (n - 1) * (p - 1) ** 2 + p - 1 >= 1 << (packed.slot_bits - 1)
    assert _reduce_side_by_side(packed, rows, field).rank == n
    # the same rows summed with every coefficient p - 1
    u = dict.fromkeys(range(n), p - 1)
    got = packed.combination([packed.row(r) for r in rows], u)
    assert packed.vector(got) == combination(rows, u, field)
