"""Buchberger engine and the public Ideal / GroebnerBasis API.

The engine works on packed monomial keys (see orders.py) and holds every
polynomial as a {key: coeff} dict, over QQ and every GF(p) alike, GF(2)
included.  One reduction routine, _nf, serves the S-pair loop and the final
interreduction, and nothing else.  Pair selection is the normal strategy
(minimal lcm degree, then smallest lcm) with Gebauer-Moeller pruning; the
result is always the unique reduced Groebner basis, elements monic and
sorted descending by leading monomial.

Three kinds of ideal take no engine run, and their bases have stats None:
generators each pair of which is two monomials or has coprime leading
terms, a Groebner basis already (_pairless_basis); an apolar ideal Ann(F),
whose basis is read off the contractions b o F (_apolar_entries); and a
colon out of a cover, whose basis is read off the cover's quotient table
(constructions._colon_out_of).  All three go through _known_basis, which
minimalizes and tail-reduces a known Groebner basis into the reduced one.
When an input could lie beyond the degree cap, or a pair of two elements
the engine could hold (inputs or the basis's leading terms), the engine
runs after all, and raises CappedComputationError if it does.

Every Ideal is homogeneous.  A finished basis tabulates B = R/I degree by
degree: the standard monomials as an order ideal and their products'
normal forms, as in FGLM.  That table is the only normal form of a finished
basis, and GroebnerBasis's methods are its only readers: the standard
monomials of a degree (standard_monomials, standard_set), NF(m) of a
monomial (nf), the rows NF(q * m) and NF(m * g) over standard monomials m
(monomial_rows, product_rows), the standard x_j * s (standard_multiples),
and cached, which keeps any other result per basis.  normal_form, contains,
the invariants, the census and gin all read B through them.

Each degree of an order ideal comes from the one below in one pass over
the products x_j * s (_order_ideal_step): a support bitmask per monomial,
and per product the mask of the variables x_j with b / x_j in the degree
below, decide that every b / x_k is there with one int comparison and no
divisibility test.
The table, the FGLM walk (_fglm_walk: gin's change of coordinates and the
apolar bases) and apolar_ideal's minimal non-divisors all take that step.

Two guard rails:

  * DEFAULT_DEGREE_CAP: raise CappedComputationError instead of processing
    any S-pair whose lcm degree exceeds the cap (the pair queue pops degrees
    in ascending order, so the first offending pop proves the cap is
    exceeded).  The engine reads the module value when it is called.
  * truncate_at: silently skip pairs whose lcm degree exceeds the given
    degree.  Every Ideal is homogeneous, so the result is exactly the reduced
    basis's elements of degree <= truncate_at, and the quotient table refuses
    higher degrees; certify_complete promotes it when no standard monomial
    is left at the truncation degree.

_nf finds a key's reducer through a divisor index (_Reducers), not a scan.
A key k of degree d is rewritten by its first reducer in (degree, lm) order:
one of lower degree, whose tail the memo of degree d keeps already shifted
by the quotient ({q * t: c}, so rewriting k needs no monomial product), or
else the one of degree d whose lm is k, read from a {lm: tail} dict.  The
memo of degree d reads only reducers of lower degree, so installing one of
degree e drops the memo above e; that keeps it exact while the inputs are
seeded in key order, not degree order in block orders.  Every input
is homogeneous, inputs are seeded first and pairs pop in ascending degree,
so a degree's memo is filled once and read by every pair of that degree;
once a pair of degree d pops, nothing reads the levels below d again, and
they are dropped.  The pair update (_gm_kept) is Gebauer-Moeller's (J. Symb.
Comput. 6, 1988), tested against the minimal lcms only.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from collections import namedtuple

from .core import AlgebraError, CappedComputationError, RingMismatchError
from .linalg import Echelon, axpy, scaled
from .orders import _FIELD_MAX, DEGREVLEX
from .poly import Polynomial, RingCtx

DEFAULT_DEGREE_CAP = 40

# One engine run's counters: pairs queued; pruned by Gebauer-Moeller, coprime
# and chain criteria; popped and reduced (to zero); basis size, top degree.
EngineStats = namedtuple("EngineStats", (
    "queued gm_pruned coprime_pruned chain_pruned reduced reduced_to_zero "
    "basis_size top_degree"))


# -- polynomials as {key: coeff} dicts -----------------------------------------


class _Reducers:
    """The engine's monic (lm degree, lm, tail dict) entries, ascending by
    (degree, lm), with _nf's divisor index: heads {lm: tail} and memo
    {degree: {key: the tail of its first lower-degree reducer shifted by the
    quotient, {q * t: c}, or None}}."""

    __slots__ = ("entries", "heads", "memo")

    def __init__(self, entries=()):
        self.entries = list(entries)
        self.heads = {lm: tail for _, lm, tail in self.entries}
        self.memo = {}

    def install(self, lm_deg, lm, tail):
        insort(self.entries, (lm_deg, lm, tail), key=lambda e: (e[0], e[1]))
        self.heads[lm] = tail
        for d in [d for d in self.memo if d > lm_deg]:
            del self.memo[d]

    def forget_below(self, d):
        """Drop the memo levels below degree d."""
        for e in [e for e in self.memo if e < d]:
            del self.memo[e]


def _nf(ring: RingCtx, terms, reducers: _Reducers) -> dict:
    """Full normal form of ``terms`` ({key: coeff} or (key, coeff) pairs)
    against ``reducers``.  Each step emits or rewrites the largest remaining
    key, so the result lists its keys in descending order."""
    codec = ring.codec
    div, mul, degree, divides = codec.div, codec.mul, codec.degree, codec.divides
    p = ring.field.p
    entries, heads, memo = reducers.entries, reducers.heads, reducers.memo
    work = dict(terms)
    get = work.get
    out = {}
    while work:
        k = max(work)
        c = work.pop(k)
        kd = degree(k)
        known = memo.get(kd) or memo.setdefault(kd, {})
        if k in known:
            tail = known[k]
        else:
            hit = next(((lm, tail) for ld, lm, tail in entries
                        if ld < kd and divides(lm, k)), None)
            if hit is not None:
                q = div(k, hit[0])
                hit = {mul(q, t): ct for t, ct in hit[1].items()}
            tail = known[k] = hit
        if tail is None:
            tail = heads.get(k)
            if tail is None:
                out[k] = c
                continue
        for t, ct in tail.items():
            w = get(t, 0) - c * ct
            if p:
                w %= p
            if w:
                work[t] = w
            else:
                work.pop(t, None)
    return out


def _spoly(ring: RingCtx, fa, fb, lcm_key) -> dict:
    """S-polynomial of two monic (lm, tail dict) entries, leading terms
    cancelled."""
    codec = ring.codec
    qa = codec.div(lcm_key, fa[0])
    qb = codec.div(lcm_key, fb[0])
    acc = {codec.mul(qa, k): c for k, c in fa[1].items()}
    axpy(acc, -1, {codec.mul(qb, k): c for k, c in fb[1].items()}, ring.field)
    return acc


def _split_monic(ring: RingCtx, rep: dict):
    """rep -> (lm, monic tail dict); consumes rep."""
    lm = max(rep)
    inv = ring.field.inv(rep.pop(lm))
    return lm, rep if inv == 1 else scaled(rep, inv, ring.field)


def _gm_kept(codec, lcms, lm_degs, lm_deg) -> list:
    """The new element's candidate pairs (i, new), lcms[i] = lcm(lm_i, lm),
    in classes of equal lcm: those whose lcm no other class's lcm properly
    divides, as (lcm degree, lcm, first i, coprime) ascending by degree.
    coprime: a pair of the class has coprime leading monomials, so the
    class reduces to zero.  A proper divisor has lower degree, so testing
    each class only against the minimal lcms before it decides the same."""
    degree, divides = codec.degree, codec.divides
    classes = {}
    for i, li in enumerate(lcms):
        li_deg = degree(li)
        cls = classes.setdefault(li, [li_deg, i, False])
        if li_deg == lm_degs[i] + lm_deg:
            cls[2] = True
    kept = []
    for li, (li_deg, i, coprime) in sorted(classes.items(), key=lambda c: c[1]):
        if not any(divides(m[1], li) for m in kept):
            kept.append((li_deg, li, i, coprime))
    return kept


def _order_ideal_step(codec, prev: dict):
    """One degree up an order ideal: prev maps each monomial s of the
    degree below to its support mask (bit j set iff x_j divides s).  Over
    the products b = x_j * s, returns gen[b], with bit j set iff b / x_j
    is in prev, and supp[b], b's support mask.  So every b / x_k lies in
    prev iff gen[b] == supp[b], and otherwise the lowest bit of
    supp[b] & ~gen[b] is the first x_k dividing b with b / x_k outside."""
    mul = codec.mul
    gen, supp = {}, {}
    get = gen.get
    for j, v in enumerate(codec.var_keys):
        bit = 1 << j
        for s, mask in prev.items():
            b = mul(v, s)
            g = get(b)
            if g is None:
                gen[b] = bit
                supp[b] = mask | bit
            else:
                gen[b] = g | bit
    return gen, supp


# -- the engine ----------------------------------------------------------------


def _compute_basis(ring: RingCtx, polys, truncate_at):
    degree_cap = DEFAULT_DEGREE_CAP
    codec = ring.codec
    degree, divides, lcm = codec.degree, codec.divides, codec.lcm
    n = dict.fromkeys(EngineStats._fields[:-2], 0)   # the run's counters

    G = []          # (lm, tail dict)
    lm_degs = []    # degree of each lm, parallel to G
    reducers = _Reducers()   # the same (lm, tail) objects, indexed for _nf
    heap = []       # (lcm_degree, lcm_key, i, j)
    active = {}     # (i, j) -> lcm_key

    def install(lm, tail):
        """Add a monic element, wire up reducers, and run the pair update."""
        h = len(G)
        lm_deg = degree(lm)
        G.append((lm, tail))
        lm_degs.append(lm_deg)
        reducers.install(lm_deg, lm, tail)

        lcms = [lcm(G[i][0], lm) for i in range(h)]
        kept = _gm_kept(codec, lcms, lm_degs, lm_deg)
        n["gm_pruned"] += h - len(kept)
        for li_deg, li, i, coprime in kept:
            if coprime:
                n["coprime_pruned"] += 1
                continue
            n["queued"] += 1
            active[(i, h)] = li
            heapq.heappush(heap, (li_deg, li, i, h))
        # Chain criterion against pairs that predate h.
        for key_ij in [kij for kij, l in active.items()
                       if kij[1] != h
                       and divides(lm, l)
                       and lcms[kij[0]] != l
                       and lcms[kij[1]] != l]:
            n["chain_pruned"] += 1
            del active[key_ij]

    # Seed with the inputs, normal-formed against what is already there.
    inputs = [p for p in polys if not p.is_zero()]
    inputs.sort(key=lambda q: q.terms[0][0])
    for p in inputs:
        if p.degree() > degree_cap:
            raise CappedComputationError(
                f"input of degree {p.degree()} exceeds the degree cap "
                f"{degree_cap}", cap=degree_cap, degree=p.degree())
        if truncate_at is not None and p.degree() > truncate_at:
            continue
        rep = _nf(ring, p.terms, reducers)
        if rep:
            install(*_split_monic(ring, rep))

    while heap:
        d, l, i, j = heapq.heappop(heap)
        if truncate_at is not None and d > truncate_at:
            break   # the heap pops degrees in ascending order
        if active.pop((i, j), None) is None:
            continue
        if d > degree_cap:
            raise CappedComputationError(
                f"S-pair of degree {d} exceeds the degree cap {degree_cap}",
                cap=degree_cap, degree=d)
        reducers.forget_below(d)    # every later _nf is of degree >= d
        s = _nf(ring, _spoly(ring, G[i], G[j], l), reducers)
        n["reduced"] += 1
        n["reduced_to_zero"] += not s
        if s:
            install(*_split_monic(ring, s))

    elements = _reduce_basis(ring, G)
    return GroebnerBasis(ring, elements, degree_cap, truncate_at, EngineStats(
        **n, basis_size=len(elements),
        top_degree=max((degree(p.terms[0][0]) for p in elements), default=0)))


def _known_basis(ring: RingCtx, gens, entries, truncate_at=None):
    """The reduced basis, with no engine run, of the ideal of the gens,
    from (lm, monic tail dict) entries known to form its Groebner basis
    through truncate_at.  Returns None, and leaves the engine to answer,
    when the engine could meet a degree beyond the cap on those inputs,
    so that it might raise CappedComputationError.

    Every input meets the cap check, and a pair's degree is at most the
    sum of its two elements' degrees.  The engine's elements are the inputs
    and the ones it derives, and a derived element is installed at its
    pair's degree with a leading term that no element before it divides;
    pairs pop in ascending degree, so no later element divides it either,
    and its leading term is a minimal generator of LT(I), hence an entry's.
    So the two highest degrees among the inputs and the entries' leading
    terms bound every pair, and a pair beyond truncate_at stops the engine
    before it meets the cap."""
    degree_cap = DEFAULT_DEGREE_CAP
    entries = list(entries)
    if any(g.degree() > degree_cap for g in gens):
        return None
    top = sorted([g.degree() for g in gens]
                 + [ring.codec.degree(lm) for lm, _ in entries])[-2:]
    if sum(top) > degree_cap and (truncate_at is None
                                  or truncate_at > degree_cap):
        return None
    return GroebnerBasis(ring, _reduce_basis(ring, entries), degree_cap,
                         truncate_at)


def _pairless_basis(ring: RingCtx, polys, truncate_at):
    """The reduced basis, with no engine run, of generators each pair of
    which is two monomials (S-polynomial zero) or has coprime leading terms
    (Buchberger's first criterion): then they are a Groebner basis, and
    their monic forms of degree <= truncate_at reduce to the engine's
    answer.  Returns None, and leaves the engine to answer, unless that
    holds and _known_basis accepts them."""
    exps = ring.codec.exps
    others = [p for p in polys if len(p.terms) > 1]
    union = 0       # the leading supports of the non-monomials, disjoint
    # the non-monomials first, then the monomials against their union
    for p in others + [p for p in polys if others and len(p.terms) == 1]:
        mask = sum(1 << j for j, e in enumerate(exps(p.terms[0][0])) if e)
        if mask & union:
            return None
        if len(p.terms) > 1:
            union |= mask
    return _known_basis(ring, polys, [
        _split_monic(ring, dict(p.terms)) for p in polys
        if truncate_at is None or p.degree() <= truncate_at], truncate_at)


def _fglm_walk(ring: RingCtx, phi_one: dict, image, room=lambda d: None,
               top=None) -> dict:
    """The minimal leading terms of the kernel of a linear map phi on R
    (Marinari-Moller-Mora, AAECC 4, 1993; graded FGLM, Faugere-Gianni-
    Lazard-Mora, J. Symb. Comput. 16, 1993): b leads iff phi(b) lies in the
    span of the smaller standard monomials' images.  Each degree d walks
    _order_ideal_step's candidates ascending with one Echelon over phi(1) =
    phi_one or phi(b) = image(d, k, phi(b / x_k)), x_k the last variable of
    b; once the rank is room(d) the rest lead, with no image.  Negative int
    keys are tags, which never pivot: phi(b) tagged with b leaves b - sum
    c_s s on the tags of a leading term b.  Returns {b: that remainder or
    None}, ascending, through degree top or the first degree with no
    standard monomial."""
    codec, field = ring.codec, ring.field
    div, var_keys = codec.div, codec.var_keys
    leads, rows = {}, {}
    gen = supp = {codec.one: 0}
    for d in itertools.count():
        if top is not None and d > top:
            return leads
        full = room(d)
        ech = Echelon(field)
        std, found = {}, {}
        for b in sorted(supp):
            if gen[b] != supp[b]:
                continue
            if ech.rank == full:
                leads[b] = None
                continue
            k = supp[b].bit_length() - 1
            row = image(d, k, rows[div(b, var_keys[k])]) if d else phi_one
            rest = ech.reduce(row)
            pivot = max(rest) if rest else None
            if pivot is None or isinstance(pivot, int) and pivot < 0:
                leads[b] = rest
            else:
                ech.install(rest, pivot)
                std[b], found[b] = supp[b], row
        if not std:
            return leads
        rows = found
        gen, supp = _order_ideal_step(codec, std)


def _apolar_entries(ring: RingCtx, F: Polynomial, top):
    """The reduced basis of Ann(F) through degree top as (lm, monic tail)
    entries: _fglm_walk with phi(b) = (b o F, tag b), x_k contracting the
    first part and multiplying the tag, both keyed in the degrevlex codec
    (the tag by minus the key).  In degree deg F + 1, phi(b) is its tag."""
    codec = ring.codec
    drl = DEGREVLEX.codec(ring.nvars)
    mul, div, divides, var_keys = drl.mul, drl.div, drl.divides, drl.var_keys
    same = codec is drl
    phi_one = {k if same else drl.key(codec.exps(k)): c for k, c in F.terms}
    phi_one[-drl.one] = ring.field.one

    def image(d, k, row):
        v = var_keys[k]
        return {(-mul(v, -m) if m < 0 else div(m, v)): c
                for m, c in row.items() if m < 0 or divides(v, m)}

    for b, rest in _fglm_walk(ring, phi_one, image, top=top).items():
        tail = {-t if same else codec.key(drl.exps(-t)): c
                for t, c in rest.items()}
        del tail[b]
        yield b, tail


def _reduce_basis(ring: RingCtx, entries):
    """Minimalize and tail-reduce (lm, monic tail dict) entries that are known
    to form a Groebner basis; the result is the unique reduced basis."""
    codec = ring.codec
    degree, divides = codec.degree, codec.divides

    # Minimalize: keep exactly the elements whose lm no other kept lm divides.
    minimal = []
    for lm_deg, lm, tail in sorted(
            ((degree(lm), lm, tail) for lm, tail in entries),
            key=lambda e: (e[0], e[1])):
        if any(divides(k_lm, lm) for _, k_lm, _ in minimal):
            continue
        minimal.append((lm_deg, lm, tail))

    # Interreduce tails; full normal form against minimal lms is canonical.
    one = ring.field.one
    index = _Reducers(minimal)
    elements = []
    for _, lm, tail in minimal:
        tail_nf = _nf(ring, tail, index)
        elements.append(Polynomial(ring, ((lm, one),) + tuple(tail_nf.items())))
    elements.sort(key=lambda p: p.terms[0][0], reverse=True)
    return tuple(elements)


# -- public API ----------------------------------------------------------------


class GroebnerBasis:
    """A reduced Groebner basis; elements monic, descending by leading term.
    ``stats`` holds the EngineStats of the run that computed it, or None
    when no run did: one of the three kinds the module docstring names, or
    a basis built by hand."""

    __slots__ = ("ring", "elements", "lead_keys", "degree_cap", "truncated_at",
                 "stats", "_caches")

    def __init__(self, ring: RingCtx, elements: tuple, degree_cap: int,
                 truncated_at=None, stats=None):
        self.ring = ring
        self.elements = elements
        self.lead_keys = tuple(p.terms[0][0] for p in elements)
        self.degree_cap = degree_cap
        self.truncated_at = truncated_at
        self.stats = stats
        self._caches = {}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    # The quotient table of B = R/I.  What these methods return is shared
    # with the table, and callers must not change it.  B_d = 0 for d < 0;
    # past the truncation or the packed exponent range (orders._FIELD_MAX),
    # or on a basis with an inhomogeneous element, they raise AlgebraError.

    def standard_monomials(self, d: int) -> tuple:
        """The standard monomials of degree d, descending."""
        std, _, _ = self._level(d)
        return std

    def standard_set(self, d: int) -> dict:
        """The standard monomials of degree d for membership tests, as
        {monomial: support mask}, bit j set iff x_j divides it."""
        _, std_set, _ = self._level(d)
        return std_set

    def nf(self, m) -> dict:
        """NF(m) of a monomial key as a {key: coeff} dict, a standard m as
        {m: 1}.  The table holds every m in B_1 * std_{d-1}; any other m has
        every m / x_k nonstandard, so NF(m) = sum c_t NF(x_k * t) over
        NF(m / x_k) for its first variable x_k, a recursion that goes down
        one degree a step and is memoised."""
        codec = self.ring.codec
        _, _, table = self._level(codec.degree(m))
        row = table.get(m)
        if row is None:
            vk = codec.var_keys[next(j for j, e in enumerate(codec.exps(m)) if e)]
            row = {}
            for t, c in self.nf(codec.div(m, vk)).items():
                axpy(row, c, table[codec.mul(vk, t)], self.ring.field)
            table[m] = row
        return row

    def monomial_rows(self, d: int, q) -> dict:
        """{m: NF(q * m)} over the standard m of degree d, in their order,
        for a monomial key q, cached per (d, q); a zero product is {}."""
        rows = self._caches.get(("monmul", d, q))
        if rows is None:
            mul = self.ring.codec.mul
            rows = self._caches[("monmul", d, q)] = {
                m: self.nf(mul(q, m)) for m in self.standard_monomials(d)}
        return rows

    def product_rows(self, d: int, g: Polynomial, monomials) -> list:
        """NF(m * g) for the given standard monomials m of degree d, in
        their order, as new dicts over standard keys; a zero product is an
        empty dict.  Summed from the monomial_rows of g's monomials, so g
        may be given modulo the ideal: NF(m * g) depends only on NF(g)."""
        field = self.ring.field
        rows = [{} for _ in monomials]
        for q, c in g.terms:
            table = self.monomial_rows(d, q)
            for row, m in zip(rows, monomials):
                if nf := table[m]:
                    axpy(row, c, nf, field)
        return rows

    def standard_multiples(self, d: int) -> dict:
        """{s: ((x_j * s, j) for the x_j * s standard, j ascending)} over
        the standard monomials s of degree d, in their order; cached per d."""
        ups = self._caches.get(("ups", d))
        if ups is None:
            codec = self.ring.codec
            std, above = self.standard_monomials(d), self.standard_set(d + 1)
            ups = self._caches[("ups", d)] = {
                s: tuple((t, j) for j, v in enumerate(codec.var_keys)
                         if (t := codec.mul(v, s)) in above)
                for s in std}
        return ups

    def cached(self, key, build):
        """The value kept on this basis under key, from build() on first
        use; a None value is built again on the next call."""
        val = self._caches.get(key)
        if val is None:
            val = self._caches[key] = build()
        return val

    def _level(self, d: int) -> tuple:
        """(std, std_set, nf) of degree d, as the methods above read them;
        nf also keeps the rows that nf(m) memoises."""
        if d < 0:
            return (), {}, {}
        if self.truncated_at is not None and d > self.truncated_at:
            raise AlgebraError(
                f"degree {d} is beyond the basis truncation {self.truncated_at}")
        levels = self._caches.get("levels")
        if levels is None:
            if not all(p.is_homogeneous() for p in self.elements):
                raise AlgebraError("the quotient table needs a homogeneous basis")
            levels = self._caches["levels"] = []
        while len(levels) <= d:
            if len(levels) > _FIELD_MAX:
                raise AlgebraError(
                    f"degree {d} is beyond the packed exponent range {_FIELD_MAX}")
            levels.append(self._build_level(levels))
        return levels[d]

    def _build_level(self, levels: list) -> tuple:
        """The degree after ``levels``, in one _order_ideal_step over the
        products b = x_j * s, s standard: b is standard iff it is no leading
        term and every b / x_k is standard, that is gen[b] == supp[b].  The
        table fills in ascending order: a leading term has NF(b) = -tail;
        any other nonstandard b has a nonstandard b / x_k in the table one
        degree down, x_k the lowest bit of supp[b] & ~gen[b] (the first
        variable whose quotient is nonstandard), and NF(b) = sum c_t
        NF(x_k * t) over NF(b / x_k), where each x_k * t lies below b and
        so is in the table already."""
        d = len(levels)
        codec, field = self.ring.codec, self.ring.field
        mul, div, var_keys = codec.mul, codec.div, codec.var_keys
        one = field.one
        tails = {p.terms[0][0]: p.terms[1:] for p in self.elements
                 if codec.degree(p.terms[0][0]) == d}
        if d == 0:
            prev_nf, gen, supp = {}, {codec.one: 0}, {codec.one: 0}
        else:
            _, prev, prev_nf = levels[d - 1]
            gen, supp = _order_ideal_step(codec, prev)
        nf = {}
        level = {}      # standard b: its support mask, ascending
        for b in sorted(supp):
            tail = tails.get(b)
            if tail is not None:
                nf[b] = scaled(dict(tail), -1, field)
                continue
            missing = supp[b] & ~gen[b]
            if not missing:
                level[b] = supp[b]
                nf[b] = {b: one}
                continue
            vk = var_keys[(missing & -missing).bit_length() - 1]
            row = nf[b] = {}
            for t, c in prev_nf[div(b, vk)].items():
                axpy(row, c, nf[mul(vk, t)], field)
        return tuple(reversed(level)), level, nf

    def _reduce(self, p: Polynomial) -> dict:
        """NF(p) as a {key: coeff} dict: the table rows of p's monomials,
        summed with p's coefficients."""
        if p.ring != self.ring:
            raise RingMismatchError("polynomial is not in the basis ring")
        field = self.ring.field
        rep = {}
        for m, c in p.terms:
            axpy(rep, c, self.nf(m), field)
        return rep

    def normal_form(self, p: Polynomial) -> Polynomial:
        return Polynomial(self.ring, tuple(sorted(self._reduce(p).items(),
                                                  reverse=True)))

    def contains(self, p: Polynomial) -> bool:
        return not self._reduce(p)

    reduces_to_zero = contains

    def generator_degrees(self) -> tuple:
        """Sorted degrees of the reduced-basis elements."""
        degree = self.ring.codec.degree
        return tuple(sorted(degree(k) for k in self.lead_keys))

    def certify_complete(self) -> bool:
        """Promote a truncated basis to a complete one if every monomial at
        the truncation degree is a leading-term multiple (which bounds the
        degrees of all reduced-basis elements below the truncation)."""
        if self.truncated_at is None:
            return True
        if self.standard_monomials(self.truncated_at):
            return False
        self.truncated_at = None
        return True

    def __str__(self):
        tag = "" if self.truncated_at is None else f" (truncated at {self.truncated_at})"
        return f"GroebnerBasis<{len(self.elements)} elements over {self.ring}{tag}>"

    __repr__ = __str__


class Ideal:
    """A homogeneous ideal given by generators, with cached Groebner bases.
    ``_hilbert`` is None or the h-vector (an HVector) that the constructor
    proves and hilbert_function returns with no basis.  ``_dual_form`` is
    None or the F of an apolar ideal Ann(F), whose basis is read off F."""

    __slots__ = ("ring", "gens", "_gb_cache", "_hilbert", "_dual_form")

    def __init__(self, ring_: RingCtx, gens):
        gens = tuple(gens)
        seen = set()
        kept = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring != ring_:
                raise RingMismatchError("generator from a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise AlgebraError(f"inhomogeneous generator: {g}")
            if g.terms not in seen:
                seen.add(g.terms)
                kept.append(g)
        self.ring = ring_
        self.gens = tuple(kept)
        self._gb_cache = {}
        self._hilbert = None
        self._dual_form = None

    @classmethod
    def from_texts(cls, ring_: RingCtx, texts) -> "Ideal":
        return cls(ring_, [ring_.parse(t) for t in texts])

    def groebner(self, truncate_at: int | None = None) -> GroebnerBasis:
        """The reduced basis, or with truncate_at = D its elements of degree
        <= D (a basis exact through degree D): an apolar ideal's read off
        its dual form, else _pairless_basis's, else (or when _known_basis
        refuses either) the engine's."""
        gb = self._gb_cache.get(truncate_at)
        if gb is None:
            if self._dual_form is None:
                gb = _pairless_basis(self.ring, self.gens, truncate_at)
            else:
                gb = _known_basis(self.ring, self.gens, _apolar_entries(
                    self.ring, self._dual_form, truncate_at), truncate_at)
            if gb is None:
                gb = _compute_basis(self.ring, self.gens, truncate_at)
            self._gb_cache[truncate_at] = gb
        return gb

    def attach_groebner(self, gb: GroebnerBasis):
        """Record a basis computed elsewhere (e.g. read off an elimination)
        as this ideal's basis at its truncation."""
        if gb.ring != self.ring:
            raise RingMismatchError("basis ring does not match ideal ring")
        self._gb_cache[gb.truncated_at] = gb

    def normal_form(self, p: Polynomial) -> Polynomial:
        return self.groebner().normal_form(p)

    def contains(self, p: Polynomial) -> bool:
        return self.groebner().contains(p)

    def __str__(self):
        inside = ", ".join(str(g) for g in self.gens[:6])
        if len(self.gens) > 6:
            inside += f", ... ({len(self.gens)} gens)"
        return f"({inside})"

    __repr__ = __str__
