"""Quadric-colon census: sweep quadratic forms F against a fixed complete
intersection of quadrics 𝔠, classify R/(𝔠 : F), and tabulate the middle
Hilbert value.

Each swept form yields an artinian Gorenstein quotient of socle degree r - 2
by linkage, so the sweep records, for every F outside the cover, whether the
colon ideal is presented by quadrics and what its h-vector is.  Over GF(2)
the sweep can be exhaustive across all nonzero sums of square-free quadratic
monomials; over larger fields it samples seeded dense quadrics.  Results are
persisted as an append-only CSV stream plus a Markdown summary table.

No Groebner basis is computed per form.  g lies in 𝔠 : F exactly when gF
lies in 𝔠, so (𝔠 : F)/𝔠 is the annihilator J of F in B = R/𝔠, and the
h-vector of R/(𝔠 : F) is the rank sequence of multiplication by F on B.
`_cover` caches the cover once per process and (field, r, cover style,
cover seed), for every sweep, pool worker and duality check on it.  The
cover's GroebnerBasis keeps the multiplication rows of B (monomial_rows)
and the standard products x_j * s (standard_multiples).  `classify` builds
J degree by degree from NF(F), the same for the monomial cover and for a
random one.  The leading terms x_j * lead(v) of J_{d-1}'s multiples that
are standard are known without linear algebra, so the rest of J_d is
`invariants.annihilator` of F over the other standard monomials only, and
the generator count of a degree runs an echelon only when those leading
terms do not fill J_d.

Duality fixes the rest.  The cover is a complete intersection of r
quadrics, so B is Gorenstein with h(B) = (1+t)^r and socle B_r, and the
product B_d x B_{r-d} -> B_r is a perfect pairing.  Under it, ×F: B_d ->
B_{d+2} is the transpose of ×F: B_{r-2-d} -> B_{r-d}, as <Fa, b> =
<a, Fb>.  Three facts follow:

  * h_d = h_{r-2-d}: the two maps have the same rank.  R/(𝔠 : F) is
    Gorenstein of socle degree r - 2, linked to 𝔠 (Peskine-Szpiro,
    Invent. Math. 26, 1974).
  * h_{r-2} = 1: ×F: B_{r-2} -> B_r is the transpose of B_0 -> B_2,
    1 -> F, which is not zero.  So dim J_{r-2} = C(r, 2) - 1.
  * nu_{r-1} = 0 for r >= 4, where nu_{r-1} = dim J_{r-1} - dim(B_1 *
    J_{r-2}) and J_{r-1} = B_{r-1}.  J_{r-2} = {v : vF = 0} is the
    orthogonal of span F, so the orthogonal of B_1 * J_{r-2} in B_1 is
    {x : x * B_1 lies in span F}.  For such an x != 0, x * R_1 (of
    dimension r) lies in kF + 𝔠_2 (of dimension r + 1), so it meets 𝔠_2 in
    r - 1 dimensions: x divides r - 1 independent quadrics of 𝔠, and 𝔠
    lies in (x, q) for one more quadric q.  That ideal has height at most
    2 < r, the height of 𝔠.  So the orthogonal is 0, B_1 * J_{r-2} =
    B_{r-1}, and nu_{r-1} = 0.

So `classify` runs the annihilator only in degrees 2..r-3 (degree 1
when r = 4, its own dual), reads h_1 = h_{r-3}, and checks once per cover
basis that the cover lists r quadrics with h(B) = (1+t)^r, which makes them
a regular sequence.

`colon_quotient` and the linkage round trip of `verify_socle4_duality`
take their colons through `constructions.link`, passing the cover's forms,
so each colon builds its own cover and does not rest on the sweep's cached
table; the round trip reads h(𝔠 + F′) off the cached cover's table
(`constructions._hvector_with_form`), with no basis of 𝔠 + F′.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain

from .constructions import (_hvector_with_form, _regular_sequence_hvector,
                            link, quadric_ci)
from .core import AlgebraError, FieldSpec
from .groebner import Ideal
from .invariants import (HVector, QuadricClassification, annihilator,
                         as_basis, hilbert_function, minimal_generators)
from .linalg import Echelon, combination, echelon
from .poly import Polynomial, RingCtx, ring

# The r = 6 findings check, for every field and cover: the three h2 values
# a presented colon can have; anything else is surfaced as a finding rather
# than silently recorded.  The exhaustive GF(2) squares-cover sweep presents
# h2 = 10 only, for 18228 of its 32767 forms (`gorquad census --field 2
# --r 6 --jobs 2`; ROADMAP direction 3).
H2_SUPPORT_R6 = (10, 11, 12)

_EXHAUSTIVE_BITS = 21   # the exhaustive sweep holds a task per form: r <= 7

CSV_HEADER = ("field", "r", "ci_style", "ci_seed", "mode", "f_index",
              "f_poly", "presented", "h2", "socle_degree", "hvector", "seed")


class CensusConfigError(ValueError):
    """A CensusConfig refused its arguments; ``attribute`` names the
    attribute at fault."""

    def __init__(self, message, attribute):
        super().__init__(message)
        self.attribute = attribute


@dataclass(frozen=True)
class CensusConfig:
    """One sweep: which field, which cover, which forms, how many workers."""

    field: FieldSpec
    r: int = 6
    ci_style: str = "monomial"            # "monomial" | "random"
    ci_seed: int = 1
    mode: str = "exhaustive_squarefree"   # | "random_sample"
    sample_count: int = 0
    sample_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.r < 2:
            raise CensusConfigError("census needs at least two variables", "r")
        if self.ci_style not in ("monomial", "random"):
            raise CensusConfigError(f"unknown ci_style: {self.ci_style!r}",
                                    "ci_style")
        if self.mode not in ("exhaustive_squarefree", "random_sample"):
            raise CensusConfigError(f"unknown census mode: {self.mode!r}",
                                    "mode")
        if self.mode == "exhaustive_squarefree" and self.field.p != 2:
            raise CensusConfigError(
                "the exhaustive sweep enumerates the 0/1 sums of the "
                "square-free quadratic monomials, which are all the "
                "square-free forms only over GF(2); over GF(p) there are "
                "p^C(r,2) of them, so sample them with random_sample", "mode")
        bits = math.comb(self.r, 2)
        if self.mode == "exhaustive_squarefree" and bits > _EXHAUSTIVE_BITS:
            raise CensusConfigError(
                f"an exhaustive sweep at r={self.r} has 2^{bits} - 1 forms, "
                f"more than {(1 << _EXHAUSTIVE_BITS) - 1:,} (r <= 7); sample "
                f"them with random_sample", "r")
        if self.mode == "random_sample" and self.sample_count < 1:
            raise CensusConfigError(
                "random_sample needs a positive sample_count", "sample_count")
        if self.parallelism < 1:
            raise CensusConfigError("parallelism must be at least 1",
                                    "parallelism")
        # quadric_ci and the sampler draw from random.Random(seed) alike, so
        # one seed for both would sample the cover's own generators first.
        if (self.ci_style == "random" and self.mode == "random_sample"
                and self.ci_seed == self.sample_seed):
            raise CensusConfigError(
                f"a random cover and the sampled forms need different seeds "
                f"(both are {self.ci_seed})", "sample_seed")


@dataclass(frozen=True)
class CensusRecord:
    """Outcome for a single swept form; exactly one record per F."""

    f_index: int
    F: Polynomial
    classification: QuadricClassification | None
    presented: bool | None          # None when the form was skipped or errored
    h2: int | None
    skip_reason: str = ""           # why it was skipped, or the error message
    seed: int | None = None         # sampling seed provenance; None = exhaustive
    errored: bool = False           # classifying the form raised


@dataclass(frozen=True)
class CensusSummary:
    """Aggregated view of one sweep, order-independent of the record stream."""

    counts: dict                    # h2 -> number of presented records
    total_presented: int
    total_swept: int
    total_skipped: int
    total_errored: int
    findings: tuple
    config: CensusConfig
    ci_gens: tuple                  # printed cover generators, for provenance

    def __post_init__(self):
        if sum(self.counts.values()) != self.total_presented:
            raise AlgebraError("census bookkeeping broke: counts != presented")


# -- form enumeration -------------------------------------------------------------


def squarefree_quadric_keys(R: RingCtx) -> tuple:
    """The C(n,2) square-free degree-2 monomial keys, descending in the ring
    order; bit j of an exhaustive-sweep index selects the j-th key."""
    codec = R.codec
    return tuple(k for k in R.monomials_of_degree(2)
                 if all(e < 2 for e in codec.exps(k)))


def form_from_index(R: RingCtx, keys: tuple, mask: int) -> Polynomial:
    """The sum of the square-free monomials selected by the bits of mask."""
    one = R.field.one
    return R.from_terms((keys[j], one) for j in range(len(keys))
                        if mask >> j & 1)


def _sample_coefficient_lists(cfg: CensusConfig, R: RingCtx) -> list:
    """Pregenerate every sampled form's dense coefficient tuple up front, so
    worker partitioning can never change the stream."""
    rng = random.Random(cfg.sample_seed)
    width = len(R.monomials_of_degree(2))
    return [tuple(R.field.random(rng) for _ in range(width))
            for _ in range(cfg.sample_count)]


def _form_from_coeffs(R: RingCtx, coeffs: tuple) -> Polynomial:
    return R.from_terms(zip(R.monomials_of_degree(2), coeffs))


# -- the per-form pipeline --------------------------------------------------------

@lru_cache(maxsize=None)
def _cover(field: FieldSpec, r: int, ci_style: str, ci_seed: int) -> Ideal:
    """The complete intersection a sweep colons out of, built once per
    process and cover; its basis keeps the multiplication rows of B = R/𝔠
    for every later sweep and duality check on the same cover."""
    return quadric_ci(r, field, style=ci_style, seed=ci_seed)


@lru_cache(maxsize=None)
def _cover_gens(field: FieldSpec, r: int, ci_style: str,
                ci_seed: int) -> tuple:
    """The cover's generators as printed in a summary, rendered once."""
    return tuple(str(g) for g in _cover(field, r, ci_style, ci_seed).gens)


def _task_form(R: RingCtx, spec) -> Polynomial:
    """The form a task names: an exhaustive-sweep mask or a coefficient tuple."""
    if isinstance(spec, int):
        return form_from_index(R, squarefree_quadric_keys(R), spec)
    return _form_from_coeffs(R, spec)


def classify(cover: Ideal, F: Polynomial) -> QuadricClassification:
    """Classify R/(𝔠 : F) by the ranks of multiplication by F on B = R/𝔠.

    g lies in 𝔠 : F exactly when gF lies in 𝔠, so (𝔠 : F)_d / 𝔠_d is
    J_d, the annihilator of F in B_d, and h_d = dim B_d - dim J_d.  The
    minimal generators number nu_1 = r - h_1, nu_2 = C(h_1 + 1, 2) - h_2,
    nu_d = dim J_d - dim(B_1*J_{d-1}) for 3 <= d < r, as 𝔠_d = R_1*𝔠_{d-1},
    and none from degree r on, as B_r = B_1*B_{r-1}.

    The cover must be a complete intersection of r quadrics, and anything
    else raises AlgebraError: it must list exactly r generators, all
    quadrics, with the complete-intersection h-vector (1+t)^r
    (constructions._regular_sequence_hvector).  Forms whose quotient has
    that Hilbert series form a regular sequence, so the check is
    sufficient; its verdict is cached on the cover's basis.  Duality in B
    (module docstring) then gives h_d = h_{r-2-d}, h_{r-2} = 1 and, for r
    >= 4, nu_{r-1} = 0.  So the annihilator runs in degrees 2..r-3 only
    (1 when r = 4, its own dual), and h_1 = h_{r-3}.
    J_1 is not kept, as only its dimension counts: J_2's kernel starts
    with no known leads, giving the same space and the same leads.

    Each J_d is an echelon basis, monic with distinct leading monomials.
    For v in J_{d-1} and t = x_j*lead(v) standard, x_j*v has leading
    monomial t, as normal forms only lower terms.  The first such product
    for each t gives the rows Q_d in J_d, with leads K_d, so J_d = Q_d + the
    kernel of F on the standard monomials outside K_d, so only their rows
    NF(m*F) reach a kernel: invariants.annihilator over them, ascending,
    where each vector's largest key is its lead.  Q_d's rows start the
    echelon of B_1*J_{d-1} for nu_d as pivots; when they fill J_d, nu_d = 0
    and no echelon runs.
    Only F modulo the cover counts: a sweep passes NF(F), not reduced again.
    """
    if not (F.is_homogeneous() and F.degree() == 2):
        raise AlgebraError(f"the census colons by quadrics, not by {F}")
    cover_gb = cover.groebner()
    R = cover_gb.ring
    r, field = R.nvars, R.field

    def is_quadric_ci():
        return (len(cover.gens) == r
                and all(g.degree() == 2 for g in cover.gens)
                and _regular_sequence_hvector(cover) is not None)

    if not cover_gb.cached("quadric_ci", is_quadric_ci):
        raise AlgebraError("the census colons out of a complete intersection"
                           " of r quadrics in r variables")
    std = cover_gb.standard_set(2)
    f = F if all(k in std for k, _ in F.terms) else cover_gb.normal_form(F)
    if f.is_zero():
        raise AlgebraError("the form lies in the cover")
    var_keys = R.codec.var_keys
    # J_d as {lead: monic vector, or (s, j) for x_j times J_{d-1}'s vector
    # at lead s, built on first use}; J_{r-2} only as its products Q_{r-2}.
    ann = {}

    def vector(d, t):
        v = ann[d][t]
        if isinstance(v, tuple):
            v = ann[d][t] = product(d - 1, *v)
        return v

    def product(d, s, j):
        """x_j times J_d's vector at lead s, in B_{d+1}."""
        return combination(cover_gb.monomial_rows(d, var_keys[j]),
                           vector(d, s), field)

    h, counts = [1] * (r - 1) + [0, 0], {}      # h_0..h_r, h_{r-2} = 1
    for d in (1,) if r == 4 else range(2, r - 1):
        std = cover_gb.standard_monomials(d)
        free = ann[d] = {}
        ups = cover_gb.standard_multiples(d - 1)
        for s in ann.get(d - 1, ()):
            for t, j in ups[s]:
                free.setdefault(t, (s, j))
        if d < r - 2:
            # Over ascending monomials each kernel vector is 1 at its
            # largest key and touches no larger one, so that key is its lead.
            rest = [m for m in reversed(std) if m not in free]
            ann[d] = {**free, **{max(v): v for v in
                                 annihilator(cover_gb, [f], d, rest)}}
            h[d] = len(std) - len(ann[d])
        room = len(std) - h[d]
        if d >= 3 and len(free) < room:
            used = set(free.values())
            pivots = (vector(d, t) for t in free)
            products = (product(d - 1, s, j) for s in ann[d - 1]
                        for j in range(r) if (s, j) not in used)
            counts[d] = room - echelon(chain(pivots, products), field,
                                       room).rank
    if r > 4:
        h[1] = h[r - 3]
    counts[1], counts[2] = r - h[1], math.comb(h[1] + 1, 2) - h[2]
    nu = {d: counts[d] for d in sorted(counts) if counts[d]}
    return QuadricClassification(
        hvector=HVector(tuple(h)), socle_tuple=None, generator_counts=nu,
        gorenstein=None, presented_by_quadrics=(set(nu) == {2}),
        had_linear_forms=1 in nu)


def colon_quotient(cover: Ideal, F: Polynomial) -> Ideal:
    """𝔠 : F, linked out of the cover as 𝔠 : (𝔠 + F)."""
    return link(Ideal(cover.ring, cover.gens + (F,)), cover.gens)


def _sweep_one(cfg: CensusConfig, task: tuple) -> tuple:
    """Classify one form: the task followed by (classification or None,
    skip or error reason, errored).  A process pool returns the same
    payload pickled, so every form goes through this one function."""
    cover = _cover(cfg.field, cfg.r, cfg.ci_style, cfg.ci_seed)
    gb = cover.groebner()
    F = _task_form(gb.ring, task[1])
    f = gb.normal_form(F)
    if f.is_zero():
        reason = ("the zero form" if F.is_zero()
                  else "the form lies in the cover")
        return task + (None, reason, False)
    try:
        return task + (classify(cover, f), "", False)
    except AlgebraError as exc:
        return task + (None, str(exc), True)


def _record_findings(rec: CensusRecord, r: int) -> list:
    if not rec.presented:
        return []
    out = []
    hv = rec.classification.hvector
    # Linkage puts the colon quotient at socle degree r - 2 (the cover sits
    # at r): 4 for the headline r = 6 sweep.
    if hv.socle_degree != r - 2:
        out.append(f"F #{rec.f_index}: presented but socle degree "
                   f"{hv.socle_degree}, h-vector {hv}")
    elif not hv.is_symmetric():
        out.append(f"F #{rec.f_index}: presented but asymmetric "
                   f"h-vector {hv}")
    if r == 6 and rec.h2 not in H2_SUPPORT_R6:
        out.append(f"F #{rec.f_index}: presented with h2 = {rec.h2} outside "
                   f"the known support {set(H2_SUPPORT_R6)}")
    return out


def run_census(cfg: CensusConfig) -> tuple:
    """Sweep every configured form and return (records, summary).

    The record list is in sweep order (stable form indices); the summary is a
    commutative aggregate, so worker count never changes either.
    """
    R = ring(cfg.field, cfg.r)
    if cfg.mode == "exhaustive_squarefree":
        tasks = [(m, m) for m in range(1, 1 << math.comb(cfg.r, 2))]
        seed = None
    else:
        tasks = list(enumerate(_sample_coefficient_lists(cfg, R)))
        seed = cfg.sample_seed

    # The cover is built before the pool starts, so forked workers inherit
    # it; its generators are rendered once per process.
    ci_gens = _cover_gens(cfg.field, cfg.r, cfg.ci_style, cfg.ci_seed)
    sweep = partial(_sweep_one, cfg)
    if cfg.parallelism == 1:
        payloads = list(map(sweep, tasks))
    else:
        chunk = max(1, len(tasks) // (cfg.parallelism * 8))
        with multiprocessing.Pool(cfg.parallelism) as pool:
            payloads = list(pool.imap(sweep, tasks, chunksize=chunk))

    records = [
        CensusRecord(f_index=f_index, F=_task_form(R, spec),
                     classification=cls,
                     presented=None if cls is None else cls.presented_by_quadrics,
                     h2=None if cls is None else cls.hvector[2],
                     skip_reason=reason, seed=seed, errored=errored)
        for f_index, spec, cls, reason, errored in payloads]

    counts: dict = {}
    presented = swept = skipped = errored = 0
    findings: list = []
    for rec in records:
        if rec.errored:
            errored += 1
            findings.append(f"F #{rec.f_index}: error: {rec.skip_reason}")
            continue
        if rec.presented is None:
            skipped += 1
            continue
        swept += 1
        if rec.presented:
            presented += 1
            counts[rec.h2] = counts.get(rec.h2, 0) + 1
        findings.extend(_record_findings(rec, cfg.r))
    summary = CensusSummary(
        counts=counts,
        total_presented=presented,
        total_swept=swept,
        total_skipped=skipped,
        total_errored=errored,
        findings=tuple(findings),
        config=cfg,
        ci_gens=ci_gens,
    )
    return records, summary


# -- consistency oracles ----------------------------------------------------------


def verify_socle4_duality(cfg: CensusConfig, sample: CensusRecord) -> bool:
    """Round-trip one census record through linkage: recompute 𝔠 : I, check
    the residual is 𝔠 plus a single new quadric F', and that 𝔠 : F' gives
    back I.  Skipped records are vacuously fine."""
    if sample.presented is None:
        return True
    cover = _cover(cfg.field, cfg.r, cfg.ci_style, cfg.ci_seed)
    I = colon_quotient(cover, sample.F)
    J = link(I, cover.gens)
    # The new quadric: exactly one degree-2 minimal generator of J survives
    # reduction modulo the cover.
    fresh = Echelon(J.ring.field)
    extra = []
    for g in minimal_generators(as_basis(J)):
        if g.degree() != 2:
            continue
        nf = cover.groebner().normal_form(g)
        if not nf.is_zero() and fresh.add(dict(nf.terms)):
            extra.append(nf)
    if len(extra) != 1:
        return False
    F_prime = extra[0]
    # J must be the cover plus that quadric and nothing more ...
    if _hvector_with_form(cover, F_prime) != hilbert_function(J):
        return False
    # ... and the quadric must colon back to the ideal we started from.
    I_back = colon_quotient(cover, F_prime)
    return as_basis(I_back).elements == as_basis(I).elements


# -- persistence ------------------------------------------------------------------


def _csv_row(cfg: CensusConfig, rec: CensusRecord) -> tuple:
    status = {True: "True", False: "False"}.get(rec.presented)
    if status is None:
        status = "error" if rec.errored else "skipped"
    cls = rec.classification
    return (
        cfg.field.token,
        cfg.r,
        cfg.ci_style,
        cfg.ci_seed if cfg.ci_style == "random" else "",
        cfg.mode,
        rec.f_index,
        str(rec.F),
        status,
        "" if rec.h2 is None else rec.h2,
        "" if cls is None else cls.socle_degree,
        "" if cls is None else str(cls.hvector),
        "" if rec.seed is None else rec.seed,
    )


def records_to_csv(cfg: CensusConfig, records) -> str:
    """The full record stream as CSV text (header + one row per form)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(_csv_row(cfg, rec))
    return buf.getvalue()


def summary_markdown(summary: CensusSummary) -> str:
    """A Markdown table in the layout of the census tables: one row per h2
    value, plus provenance so a random-cover run can be reproduced."""
    cfg = summary.config
    lines = ["# Quadric-colon census", ""]
    lines.append(f"- field: {'Q' if cfg.field.is_rationals else f'GF({cfg.field.p})'}")
    lines.append(f"- r: {cfg.r}")
    if cfg.ci_style == "random":
        lines.append(f"- cover: random complete intersection, seed {cfg.ci_seed}")
        for g in summary.ci_gens:
            lines.append(f"    - {g}")
    else:
        lines.append("- cover: squares of the variables")
    if cfg.mode == "random_sample":
        lines.append(f"- forms: {cfg.sample_count} sampled, seed {cfg.sample_seed}")
    else:
        lines.append(f"- forms: exhaustive over {2 ** (cfg.r * (cfg.r - 1) // 2) - 1}"
                     " square-free sums")
    lines.append("")
    lines.append("| h2 | presented |")
    lines.append("|---:|----------:|")
    rows = sorted(set(summary.counts) | (set(H2_SUPPORT_R6) if cfg.r == 6
                                         else set()))
    for h2 in rows:
        lines.append(f"| {h2} | {summary.counts.get(h2, 0)} |")
    lines.append("")
    lines.append(f"- presented by quadrics: {summary.total_presented}")
    lines.append(f"- swept: {summary.total_swept}"
                 + (f" (plus {summary.total_skipped} skipped)"
                    if summary.total_skipped else ""))
    if summary.total_errored:
        lines.append(f"- errored: {summary.total_errored}")
    if summary.total_swept:
        share = summary.total_presented / summary.total_swept
        lines.append(f"- presented share: {share:.4f}")
    if summary.findings:
        lines.append("")
        lines.append("## Findings")
        for f in summary.findings:
            lines.append(f"- {f}")
    lines.append("")
    return "\n".join(lines)
