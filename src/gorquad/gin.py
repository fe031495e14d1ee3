"""Generic initial ideals and multiplication-rank checks.

The revlex generic initial ideal is computed by consensus: several random
invertible coordinate changes, one Groebner basis each, and the runs must
produce the same leading-term ideal, which must also be Borel-fixed.  On
top of certified gins sit the rank tools: the rank of multiplication by a
general linear form equals the number of standard monomials of the gin one
degree up that are divisible by the last variable, which gives an
independent cross-check for every direct rank computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import AlgebraError, GenericityError, GinUncertifiedError
from .groebner import Ideal
from .idealops import random_linear_form
from .invariants import (
    annihilator,
    as_basis,
    classify,
    hilbert_function,
    hilbert_value,
    is_artinian,
    standard_monomials,
)
from .linalg import echelon
from .poly import Polynomial, RingCtx

MIN_GIN_PRIME = 32003


@dataclass(frozen=True)
class GinResult:
    """A consensus revlex generic initial ideal."""

    monomial_ideal: Ideal
    borel_fixed: bool
    attempts_agreed: int
    seeds: tuple

    @property
    def ring(self) -> RingCtx:
        return self.monomial_ideal.ring

    @property
    def lead_keys(self) -> tuple:
        return tuple(g.terms[0][0] for g in self.monomial_ideal.gens)


@dataclass(frozen=True)
class RankReport:
    """Exact rank of one multiplication map [R/I]_d -> [R/I]_{d+1}."""

    degree: int
    rank: int
    kernel_dim: int
    method: str  # "direct_linear_algebra" or "gin_count"


@dataclass(frozen=True)
class GenericityPolicy:
    """How many random linear forms to try, and from which seed."""

    num_samples: int = 5
    seed: int = 0


def random_coordinate_change(R: RingCtx, rng: random.Random) -> list:
    """A uniformly random invertible change of coordinates, as the list of
    images of the variables.  Over the rationals the matrix entries are
    integers in [-50, 50]."""
    field = R.field
    xs = R.variables()
    n = R.nvars
    for _ in range(100):
        if field.is_rationals:
            matrix = [[field.normalize(rng.randint(-50, 50)) for _ in range(n)]
                      for _ in range(n)]
        else:
            matrix = [[rng.randrange(field.p) for _ in range(n)]
                      for _ in range(n)]
        rows = [{j: a for j, a in enumerate(row) if a != field.zero}
                for row in matrix]
        if echelon(rows, field).rank != n:
            continue
        images = []
        for row in matrix:
            im = R.zero
            for j, a in enumerate(row):
                if a != field.zero:
                    im = im + xs[j].scale(a)
            images.append(im)
        return images
    raise GenericityError("could not sample an invertible coordinate change")


def is_borel_fixed(x) -> bool:
    """Borel (strong stability) exchange check for a monomial ideal: for
    every minimal generator m and every variable x_j dividing m, each
    x_i * m / x_j with i < j must again lie in the ideal."""
    gb = as_basis(x)
    for g in (x.gens if isinstance(x, Ideal) else gb.elements):
        if len(g.terms) != 1:
            raise ValueError("Borel check expects a monomial ideal")
    codec = gb.ring.codec
    for m in gb.lead_keys:
        std = gb._level(codec.degree(m))[1]
        exps = codec.exps(m)
        for j, e in enumerate(exps):
            if not e:
                continue
            for i in range(j):
                shifted = list(exps)
                shifted[j] -= 1
                shifted[i] += 1
                if codec.key(tuple(shifted)) in std:
                    return False
    return True


def _lead_ideal_in_random_coordinates(I: Ideal, seed: int) -> tuple:
    rng = random.Random(seed)
    images = random_coordinate_change(I.ring, rng)
    moved = Ideal(I.ring, [g.compose(images) for g in I.gens])
    # h(g.I) = h(I) for an invertible change g, so the engine's hint is exact.
    moved._hilbert = lambda d: hilbert_value(I.groebner(), d)
    return moved.groebner().lead_keys


def gin(I: Ideal, seed: int = 0) -> GinResult:
    """Consensus revlex generic initial ideal.

    Three independent random coordinate changes must produce the same
    leading-term ideal, which must be Borel-fixed; on disagreement three
    further changes are drawn before giving up with GinUncertifiedError.
    Only over the rationals or GF(p) with p >= 32003 -- small-characteristic
    generic initial ideals behave differently and are refused.
    """
    field = I.ring.field
    if not (field.is_rationals or field.p >= MIN_GIN_PRIME):
        raise ValueError(
            f"gin needs the rationals or GF(p), p >= {MIN_GIN_PRIME}; got {field}")
    seen: list = []   # (lead_keys, seed) in draw order
    borel_broke = False
    for attempt in range(6):
        attempt_seed = seed + attempt
        leads = tuple(sorted(_lead_ideal_in_random_coordinates(I, attempt_seed)))
        seen.append((leads, attempt_seed))
        tally = {}
        for keys, s in seen:
            tally.setdefault(keys, []).append(s)
        winner, seeds = max(tally.items(), key=lambda kv: len(kv[1]))
        if attempt >= 2 and len(seeds) >= 3:
            one = field.one
            monomials = [Polynomial(I.ring, ((k, one),)) for k in winner]
            result = Ideal(I.ring, monomials)
            if not is_borel_fixed(result):
                borel_broke = True
                continue
            return GinResult(monomial_ideal=result, borel_fixed=True,
                             attempts_agreed=len(seeds), seeds=tuple(seeds))
    reason = ("the consensus leading-term ideal is not Borel-fixed"
              if borel_broke else "no 3-way agreement on the leading-term ideal")
    raise GinUncertifiedError(
        f"{reason} after {len(seen)} coordinate changes",
        candidates=tuple(sorted({keys for keys, _ in seen})))


def times_L_rank(I: Ideal, d: int, L: Polynomial,
                 gin_result: GinResult | None = None) -> RankReport:
    """Exact rank of multiplication by L from degree d to d+1 on R/I.

    Always computed directly: h_d minus the dimension of the annihilator
    of L in degree d.  When a certified gin is supplied the
    standard-monomial count of Prop-style bookkeeping (monomials of degree
    d+1 outside the gin divisible by the last variable) must agree -- that
    holds for general L, so a mismatch reports the chosen L as
    non-generic."""
    gb = as_basis(I)
    if not is_artinian(gb):
        raise AlgebraError("rank bookkeeping expects an artinian quotient")
    kernel_dim = len(annihilator(gb, [L], d))
    rank = hilbert_value(gb, d) - kernel_dim
    report = RankReport(degree=d, rank=rank, kernel_dim=kernel_dim,
                        method="direct_linear_algebra")
    if gin_result is not None:
        expected = gin_monomial_census(gin_result, d + 1).standard_divisible
        if expected != rank:
            raise GenericityError(
                f"direct rank {rank} at degree {d} disagrees with the gin "
                f"count {expected}; the linear form is not generic")
    return report


def generic_times_rank(I: Ideal, d: int,
                       policy: GenericityPolicy | None = None,
                       gin_result: GinResult | None = None) -> RankReport:
    """Best (maximal) rank of multiplication by a random linear form from
    degree d.  policy.num_samples is the budget of draws: sampling stops
    early once the best rank is min(h_d, h_{d+1}), which no later draw can
    beat, so the report is the one the whole budget would give."""
    policy = policy or GenericityPolicy()
    gb = as_basis(I)
    rng = random.Random(policy.seed)
    best: RankReport | None = None
    for _ in range(max(policy.num_samples, 1)):
        L = random_linear_form(gb.ring, rng)
        report = times_L_rank(gb, d, L)
        if best is None or report.rank > best.rank:
            best = report
        if best.rank == min(hilbert_value(gb, d), hilbert_value(gb, d + 1)):
            break
    if gin_result is not None:
        expected = gin_monomial_census(gin_result, d + 1).standard_divisible
        if expected != best.rank:
            raise GenericityError(
                f"sampled maximal rank {best.rank} at degree {d} disagrees "
                f"with the gin count {expected}")
    return best


def reduction_number(I: Ideal, s: int,
                     policy: GenericityPolicy | None = None,
                     gin_result: GinResult | None = None) -> int:
    """The reduction number r_s: the least k such that the quotient by s
    general linear forms vanishes in degree k+1.

    Sampled over policy.num_samples draws (special forms only ever vanish
    later, so the minimum over samples is the generic value); when a
    certified gin is supplied for 0 <= s < nvars, the pure-power
    characterization min{k : x_{n-s}^{k+1} in gin} must agree."""
    policy = policy or GenericityPolicy()
    gb = as_basis(I)
    ring_ = gb.ring
    if not is_artinian(gb):
        raise AlgebraError("reduction number expects an artinian quotient")
    if s < 0:
        raise ValueError("need s >= 0")
    rng = random.Random(policy.seed)
    best = None
    for _ in range(max(policy.num_samples, 1)):
        forms = [random_linear_form(ring_, rng) for _ in range(s)]
        sliced = Ideal(ring_, gb.elements + tuple(forms)) if forms else gb
        h = hilbert_function(sliced)
        k = h.socle_degree
        best = k if best is None else min(best, k)
    if gin_result is not None and 0 <= s < ring_.nvars:
        gin_gb = gin_result.monomial_ideal.groebner()
        j = ring_.nvars - s - 1
        k = 0
        while True:
            e = [0] * ring_.nvars
            e[j] = k + 1
            if ring_.codec.key(tuple(e)) not in gin_gb._level(k + 1)[1]:
                break
            k += 1
            if k > 2 * ring_.nvars + hilbert_function(gb).socle_degree:
                raise AlgebraError("gin has no pure power of the expected "
                                   "variable; it is not artinian")
        if k != best:
            raise GenericityError(
                f"sampled reduction number {best} disagrees with the gin "
                f"pure-power degree {k}")
    return best


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of testing injectivity of x L from degree 1 to 2."""

    applicable: bool
    detail: str
    injective: bool
    rank: int
    expected: int
    num_samples: int    # the sampling budget; the draws stop at full rank


def check_injectivity_conjecture(I: Ideal,
                                 policy: GenericityPolicy | None = None
                                 ) -> InjectivityReport:
    """Test whether multiplication by a general linear form is injective
    from degree 1 to degree 2.

    Preconditions (quadric presentation, socle degree >= 3, odd or zero
    characteristic) are reported, not raised.  A full-rank sample proves
    injectivity for general L; failure across all samples is reported as
    evidence, never as a disproof.  num_samples is the budget of draws."""
    policy = policy or GenericityPolicy()
    gb = as_basis(I)
    cls = classify(gb, with_socle=False)
    h = cls.hvector
    if gb.ring.field.p == 2:
        return InjectivityReport(False, "characteristic 2 is excluded "
                                 "(squares of linear forms degenerate)",
                                 False, 0, h[1], 0)
    if not cls.presented_by_quadrics:
        return InjectivityReport(False, "ideal is not presented by quadrics",
                                 False, 0, h[1], 0)
    if h.socle_degree < 3:
        return InjectivityReport(False,
                                 f"socle degree {h.socle_degree} < 3",
                                 False, 0, h[1], 0)
    best = generic_times_rank(gb, 1, policy)
    return InjectivityReport(True, "", best.rank == h[1], best.rank, h[1],
                             policy.num_samples)


@dataclass(frozen=True)
class WlpReport:
    """Per-degree maximal-rank outcomes for a general linear form."""

    reports: tuple      # RankReport at each source degree 0..socle-1
    maximal: tuple      # whether each rank hit min(h_d, h_{d+1})
    has_wlp: bool

    def failing_degrees(self) -> tuple:
        return tuple(rep.degree for rep, ok in zip(self.reports, self.maximal)
                     if not ok)


def check_wlp(I: Ideal, policy: GenericityPolicy | None = None) -> WlpReport:
    """Sample the weak Lefschetz property: for each degree d below the socle
    degree, the best rank of x L : [R/I]_d -> [R/I]_{d+1} over at most
    policy.num_samples sampled forms (generic_times_rank stops at the first
    maximal rank), compared with min(h_d, h_{d+1})."""
    policy = policy or GenericityPolicy()
    gb = as_basis(I)
    h = hilbert_function(gb)
    reports = []
    maximal = []
    for d in range(h.socle_degree):
        best = generic_times_rank(gb, d, policy)
        reports.append(best)
        maximal.append(best.rank == min(h[d], h[d + 1]))
    return WlpReport(reports=tuple(reports), maximal=tuple(maximal),
                     has_wlp=all(maximal))


@dataclass(frozen=True)
class GinDegreeCounts:
    """Combinatorics of one degree of a certified gin."""

    degree: int
    standard_total: int
    standard_divisible: int       # standard monomials divisible by x_last
    generators_divisible: int     # minimal gin generators divisible by x_last


def gin_monomial_census(gin_result: GinResult, d: int) -> GinDegreeCounts:
    """Count degree-d monomials outside the gin split by divisibility by the
    last variable, plus the gin's own minimal generators in degree d that
    the last variable divides."""
    gb = gin_result.monomial_ideal.groebner()
    ring_ = gb.ring
    codec = ring_.codec
    last = ring_.nvars - 1
    std = standard_monomials(gb, d)
    divisible = sum(1 for m in std if codec.exps(m)[last] > 0)
    gens_div = sum(1 for k in gb.lead_keys
                   if codec.degree(k) == d and codec.exps(k)[last] > 0)
    return GinDegreeCounts(degree=d, standard_total=len(std),
                           standard_divisible=divisible,
                           generators_divisible=gens_div)


# The general linear forms hyperplane_restriction_identity tries.
_RESTRICTION_SAMPLES = 3


def hyperplane_restriction_identity(I: Ideal, gin_result: GinResult,
                                    seed: int = 0) -> bool:
    """Degreewise Hilbert-function form of the generic hyperplane identity:
    restricting the gin by the last variable matches restricting the ideal
    by one of _RESTRICTION_SAMPLES general linear forms."""
    ring_ = I.ring
    rng = random.Random(seed)
    x_last = ring_.variables()[-1]
    restricted_gin = Ideal(ring_, list(gin_result.monomial_ideal.gens)
                           + [x_last])
    h_gin = hilbert_function(restricted_gin)
    for _ in range(_RESTRICTION_SAMPLES):
        L = random_linear_form(ring_, rng)
        h_cut = hilbert_function(Ideal(ring_, list(I.gens) + [L]))
        if h_cut == h_gin:
            return True
    return False
