"""Generic initial ideals and multiplication-rank checks.

The revlex generic initial ideal is computed by consensus: several random
invertible coordinate changes sigma, one leading-term ideal in(sigma(I))
each, and the runs must produce the same one, which must also be
Borel-fixed.  For an artinian I, in(sigma(I)) is read off the quotient
table of B = R/I with no Buchberger run (_initial_ideal_from_table, an
FGLM change of order): NF(sigma^-1(p)) maps R/sigma(I) isomorphically
onto B, so the leading terms are the monomials whose images lie in the
span of the smaller monomials' images.  A non-artinian I has no finite
table, so its changes run the engine.
On top of certified gins sit the rank tools: the rank of multiplication
by a general linear form equals the number of standard monomials of the
gin one degree up that are divisible by the last variable, which gives
an independent cross-check for every direct rank computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .constructions import _hvector_with_form
from .core import AlgebraError, GenericityError, GinUncertifiedError
from .groebner import GroebnerBasis, Ideal, _fglm_walk
from .idealops import random_linear_form
from .invariants import (
    as_basis,
    classify,
    hilbert_function,
    hilbert_value,
    is_artinian,
    multiplication_rank,
)
from .linalg import echelon, left_kernel, rows_over
from .poly import Polynomial, RingCtx, Substitution

MIN_GIN_PRIME = 32003


@dataclass(frozen=True)
class GinResult:
    """A consensus revlex generic initial ideal; gin certifies it
    Borel-fixed before it returns one."""

    monomial_ideal: Ideal
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


@dataclass(frozen=True)
class GenericityPolicy:
    """How many random linear forms to try, and from which seed."""

    num_samples: int = 5
    seed: int = 0


def random_coordinate_change(R: RingCtx, rng: random.Random) -> list:
    """A uniformly random invertible change of coordinates, as the list of
    images of the variables.  Over the rationals the matrix entries are
    integers in [-50, 50]."""
    field, n, var_keys = R.field, R.nvars, R.codec.var_keys
    for _ in range(100):
        if field.is_rationals:
            matrix = [[field.normalize(rng.randint(-50, 50)) for _ in range(n)]
                      for _ in range(n)]
        else:
            matrix = [[rng.randrange(field.p) for _ in range(n)]
                      for _ in range(n)]
        rows = [{j: a for j, a in enumerate(row) if a != field.zero}
                for row in matrix]
        if echelon(rows, field).rank == n:
            return [R.from_terms((var_keys[j], a) for j, a in row.items())
                    for row in rows]
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
    mul, div, divides, vk = codec.mul, codec.div, codec.divides, codec.var_keys
    for m in gb.lead_keys:
        std = gb.standard_set(codec.degree(m))
        for j in range(1, len(vk)):
            if divides(vk[j], m):
                below = div(m, vk[j])
                if any(mul(below, vk[i]) in std for i in range(j)):
                    return False
    return True


def _inverse_change(R: RingCtx, images) -> list:
    """The linear forms l'_k = sigma^-1(x_k) of the change sigma: x_j ->
    images[j].  left_kernel of the images' rows followed by the unit rows:
    the images are a basis of the linear forms, so each unit row reduces
    to zero against them alone, and the vector found at unit row k is
    (a, e_k) with sum_i a_i images[i] = -x_k, so l'_k = -sum_i a_i x_i."""
    n, one = R.nvars, R.field.one
    var_keys = R.codec.var_keys
    rows = [dict(im.terms) for im in images] + [{v: one} for v in var_keys]
    return [R.from_terms((var_keys[i], -a) for i, a in v.items() if i < n)
            for v in left_kernel(rows, R.field)]


def _initial_ideal_from_table(gb: GroebnerBasis, images) -> list:
    """The minimal generators of in(sigma(I)), sigma: x_j -> images[j]
    invertible, for the artinian I of gb, by groebner._fglm_walk over the
    table of B = R/I: sigma(I) is the kernel of phi = NF(sigma^-1(.)), and
    phi(b) = l'_k * phi(b / x_k), l'_k = sigma^-1(x_k) = sum_j a_kj x_j.
    Degree d has h_d = |std_d| standard monomials, and the rest lead.  The
    rows NF(x_j * t) over std_d, t in std_{d-1}, are linalg.rows_over rows
    kept on gb for every change; a change sums NF(l'_k * t) from them once
    per (d, k), and phi(b) from those, one row per t in phi(b / x_k)."""
    R = gb.ring
    mul, var_keys = R.codec.mul, R.codec.var_keys
    inverse = [dict(ell.terms) for ell in _inverse_change(R, images)]
    ell = {}    # ell[d, k] = {t: NF(l'_k * t)} over std_{d-1}

    def level(d):   # rows_over std_d; {t: {x_j: NF(x_j * t)}} over std_{d-1}
        def build():
            rows = rows_over(gb.standard_monomials(d), R.field)
            return rows, {t: {x: rows.row(gb.nf(mul(x, t))) for x in var_keys}
                          for t in gb.standard_monomials(d - 1)}
        return gb.cached(("gin rows", d), build)

    def image(d, k, prev):
        (rows, times), ell_k = level(d), ell.get((d, k))
        if ell_k is None:
            ell_k = ell[d, k] = {t: rows.combination(xt, inverse[k])
                                 for t, xt in times.items()}
        return rows.combination(ell_k, level(d - 1)[0].vector(prev))

    return list(_fglm_walk(R, level(0)[0].row(gb.nf(R.codec.one)), image,
                           gb.standard_monomials))


def _lead_ideal_in_random_coordinates(I: Ideal, seed: int) -> tuple:
    """The leading terms of the reduced basis of sigma(I), sigma the random
    coordinate change of the seed: read off I's quotient table when I is
    artinian (_initial_ideal_from_table), else computed by the engine."""
    images = random_coordinate_change(I.ring, random.Random(seed))
    gb = I.groebner()
    if is_artinian(gb):
        return tuple(_initial_ideal_from_table(gb, images))
    change = Substitution(I.ring, images)
    return Ideal(I.ring, [change(g) for g in I.gens]).groebner().lead_keys


def gin(I: Ideal, seed: int = 0) -> GinResult:
    """Consensus revlex generic initial ideal.

    Three independent random coordinate changes must produce the same
    leading-term ideal, which must be Borel-fixed; on disagreement three
    further changes are drawn before giving up with GinUncertifiedError.
    Each change's leading terms are exact (_lead_ideal_in_random_coordinates).
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
            return GinResult(monomial_ideal=result, attempts_agreed=len(seeds),
                             seeds=tuple(seeds))
    reason = ("the consensus leading-term ideal is not Borel-fixed"
              if borel_broke else "no 3-way agreement on the leading-term ideal")
    raise GinUncertifiedError(
        f"{reason} after {len(seen)} coordinate changes",
        candidates=tuple(sorted({keys for keys, _ in seen})))


def times_L_rank(I: Ideal, d: int, L: Polynomial,
                 gin_result: GinResult | None = None) -> RankReport:
    """Exact rank of multiplication by L from degree d to d+1 on R/I.

    Always computed directly, by invariants.multiplication_rank; the
    kernel dimension is h_d minus that rank.  When a certified gin is
    supplied the standard-monomial count of Prop-style bookkeeping
    (monomials of degree d+1 outside the gin divisible by the last
    variable) must agree -- that holds for general L, so a mismatch reports
    the chosen L as non-generic."""
    gb = as_basis(I)
    if not is_artinian(gb):
        raise AlgebraError("rank bookkeeping expects an artinian quotient")
    rank = multiplication_rank(gb, L, d)
    kernel_dim = hilbert_value(gb, d) - rank
    if gin_result is not None:
        _check_gin_count(gin_result, d, rank)
    return RankReport(degree=d, rank=rank, kernel_dim=kernel_dim)


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
        _check_gin_count(gin_result, d, best.rank)
    return best


def _check_gin_count(gin_result: GinResult, d: int, rank: int):
    """For a general linear form the rank from degree d is the gin's count
    of standard monomials of degree d + 1 divisible by the last variable;
    raises GenericityError when the rank found is not that count."""
    expected = gin_monomial_census(gin_result, d + 1).standard_divisible
    if expected != rank:
        raise GenericityError(
            f"rank {rank} at degree {d} disagrees with the gin count "
            f"{expected}; the linear form is not generic")


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
        codec = ring_.codec
        x = codec.var_keys[ring_.nvars - s - 1]
        k, power = 0, x             # power = x^(k+1)
        while power in gin_gb.standard_set(k + 1):
            k += 1
            power = codec.mul(power, x)
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
    std = gb.standard_monomials(d)
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
    by one of _RESTRICTION_SAMPLES general linear forms.  For an artinian
    I, h(I + L) is read off B = R/I with no basis of I + L: its degree d
    is h_I(d) - rank(×L: B_{d-1} -> B_d), as _hvector_with_form reads it
    through invariants.multiplication_rank."""
    ring_ = I.ring
    rng = random.Random(seed)
    x_last = ring_.variables()[-1]
    restricted_gin = Ideal(ring_, list(gin_result.monomial_ideal.gens)
                           + [x_last])
    h_gin = hilbert_function(restricted_gin)
    artinian = is_artinian(I.groebner())
    for _ in range(_RESTRICTION_SAMPLES):
        L = random_linear_form(ring_, rng)
        h_cut = (_hvector_with_form(I, L) if artinian else
                 hilbert_function(Ideal(ring_, list(I.gens) + [L])))
        if h_cut == h_gin:
            return True
    return False
