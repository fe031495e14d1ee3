"""The benchmark's three workloads, their output checks and their traced
replays.

Every workload takes its seed from the runner and hands gorquad only the
inputs generated from it: census sample and cover seeds, the seed of the
random complete intersection gin runs on, and the gin/alpha0 seeds.  All
work runs in this process (`parallelism=1`, no pool).

An operation is one census form or one liaison job.  An operation fails
when it raises, when its output check fails, or -- for census forms --
when `run_census` skips it for any reason other than the two legitimate
skips below, because `run_census` folds classification errors into skips.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from gorquad import (CensusConfig, FieldSpec, GroebnerBasis, Ideal,
                     apolar_ideal, check_wlp, classify, colon_form, contract,
                     double_link, gin, hilbert_function, is_borel_fixed,
                     minimal_generator_counts, nonunique_hf_pair,
                     penultimate_socle_algebras, quadric_ci, run_census,
                     squarefree_full_form, ring)
from gorquad.gin import (hyperplane_restriction_identity,
                         random_coordinate_change)
from gorquad.linalg import left_kernel

from reference import ReferenceClock
from spans import NullTracer, Tracer, tail, tail_label, timing_metrics

DEFAULT_SEED = 1
GOLDEN = Path(__file__).resolve().parent / "golden.json"
ACCEPTED_SKIPS = ("the zero form", "the form lies in the cover")
# Every h2 the r = 6 census can legally produce.
H2_SUPPORT_R6 = (10, 11, 12)
# run_census colons the random cover with this truncation for every r.
COLON_TRUNCATION = 5
# Passes over the same calls in an untraced run, at the least.  The first
# pass of a process also fills the ring and monomial caches, so it is checked
# but not charged.  Each call or job is charged the median of the later
# passes, at the reference speed (reference.py), which drops a pass that
# other work on the host slowed.
MIN_PASSES = 3

SPANS = (
    "census.form", "poly.roundtrip", "groebner.cover_nf",
    "constructions.contract", "constructions.apolar_ideal",
    "idealops.colon_form", "groebner.basis", "invariants.hilbert_function",
    "invariants.minimal_generator_counts", "invariants.classify",
    "linalg.left_kernel", "constructions.penultimate_socle_algebras",
    "constructions.nonunique_hf_pair", "constructions.double_link",
    "gin.gin", "gin.check_wlp",
)
COUNTS = (
    "constructions.apolar_gens", "idealops.colon_elems",
    "groebner.basis_elems", "groebner.top_degree", "linalg.kernel_rows",
    "linalg.kernel_vectors", "gin.coordinate_changes", "gin.basis_elems",
    "census.forms", "census.presented", "census.skipped", "census.errored",
)
# Root spans that stand for work the untraced run also does.  The replays
# made after it (left kernels, seed apolar ideals, gin's Groebner bases) are
# extra: the overhead ratio is taken before they run.
TIMED_ROOTS = (
    "census.form", "constructions.penultimate_socle_algebras",
    "constructions.nonunique_hf_pair", "constructions.double_link",
    "groebner.basis", "invariants.hilbert_function",
    "invariants.minimal_generator_counts", "invariants.classify",
    "gin.gin", "gin.check_wlp",
)


@dataclass
class Outcome:
    """What one run did: operations attempted and failed, the reason for
    each failure, the metrics and the human-readable report rows."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    report: list = field(default_factory=list)     # (name, value, unit, note)
    metrics: dict = field(default_factory=dict)    # name -> (value, unit)

    def fail(self, ops, problem: str) -> None:
        """Mark the operations with the given keys as failed."""
        self.failed_ops.update(ops)
        self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def job_error(outcome: Outcome, ops, label: str) -> None:
    """Record the exception being handled as the failure of the operations
    with the given keys."""
    traceback.print_exc(file=sys.stderr)
    outcome.fail(ops, f"{label}: {sys.exc_info()[1]!r}")


# -- census ------------------------------------------------------------------


def derived_seed(*parts) -> int:
    """A seed for one input, fixed by the workload seed and the input's
    role.  Seeding with a string does not depend on the interpreter's hash
    seed, so it is the same in every process."""
    return random.Random("/".join(map(str, parts))).randrange(1 << 31)


@dataclass(frozen=True)
class CensusInputs:
    spec: "CensusWorkload"
    seed: int
    ci: Ideal
    ci_seed: int
    dual_socle: object          # x1*...*xr for the monomial cover, else None

    def config(self, batch: int) -> CensusConfig:
        s = self.spec
        return CensusConfig(field=FieldSpec.prime(s.p), r=s.r,
                            ci_style=s.ci_style, ci_seed=self.ci_seed,
                            mode="random_sample", sample_count=s.batch,
                            sample_seed=derived_seed("sample", self.seed, batch),
                            parallelism=1)


@dataclass(frozen=True)
class CensusWorkload:
    name: str
    p: int
    r: int
    ci_style: str
    batch: int                  # forms per run_census call
    batches: int                # run_census calls in one pass

    def setup(self, seed: int) -> CensusInputs:
        ci_seed = derived_seed("cover", seed)
        ci = quadric_ci(self.r, FieldSpec.prime(self.p), style=self.ci_style,
                        seed=ci_seed)
        ci.groebner()
        dual = None
        if self.ci_style == "monomial":
            dual = ci.ring.one
            for v in ci.ring.variables():
                dual = dual * v
        return CensusInputs(self, seed, ci, ci_seed, dual)

    # The untraced run: passes over the same run_census calls until the time
    # is up, each call charged the median of its passes after the first.
    def measure(self, inputs: CensusInputs, seconds: float, seed: int) -> Outcome:
        out = Outcome()
        walls = {b: [] for b in range(self.batches)}
        scaled = {b: [] for b in range(self.batches)}
        first = {}
        clock = ReferenceClock()
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            for b, times in walls.items():
                done = self._checked_batch(inputs, out, (passes, b), seed,
                                           clock)
                if done is None:
                    continue
                outcomes = [record_outcome(rec) for rec in done[0]]
                if first.setdefault(b, outcomes) != outcomes:
                    out.fail([(passes, b, i) for i in range(self.batch)],
                             f"pass {passes}, call {b}: records differ "
                             "from the first pass")
                times.append(done[1].wall)
                scaled[b].append(done[1].scaled)
            passes += 1
        charged = [median(t[1:] or t) for t in scaled.values() if t]
        forms = self.batch * len(charged)
        rate = forms / sum(charged) if charged else 0.0
        per_form = [1e3 * w / self.batch for t in walls.values() for w in t]
        wall_rate = 1e3 * len(per_form) / sum(per_form) if per_form else 0.0
        out.metrics["ops_per_s"] = (rate, "1/s")
        out.report.append(
            ("forms_per_s", rate, "1/s",
             f"{forms} forms in {len(charged)} run_census calls, each the "
             f"median of passes 2-{passes} at the reference speed; "
             f"{wall_rate:.2f}/s by the wall clock"))
        if per_form:
            out.report.append(
                ("ms_per_form", median(per_form), "ms",
                 f"median over {len(per_form)} calls by the wall clock; "
                 f"{tail_label(len(per_form))} {tail(per_form):.2f} ms"))
        return out

    def _checked_batch(self, inputs: CensusInputs, out: Outcome, key: tuple,
                       seed: int, clock: ReferenceClock):
        """Run and check run_census call `key[-1]`; returns its records and
        its Lap, or None if the call raised.  Every form is one operation,
        keyed `key` + (form index,)."""
        cfg = inputs.config(key[-1])
        gc.collect()
        try:
            with clock.lap() as lap:
                records, summary = run_census(cfg)
        except Exception:
            out.attempted += self.batch
            job_error(out, [key + (i,) for i in range(self.batch)],
                      f"run_census call {key}")
            return None
        self.check_batch(out, key, cfg, records, summary, seed)
        return records, lap

    def check_batch(self, out: Outcome, key: tuple, cfg: CensusConfig,
                    records, summary, seed: int) -> None:
        """Account one run_census call.  Call 0 of the default seed must
        also reproduce the golden tallies."""
        out.attempted += len(records)
        every = [key + (rec.f_index,) for rec in records]
        if summary.findings:
            out.fail(every, f"call {key}: findings {list(summary.findings)}")
        if sum(summary.counts.values()) != summary.total_presented:
            out.fail(every, f"call {key}: counts do not sum to "
                     "total_presented")
        if key[-1] == 0 and seed == DEFAULT_SEED:
            want = json.loads(GOLDEN.read_text())[self.name]
            got = summary_tallies(summary)
            if got != want:
                out.fail(every, f"golden tallies differ: got {got}, want {want}")
        for rec in records:
            problem = record_problem(rec, cfg.r)
            if problem:
                out.fail([key + (rec.f_index,)],
                         f"call {key}, form #{rec.f_index}: {problem}")

    # The traced run: one untraced pass, then its forms replayed call by
    # call under spans.
    def traced(self, inputs: CensusInputs, seconds: float, seed: int,
               tr: Tracer) -> Outcome:
        out = Outcome()
        clock = ReferenceClock(sampling=False)
        self._checked_batch(inputs, out, (0, 0), seed, clock)  # fills the caches
        wall = 0.0
        forms = []
        for b in range(self.batches):
            done = self._checked_batch(inputs, out, (1, b), seed, clock)
            if done is None:
                continue
            records, lap = done
            wall += lap.wall
            forms.extend((b, rec) for rec in records)
            tally_records(tr, records)
        gc.collect()
        for b, rec in forms:
            request = (b, rec.f_index)
            try:
                got = replay_form(tr, inputs, rec.F, request)
            except Exception:
                job_error(out, [(1,) + request], f"replay of form {request}")
                continue
            want = record_outcome(rec)
            if got != want:
                out.fail([(1,) + request], f"replay of form {request} gave "
                         f"{got}, run_census gave {want}")
        out.metrics["trace_overhead_share"] = (
            tr.root_total(TIMED_ROOTS) / wall - 1.0 if wall else 0.0, "ratio")
        if inputs.dual_socle is not None:
            for b, rec in forms:
                if rec.presented is not None:
                    catalecticant_kernels(tr, contract(rec.F, inputs.dual_socle),
                                          (b, rec.f_index))
        return out


def record_problem(rec, r: int) -> str:
    """Why one census record counts as a failed operation, or ''."""
    if rec.presented is None:
        if rec.skip_reason in ACCEPTED_SKIPS:
            return ""
        return f"skipped for {rec.skip_reason!r}"
    if not rec.presented:
        return ""
    hv = rec.classification.hvector
    if hv.socle_degree != r - 2:
        return f"presented with socle degree {hv.socle_degree}, h-vector {hv}"
    if not hv.is_symmetric():
        return f"presented with asymmetric h-vector {hv}"
    if r == 6 and rec.h2 not in H2_SUPPORT_R6:
        return f"presented with h2 = {rec.h2}"
    return ""


def summary_tallies(summary) -> dict:
    return {
        "counts": {str(h2): n for h2, n in sorted(summary.counts.items())},
        "presented": summary.total_presented,
        "swept": summary.total_swept,
        "skipped": summary.total_skipped,
    }


def tally_records(tr: Tracer, records) -> None:
    for rec in records:
        tr.count("census.forms")
        if rec.presented is None:
            accepted = rec.skip_reason in ACCEPTED_SKIPS
            tr.count("census.skipped" if accepted else "census.errored")
        elif rec.presented:
            tr.count("census.presented")


def record_outcome(rec) -> tuple:
    if rec.presented is None:
        return ("skipped", rec.skip_reason)
    return (rec.presented, rec.classification.hvector.values)


def replay_form(tr: Tracer, inputs: CensusInputs, F0, request) -> tuple:
    """The public calls run_census makes for one form, one span each;
    returns what record_outcome gives for the matching record."""
    with tr.span("census.form", request=request):
        with tr.span("poly.roundtrip"):
            F = F0.ring.parse(str(F0))
        with tr.span("groebner.cover_nf"):
            inside = inputs.ci.groebner().reduces_to_zero(F)
        if inside:
            return ("skipped", ACCEPTED_SKIPS[0] if F.is_zero()
                    else ACCEPTED_SKIPS[1])
        if inputs.dual_socle is not None:
            with tr.span("constructions.contract"):
                G = contract(F, inputs.dual_socle)
            with tr.span("constructions.apolar_ideal"):
                I = apolar_ideal(G)
            tr.count("constructions.apolar_gens", len(I.gens))
        else:
            with tr.span("idealops.colon_form"):
                I = colon_form(inputs.ci, F, truncate_at=COLON_TRUNCATION)
            tr.count("idealops.colon_elems", len(I.gens))
        cls = traced_classify(tr, I, with_socle=False)
    return (cls.presented_by_quadrics, cls.hvector.values)


def traced_classify(tr: Tracer, I: Ideal, with_socle: bool):
    """classify() split into the public calls it makes, one span each."""
    with tr.span("groebner.basis"):
        gb = I.groebner()
    tr.count("groebner.basis_elems", len(gb.elements))
    tr.peak("groebner.top_degree", max(gb.generator_degrees(), default=0))
    with tr.span("invariants.hilbert_function"):
        hilbert_function(gb)
    with tr.span("invariants.minimal_generator_counts"):
        minimal_generator_counts(gb)
    with tr.span("invariants.classify"):
        return classify(I, with_socle=with_socle)


def catalecticant_kernels(tr: Tracer, G, request) -> None:
    """Feed left_kernel the degree-wise catalecticant rows of the dual form
    G, built exactly as apolar_ideal builds them."""
    R = G.ring
    codec = R.codec
    for d in range(1, G.degree() + 1):
        rows = [{codec.div(kf, m): cf for kf, cf in G.terms
                 if codec.divides(m, kf)}
                for m in R.monomials_of_degree(d)]
        with tr.span("linalg.left_kernel", request=request):
            kernel = left_kernel(rows, R.field)
        tr.count("linalg.kernel_rows", len(rows))
        tr.count("linalg.kernel_vectors", len(kernel))


# -- liaison towers and gin --------------------------------------------------


@dataclass(frozen=True)
class LiaisonInputs:
    ci: Ideal                   # the random quadric complete intersection gin runs on
    gin_seed: int
    alpha0_seed: int

    def fresh_ci(self) -> Ideal:
        """The gin input with its setup basis attached but no invariant
        caches, so every round does the same work."""
        gb = self.ci.groebner()
        I = Ideal(self.ci.ring, self.ci.gens)
        I.attach_groebner(GroebnerBasis(gb.ring, gb.elements, gb.degree_cap,
                                        gb.truncated_at))
        return I


def _binomial(n: int, k: int) -> int:
    return math.comb(n, k) if k >= 0 else 0


@dataclass(frozen=True)
class LiaisonWorkload:
    name: str
    r: int                      # variables of the tower outputs
    gin_r: int                  # variables of the complete intersection for gin
    p: int = 32003

    def setup(self, seed: int) -> LiaisonInputs:
        ci_seed, gin_seed, alpha0_seed = (derived_seed(role, seed) for role in
                                          ("cover", "gin", "alpha0"))
        ci = quadric_ci(self.gin_r, FieldSpec.prime(self.p), style="random",
                        seed=ci_seed)
        ci.groebner()
        return LiaisonInputs(ci, gin_seed, alpha0_seed)

    def tower_jobs(self, inputs: LiaisonInputs) -> tuple:
        """(span, label, construction, check) for each tower job."""
        r, P = self.r, FieldSpec.prime(self.p)
        return (
            ("constructions.penultimate_socle_algebras", "penultimate",
             lambda: penultimate_socle_algebras(r, P), self.check_penultimate),
            ("constructions.nonunique_hf_pair", "alpha1",
             lambda: nonunique_hf_pair(r, "alpha1", field=P), self.check_alpha1),
            ("constructions.nonunique_hf_pair", "alpha0",
             lambda: nonunique_hf_pair(r, "alpha0", field=P,
                                       seed=inputs.alpha0_seed),
             self.check_alpha0),
            ("constructions.double_link", "double_link",
             lambda: double_link(r, P), self.check_double_link),
        )

    def check_penultimate(self, classes) -> str:
        want = [math.comb(self.r, 2) - beta + 1 for beta in (1, 2, 3)]
        got = [c.hvector[2] for c in classes]
        if got != want:
            return f"h2 values {got}, want {want}"
        if not all(c.gorenstein and c.socle_degree == self.r - 1
                   for c in classes):
            return "an output is not Gorenstein of socle degree r - 1"
        return ""

    def check_alpha1(self, classes) -> str:
        a, b = (c.hvector for c in classes)
        mid = a.socle_degree // 2
        if a.values[:3] != b.values[:3] or a[mid] == b[mid]:
            return f"pair {a} / {b} does not agree through degree 2 and split in the middle"
        return ""

    def check_alpha0(self, classes) -> str:
        h3 = classes[0].hvector[3]
        if h3 != math.comb(self.r, 3):
            return f"general form gives h3 = {h3}, want {math.comb(self.r, 3)}"
        return ""

    def check_double_link(self, classes) -> str:
        r = self.r
        want = tuple(_binomial(r - 1, j) + _binomial(r - 3, j - 1)
                     for j in range(r))
        got = classes[-1].hvector.values
        return "" if got == want else f"final h-vector {got}, want {want}"

    def check_gin(self, I: Ideal, res, wlp, seed: int) -> str:
        if not is_borel_fixed(res.monomial_ideal):
            return "gin is not Borel-fixed"
        if hilbert_function(res.monomial_ideal) != hilbert_function(I):
            return "gin changed the Hilbert function"
        if not hyperplane_restriction_identity(I, res, seed=seed):
            return "hyperplane restriction identity fails"
        if len(wlp.reports) != hilbert_function(I).socle_degree:
            return "check_wlp skipped a degree"
        return ""

    def run_round(self, inputs: LiaisonInputs, out: Outcome, tr,
                  round_no: int, clock: ReferenceClock | None = None) -> tuple:
        """One pass over the tower jobs and the gin job, each job keyed
        (round_no, label); returns ({label: Lap}, what every job produced).
        Without a clock nothing samples the host.  Checks run after the
        clock stops."""
        clock = clock or ReferenceClock(sampling=False)
        laps = {}
        produced = []
        for span, label, build, check in self.tower_jobs(inputs):
            op = (round_no, label)
            out.attempted += 1
            gc.collect()
            try:
                with clock.lap() as laps[label]:
                    with tr.span(span, request=label):
                        outputs = build()
                    classes = [traced_classify(tr, I, with_socle=True)
                               for I in outputs]
            except Exception:
                job_error(out, [op], label)
                continue
            produced.append(tuple(c.hvector.values for c in classes))
            problem = check(classes)
            if problem:
                out.fail([op], f"{label}: {problem}")
        op = (round_no, "gin")
        out.attempted += 1
        I = inputs.fresh_ci()
        gc.collect()
        try:
            with clock.lap() as laps["gin"]:
                with tr.span("gin.gin", request="gin"):
                    res = gin(I, seed=inputs.gin_seed)
                with tr.span("gin.check_wlp", request="gin"):
                    wlp = check_wlp(I)
        except Exception:
            job_error(out, [op], "gin")
            return laps, produced
        # gin draws consecutive seeds from gin_seed and stops at the last
        # agreeing one
        tr.count("gin.coordinate_changes", max(res.seeds) - inputs.gin_seed + 1)
        tr.count("gin.basis_elems", len(res.monomial_ideal.gens))
        try:
            problem = self.check_gin(I, res, wlp, inputs.gin_seed)
        except Exception:
            job_error(out, [op], "gin check")
        else:
            if problem:
                out.fail([op], f"gin: {problem}")
        produced.append(tuple(sorted(res.lead_keys)))
        return laps, produced

    def measure(self, inputs: LiaisonInputs, seconds: float, seed: int) -> Outcome:
        """Rounds until `seconds` have passed, at least MIN_PASSES; each job
        is charged the median of its rounds after the first at the
        reference speed.  The first round fills the caches of the large
        rings and runs about 20% longer."""
        out = Outcome()
        rounds = []
        clock = ReferenceClock()
        start = time.perf_counter()
        while len(rounds) < MIN_PASSES or time.perf_counter() - start < seconds:
            laps, produced = self.run_round(inputs, out, NullTracer(),
                                            len(rounds), clock)
            if rounds and produced != rounds[0][1]:
                out.fail([(len(rounds), "gin")],
                         f"round {len(rounds)} outputs differ from round 0")
            rounds.append((laps, produced))
        charged = {label: median(r[0][label].scaled for r in rounds[1:])
                   for label in rounds[0][0]}
        tower = sum(t for label, t in charged.items() if label != "gin")
        gin_wall = charged.get("gin", 0.0)
        rate = len(charged) / (tower + gin_wall)
        out.metrics["ops_per_s"] = (rate, "1/s")
        n = len(rounds)
        towers = [sum(lap.wall for label, lap in r[0].items() if label != "gin")
                  for r in rounds]
        gins = [r[0]["gin"].wall for r in rounds]
        note = (f"each job the median of rounds 2-{n} at the reference "
                "speed; wall clock per round: median")
        out.report += [
            ("tower_s", tower, "s", f"{note} {median(towers):.2f} s, "
             f"{tail_label(n)} {tail(towers):.2f} s"),
            ("gin_s", gin_wall, "s", f"{note} {median(gins):.2f} s, "
             f"{tail_label(n)} {tail(gins):.2f} s"),
            ("jobs_per_s", rate, "1/s", f"{len(charged)} jobs, each the "
             f"median of rounds 2-{n} at the reference speed"),
        ]
        return out

    def traced(self, inputs: LiaisonInputs, seconds: float, seed: int,
               tr: Tracer) -> Outcome:
        """A warm-up round, one untraced round, the same round traced
        (outputs must agree), then two replays on their own: the seed
        apolar ideals of penultimate_socle_algebras with their catalecticant
        kernels, and the Groebner bases of gin's coordinate changes."""
        out = Outcome()
        self.run_round(inputs, out, NullTracer(), 0)
        laps, plain = self.run_round(inputs, out, NullTracer(), 1)
        _, traced = self.run_round(inputs, out, tr, 2)
        if traced != plain:
            labels = [job[1] for job in self.tower_jobs(inputs)] + ["gin"]
            out.fail([(2, label) for label in labels],
                     "traced round outputs differ from the untraced round")
        out.metrics["trace_overhead_share"] = (
            tr.root_total(TIMED_ROOTS) / sum(lap.wall for lap in laps.values())
            - 1.0, "ratio")
        field_ = FieldSpec.prime(self.p)
        for beta in (1, 2, 3):
            F = squarefree_full_form(ring(field_, self.r - beta), self.r - 3)
            try:
                with tr.span("constructions.apolar_ideal", request=beta):
                    I = apolar_ideal(F)
                tr.count("constructions.apolar_gens", len(I.gens))
                catalecticant_kernels(tr, F, beta)
            except Exception:
                job_error(out, [(2, "penultimate")],
                          f"seed apolar ideal, beta = {beta}")
        if "gin.coordinate_changes" in tr.counts:
            # the traced gin job succeeded, so its lead terms come last
            try:
                problem = self.replay_gin_bases(tr, inputs, traced[-1])
            except Exception:
                job_error(out, [(2, "gin")], "replay of gin's Groebner bases")
            else:
                if problem:
                    out.fail([(2, "gin")], problem)
        return out

    def replay_gin_bases(self, tr: Tracer, inputs: LiaisonInputs,
                         lead_keys: tuple) -> str:
        """The Groebner bases of the coordinate changes the traced gin job
        drew, rebuilt through public calls as root `groebner.basis` spans.
        As in gin, at least three of them must give its lead terms."""
        I = inputs.fresh_ci()
        agreeing = 0
        changes = tr.counts["gin.coordinate_changes"]
        for s in range(inputs.gin_seed, inputs.gin_seed + changes):
            images = random_coordinate_change(I.ring, random.Random(s))
            moved = Ideal(I.ring, [g.compose(images) for g in I.gens])
            with tr.span("groebner.basis", request=("gin", s)):
                gb = moved.groebner()
            tr.count("groebner.basis_elems", len(gb.elements))
            tr.peak("groebner.top_degree",
                    max(gb.generator_degrees(), default=0))
            agreeing += tuple(sorted(gb.lead_keys)) == lead_keys
        if agreeing < 3:
            return (f"only {agreeing} of gin's {changes} coordinate changes "
                    "give its lead terms")
        return ""


WORKLOADS = {w.name: w for w in (
    CensusWorkload("census-gf2-r6", p=2, r=6, ci_style="monomial", batch=50,
                   batches=6),
    CensusWorkload("census-gfp-randomci-r5", p=32003, r=5, ci_style="random",
                   batch=8, batches=2),
    LiaisonWorkload("liaison-gin-r9", r=9, gin_r=7),
)}


def per_layer_metrics(tr: Tracer, setup_samples, out: Outcome) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    metrics = timing_metrics("census.setup", setup_samples)
    for name in SPANS:
        metrics.update(timing_metrics(name, tr.durations(name)))
    metrics["census.form.self_s"] = (sum(tr.self_times("census.form")), "s")
    for name in COUNTS:
        metrics[name] = (tr.counts.get(name, 0), "count")
    c = tr.counts
    swept = c.get("census.forms", 0) - c.get("census.skipped", 0) - c.get("census.errored", 0)
    metrics["census.presented_share"] = (
        c.get("census.presented", 0) / swept if swept else 0.0, "ratio")
    metrics["trace_overhead_share"] = out.metrics["trace_overhead_share"]
    return metrics
