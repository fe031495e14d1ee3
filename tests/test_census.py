"""Census sweeps: exhaustive counts, sampling, CSV persistence, findings."""

import csv
import dataclasses
import hashlib
import io
import random

import pytest

import gorquad.census
import gorquad.constructions
from gorquad import invariants
from gorquad.census import (CSV_HEADER, H2_SUPPORT_R6, CensusConfig,
                            CensusRecord, CensusSummary, _cover,
                            _form_from_coeffs, _record_findings,
                            _sample_coefficient_lists, _sweep_one, classify,
                            colon_quotient, form_from_index, records_to_csv,
                            run_census, squarefree_quadric_keys,
                            summary_markdown, verify_socle4_duality)
from gorquad.cli import build_parser, main
from gorquad.constructions import (apolar_ideal, complete_intersection_hvector,
                                   contract, quadric_ci)
from gorquad.core import AlgebraError, FieldSpec
from gorquad.groebner import GroebnerBasis, Ideal
from gorquad.idealops import colon_form, random_homogeneous
from gorquad.invariants import (HVector, QuadricClassification,
                                annihilator, as_basis,
                                hilbert_function, standard_monomials)
from gorquad.linalg import Echelon, echelon, left_kernel
from gorquad.poly import ring

from conftest import GF2, GF3, GF7, GFBIG, Q, oracle_census_classify


@pytest.fixture(scope="module")
def r4_sweep():
    cfg = CensusConfig(field=GF2, r=4)
    records, summary = run_census(cfg)
    return cfg, records, summary


def test_exhaustive_r4_counts(r4_sweep):
    _, records, summary = r4_sweep
    assert summary.total_swept == 63
    assert summary.total_skipped == 0
    assert summary.total_presented == 28
    assert summary.counts == {1: 28}
    assert summary.findings == ()
    assert len(records) == 63
    assert [rec.f_index for rec in records] == list(range(1, 64))


def test_presented_records_have_socle_degree_r_minus_2(r4_sweep):
    _, records, _ = r4_sweep
    for rec in records:
        if rec.presented:
            assert rec.classification.hvector == HVector((1, 4, 1))
            assert rec.h2 == 1


def _cover_of(cfg):
    return _cover(cfg.field, cfg.r, cfg.ci_style, cfg.ci_seed)


def test_records_keep_the_classification(r4_sweep):
    cfg, records, _ = r4_sweep
    cover = _cover_of(cfg)
    for rec in records:
        want, got = classify(cover, rec.F), rec.classification
        assert (got.had_linear_forms, got.generator_counts, got.hvector) == (
            want.had_linear_forms, want.generator_counts, want.hvector), str(rec.F)
    assert any(rec.classification.had_linear_forms for rec in records)


def test_form_from_index_enumerates_squarefree_sums():
    R = ring(GF2, 4)
    keys = squarefree_quadric_keys(R)
    assert len(keys) == 6
    forms = {str(form_from_index(R, keys, m)) for m in range(1, 64)}
    assert len(forms) == 63
    assert len(form_from_index(R, keys, 0b101).terms) == 2


def test_sampled_census_is_seed_deterministic():
    cfg = CensusConfig(field=GF2, r=5, mode="random_sample",
                       sample_count=120, sample_seed=9)
    rec_a, sum_a = run_census(cfg)
    rec_b, sum_b = run_census(cfg)
    assert records_to_csv(cfg, rec_a) == records_to_csv(cfg, rec_b)
    assert sum_a.counts == sum_b.counts
    assert sum_a.total_swept + sum_a.total_skipped == 120
    other = run_census(CensusConfig(field=GF2, r=5, mode="random_sample",
                                    sample_count=120, sample_seed=10))[1]
    assert other.counts != sum_a.counts or \
        other.total_presented != sum_a.total_presented


def test_sampled_skip_reasons_are_explained():
    # samples draw every degree-2 coefficient, so covers and zero forms occur
    cfg = CensusConfig(field=GF2, r=3, mode="random_sample",
                       sample_count=200, sample_seed=1)
    records, summary = run_census(cfg)
    skipped = [rec for rec in records if rec.presented is None]
    assert skipped, "200 draws over nine GF(2) coefficients must hit the cover"
    assert {rec.skip_reason for rec in skipped} <= {
        "the zero form", "the form lies in the cover"}
    assert all(rec.seed == 1 for rec in records)


def test_sweep_one_skip_payloads_directly():
    cfg = CensusConfig(field=GF2, r=3, mode="random_sample",
                       sample_count=1, sample_seed=0)
    R = ring(cfg.field, cfg.r)
    width = len(R.monomials_of_degree(2))
    zero = _sweep_one(cfg, (0, (0,) * width))
    assert zero[2:] == (None, "the zero form", False)
    # a pure square lies in the cover of variable squares
    square_pos = [i for i, k in enumerate(R.monomials_of_degree(2))
                  if max(R.codec.exps(k)) == 2][0]
    coeffs = [0] * width
    coeffs[square_pos] = 1
    cover = _sweep_one(cfg, (1, tuple(coeffs)))
    assert cover[2:] == (None, "the form lies in the cover", False)


def test_the_cover_is_built_once_per_process(monkeypatch):
    # Two sweeps with different samples and a duality check on one random
    # cover draw its quadrics and run Buchberger once between them.
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return quadric_ci(*args, **kwargs)

    monkeypatch.setattr(gorquad.census, "quadric_ci", counting)
    _cover.cache_clear()
    cfg = CensusConfig(field=GFBIG, r=4, ci_style="random", ci_seed=6,
                       mode="random_sample", sample_count=4, sample_seed=1)
    run_census(cfg)
    records, _ = run_census(dataclasses.replace(cfg, sample_seed=2))
    presented = next(rec for rec in records if rec.presented)
    assert verify_socle4_duality(cfg, presented)
    assert len(builds) == 1


def test_parallel_sweep_is_byte_identical(r4_sweep):
    cfg, records, _ = r4_sweep
    cfg2 = CensusConfig(field=GF2, r=4, parallelism=2)
    records2, summary2 = run_census(cfg2)
    assert records_to_csv(cfg, records) == records_to_csv(cfg, records2)
    assert summary2.total_presented == 28


def test_csv_layout(r4_sweep):
    cfg, records, _ = r4_sweep
    text = records_to_csv(cfg, records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 64
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "4"
    assert first[2] == "monomial" and first[3] == ""  # ci_seed only for random
    assert first[7] in ("True", "False", "skipped", "error")


def test_socle4_duality_roundtrip(r4_sweep):
    cfg, records, _ = r4_sweep
    presented = next(rec for rec in records if rec.presented)
    assert verify_socle4_duality(cfg, presented)
    skipped = CensusRecord(f_index=0, F=ring(GF2, 4).parse("x1*x2"),
                           classification=None, presented=None, h2=None,
                           skip_reason="the zero form")
    assert verify_socle4_duality(cfg, skipped)


def test_socle4_duality_with_random_cover():
    cfg = CensusConfig(field=GFBIG, r=4, ci_style="random", ci_seed=5,
                       mode="random_sample", sample_count=6, sample_seed=2)
    records, summary = run_census(cfg)
    presented = [rec for rec in records if rec.presented]
    assert presented, "generic quadrics over a big field should colon cleanly"
    assert verify_socle4_duality(cfg, presented[0])


def _presented_record(F, hvector=(1, 6, 10, 6, 1)):
    """A hand-built presented record; only what the checks read is real."""
    hv = HVector(hvector)
    cls = QuadricClassification(hvector=hv, socle_tuple=None,
                                generator_counts={2: 1}, gorenstein=None,
                                presented_by_quadrics=True)
    return CensusRecord(f_index=7, F=F, classification=cls, presented=True,
                        h2=hv[2])


def test_socle4_duality_fails_for_a_linear_form():
    # (c : (c : x1)) = c + (x1) has no degree-2 generator outside c.
    cfg = CensusConfig(field=GF7, r=4, mode="random_sample", sample_count=1)
    R = _cover_of(cfg).ring
    assert verify_socle4_duality(cfg, _presented_record(R.parse("x1*x2")))
    assert not verify_socle4_duality(cfg, _presented_record(R.parse("x1")))


def test_socle4_duality_fails_when_cover_plus_quadric_is_too_small():
    # Over this cover c : (c : x1) = (x1, x2^2) has one new quadric, x2^2,
    # but c + (x2^2) has h-vector (1, 2), not (1, 1).
    cfg = CensusConfig(field=GF7, r=2, ci_style="random", ci_seed=1,
                       mode="random_sample", sample_count=1, sample_seed=2)
    R = _cover_of(cfg).ring
    assert not verify_socle4_duality(cfg, _presented_record(R.parse("x1")))


def test_socle4_duality_fails_when_the_colon_back_differs(monkeypatch):
    # A true colon always comes back; a wrong second colon must be caught.
    cfg = CensusConfig(field=GF7, r=4, mode="random_sample", sample_count=1)
    R = _cover_of(cfg).ring
    real, calls = gorquad.census.colon_quotient, []

    def second_differs(cover, F):
        calls.append(F)
        return real(cover, F if len(calls) == 1 else R.parse("x1*x3"))

    monkeypatch.setattr(gorquad.census, "colon_quotient", second_differs)
    assert not verify_socle4_duality(cfg, _presented_record(R.parse("x1*x2")))
    assert len(calls) == 2


@pytest.mark.parametrize("hvector, message", [
    ((1, 6, 10, 6, 1, 1), "F #7: presented but socle degree 5, h-vector "
                          "(1,6,10,6,1,1)"),
    ((1, 6, 11, 5, 1), "F #7: presented but asymmetric h-vector (1,6,11,5,1)"),
    ((1, 6, 13, 6, 1), "F #7: presented with h2 = 13 outside the known "
                       "support {10, 11, 12}"),
])
def test_record_findings_messages(hvector, message):
    F = ring(GF2, 6).parse("x1*x2")
    assert _record_findings(_presented_record(F, hvector), 6) == [message]
    assert _record_findings(_presented_record(F), 6) == []
    skipped = dataclasses.replace(_presented_record(F, hvector),
                                  presented=None, classification=None)
    assert _record_findings(skipped, 6) == []


def test_h2_13_exclusion(r4_sweep):
    """At r = 6 a presented h2 of 13 or 14 is a finding outside the known
    support and h2 = 10 is none; no presented r = 4 record has either."""
    _, records, _ = r4_sweep
    assert all(rec.h2 not in (13, 14) for rec in records if rec.presented)
    F = ring(GF2, 6).parse("x1*x2")
    for h2 in (13, 14):
        assert _record_findings(_presented_record(F, (1, 6, h2, 6, 1)), 6) == [
            f"F #7: presented with h2 = {h2} outside the known support "
            "{10, 11, 12}"]
    assert _record_findings(_presented_record(F, (1, 6, 10, 6, 1)), 6) == []


def test_census_summary_checks_its_bookkeeping():
    cfg = CensusConfig(field=GF2, r=4)
    fields = dict(total_swept=3, total_skipped=0, total_errored=0,
                  findings=(), config=cfg, ci_gens=())
    assert CensusSummary(counts={1: 2}, total_presented=2, **fields)
    with pytest.raises(AlgebraError, match="counts != presented"):
        CensusSummary(counts={1: 2}, total_presented=3, **fields)


def test_summary_markdown_layout(r4_sweep):
    _, _, summary = r4_sweep
    text = summary_markdown(summary)
    assert "| h2 | presented |" in text
    assert "| 1 | 28 |" in text
    assert "- presented by quadrics: 28" in text
    assert "- swept: 63" in text
    assert "presented share: 0.4444" in text
    assert "Findings" not in text


def test_summary_markdown_r6_always_lists_known_support():
    cfg = CensusConfig(field=GF2, r=6, mode="random_sample",
                       sample_count=25, sample_seed=4)
    _, summary = run_census(cfg)
    text = summary_markdown(summary)
    for h2 in H2_SUPPORT_R6:
        assert f"| {h2} |" in text
    assert "forms: 25 sampled, seed 4" in text


def test_census_errors_are_findings_not_skips(monkeypatch):
    def fail(*args, **kwargs):
        raise AlgebraError("injected failure")

    monkeypatch.setattr(gorquad.census, "classify", fail)
    cfg = CensusConfig(field=GF2, r=3)
    records, summary = run_census(cfg)
    assert (summary.total_errored, summary.total_skipped) == (7, 0)
    assert summary.total_swept == 0
    assert len(summary.findings) == 7
    for rec in records:
        assert rec.errored and rec.presented is None
        assert rec.skip_reason == "injected failure"
    rows = list(csv.reader(io.StringIO(records_to_csv(cfg, records))))[1:]
    assert [row[7] for row in rows] == ["error"] * 7
    assert "- errored: 7" in summary_markdown(summary)


def test_census_cli_exits_1_on_findings(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AlgebraError("injected failure")

    assert main(["census", "--field", "2", "--r", "4"]) == 0
    monkeypatch.setattr(gorquad.census, "classify", fail)
    out = tmp_path / "census.csv"
    assert main(["census", "--field", "2", "--r", "3"]) == 1
    assert main(["census", "--field", "2", "--r", "3", "--out", str(out)]) == 1
    # the outputs are written before the exit status reports the findings
    assert out.read_text().count(",error,") == 7
    assert "- errored: 7" in (tmp_path / "census.md").read_text()


def test_random_cover_and_sample_seeds_must_differ(capsys):
    # quadric_ci(style="random") and the sampler draw from the same
    # random.Random(seed) stream: with one seed for both, the first sampled
    # forms are the cover's own generators and would all be skipped.
    with pytest.raises(ValueError):
        CensusConfig(field=GFBIG, r=5, ci_style="random", ci_seed=0,
                     mode="random_sample", sample_count=8, sample_seed=0)
    with pytest.raises(SystemExit) as exc:
        main(["census", "--field", "7", "--r", "4", "--ci", "random",
              "--mode", "sample", "--samples", "8", "--ci-seed", "3",
              "--seed", "3"])
    assert exc.value.code == 2      # a usage error
    assert "seed" in capsys.readouterr().err
    # the monomial cover draws nothing, so equal seeds are fine there
    CensusConfig(field=GF7, r=4, ci_seed=3, mode="random_sample",
                 sample_count=8, sample_seed=3)
    # the defaults no longer collide
    assert build_parser().parse_args(["census", "--field", "7"]).ci_seed == 1
    cfg = CensusConfig(field=GF7, r=4, ci_style="random",
                       mode="random_sample", sample_count=8)
    assert (cfg.ci_seed, cfg.sample_seed) == (1, 0)
    _, summary = run_census(cfg)
    assert (summary.total_skipped, summary.total_swept) == (0, 8)


def _groebner_oracle(cfg, F):
    """The census classification by Groebner bases: the apolar ideal of F
    contracted into x1*...*xr for the monomial cover, elimination for a
    random one.  Socle degree r - 2 <= 3 keeps every generator of the
    random covers below the truncation."""
    R = F.ring
    if cfg.ci_style == "monomial":
        W = R.one
        for v in R.variables():
            W = W * v
        return apolar_ideal(contract(F, W))
    return colon_form(_cover_of(cfg), F, truncate_at=5)


@pytest.mark.parametrize("cfg", [
    CensusConfig(field=GF2, r=4),
    CensusConfig(field=GF2, r=5, mode="random_sample", sample_count=40,
                 sample_seed=11),
    CensusConfig(field=GF2, r=6, mode="random_sample", sample_count=15,
                 sample_seed=11),
    CensusConfig(field=GF3, r=5, mode="random_sample", sample_count=15,
                 sample_seed=11),
    CensusConfig(field=GF7, r=4, ci_style="random", ci_seed=2,
                 mode="random_sample", sample_count=15, sample_seed=11),
    CensusConfig(field=GFBIG, r=5, ci_style="random", ci_seed=2,
                 mode="random_sample", sample_count=3, sample_seed=11),
    CensusConfig(field=Q, r=4, ci_style="random", ci_seed=2,
                 mode="random_sample", sample_count=4, sample_seed=11),
], ids=["gf2-r4", "gf2-r5", "gf2-r6", "gf3-r5", "gf7-r4-random",
        "gfbig-r5-random", "q-r4-random"])
def test_classify_matches_the_groebner_oracle(cfg):
    cover = _cover_of(cfg)
    cover_gb, R = cover.groebner(), cover.ring
    if cfg.mode == "exhaustive_squarefree":
        keys = squarefree_quadric_keys(R)
        forms = [form_from_index(R, keys, m) for m in range(1, 1 << len(keys))]
    else:
        forms = [_form_from_coeffs(R, coeffs)
                 for coeffs in _sample_coefficient_lists(cfg, R)]
    checked = 0
    for F in forms:
        if cover_gb.reduces_to_zero(F):
            continue
        I = _groebner_oracle(cfg, F)
        want = invariants.classify(I, with_socle=False)
        got = classify(cover, F)
        assert (got.hvector, got.presented_by_quadrics,
                got.generator_counts) == (want.hvector,
                                          want.presented_by_quadrics,
                                          want.generator_counts), str(F)
        # the ideal itself, not only its invariants
        assert (as_basis(colon_quotient(cover, F)).elements
                == as_basis(I).elements), str(F)
        checked += 1
    assert checked >= len(forms) // 2


def test_classify_rejects_what_the_census_never_colons():
    cover = _cover_of(CensusConfig(field=GF2, r=4))
    R = cover.ring
    with pytest.raises(AlgebraError):
        classify(cover, R.parse("x1^2 + x2^2"))
    with pytest.raises(AlgebraError):
        classify(cover, R.parse("x1*x2*x3"))
    # Covers whose h-vector is not (1+t)^r: a cubic generator, a quadric
    # too few (not artinian), a quadric too many, and an artinian ideal
    # with the complete intersection's h-vector through degree 2 only.
    R = ring(GF7, 3)
    for texts in (["x1^2", "x2^2", "x3^3"], ["x1^2", "x2^2"],
                  ["x1^2", "x2^2", "x3^2", "x1*x2"],
                  ["x1^2", "x2^2", "x3^2", "x1*x2*x3"]):
        with pytest.raises(AlgebraError):
            classify(Ideal.from_texts(R, texts), R.parse("x1*x3 + x2*x3"))


def test_classify_rejects_a_cover_that_is_no_quadric_ci():
    """(x1^2, x1*x2, x2^3) has h = (1, 2, 1) = (1+t)^2, but three
    generators, one a cubic, and socle (0, 1, 1): not Gorenstein.  Only
    r quadrics with that h-vector form a regular sequence."""
    R = ring(GF7, 2)
    cover = Ideal.from_texts(R, ["x1^2", "x1*x2", "x2^3"])
    assert hilbert_function(cover) == HVector((1, 2, 1))
    with pytest.raises(AlgebraError):
        classify(cover, R.parse("x2^2"))


def test_classify_checks_the_cover_once_per_basis(monkeypatch):
    """The cover's h-vector is compared with (1+t)^r once, on the first
    form (constructions._regular_sequence_hvector); later forms read the
    cached verdict."""
    built = []

    def counting(degrees):
        built.append(tuple(degrees))
        return complete_intersection_hvector(degrees)

    monkeypatch.setattr(gorquad.constructions,
                        "complete_intersection_hvector", counting)
    cfg = CensusConfig(field=GF7, r=5, ci_style="random", ci_seed=4,
                       mode="random_sample", sample_count=6, sample_seed=5)
    cover = quadric_ci(5, GF7, style="random", seed=4)
    R = cover.ring
    built.clear()       # quadric_ci checked its draw
    for coeffs in _sample_coefficient_lists(cfg, R):
        classify(cover, _form_from_coeffs(R, coeffs))
    assert built == [(2,) * 5]


@pytest.mark.parametrize("field, style", [(GF3, "monomial"), (GF7, "random"),
                                          (GFBIG, "random"), (Q, "monomial")],
                         ids=str)
def test_the_duality_facts_hold_on_the_oracle(field, style):
    """What classify takes from the duality of B = R/𝔠 without a kernel,
    the oracle computes: h_d = h_{r-2-d}, h_{r-2} = 1, nu_{r-1} = 0."""
    rng = random.Random(27)
    for r in range(4, 8 if field.p else 6):
        cover = quadric_ci(r, field, style=style, seed=r)
        cover_gb, R = cover.groebner(), cover.ring
        for _ in range(4):
            F = random_homogeneous(R, 2, rng)
            if cover_gb.reduces_to_zero(F):
                continue
            want = oracle_census_classify(cover_gb, F)
            h = want.hvector
            assert h.values == h.values[::-1] and h[r - 2] == 1, str(F)
            assert r - 1 not in want.generator_counts, str(F)
            assert classify(cover, F) == want, str(F)


def _sampled_forms(cfg, texts=None):
    """The forms a sweep of cfg classifies: the exhaustive square-free sums
    or the sampled dense quadrics, or else the given texts, without those
    in the cover."""
    cover = _cover_of(cfg)
    cover_gb, R = cover.groebner(), cover.ring
    if texts is not None:
        forms = [R.parse(t) for t in texts]
    elif cfg.mode == "exhaustive_squarefree":
        keys = squarefree_quadric_keys(R)
        forms = [form_from_index(R, keys, m) for m in range(1, 1 << len(keys))]
    else:
        forms = [_form_from_coeffs(R, coeffs)
                 for coeffs in _sample_coefficient_lists(cfg, R)]
    return cover, [F for F in forms if not cover_gb.reduces_to_zero(F)]


def _bench_configs(seed):
    """The six samples of 50 GF(2), r = 6 forms of the census-gf2-r6 bench
    workload at the given bench seed, whose sample seeds are drawn from
    "sample/<seed>/<call>"."""
    return [CensusConfig(field=GF2, r=6, mode="random_sample", sample_count=50,
                         sample_seed=random.Random(f"sample/{seed}/{call}")
                         .randrange(1 << 31))
            for call in range(6)]


_SAMPLED = dict(mode="random_sample", sample_seed=5)
# Forms with a linear annihilator over the squares cover: x1 kills each.
_LINEAR = ("x1*x2", "x1*x2 + x1*x3", "x1*x2 - x1*x3 + x1*x4 + x1^2")


# Each configuration lists the kinds of colon its forms must include:
# "high" has a minimal generator in some degree d >= 3 (nu_d from the
# echelon that the free leads start), "linear" a linear generator.
@pytest.mark.parametrize("cfgs, kinds", [
    (_bench_configs(1), {"high", "linear"}),
    (_bench_configs(2), {"high", "linear"}),
    ([CensusConfig(field=GF2, r=4)], {"linear"}),
    ([CensusConfig(field=GF2, r=5)], {"linear"}),
    ([CensusConfig(field=GF2, r=7, sample_count=40, **_SAMPLED)], {"high"}),
    ([CensusConfig(field=GF3, r=5, sample_count=40, **_SAMPLED)], {"linear"}),
    ([CensusConfig(field=GF3, r=7, sample_count=20, **_SAMPLED)], {"high"}),
    ([CensusConfig(field=GF7, r=4, ci_style="random", ci_seed=2,
                   sample_count=40, **_SAMPLED)], {"linear"}),
    ([CensusConfig(field=GFBIG, r=6, ci_style="random", ci_seed=2,
                   sample_count=10, **_SAMPLED)], {"high"}),
    ([CensusConfig(field=GFBIG, r=7, ci_style="random", ci_seed=2,
                   sample_count=5, **_SAMPLED)], {"high"}),
    ([CensusConfig(field=Q, r=4, ci_style="random", ci_seed=2,
                   sample_count=10, **_SAMPLED)], set()),
    ([CensusConfig(field=GF3, r=r, sample_count=8, **_SAMPLED)
      for r in (2, 3)], {"linear"}),
    ([CensusConfig(field=GF7, r=r, ci_style="random", ci_seed=2,
                   sample_count=8, **_SAMPLED) for r in (2, 3)], {"linear"}),
    ([CensusConfig(field=GF3, r=8, sample_count=3, **_SAMPLED),
      CensusConfig(field=GFBIG, r=8, ci_style="random", ci_seed=2,
                   sample_count=2, **_SAMPLED)], {"high"}),
    # J_1 != 0 at r >= 5, so J_2's kernel starts with no known leads
    ([(CensusConfig(field=field, r=r, sample_count=1, **_SAMPLED), _LINEAR)
      for field, r in ((GF3, 5), (GF7, 6), (GFBIG, 7))], {"linear"}),
], ids=["bench-seed1", "bench-seed2", "gf2-r4", "gf2-r5", "gf2-r7", "gf3-r5",
        "gf3-r7", "gf7-r4-random", "gfbig-r6-random", "gfbig-r7-random",
        "q-r4-random", "gf3-r2-r3", "gf7-r2-r3-random", "r8",
        "linear-annihilator"])
def test_classify_matches_the_annihilator_oracle(cfgs, kinds):
    seen = set()
    for cfg in cfgs:
        cover, forms = _sampled_forms(*(cfg if isinstance(cfg, tuple)
                                        else (cfg,)))
        for F in forms:
            want = oracle_census_classify(cover.groebner(), F)
            assert classify(cover, F) == want, str(F)
            if any(d >= 3 for d in want.generator_counts):
                seen.add("high")
            if want.had_linear_forms:
                seen.add("linear")
    assert kinds <= seen


def _free_leads(cover_gb, F, d):
    """K_d: the standard x_j * t over the leading monomials t of the
    annihilator of F in degree d - 1.  A subspace's leading monomials do
    not depend on its basis, so the oracle's annihilator gives them."""
    span = Echelon(cover_gb.ring.field)
    for v in annihilator(cover_gb, [F], d - 1):
        span.add(v)
    codec = cover_gb.ring.codec
    std = set(standard_monomials(cover_gb, d))
    return {t for lead in span.pivots for x in cover_gb.ring.variables()
            if (t := codec.mul(x.leading_key(), lead)) in std}


def test_classify_skips_the_rows_of_known_leading_terms(monkeypatch):
    """Rows reach left_kernel only in degrees 2..r-3, and there only the
    standard monomials outside K_d, with K_2 empty (J_1 is not kept).
    Degrees 1 and r-2 run no kernel, degree r-1 no echelon, and a
    presented form runs no product echelon in a degree where K_d fills
    J_d, the annihilator of F in B_d."""
    calls = {"rows": 0, "kernels": [], "degrees": set()}
    real_rows = GroebnerBasis.product_rows

    def counting_rows(gb, d, g, monomials):
        calls["kernels"].append(d)
        return real_rows(gb, d, g, monomials)

    def counting_kernel(rows, field):
        rows = list(rows)
        calls["rows"] += len(rows)
        return left_kernel(rows, field)

    def counting_echelon(rows, field, room=None):
        def read():
            for row in rows:
                if row:
                    calls["degrees"].add(degree(max(row)))
                yield row
        return echelon(read(), field, room)

    monkeypatch.setattr(GroebnerBasis, "product_rows", counting_rows)
    monkeypatch.setattr(invariants, "left_kernel", counting_kernel)
    monkeypatch.setattr(gorquad.census, "echelon", counting_echelon)
    cfg = CensusConfig(field=GF2, r=6, mode="random_sample", sample_count=60,
                       sample_seed=13)
    cover, forms = _sampled_forms(cfg)
    cover_gb = cover.groebner()
    degree, r = cover_gb.ring.codec.degree, cfg.r
    dims = [len(standard_monomials(cover_gb, d)) for d in range(r)]
    filled = 0
    for F in forms:
        # The oracle's annihilators read product_rows and left_kernel too,
        # so they run before the counters are reset.
        free = {d: _free_leads(cover_gb, F, d) for d in range(3, r)}
        free[2] = set()
        calls["rows"], calls["kernels"], calls["degrees"] = 0, [], set()
        cls = classify(cover, F)
        assert calls["kernels"] == list(range(2, r - 2)), str(F)
        assert calls["rows"] == sum(dims[d] - len(free[d])
                                    for d in range(2, r - 2)), str(F)
        assert r - 1 not in calls["degrees"], str(F)
        if not cls.presented_by_quadrics:
            continue
        for d in range(3, r - 1):
            if len(free[d]) == dims[d] - cls.hvector[d]:
                assert d not in calls["degrees"], (str(F), d)
                filled += 1
    assert filled


def test_the_cover_generators_are_rendered_once():
    """Every sweep on one cover shares its printed generators, and the
    Markdown lists them in the cover's order."""
    cfg = CensusConfig(field=GF7, r=4, ci_style="random", ci_seed=6,
                       mode="random_sample", sample_count=2, sample_seed=1)
    first = run_census(cfg)[1].ci_gens
    again = run_census(dataclasses.replace(cfg, sample_seed=2))[1].ci_gens
    assert again is first
    assert first == tuple(str(g) for g in _cover_of(cfg).gens)


# sha256 of the CSV and the Markdown; a change to the classification or to
# the output layout shows up here.
@pytest.mark.parametrize("cfg, csv_sha, md_sha", [
    (CensusConfig(field=GF2, r=4),
     "4b789f1a258de34a48516557d61ea8367e0d9a3d4b479ad2816aad4ca1bc93fa",
     "0082e16c5180388e354fd613a3a88312502ec29884332551846bfb5a0ff8a757"),
    (CensusConfig(field=GF2, r=6, mode="random_sample", sample_count=40,
                  sample_seed=7),
     "3a3fdfc5df865988a97bd59c6280d8ce5d4d38c85bdf761592f16f4c9bbfbdd4",
     "a37dba3f7e2197825381ddd4b857c8b8e99e2d1921a23b4e7fc838b746496a0e"),
    (CensusConfig(field=GF2, r=5),
     "1d7d50ce4cfd0b1e40d09c5f32a45ec3643f6652f42abdc64cb8882ce007a00e",
     "75436dbf9fd0f4ada4d58c06ad2f75b4fb050b5ee7f5bb582dea22a973596965"),
    (CensusConfig(field=GFBIG, r=5, ci_style="random", ci_seed=3,
                  mode="random_sample", sample_count=12, sample_seed=7),
     "8fee8111b1ca56f1220aa75cade021a105c54ee533360197f3d90694d3aafd31",
     "f1e722597f23bb31c5d50712f003007a737cc2181d177c5226a06623f40558c9"),
    (CensusConfig(field=GF7, r=4, ci_style="random", ci_seed=1,
                  mode="random_sample", sample_count=20, sample_seed=7),
     "3e3f8433ec48012719d2ae0202b935f07fb76a81ff96320da5bd6d3c0ff1fbe1",
     "513c103439450a0899700b1c9ab18e97bf4523d1e21b80a3463df85603e0b97e"),
], ids=["gf2-r4", "gf2-r6-sample", "gf2-r5", "gfbig-r5-random",
        "gf7-r4-random"])
def test_census_output_is_pinned(cfg, csv_sha, md_sha):
    # A pool gives the same bytes: its workers inherit or build the cached
    # cover and return the classifications pickled.
    for jobs in (1, 2) if cfg.ci_style == "random" else (1,):
        records, summary = run_census(
            dataclasses.replace(cfg, parallelism=jobs))
        for text, want in ((records_to_csv(cfg, records), csv_sha),
                           (summary_markdown(summary), md_sha)):
            assert hashlib.sha256(text.encode()).hexdigest() == want, jobs


def test_census_cli_refuses_standard_output(monkeypatch, tmp_path):
    # --out names the CSV and, with .md, the Markdown beside it; '-' would
    # print the CSV and leave a file named "-.md" in the working directory.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["census", "--field", "2", "--r", "3", "--out", "-"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_census_cli_refuses_a_markdown_out(monkeypatch, tmp_path):
    # the Markdown goes to --out with extension .md, which would overwrite
    # a CSV written to table.md
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["census", "--field", "2", "--r", "3", "--out", "table.md"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(field=GF2, r=1)
    with pytest.raises(ValueError):
        CensusConfig(field=GF2, ci_style="sparse")
    with pytest.raises(ValueError):
        CensusConfig(field=GF2, mode="all")
    with pytest.raises(ValueError, match=r"only over GF\(2\).*random_sample"):
        CensusConfig(field=GF3)
    with pytest.raises(ValueError):
        CensusConfig(field=GF2, mode="random_sample", sample_count=0)
    with pytest.raises(ValueError):
        CensusConfig(field=GF2, parallelism=0)


def test_exhaustive_sweeps_stop_at_21_square_free_monomials():
    # only constructed: the sweep holds one task per form
    assert CensusConfig(field=GF2, r=7).r == 7             # 2^21 - 1 forms
    for r, bits in ((8, 28), (40, 780)):
        with pytest.raises(ValueError,
                           match=rf"2\^{bits} - 1 forms.*random_sample"):
            CensusConfig(field=GF2, r=r)
    assert CensusConfig(field=GF2, r=40, mode="random_sample",
                        sample_count=1).r == 40


@pytest.mark.parametrize("flags", [
    ["--jobs", "0"], ["--jobs", "two"], ["--r", "1"], ["--r", "-3"],
    ["--samples", "0"], ["--samples", "-3"], ["--field", "4"],
    ["--seed", "1", "--ci", "random", "--ci-seed", "1"],
    ["--mode", "exhaustive"],
    ["--r", "8", "--field", "2", "--mode", "exhaustive"],
    ["--samples", "2", "--field", "2", "--mode", "exhaustive"]],
    ids=["jobs-0", "jobs-text", "r-1", "r-negative", "samples-0",
         "samples-negative", "field-not-prime", "one-seed-for-cover-and-sample",
         "exhaustive-over-gf3", "exhaustive-past-21-bits",
         "samples-with-exhaustive"])
def test_census_cli_usage_errors_exit_2(flags, capsys):
    # the later flag overrides the base's valid one
    with pytest.raises(SystemExit) as exc:
        main(["census", "--field", "3", "--r", "4", "--mode", "sample",
              "--samples", "3"] + flags)
    assert exc.value.code == 2
    assert f"argument {flags[0]}: " in capsys.readouterr().err


def test_census_cli_sample_mode_needs_samples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--field", "3", "--r", "4", "--mode", "sample"])
    assert exc.value.code == 2
    assert "argument --samples: " in capsys.readouterr().err


@pytest.mark.parametrize("texts, engine", [
    (["x1^2 + x2*x3", "x2^2", "x3^2 - x1*x2"], "engine: queued="),
    (["x1^2", "x2^2", "x3^2", "x1*x2*x3"], "engine: no run"),
    (["x1^2 + x2*x3", "x2^2 - x1*x3", "x3^2"], "engine: no run")],
    ids=["quadrics", "monomials", "coprime-leads"])
def test_hilbert_stats_go_to_stderr_only(tmp_path, capsys, texts, engine):
    path = tmp_path / "ideal.txt"
    path.write_text("\n".join(texts) + "\n")
    argv = ["hilbert", str(path), "--field", "7", "--vars", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == 0
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out and plain.err == ""
    lines = with_stats.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(engine)


@pytest.mark.parametrize("command", [
    ["hilbert", "-"], ["check", "--what", "wlp", "-"], ["construct", "-"]],
    ids=["hilbert", "check", "construct"])
def test_cli_field_usage_errors_exit_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--field", "4"])
    assert exc.value.code == 2
    assert "argument --field: not a prime: 4" in capsys.readouterr().err
