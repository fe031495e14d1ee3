"""Tests of the benchmark itself: failure accounting, output checks, the
traced replay and the determinism the census promises.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (str(BENCH.parent / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gorquad.census  # noqa: E402
import workloads  # noqa: E402
from gorquad import (AlgebraError, CensusConfig, CensusRecord, FieldSpec,  # noqa: E402
                     HVector, QuadricClassification, quadric_ci, run_census,
                     summary_markdown)
from reference import ReferenceClock  # noqa: E402
from spans import Tracer, tail  # noqa: E402
from workloads import (CensusWorkload, LiaisonInputs, LiaisonWorkload,  # noqa: E402
                       Outcome, per_layer_metrics, record_problem)

GF2 = FieldSpec.prime(2)
P = FieldSpec.prime(32003)
# Small stand-ins for the real workloads; seed 5 is not the golden seed.
SMALL = (
    CensusWorkload("small-gf2", p=2, r=4, ci_style="monomial", batch=12,
                   batches=2),
    CensusWorkload("small-randomci", p=32003, r=4, ci_style="random",
                   batch=3, batches=1),
)


def _raise(*args, **kwargs):
    raise AlgebraError("injected failure")


def test_census_errors_folded_into_skips_count_as_failures(monkeypatch):
    # Dense forms over GF(32003) are never zero or inside the cover, so
    # every record is an error that run_census reports as a skip.
    monkeypatch.setattr(gorquad.census, "classify", _raise)
    wl = CensusWorkload("raise", p=32003, r=4, ci_style="monomial", batch=6,
                        batches=1)
    out = wl.measure(wl.setup(5), seconds=0, seed=5)
    assert out.attempted == 18      # three passes over one call
    assert out.failed_share == 1


def test_a_raising_census_call_fails_all_its_forms(monkeypatch):
    monkeypatch.setattr(workloads, "run_census", _raise)
    wl = CensusWorkload("raise", p=2, r=4, ci_style="monomial", batch=6,
                        batches=1)
    out = wl.measure(wl.setup(5), seconds=0, seed=5)
    assert out.attempted == 18
    assert out.failed_share == 1


def test_gin_bases_replay_checks_the_lead_terms():
    wl = LiaisonWorkload("small", r=9, gin_r=4)
    inputs = wl.setup(5)
    res = gorquad.gin(inputs.fresh_ci(), seed=inputs.gin_seed)
    changes = max(res.seeds) - inputs.gin_seed + 1
    tr = Tracer()
    tr.count("gin.coordinate_changes", changes)
    assert wl.replay_gin_bases(tr, inputs, tuple(sorted(res.lead_keys))) == ""
    assert len(tr.durations("groebner.basis")) == changes
    assert wl.replay_gin_bases(tr, inputs, ()) != ""


def test_liaison_job_exceptions_are_failures_not_skips(monkeypatch):
    def small_outputs(*args, **kwargs):
        return (quadric_ci(3, P),)

    for name in ("penultimate_socle_algebras", "nonunique_hf_pair",
                 "double_link"):
        monkeypatch.setattr(workloads, name, small_outputs)
    monkeypatch.setattr(workloads, "classify", _raise)
    monkeypatch.setattr(workloads, "gin", _raise)
    inputs = LiaisonInputs(quadric_ci(3, P, style="random", seed=1), 0, 0)
    out = Outcome()
    LiaisonWorkload("raise", r=9, gin_r=3).run_round(inputs, out, Tracer(), 0,
                                                     ReferenceClock())
    assert out.attempted == 5
    assert out.failed_share == 1


def _record(values, presented=True, reason=""):
    hv = HVector(values) if values else None
    cls = QuadricClassification(hvector=hv, socle_tuple=None,
                                generator_counts={2: 1}, gorenstein=None,
                                presented_by_quadrics=presented) if hv else None
    return CensusRecord(f_index=0, F=None, classification=cls,
                        presented=presented if hv else None,
                        h2=hv[2] if hv else None, skip_reason=reason)


@pytest.mark.parametrize("rec, r, failed", [
    (_record((1, 6, 11, 6, 1)), 6, False),
    (_record((1, 6, 13, 6, 1)), 6, True),        # h2 outside {10, 11, 12}
    (_record((1, 5, 4, 1)), 5, True),            # not symmetric
    (_record((1, 4, 1)), 5, True),               # socle degree is not r - 2
    (_record((1, 6, 9, 7, 1), presented=False), 6, False),
    (_record(None, reason="the form lies in the cover"), 6, False),
    (_record(None, reason="the zero form"), 6, False),
    (_record(None, reason="quotient is not artinian"), 6, True),
])
def test_record_problem(rec, r, failed):
    assert bool(record_problem(rec, r)) == failed


def _classes(*hvectors, gorenstein=True):
    return [SimpleNamespace(hvector=HVector(h), gorenstein=gorenstein,
                            socle_degree=len(h) - 1) for h in hvectors]


def test_tower_checks_accept_the_paper_values_and_reject_others():
    wl = LiaisonWorkload("checks", r=9, gin_r=7)
    good = _classes((1, 9, 36, 84, 126, 84, 36, 9, 1),
                    (1, 9, 35, 77, 105, 77, 35, 9, 1),
                    (1, 9, 34, 71, 90, 71, 34, 9, 1))
    assert wl.check_penultimate(good) == ""
    assert wl.check_penultimate(good[::-1]) != ""
    pair = _classes((1, 9, 35, 76, 98, 76, 35, 9, 1),
                    (1, 9, 35, 76, 99, 76, 35, 9, 1))
    assert wl.check_alpha1(pair) == ""
    assert wl.check_alpha1(pair[:1] * 2) != ""
    assert wl.check_alpha0(good[:1]) == ""
    assert wl.check_alpha0(good[1:2]) != ""
    final = (1, 9, 34, 71, 90, 71, 34, 9, 1)
    assert wl.check_double_link(_classes((1, 8, 27), final)) == ""
    assert wl.check_double_link(_classes(final, (1, 8, 27))) != ""


def test_reference_clock_samples_the_host_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with ReferenceClock().lap() as lap:
        sum(i * i for i in range(300_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < lap.wall and 0 < lap.scaled
    with ReferenceClock(sampling=False).lap() as plain:
        pass
    assert plain.scaled == plain.wall


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert tail(range(1, 31)) == 20
    assert tail([3.0, 1.0, 2.0]) == 3.0


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_traced_replay_agrees_and_counts_repeat(wl):
    runs = []
    for _ in range(2):
        tr = Tracer()
        out = wl.traced(wl.setup(5), seconds=1, seed=5, tr=tr)
        assert out.problems == []
        # the warm-up call plus the calls that are replayed
        assert out.attempted == wl.batch * (1 + wl.batches)
        runs.append(tr.counts)
        metrics = per_layer_metrics(tr, [0.1, 0.2], out)
    assert runs[0] == runs[1]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert all(metrics[m["name"]][1] == m["unit"] for m in declared["per_layer"])


@pytest.mark.parametrize("cfg", [
    CensusConfig(field=GF2, r=5, mode="random_sample", sample_count=40,
                 sample_seed=3),
    CensusConfig(field=P, r=4, ci_style="random", ci_seed=9,
                 mode="random_sample", sample_count=6, sample_seed=4),
], ids=("gf2-r5", "gfp-randomci-r4"))
def test_census_text_is_byte_identical_across_runs_and_workers(cfg):
    def text(c):
        records, summary = run_census(c)
        return gorquad.census.records_to_csv(c, records) + summary_markdown(summary)

    first = text(cfg)
    assert text(cfg) == first
    assert text(dataclasses.replace(cfg, parallelism=2)) == first
