"""Iterations, correctness gates, failure counting, and BENCHMARK.json."""

import json
import signal
import time
from pathlib import Path

import pytest
from relicforge.corpus import Split

from perfbench import gen, layers, run, workloads
from perfbench.speed import Sampler, scaled
from perfbench.workloads import Iteration, failed_share

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_failed_share_counts_each_file_once_per_iteration():
    its = [Iteration(False, failed_files={"a", "b"}), Iteration(False), Iteration(True,
           failed_files={"a"})]
    assert failed_share(its, files=10) == (30, 3, 0.1)
    # wrong repair rules fail a file in every iteration, but only once in each
    assert failed_share(its, files=10, wrong_rules={"a", "c"}) == (30, 7, 7 / 30)


def test_check_iteration_fails_a_fold_that_leaves_a_file_unmeasured(tmp_path):
    corpus = gen.differential(tmp_path / "c", 6, 24, 0)
    workload = workloads.WORKLOADS["differential"]
    assert not workloads.run_iteration(workload, corpus, 6, tmp_path / "ok", False).problems
    # Damage a Train file after curate, where only scoring sees it: it no
    # longer parses, so its fold's paired means leave it out.
    original = workloads.run_evaluation

    def damaged(manifest, *args, **kwargs):
        victim = next(r for r in manifest.records if r.split is Split.TRAIN)
        (corpus.root / victim.relative_path).write_text("GARBAGE\n")
        return original(manifest, *args, **kwargs)

    workloads.run_evaluation = damaged
    try:
        it = workloads.run_iteration(workload, corpus, 6, tmp_path / "bad", False)
    finally:
        workloads.run_evaluation = original
    assert any("left a file unmeasured" in p for p in it.problems)
    assert it.failed_files


def test_check_iteration_counts_wrong_status_and_unscored(tmp_path):
    corpus = gen.dirty_intake(tmp_path / "c", 2, 40)
    victim = sorted(corpus.intended)[0]
    corpus.intended[victim] = gen.TRIVIAL if corpus.intended[victim] != gen.TRIVIAL else gen.KEPT
    it = workloads.run_iteration(workloads.WORKLOADS["dirty_intake"], corpus, 2,
                                 tmp_path / "out", False)
    assert it.failed_files == {victim}
    assert any("wrong status" in p for p in it.problems)


SMALL = {
    "acceptance": lambda root: gen.acceptance(root, 4, 12),
    "differential": lambda root: gen.differential(root, 4, 12, 1),
    "dirty_intake": lambda root: gen.dirty_intake(root, 4, 40),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_iteration_writes_the_same_artifacts(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    corpus = SMALL[name](tmp_path / "corpus")
    plain = workloads.run_iteration(workload, corpus, 4, tmp_path / "p", False)
    traced = workloads.run_iteration(workload, corpus, 4, tmp_path / "t", True)
    assert not plain.problems and not traced.problems
    assert plain.digests == traced.digests
    assert "corpus.manifest.jsonl" in plain.digests
    assert set(traced.per_layer) >= {n for n, _, _ in layers.METRICS} - {
        "datagen.gen_s", "trace.overhead_s", "trace.overhead_share"}
    assert traced.per_layer["cobol.parse.calls"] > 0
    assert workloads.check_repair_rules(corpus) == set()


def test_sampler_probes_while_open_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_moves_times_and_rates_only():
    units = {"t": "s", "r": "files/s", "c": "count", "u": "us"}
    got = scaled({"t": 2.0, "r": 10.0, "c": 5, "u": 1.0}, units, 2.0)
    assert got == {"t": 4.0, "r": 5.0, "c": 5, "u": 2.0}


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.METRICS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in spec["end_to_end"] if m is not setup)
