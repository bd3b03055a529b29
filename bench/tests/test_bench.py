"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import limid
import limid.solver

import oracle
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_file_gates_workloads_the_command_offers():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    assert gated == ["corpus-cli", "hard-approx"] and set(gated) < set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_instances_and_documents_are_identical_per_seed(name):
    w = workloads.WORKLOADS[name]
    first, second = workloads.build_instances(w), workloads.build_instances(w)
    assert [i.document for i in first] == [i.document for i in second]
    for seed in (0, 7, 123):
        a = workloads.jobs(w, first, seed)
        b = workloads.jobs(w, second, seed)
        assert [j.key for j in a] == [j.key for j in b]
        assert a[0].instance.seed == seed % w.pool


def test_mid_pool_documents_match_the_cached_references():
    # the references were computed in another process: every document of
    # the pool must hash to one of them, byte for byte
    refs = oracle.References("mid-exact")
    docs = workloads.build_instances(workloads.WORKLOADS["mid-exact"])
    assert {oracle.document_digest(i.document) for i in docs} == set(refs.cached)


def test_einsum_evaluator_agrees_with_expected_utility_on_corpus():
    rng = np.random.default_rng(5)
    w = workloads.WORKLOADS["corpus-cli"]
    for inst in workloads.build_instances(w):
        d = inst.diagram
        solved = limid.solve_full(d, limid.SolverConfig(epsilon=0.0))
        assert oracle.einsum_value(d, oracle.strategy_tables(solved.strategy)) == \
            pytest.approx(limid.expected_utility(d, solved.strategy), abs=oracle.TOL)
        mixed = limid.Strategy(
            limid.Policy(dec, d.parents(dec),
                         rng.dirichlet(np.ones(d.cardinality(dec)),
                                       size=tuple(d.cardinality(p) for p in d.parents(dec)))
                         .transpose(-1, *range(len(d.parents(dec)))))
            for dec in d.decision_ids)
        assert oracle.einsum_value(d, oracle.strategy_tables(mixed)) == \
            pytest.approx(limid.expected_utility(d, mixed), abs=oracle.TOL)


def test_cli_strategy_documents_decode_to_the_library_tables():
    w = workloads.WORKLOADS["corpus-cli"]
    instances = workloads.build_instances(w)[:40]
    records, _, _ = workloads.measure(w, workloads.jobs(w, instances, 0))
    assert all(r.error is None for r in records)
    assert workloads.check_records(w, records) == {}
    for r in records:
        d = r.job.instance.diagram
        library = limid.solve_full(d, limid.SolverConfig(epsilon=r.job.epsilon))
        decoded = oracle.document_tables(d, r.policies)
        for dec, (parents, table) in oracle.strategy_tables(library.strategy).items():
            assert decoded[dec][0] == parents
            np.testing.assert_array_equal(decoded[dec][1], table)


def test_check_flags_wrong_values():
    d = workloads.corpus_diagram(1)
    solved = limid.solve_full(d, limid.SolverConfig(epsilon=0.0))
    tables = oracle.strategy_tables(solved.strategy)
    assert oracle.check(d, solved.value, tables, 0.0, solved.value) == []
    assert len(oracle.check(d, solved.value + 1e-6, tables, 0.0, solved.value)) == 2
    assert len(oracle.check(d, solved.value, tables, 0.5, 2.0 * solved.value)) == 1


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "i"),
        spans.Span("a", 1.0, 4.0, 0, "i"),
        spans.Span("a.leaf", 2.0, 3.0, 1, "i"),
        spans.Span("b", 3.0, 6.0, 0, "i"),   # overlaps a: covered once
        spans.Span("c", 9.0, 12.0, 0, "i"),  # runs past root: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_name_every_per_layer_metric():
    tracer = spans.Tracer()
    w = workloads.WORKLOADS["corpus-cli"]
    instances = workloads.build_instances(w)[:10]
    with tracer.installed():
        workloads.measure(w, workloads.jobs(w, instances, 0), tracer=tracer)
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (0.0, "s")  # added by run.py from two runs
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    roots = [s for s in tracer.spans if s.parent < 0]
    assert len(roots) == 20 and {s.name for s in roots} == {"bench.solve"}
    for s in tracer.spans:
        if s.parent >= 0:
            up = tracer.spans[s.parent]
            assert up.start <= s.start <= s.end <= up.end and up.instance == s.instance
    assert metrics["potential.covering_in"][0] >= metrics["potential.covering_out"][0] > 0


def test_end_to_end_metrics_match_the_benchmark_file():
    w = workloads.WORKLOADS["hard-approx"]
    instances = workloads.build_instances(w)[:3]
    records, _, calibration = workloads.measure(w, workloads.jobs(w, instances, 0))
    assert len(calibration) >= 1 and all(t > 0 for t in calibration)
    metrics = workloads.end_to_end(records, 1.0, 1.0, [workloads.CALIBRATION_S])
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert metrics["latency_p50_ms"][0] == \
        pytest.approx(1000.0 * statistics.median(r.seconds for r in records))
    # the same solve times on a machine whose calibration loop is twice as slow read half as long
    slow = workloads.end_to_end(records, 1.0, 1.0, [2.0 * workloads.CALIBRATION_S])
    assert slow["latency_p50_ms"][0] == pytest.approx(metrics["latency_p50_ms"][0] / 2)
    assert slow["solves_per_s"][0] == pytest.approx(metrics["solves_per_s"][0] * 2)
    assert slow["value_mean"] == metrics["value_mean"]


def test_tracer_restores_every_rebound_name():
    before = {n: getattr(limid.solver, n) for n in spans.SOLVER_NAMES}
    before.update({f"cli.{n}": getattr(limid.cli, n) for n in spans.CLI_NAMES})
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert limid.solver.combine_sets is not before["combine_sets"]
            raise RuntimeError("leave the block early")
    assert {n: getattr(limid.solver, n) for n in spans.SOLVER_NAMES} == \
        {n: before[n] for n in spans.SOLVER_NAMES}
    assert all(getattr(limid.cli, n) is before[f"cli.{n}"] for n in spans.CLI_NAMES)


def test_repeats_follow_the_share_and_the_cap():
    w = workloads.WORKLOADS["corpus-cli"]
    plan = workloads.jobs(w, workloads.build_instances(w)[:5], 0)
    once, _, _ = workloads.measure(w, plan)
    assert [len(r.times) for r in once] == [1] * 10
    capped, wall, _ = workloads.measure(w, plan, seconds=3.0, max_reps=3)
    assert [len(r.times) for r in capped] == [3] * 10
    # two rounds spaced over the run: the second is due a third of the way before its end
    assert 2.0 <= wall < 3.0
    assert all(len(r.values) == 1 and r.seconds == sorted(r.times)[1] for r in capped)
    capped[0].values.add(capped[0].value + 1.0)
    assert list(workloads.check_records(w, capped)) == [capped[0].job.key]


def test_rounds_skip_jobs_past_their_share():
    w = workloads.WORKLOADS["corpus-cli"]
    plan = workloads.jobs(w, workloads.build_instances(w)[:5], 0)
    # a share of 1 ms per job: no solve fits twice, so no round runs
    records, wall, _ = workloads.measure(w, plan, seconds=0.01, max_reps=5)
    assert [len(r.times) for r in records] == [1] * 10 and wall < 1.0


def test_cli_exit_codes_are_counted_failures(monkeypatch):
    monkeypatch.setenv("LIMID_MAX_SET_SIZE", "1")
    w = workloads.WORKLOADS["corpus-cli"]
    instances = [i for i in workloads.build_instances(w) if i.diagram.decision_ids][:3]
    records, _, _ = workloads.measure(w, workloads.jobs(w, instances, 0))
    assert all(r.error.startswith("CliExit: exit 2: limid:") for r in records)


def test_timeout_is_a_counted_failure(monkeypatch):
    monkeypatch.setattr(workloads, "SOLVE_TIMEOUT_S", 0.001)
    w = workloads.WORKLOADS["mid-exact"]
    instances = [i for i in workloads.build_instances(w) if i.seed == 2]
    records, _, _ = workloads.measure(w, workloads.jobs(w, instances, 0))
    assert records[0].error.startswith("SolveTimeout")
    assert workloads.end_to_end(records, 1.0, 1.0, [1.0])["solved_ratio"][0] == 0.0


def test_forced_cap_fails_every_solve_and_the_command():
    env = dict(os.environ, LIMID_MAX_SET_SIZE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mid-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["attempted"] == 40 and result["failed"] == 40
    assert "fail_ratio = 1 ratio (40 of 40 jobs)" in lines
    assert "InstanceTooLargeError" in proc.stdout


def test_command_fails_without_the_library_sources():
    # a checkout holding only the benchmark: no result, nonzero exit
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for name in ("run.py", "workloads.py", "oracle.py", "spans.py"):
        shutil.copy(run.BENCH / name, bare / "bench" / name)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
