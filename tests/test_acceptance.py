"""End-to-end acceptance checks at desk scale.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts the property at its stated tolerance.  The seeded corpora are
fixed: 200 mixed diagrams for the solver checks and 100 multi-reward
diagrams for the value-variable merge checks.
"""

import time

import numpy as np
import pytest

from limid import brute_force_meu, expected_utility
from limid.cli import generate_diagram, main
from limid.reduction import reduce_to_single_value
from limid import solver
from limid.solver import SolverConfig, solve_full
from limid.treedecomp import (
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
    validate_decomposition,
)

from conftest import is_covering, random_strategy, small_random_diagram, verify_chain_identity

TOL = 1e-9
CHAIN_TOL = 1e-12
EPSILONS = (0.1, 0.5, 1.0)
SOLVER_CORPUS = 200
MERGE_CORPUS = 100


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)


def merge_corpus_diagram(seed: int):
    meta = np.random.default_rng([11, seed])
    n_chance = int(meta.integers(1, 5))
    n_decisions = int(meta.integers(0, 3))
    n_values = 2 + seed % 2
    return generate_diagram(n_chance, n_decisions, card=3, max_parents=2,
                            n_values=n_values, seed=seed, decision_max_parents=1)


class CoveringAudit:
    """Stands in for the solver's ``covering`` and checks every call as it happens."""

    def __init__(self, covering) -> None:
        self.covering = covering
        self.calls = 0
        self.cover_failures = 0
        self.bound_checked = 0
        self.bound_failures = 0

    def __call__(self, before, alpha):
        after, stats = self.covering(before, alpha)
        self.calls += 1
        if len(before) <= 500 and not is_covering(before, after, alpha):
            self.cover_failures += 1
        flat = before.values.reshape(len(before), -1) if len(before) else None
        if flat is not None and flat.size and np.all(flat > 0.0) and np.all(flat <= 1.0):
            self.bound_checked += 1
            if stats.size_bound is None or len(after) > stats.size_bound:
                self.bound_failures += 1
        return after, stats


@pytest.fixture(scope="module")
def solver_runs():
    """Brute-force value, exact solve, and pruned solves per corpus instance."""
    audit = CoveringAudit(solver.covering)
    records = []
    exact_elapsed = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "covering", audit)
        for seed in range(SOLVER_CORPUS):
            diagram = small_random_diagram(seed)
            start = time.perf_counter()
            oracle_value, _ = brute_force_meu(diagram)
            exact = solve_full(diagram, SolverConfig(epsilon=0.0))
            exact_elapsed += time.perf_counter() - start
            pruned = {eps: solve_full(diagram, SolverConfig(epsilon=eps)) for eps in EPSILONS}
            records.append({"seed": seed, "diagram": diagram, "oracle": oracle_value,
                            "exact": exact, "pruned": pruned})
    return {"records": records, "audit": audit, "exact_elapsed": exact_elapsed}


@pytest.fixture(scope="module")
def merge_runs():
    records = []
    for seed in range(MERGE_CORPUS):
        diagram = merge_corpus_diagram(seed)
        shaped, leaves = ensure_value_leaves(diagram, binarize(build_decomposition(diagram)))
        rooted = root_and_order(shaped, default_root(shaped, leaves))
        reduced = reduce_to_single_value(diagram, rooted, leaves)
        records.append({"seed": seed, "diagram": diagram, "rooted": rooted,
                        "reduced": reduced})
    return records


def test_1_exact_oracle_equivalence(solver_runs):
    worst = max(abs(r["exact"].value - r["oracle"]) for r in solver_runs["records"])
    elapsed = solver_runs["exact_elapsed"]
    ok = worst <= TOL and elapsed < 60.0
    report(1, "exact solves match the brute-force oracle", ok,
           f"max |diff| {worst:.2e}, {elapsed:.1f}s for {SOLVER_CORPUS} instances")
    assert worst <= TOL
    assert elapsed < 60.0


def test_2_approximation_guarantee(solver_runs):
    failures = 0
    for r in solver_runs["records"]:
        for eps, result in r["pruned"].items():
            if not (r["oracle"] <= (1 + eps) * result.value + TOL
                    and result.value <= r["oracle"] + TOL):
                failures += 1
    ok = failures == 0
    report(2, "pruned solves stay within the (1+eps) guarantee", ok,
           f"{failures} violations over {SOLVER_CORPUS * len(EPSILONS)} solves")
    assert failures == 0


def test_3_strategy_realizability(solver_runs):
    worst = 0.0
    for r in solver_runs["records"]:
        results = [r["exact"]] + list(r["pruned"].values())
        for result in results:
            replayed = expected_utility(r["diagram"], result.strategy)
            worst = max(worst, abs(replayed - result.value))
    ok = worst <= TOL
    report(3, "returned strategies reproduce the reported values", ok,
           f"max |diff| {worst:.2e}")
    assert worst <= TOL


def test_4_single_value_merge_equivalence(merge_runs):
    worst = 0.0
    width_violations = 0
    pairs = 0
    for r in merge_runs:
        diagram, reduced = r["diagram"], r["reduced"]
        if reduced.decomposition.width() > r["rooted"].width() + 3:
            width_violations += 1
        rng = np.random.default_rng([13, r["seed"]])
        for _ in range(20):
            s = random_strategy(diagram, rng)
            delta = abs(expected_utility(reduced.diagram, s) - expected_utility(diagram, s))
            worst = max(worst, delta)
            pairs += 1
    ok = worst <= TOL and width_violations == 0
    report(4, "value-variable merge preserves every strategy's utility", ok,
           f"max |diff| {worst:.2e} over {pairs} pairs, "
           f"{width_violations} width violations")
    assert worst <= TOL
    assert width_violations == 0


def test_5_chain_identity(merge_runs):
    worst = max(verify_chain_identity(r["reduced"], r["diagram"]) for r in merge_runs)
    ok = worst <= CHAIN_TOL
    report(5, "chain marginals equal the running averages of the rescaled rewards", ok,
           f"max deviation {worst:.2e}")
    assert worst <= CHAIN_TOL


def test_6_covering_correctness_and_size_bound(solver_runs):
    audit = solver_runs["audit"]
    ok = (audit.calls > 0 and audit.cover_failures == 0
          and audit.bound_checked > 0 and audit.bound_failures == 0)
    report(6, "every covering call covers and respects the size bound", ok,
           f"{audit.calls} calls, {audit.bound_checked} bound-eligible, "
           f"{audit.cover_failures + audit.bound_failures} failures")
    assert audit.calls > 0
    assert audit.cover_failures == 0
    assert audit.bound_checked > 0
    assert audit.bound_failures == 0


def test_7_decomposition_validity(solver_runs, merge_runs):
    violations = 0
    for r in solver_runs["records"]:
        diagram = r["diagram"]
        stage0 = build_decomposition(diagram)
        stage1 = binarize(stage0)
        stage2, leaves = ensure_value_leaves(diagram, stage1)
        stage3 = root_and_order(stage2, default_root(stage2, leaves))
        for stage in (stage0, stage1, stage2, stage3):
            violations += len(validate_decomposition(diagram, stage))
        if stage1.width() > stage0.width() or stage2.width() > stage1.width():
            violations += 1
    for r in merge_runs:
        violations += len(validate_decomposition(r["reduced"].diagram,
                                                 r["reduced"].decomposition))
    ok = violations == 0
    report(7, "all pipeline decompositions are valid and widths never grow", ok,
           f"{violations} violations")
    assert violations == 0


def test_8_work_monotonicity(solver_runs):
    """Total surviving members per epsilon, exact taken as the baseline.

    Covering buckets of different alpha values are not nested (bucket
    boundaries sit at powers of each alpha), so a coarser alpha can retain
    an extra member on some instances.
    """
    violations = []
    for r in solver_runs["records"]:
        totals = [sum(s.c_size for s in r["exact"].stats.nodes)]
        totals += [sum(s.c_size for s in r["pruned"][eps].stats.nodes) for eps in EPSILONS]
        if any(a < b for a, b in zip(totals, totals[1:])):
            violations.append((r["seed"], totals))
    ok = not violations
    report(8, "total surviving members are non-increasing in epsilon", ok,
           f"{len(violations)} of {SOLVER_CORPUS} instances violate: "
           f"{violations[:4]}" if violations else "all monotone")
    assert not violations


def test_9_cli_determinism(capsys, tmp_path):
    gen_args = ["gen", "--chance", "4", "--decisions", "2", "--card", "3",
                "--max-parents", "2", "--values", "2", "--seed", "17"]
    outputs = []
    for _ in range(2):
        assert main(list(gen_args)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    path = tmp_path / "instance.json"
    path.write_text(outputs[0])
    repeated: dict[str, list[str]] = {}
    for args in (["validate", str(path)],
                 ["oracle", str(path)],
                 ["reduce", str(path)],
                 ["solve", "--exact", str(path)],
                 ["solve", "--epsilon", "0.5", "--stats", str(path)]):
        for _ in range(2):
            code = main(list(args))
            assert code == 0
            repeated.setdefault(" ".join(args), []).append(capsys.readouterr().out)
    mismatches = [cmd for cmd, outs in repeated.items() if outs[0] != outs[1]]
    ok = not mismatches
    report(9, "repeated runs emit byte-identical documents", ok,
           f"{len(mismatches)} mismatching subcommands")
    assert not mismatches
