"""Workload definitions, the closed-loop solve driver and the checks.

Every workload is a fixed pool of seeded instances from
``limid.cli.generate_diagram``.  A job is one instance in one solver mode.
A run solves every job once, in an order rotated to start at the
benchmark's ``--seed``, and solves the cheap jobs again in rounds spaced
evenly over ``--seconds``, up to ``MAX_REPS`` solves each; a job's latency
is the median of its solves.  One caller, no threads: each solve starts
when the previous one returned.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import signal
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Callable

import numpy as np

import limid
import limid.cli

import oracle

#: wall-clock limit on one solve; a solve that runs out counts as failed
SOLVE_TIMEOUT_S = 60.0
#: most solves of one job in an untraced run: the first pass and the rounds
MAX_REPS = 20
#: the calibration loop runs after any solve that ends this long after its last run
CALIBRATE_EVERY_S = 0.25
#: median time of the calibration loop on the 2-core Xeon VM the benchmark was
#: written on; timing metrics are scaled to that speed (unit ``cal_ms``)
CALIBRATION_S = 0.0026


def corpus_diagram(seed: int):
    """The acceptance corpus recipe: desk-scale diagrams, brute-forceable."""
    meta = np.random.default_rng([7, seed])
    n_chance = int(meta.integers(1, 6))
    n_decisions = int(meta.integers(0, 4))
    n_values = int(meta.integers(1, 3))
    return limid.cli.generate_diagram(n_chance, n_decisions, card=3, max_parents=2,
                                      n_values=n_values, seed=seed, decision_max_parents=1)


def mid_diagram(seed: int):
    return limid.cli.generate_diagram(10, 5, 3, 2, 3, seed, decision_max_parents=1)


def hard_diagram(seed: int):
    return limid.cli.generate_diagram(12, 5, 3, 2, 3, seed, decision_max_parents=2)


@dataclass(frozen=True)
class Workload:
    name: str
    diagram: Callable[[int], Any]
    pool: int  # tier seeds 0 .. pool-1
    epsilons: tuple[float, ...]
    cli: bool  # solve through ``limid.cli.main`` rather than ``limid.solve_full``
    brute_force: bool  # also check against ``limid.brute_force_meu``


WORKLOADS = {w.name: w for w in (
    Workload("corpus-cli", corpus_diagram, 200, (0.0, 0.5), True, True),
    Workload("mid-exact", mid_diagram, 40, (0.0,), False, True),
    Workload("hard-approx", hard_diagram, 40, (0.5,), False, False),
)}


@dataclass(frozen=True)
class Instance:
    seed: int
    diagram: Any
    document: str


@dataclass(frozen=True)
class Job:
    instance: Instance
    epsilon: float

    @property
    def key(self) -> str:
        return f"{self.instance.seed}:{self.epsilon}"


@dataclass
class Record:
    job: Job
    times: list[float]
    value: float | None = None
    policies: Any = None  # CLI result document or library Strategy
    error: str | None = None
    values: set[float] = field(default_factory=set)  # every value its solves returned

    @property
    def seconds(self) -> float:
        return statistics.median(self.times)


def build_instances(w: Workload) -> list[Instance]:
    """Generate the pool and serialize every document (the set-up work)."""
    out = []
    for seed in range(w.pool):
        d = w.diagram(seed)
        out.append(Instance(seed, d, limid.cli.serialize(d)))
    return out


def jobs(w: Workload, instances: list[Instance], seed: int) -> list[Job]:
    start = seed % len(instances)
    order = instances[start:] + instances[:start]
    return [Job(inst, eps) for inst in order for eps in w.epsilons]


class SolveTimeout(Exception):
    """A solve ran past ``SOLVE_TIMEOUT_S``."""


class CliExit(Exception):
    """``limid.cli.main`` returned a nonzero exit code."""


def _on_alarm(signum, frame):
    raise SolveTimeout(f"solve ran past {SOLVE_TIMEOUT_S:.0f} s")


def _cli_solve(job: Job) -> tuple[float, Any]:
    flag = ["--exact"] if job.epsilon == 0.0 else ["--epsilon", repr(job.epsilon)]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.instance.document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = limid.cli.main(["solve", *flag, "-"])
    finally:
        sys.stdin = saved_stdin
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")
    doc = json.loads(out.getvalue())
    return doc["value"], doc["strategy"]


def set_size_cap() -> int:
    """The library path honours the CLI's set-size override as well."""
    env = os.environ.get(limid.cli.MAX_SET_SIZE_ENV)
    return int(env) if env else limid.solver.DEFAULT_MAX_SET_SIZE


def _library_solve(job: Job) -> tuple[float, Any]:
    cfg = limid.SolverConfig(epsilon=job.epsilon, max_set_size=set_size_cap())
    result = limid.solve_full(job.instance.diagram, cfg)
    return result.value, result.strategy


def _timed(solve: Callable, job: Job) -> tuple[Any, str | None, float]:
    """One solve under the timeout: (result, error, seconds)."""
    signal.setitimer(signal.ITIMER_REAL, SOLVE_TIMEOUT_S)
    t0 = perf_counter()
    try:
        return solve(job), None, perf_counter() - t0
    except Exception as exc:
        return None, f"{type(exc).__name__}: {str(exc)[:200]}", perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def calibration_seconds() -> float:
    """Time one run of a fixed loop that mixes dict and tuple work with small numpy ops.

    Its speed follows the machine's, not limid's: it shares no code with the
    solver, and the collector is off while it runs, so the solver's heap does
    not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict[tuple[int, int], float] = {}
        for i in range(4000):
            key = (i % 61, i % 17)
            table[key] = table.get(key, 0.0) + i * 0.5
        a = np.arange(1024.0).reshape(32, 32)
        for _ in range(30):
            a = np.maximum(a @ a.T % 7.0, a)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure(w: Workload, plan: list[Job], seconds: float = 0.0, max_reps: int = 1,
            tracer=None) -> tuple[list[Record], float, list[float]]:
    """Solve every job once, and the cheap ones again in rounds spread over ``seconds``.

    The first pass solves the jobs in plan order.  Between its solves, and
    after it, up to ``max_reps - 1`` rounds each solve once more every job
    that is already solved, has not failed and whose next solve keeps its
    solves within its share ``seconds / len(plan)`` of the run.  The rounds
    are spaced evenly over the time left until ``seconds`` (the loop waits
    for a round that is not yet due), so a job's solves sample the whole run
    and its median spans the machine's fast and slow spells rather than the
    last few seconds.  An exception of any kind (cap, ``MemoryError``,
    timeout, nonzero CLI exit) ends its job as a failed record carrying the
    exception type.

    Returns one record per job, the wall time, and the times of the
    calibration loop, which runs after every solve that ends at least
    ``CALIBRATE_EVERY_S`` after its previous run, so that they sample the
    machine's speed over the same spells as the solves.
    """
    solve = _cli_solve if w.cli else _library_solve
    if tracer is not None:
        solve = tracer.wrap("bench.solve", solve)
    records = [Record(job, []) for job in plan]
    share = seconds / max(1, len(plan))
    first = list(reversed(records))
    solved: list[Record] = []
    rounds_left = max_reps - 1
    calibration: list[float] = []
    calibrated = 0.0

    def run(record: Record) -> None:
        nonlocal calibrated
        if tracer is not None:
            tracer.instance = f"{w.name}:{record.job.key}"
        result, record.error, elapsed = _timed(solve, record.job)
        record.times.append(elapsed)
        if result is not None:
            record.value, record.policies = result
            record.values.add(result[0])
        if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            calibration.append(calibration_seconds())
            calibrated = perf_counter()

    def due(now: float) -> float:
        # the rounds left share the time left with the first pass's slot
        return now + max(0.0, seconds - now) / (rounds_left + 1)

    for _ in range(3):  # warm up the loop's code paths, untimed
        calibration_seconds()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = perf_counter()
    next_round = due(0.0)
    try:
        while True:
            now = perf_counter() - started
            again = []
            if rounds_left > 0 and now < seconds and (now >= next_round or not first):
                again = [r for r in solved if r.error is None
                         and sum(r.times) + r.seconds <= share]
            if again:
                sleep(max(0.0, next_round - now))
                for record in again:
                    run(record)
                rounds_left -= 1
                next_round = due(perf_counter() - started)
            elif first:
                solved.append(first.pop())
                run(solved[-1])
            else:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records, perf_counter() - started, calibration


def check_records(w: Workload, records: list[Record]) -> dict[str, list[str]]:
    """Run every correctness check on the solved records.

    Returns the problems of each record that failed a check, keyed by job.
    """
    refs = oracle.References(w.name) if w.brute_force else None
    failures = {}
    for r in records:
        if r.error is not None:
            continue
        d = r.job.instance.diagram
        if w.cli:
            policies = oracle.document_tables(d, r.policies)
        else:
            policies = oracle.strategy_tables(r.policies)
        meu = refs.meu(d, r.job.instance.document) if refs is not None else None
        problems = oracle.check(d, r.value, policies, r.job.epsilon, meu)
        if len(r.values) > 1:
            problems.append(f"repeated solves returned different values {sorted(r.values)}")
        if problems:
            failures[r.job.key] = problems
    return failures


def tail(seconds: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(seconds)
    n = len(ordered)
    k = max(0, n - 11)
    return 100.0 * (k + 1) / n, ordered[k]


def end_to_end(records: list[Record], peak_rss_mb: float, setup_s: float,
               calibration: list[float]) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one untraced run, as ``name -> (value, unit)``.

    Each completed job counts once, at the median time of its solves.  The
    timing metrics are scaled by ``CALIBRATION_S`` over the median of the
    run's calibration loop times: they read what the run would have measured
    on a machine where the loop takes ``CALIBRATION_S``, so a spell in which
    the shared host runs everything slower moves them much less than the
    raw times.  With no job completed the timing and value metrics read 0.
    """
    done = [r for r in records if r.error is None]
    scale = CALIBRATION_S / statistics.median(calibration)
    times = [scale * r.seconds for r in done]
    return {
        "solves_per_s": (len(done) / sum(times) if done else 0.0, "1/cal_s"),
        "latency_p50_ms": (1000.0 * statistics.median(times) if done else 0.0, "cal_ms"),
        "latency_tail_ms": (1000.0 * tail(times)[1] if done else 0.0, "cal_ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "solved_ratio": (len(done) / len(records), "ratio"),
        "value_mean": (statistics.fmean(r.value for r in done) if done else 0.0, "utility"),
    }
