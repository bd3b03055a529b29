"""Seeded solve benchmark for limid.

Run from the repository root:

    python3 bench/run.py --workload corpus-cli --seed 0 --seconds 55 --trace 0

Each workload runs in a child process of its own, which pins the BLAS and
OpenMP thread counts to 1, caps its address space and times out every
solve.  The child sets up the instance pool, solves it in a closed loop
with one caller, reads its own peak RSS and only then checks every
returned value.  With ``--trace 1`` two fresh children solve every job
once each, the first untraced and the second with the library's layer
boundaries wrapped; the spans go to ``bench/out/`` and the command reports
the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric by name and unit for a reader.  The exit code is 0 only
when every solve returned and passed every check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOAD_NAMES = ("corpus-cli", "mid-exact", "hard-approx")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: address-space cap of a workload child, below the 7 GB of the machine the
#: benchmark was sized on; larger allocations fail as MemoryError
ADDRESS_LIMIT = 4 << 30
#: a run must end within 180 s, so its children are killed at this deadline
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 5


def use_source() -> None:
    """Import limid from this checkout's ``src``, never from anywhere else."""
    if not (ROOT / "src" / "limid" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no limid sources in {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def _isolate() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _import_seconds() -> float:
    """Time to import limid, numpy included, in a fresh interpreter."""
    probe = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
             "t = time.perf_counter(); import limid.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def child(workload: str, seed: int, seconds: int, mode: str) -> dict:
    """One workload, start to finish, inside the isolated child process.

    ``mode`` is ``measure`` (repeated solves, end-to-end metrics),
    ``reference`` (one untraced solve per job) or ``trace`` (one traced
    solve per job, per-layer metrics).
    """
    _isolate()
    use_source()
    import numpy
    import spans
    import workloads

    w = workloads.WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        t0 = perf_counter()
        instances = workloads.build_instances(w)
        setups.append(import_s + perf_counter() - t0)
    setup_s = statistics.median(setups)
    plan = workloads.jobs(w, instances, seed)

    # traced runs solve every job once, so their counts repeat exactly
    tracer = spans.Tracer() if mode == "trace" else None
    reps = workloads.MAX_REPS if mode == "measure" else 1
    with tracer.installed() if tracer else contextlib.nullcontext():
        records, wall, calibration = workloads.measure(w, plan, seconds, reps, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = {r.job.key: r.error for r in records if r.error is not None}
    wrong = workloads.check_records(w, records)
    notes = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool": w.pool,
        "modes": len(w.epsilons),
        "solves": sum(len(r.times) for r in records),
        "wall_s": wall,
    }
    if tracer:
        metrics = spans.layer_metrics(tracer.spans)
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload}-seed{seed}"
        spans.write_spans(tracer.spans, f"{stem}.spans.jsonl")
        notes["span_file"] = str(Path(f"{stem}.spans.jsonl").relative_to(ROOT))
        notes["layers_file"] = str(Path(f"{stem}.layers.json").relative_to(ROOT))
        notes["spans"] = len(tracer.spans)
    else:
        metrics = workloads.end_to_end(records, peak_rss_mb, setup_s, calibration)
        # a calibration time of CALIBRATION_S scales by 1: the raw times
        raw = workloads.end_to_end(records, peak_rss_mb, setup_s, [workloads.CALIBRATION_S])
        notes["raw"] = {k: raw[k][0] for k in ("solves_per_s", "latency_p50_ms",
                                                "latency_tail_ms")}
        notes["calibration_ms"] = 1000.0 * statistics.median(calibration)
        notes["calibrations"] = len(calibration)
        notes["calibration_ref_ms"] = 1000.0 * workloads.CALIBRATION_S
        completed = [r.seconds for r in records if r.error is None]
        if completed:
            notes["latency_tail_pct"] = workloads.tail(completed)[0]
            notes["latency_tail_n"] = len(completed)
    return {
        "correct": not wrong,
        "attempted": len(records),
        "failed": sorted(errors.keys() | wrong.keys()),
        "values": {r.job.key: r.value for r in records},
        "metrics": {k: [v, u] for k, (v, u) in metrics.items()},
        "notes": notes,
        "problems": [f"{k}: {e}" for k, e in errors.items()]
                    + [f"{k}: {m}" for k, found in wrong.items() for m in found],
    }


def run_child(args: argparse.Namespace, mode: str, deadline: float) -> dict | None:
    """Run one workload child; ``None`` when it crashed or ran out of time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {CHILD_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {args.workload} child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def traced_result(plain: dict, traced: dict) -> dict:
    """Fold the untraced reference run into the traced one.

    Both runs start from a fresh process, so their wall times compare
    like for like; the traced values must equal the untraced ones bit for bit.
    """
    overhead = traced["notes"]["wall_s"] - plain["notes"]["wall_s"]
    traced["metrics"]["trace.overhead_s"] = [overhead, "s"]
    differ = sorted(k for k, v in traced["values"].items() if plain["values"].get(k) != v)
    traced["problems"] += [f"{k}: traced value {traced['values'][k]!r} differs from "
                           f"untraced {plain['values'].get(k)!r}" for k in differ]
    traced["correct"] = plain["correct"] and traced["correct"] and not differ
    traced["failed"] = sorted(set(plain["failed"]) | set(traced["failed"]) | set(differ))
    with open(ROOT / traced["notes"]["layers_file"], "w", encoding="utf-8") as handle:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in traced["metrics"].items()},
                  handle, indent=1)
    return traced


def report(workload: str, seed: int, result: dict) -> list[str]:
    notes = result["notes"]
    lines = [
        f"workload {workload}, seed {seed}: pool of {notes['pool']} x {notes['modes']} "
        f"mode(s) = {result['attempted']} jobs, {notes['solves']} solves",
        f"environment: nproc {notes['nproc']}, python {notes['python']}, "
        f"numpy {notes['numpy']}",
    ]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"{name} = {value:.6g} {unit}")
    failed = len(result["failed"])
    lines.append(f"fail_ratio = {failed / result['attempted']:.6g} ratio "
                 f"({failed} of {result['attempted']} jobs)")
    if "raw" in notes:
        raw = notes["raw"]
        lines.append(f"calibration loop: median {notes['calibration_ms']:.4g} ms of "
                     f"{notes['calibrations']} runs, against "
                     f"{notes['calibration_ref_ms']:.4g} ms for the cal_ units")
        lines.append(f"unscaled: solves_per_s = {raw['solves_per_s']:.6g} 1/s, "
                     f"latency_p50_ms = {raw['latency_p50_ms']:.6g} ms, "
                     f"latency_tail_ms = {raw['latency_tail_ms']:.6g} ms")
    if "latency_tail_pct" in notes:
        lines.append(f"latency_tail_ms is the p{notes['latency_tail_pct']:.2f} latency "
                     f"of {notes['latency_tail_n']} completed jobs")
    if "span_file" in notes:
        m = result["metrics"]
        lines.append(f"covering_kept_ratio base: {m['potential.covering_out'][0]} kept of "
                     f"{m['potential.covering_in'][0]} offered")
        lines.append(f"{notes['spans']} spans written to {notes['span_file']}")
    lines += [f"failed: {p}" for p in result["problems"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("measure", "reference", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.child:
        result = child(args.workload, args.seed, args.seconds, args.child)
        print(json.dumps(result))
        return 0

    use_source()
    deadline = perf_counter() + CHILD_TIMEOUT_S
    if args.trace:
        plain = run_child(args, "reference", deadline)
        traced = None if plain is None else run_child(args, "trace", deadline)
        result = None if traced is None else traced_result(plain, traced)
    else:
        result = run_child(args, "measure", deadline)
    if result is None:
        return 1
    for line in report(args.workload, args.seed, result):
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
