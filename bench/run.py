"""Benchmark of the kantorovich package: one workload run, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze-gap, analyze-cli, boundary-sweep, lemmas-grid (see
``bench/README.md`` for why each exists and what each metric should move).
Every workload runs in its own fresh child process with one BLAS/OpenMP
thread, against the package in ``src/`` of this checkout.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
fresh set-ups), ``ops_per_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
``peak_rss_mb``.  Set-up and request times are scaled to a nominal core
speed by speed probes: ``workloads.SpeedProbe`` around set-up and around
each analyze-gap and analyze-cli request, ``workloads.ArrayProbe`` around
and every half second during each boundary-sweep and lemmas-grid request
(``workloads.ProbedClock``); the unscaled values are kept in the results
file.  ``--trace 1`` runs the workload again on
the same inputs with the benchmark's span tracer and prints the per-layer
metrics.  Both print a human summary, write the full result to
``bench/out/results/<workload>-seed<N>-trace<T>.json`` and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GAP_ROUND_DIMS, OUT, SRC, WORKLOADS, pinned_env

BENCH_DIR = Path(__file__).resolve().parent
# Whole command, every child included, stays under the 180 s run limit.
BUDGET_S = 170.0
SETUP_REPEATS = 3
TAIL_BEYOND = 10


class ChildError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: int, deadline: float,
          *flags: str) -> dict:
    """Run one fresh workload child and return its JSON result."""
    remaining = deadline - time.perf_counter()
    if remaining <= 1.0:
        raise ChildError("time budget exhausted before the child started")
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--t0", repr(t0), *flags]
    # Own session, so a timeout also ends the child's own children.
    proc = subprocess.Popen(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(OUT / f"work-{proc.pid}-{workload}", ignore_errors=True)
        raise ChildError(f"{workload} child exceeded the time budget") \
            from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} child exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile_ranks(n: int, per_block: int) -> tuple[int, int]:
    """Nearest ranks (1-based) of the median and the tail of n requests.

    The tail is the highest percentile with at least TAIL_BEYOND requests
    beyond it in one block of ``per_block`` requests, but never below the
    median; with TAIL_BEYOND requests or fewer per block it is the maximum.
    Taken per block, it keeps its place in the composition at any number
    of blocks.
    """
    r50 = math.ceil(n / 2)
    if per_block <= TAIL_BEYOND:
        return r50, n
    return r50, max(-(-n * (per_block - TAIL_BEYOND) // per_block), r50)


def gap_groups_by_rank(rounds: int) -> list[str]:
    """Groups of ``rounds`` analyze-gap rounds in the order of latency the
    composition assumes: latency rises with dim."""
    return [f"dim {d}" for d in sorted(GAP_ROUND_DIMS * rounds)]


def percentiles(requests, per_block: int, scaled: bool = True) -> dict:
    """Median and tail of per-request latency, nearest rank.

    Times are at nominal core speed unless ``scaled`` is false.
    """
    reqs = sorted(([sec * (speed if scaled else 1.0), grp]
                   for sec, _, grp, speed in requests), key=lambda r: r[0])
    n = len(reqs)
    r50, r_tail = percentile_ranks(n, per_block)
    return {
        "requests": n,
        "per_block": per_block,
        "p50_ms": reqs[r50 - 1][0] * 1e3,
        "p50_group": reqs[r50 - 1][1],
        "tail_ms": reqs[r_tail - 1][0] * 1e3,
        "tail_percentile": 100.0 * r_tail / n,
        "tail_beyond": n - r_tail,
        "tail_group": reqs[r_tail - 1][1],
    }


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict]:
    n = len(main["requests"])
    per_block = n * main["block_rounds"] // main["rounds"]
    pct = percentiles(main["requests"], per_block)
    pct["rounds"] = main["rounds"]
    if main["workload"] == "analyze-gap":
        by_rank = gap_groups_by_rank(main["rounds"])
        pct["intended_group"] = [by_rank[r - 1]
                                 for r in percentile_ranks(n, per_block)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (main["attempted"] / sum(
            sec * speed for sec, _, _, speed in main["requests"]), "ops/s"),
        "latency_p50_ms": (pct["p50_ms"], "ms"),
        "latency_tail_ms": (pct["tail_ms"], "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    raw = percentiles(main["requests"], per_block, scaled=False)
    pct["unscaled"] = {
        "ops_per_s": main["attempted"] / main["timed_s"],
        "latency_p50_ms": raw["p50_ms"],
        "latency_tail_ms": raw["tail_ms"],
        "median_speed": statistics.median(r[3] for r in main["requests"]),
    }
    return metrics, pct


def report(args, result: dict, metrics: dict, detail: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({result['environment']['nproc']} CPUs, "
          f"numpy {result['environment']['numpy']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if "requests" in detail:
        print(f"  latency over {detail['requests']} requests in "
              f"{detail['rounds']} rounds: p50 in '{detail['p50_group']}', "
              f"tail p{detail['tail_percentile']:.1f} "
              f"({detail['tail_beyond']} beyond) in "
              f"'{detail['tail_group']}'")
        if "intended_group" in detail:
            print("  composition puts p50 and tail in "
                  + " and ".join(f"'{g}'" for g in detail["intended_group"]))
    print(f"  error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} ops failed their output check)")
    print(f"  stdout sha256 {result['fingerprint']['sha256']} "
          f"({result['fingerprint']['scope']})")
    for msg in result["failures"]:
        print(f"  FAILED {msg}")
    if result.get("absent"):
        print(f"  absent trace points: {', '.join(result['absent'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "kantorovich" / "__init__.py").is_file():
        print(f"error: no kantorovich package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S
    run = (args.workload, args.seed, args.seconds, deadline)
    try:
        if args.trace:
            result = spawn(*run, "--trace")
            metrics = {k: tuple(v) for k, v in result["layers"].items()}
            detail = {"spans": result["spans"],
                      "span_file": result["span_file"],
                      "absent": result["absent"],
                      "reader_errors": result["reader_errors"]}
        else:
            children = [spawn(*run, "--setup-only")
                        for _ in range(SETUP_REPEATS - 1)]
            result = spawn(*run)
            children.append(result)
            setups = [c["setup_s"] * c["setup_speed"] for c in children]
            metrics, detail = end_to_end(result, setups)
            detail["setups_s"] = setups
            detail["inner_probes"] = result["inner_probes"]
            detail["unscaled"]["setup_s"] = statistics.median(
                c["setup_s"] for c in children)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    report(args, result, metrics, detail)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "error_rate": failed / attempted,
        "attempted": attempted, "failed": failed,
        "failures": result["failures"],
        "timed_s": result["timed_s"],
        "fingerprint": result["fingerprint"],
        "environment": result["environment"],
        "detail": detail,
        "requests": result["requests"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out = results_dir / name
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
