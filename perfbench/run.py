"""Closed-loop benchmark of ``repro serve``.

Usage::

    python3 perfbench/run.py --workload durable-play --seed 1 \\
        --seconds 15 --trace 0

Runs from the root of a source checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (BenchError, make_run_dir, median,  # noqa: E402
                     quantile, require_source, tail_level)
import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "durable-play": workloads.durable_play,
    "requester-reads": workloads.requester_reads,
    "cluster-batch": workloads.cluster_batch,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "turn_p50_ms": "ms",
    "turn_tail_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "verified_per_s": "1/s",
    "goodput_rps": "1/s",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MiB",
    "recovery_s": "s",
}


def end_to_end(outcome, steal) -> dict:
    """The end-to-end metrics.  Every wall-clock figure has the share
    of its own stretch of time that the hypervisor stole taken out:
    each sample by its own, the phase's rates by the phase's.  CPU
    time and memory need no such step."""
    phase = outcome.phase
    kept = 1 - phase.steal_share
    turns = sorted(elapsed * steal.kept(end - elapsed, end)
                   for end, elapsed in phase.turns)
    reads = sorted(elapsed * steal.kept(end - elapsed, end)
                   for end, elapsed in phase.reads)
    turn_level = tail_level(len(turns))
    read_level = tail_level(len(reads))
    print(f"# {len(turns)} turns (tail = p{turn_level * 100:g}), "
          f"{len(reads)} reads (tail = p{read_level * 100:g}), "
          f"{phase.ok_requests} requests in {phase.wall_s:.2f} s; "
          f"{phase.steal_share:.1%} of the runnable CPU time was "
          f"stolen; server CPU {phase.server_cpu_s:.2f} s, "
          f"client CPU {phase.client_cpu_s:.2f} s", file=sys.stderr)
    values = {
        "setup_s": median(outcome.setups),
        "turn_p50_ms": quantile(turns, 0.5) * 1e3,
        "turn_tail_ms": quantile(turns, turn_level) * 1e3,
        "read_p50_ms": quantile(reads, 0.5) * 1e3,
        "read_tail_ms": quantile(reads, read_level) * 1e3,
        "verified_per_s": phase.verified / (phase.wall_s * kept),
        "goodput_rps": phase.ok_requests / (phase.wall_s * kept),
        "server_cpu_ms_per_req":
            phase.server_cpu_s * 1e3 / phase.ok_requests,
        "server_rss_mb": outcome.rss_mb,
        "recovery_s": median(outcome.recoveries),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        require_source()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # A terminated run must still stop the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    run_dir = make_run_dir(args.workload)
    spans_dir = None
    if args.trace:
        spans_dir = run_dir / "spans"
        spans_dir.mkdir()
    ctx = workloads.Context(args.seed, args.seconds, run_dir, spans_dir)
    try:
        outcome = WORKLOADS[args.workload](ctx)
        if args.trace:
            metrics = layers.per_layer(outcome, spans_dir)
        else:
            metrics = end_to_end(outcome, ctx.steal)
    except BenchError as exc:
        print(f"perfbench: {args.workload} failed: {exc}",
              file=sys.stderr)
        print(f"perfbench: logs kept in {run_dir}", file=sys.stderr)
        return 1
    finally:
        ctx.fleet.destroy_all()
        ctx.steal.stop()
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": True,
                      "attempted": outcome.phase.attempted,
                      "failed": outcome.phase.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
