"""Per-layer metrics of a traced run, from the spans that the server
processes wrote (see ``trace_site/benchspans.py``) and from the
counters the benchmark read on both sides of the measured phase.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Figures for a layer a workload does
not exercise (the router on a single process, the WAL in memory) read
0.  Only ``trace.goodput_rps``, the traced run's counterpart of the
end-to-end ``goodput_rps``, has the stolen CPU share taken out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from harness import metric_total

#: name -> unit, in the order they are reported.
UNITS = {
    "service.http.overhead_us": "us",
    "service.http.response_bytes": "bytes",
    "service.api.self_us": "us",
    "service.api.lock_wait_ms": "ms",
    "platform.request_task_us": "us",
    "platform.submit_answer_us": "us",
    "platform.results_ms": "ms",
    "platform.leaderboard_ms": "ms",
    "platform.snapshot_us": "us",
    "aggregation.vote_us_per_task": "us",
    "durability.append_us": "us",
    "durability.encode_us_per_kb": "us/KiB",
    "durability.fsyncs_per_answer": "count",
    "durability.frames_per_fsync": "count",
    "durability.checkpoints": "count",
    "durability.checkpoint_ms": "ms",
    "durability.checkpoint_share": "ratio",
    "durability.write_bytes_per_answer": "bytes",
    "durability.load_checkpoint_s": "s",
    "durability.replay_s": "s",
    "obs.live_us": "us",
    "cluster.router_self_us": "us",
    "cluster.forward_us": "us",
    "cluster.legs_per_request": "count",
    "cluster.retries": "count",
    "client.cpu_ms_per_req": "ms",
    "trace.goodput_rps": "1/s",
}

# (pid, id, parent, request, name, start_ns, end_ns, size)
Span = Tuple[int, int, int, int, str, int, int, int]
DURABILITY = ("durability.", "platform.checkpoint")


def load_spans(spans_dir: Path) -> List[Span]:
    spans: List[Span] = []
    for path in sorted(spans_dir.glob("spans-*.json")):
        pid = int(path.stem.split("-")[1])
        for row in json.loads(path.read_text(encoding="utf-8")):
            spans.append((pid, *row))
    return spans


class Trace:
    """Spans of one time window, indexed for self-time arithmetic."""

    def __init__(self, spans: Iterable[Span], start_ns: int,
                 end_ns: int) -> None:
        self.spans = [s for s in spans if start_ns <= s[5] <= end_ns]
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[Tuple[int, int], List[Span]] = \
            defaultdict(list)
        for span in self.spans:
            self.by_name[span[4]].append(span)
            self.children[(span[0], span[2])].append(span)

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total_ns(self, name: str) -> int:
        return sum(s[6] - s[5] for s in self.by_name[name])

    def mean_ns(self, name: str) -> float:
        spans = self.by_name[name]
        return self.total_ns(name) / len(spans) if spans else 0.0

    def covered_ns(self, span: Span, prefixes: Tuple[str, ...] = ("",)
                   ) -> int:
        """How much of ``span`` its (matching) children cover."""
        intervals = sorted(
            (max(c[5], span[5]), min(c[6], span[6]))
            for c in self.children[(span[0], span[1])]
            if c[4].startswith(prefixes))
        covered, reach = 0, span[5]
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered

    def mean_self_ns(self, name: str,
                     prefixes: Tuple[str, ...] = ("",)) -> float:
        spans = self.by_name[name]
        if not spans:
            return 0.0
        return sum(s[6] - s[5] - self.covered_ns(s, prefixes)
                   for s in spans) / len(spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(phase, name: str, field: str = "value") -> float:
    return (metric_total(phase.metrics_after, name, field)
            - metric_total(phase.metrics_before, name, field))


def per_layer(outcome, spans_dir: Path) -> Dict[str, Dict]:
    phase = outcome.phase
    spans = load_spans(spans_dir)
    trace = Trace(spans, phase.started_ns, phase.ended_ns)
    front = "router.handle" if trace.count("router.handle") else \
        "api.handle"
    recovery = [Trace(spans, lo, hi)
                for lo, hi in outcome.recovery_windows]
    loads = [s[6] - s[5] for t in recovery
             for s in t.by_name["durability.load_checkpoint"]]
    replays = [s[6] - s[5] - t.covered_ns(s, ("durability.load",))
               for t in recovery for s in t.by_name["durability.recover"]]
    encode_bytes = sum(s[7] for s in trace.by_name["durability.encode"])
    values = {
        "service.http.overhead_us": max(0.0, (
            _ratio(phase.client_rtt_s, phase.client_requests) * 1e6
            - trace.mean_ns(front) / 1e3)),
        "service.http.response_bytes":
            _ratio(phase.client_bytes, phase.client_requests),
        "service.api.self_us": trace.mean_self_ns("api.handle") / 1e3,
        "service.api.lock_wait_ms":
            _delta(phase, "service.lock_wait_s", "sum") * 1e3,
        "platform.request_task_us": trace.mean_self_ns(
            "platform.request_task", DURABILITY) / 1e3,
        "platform.submit_answer_us": trace.mean_self_ns(
            "platform.submit_answer", DURABILITY) / 1e3,
        "platform.results_ms": trace.mean_ns("platform.results") / 1e6,
        "platform.leaderboard_ms":
            trace.mean_ns("platform.leaderboard") / 1e6,
        "platform.snapshot_us": trace.mean_ns("platform.snapshot") / 1e3,
        "aggregation.vote_us_per_task":
            trace.mean_ns("aggregation.vote") / 1e3,
        "durability.append_us": trace.mean_ns("durability.append") / 1e3,
        "durability.encode_us_per_kb": _ratio(
            trace.total_ns("durability.encode") / 1e3,
            encode_bytes / 1024),
        "durability.fsyncs_per_answer": _ratio(
            trace.count("durability.fsync"), phase.answers),
        "durability.frames_per_fsync": _ratio(
            _delta(phase, "wal.batch_frames", "sum"),
            _delta(phase, "wal.batch_frames", "count")),
        "durability.checkpoints": trace.count("platform.checkpoint"),
        "durability.checkpoint_ms":
            trace.mean_ns("platform.checkpoint") / 1e6,
        "durability.checkpoint_share": _ratio(
            trace.total_ns("platform.checkpoint"),
            trace.total_ns("api.handle")),
        "durability.write_bytes_per_answer": _ratio(
            phase.write_bytes, phase.answers) if trace.count(
                "durability.append") else 0.0,
        "durability.load_checkpoint_s":
            _ratio(sum(loads), len(loads)) / 1e9,
        "durability.replay_s": _ratio(sum(replays), len(replays)) / 1e9,
        "obs.live_us": trace.mean_ns("obs.live") / 1e3,
        "cluster.router_self_us":
            trace.mean_self_ns("router.handle") / 1e3,
        "cluster.forward_us": trace.mean_ns("cluster.forward") / 1e3,
        "cluster.legs_per_request": _ratio(
            trace.count("cluster.forward"), trace.count("router.handle")),
        "cluster.retries": _delta(phase, "router.failovers"),
        "client.cpu_ms_per_req": _ratio(
            phase.client_cpu_s * 1e3, phase.client_requests),
        "trace.goodput_rps": _ratio(
            phase.ok_requests, phase.wall_s * (1 - phase.steal_share)),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in UNITS.items()}
