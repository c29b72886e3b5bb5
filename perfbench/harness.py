"""Process, HTTP and measurement plumbing shared by the workloads.

Servers are launched with the same command line a user types
(``python -m repro serve ...``) from the checkout's ``src`` tree, each
in its own session so that a failed run can still stop the whole
process group.  The load generator is this process: a few keep-alive
connections, one per thread, each waiting for its reply (closed loop).
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import queue
import re
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_SITE = BENCH_DIR / "trace_site"
#: Scratch area for data directories and logs, inside the checkout.
WORK_DIR = ROOT / ".perfbench"
CLK_TCK = os.sysconf("SC_CLK_TCK")
STOP_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The run cannot go on: a server misbehaved or a check failed."""


def require_source() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")


def make_run_dir(workload: str) -> Path:
    """A fresh, private directory for one run's data and logs."""
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------

def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    state = stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3]
    return state not in (b"Z", b"X")


def is_node(pid: int) -> bool:
    """True while ``pid`` is a live cluster node process (and not some
    later process that reused the number)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"repro.cluster.node" in handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process so far."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        stat = handle.read()
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def write_bytes(pid: int) -> int:
    """Bytes this process caused to be sent to the storage layer."""
    with open(f"/proc/{pid}/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise BenchError(f"no write_bytes for pid {pid}")


def _machine_ticks() -> Tuple[int, int]:
    """(stolen, busy) CPU ticks of the whole machine so far."""
    with open("/proc/stat", encoding="ascii") as handle:
        user, nice, system, _idle, _iowait, irq, softirq, steal = (
            int(x) for x in handle.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq


class StealTimeline:
    """The machine's stolen and busy CPU ticks, sampled every
    ``interval_s`` on a background thread for the whole run.

    On a shared VM the share of runnable CPU time that the hypervisor
    gives to other guests comes in bursts of a few seconds and swings
    from under 1% to over 50% within minutes; every wall-clock figure
    swings with it.  A duration times :meth:`kept` over its own
    stretch of time is what it would have measured had its CPUs not
    been taken away.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        #: (perf_counter, stolen ticks, busy ticks), in time order.
        self._points: List[Tuple[float, int, int]] = []
        self._lock = threading.Lock()
        self.sample()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        """Take a reading now (also done every ``interval_s``)."""
        with self._lock:
            stolen, busy = _machine_ticks()
            self._points.append((time.perf_counter(), stolen, busy))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _at(self, moment: float) -> Tuple[float, float]:
        """Cumulative (stolen, busy) ticks at ``moment``, interpolated
        between the readings around it."""
        points = self._points
        index = bisect.bisect_right(points, moment, 1, len(points) - 1,
                                    key=lambda point: point[0])
        (t0, s0, b0), (t1, s1, b1) = points[index - 1], points[index]
        frac = min(1.0, max(0.0, (moment - t0) / (t1 - t0)))
        return s0 + (s1 - s0) * frac, b0 + (b1 - b0) * frac

    def share(self, start: float, end: float) -> float:
        """Stolen share of the runnable CPU time between two
        ``time.perf_counter()`` readings."""
        s0, b0 = self._at(start)
        s1, b1 = self._at(end)
        total = (s1 - s0) + (b1 - b0)
        return (s1 - s0) / total if total > 0 else 0.0

    def kept(self, start: float, end: float) -> float:
        return 1.0 - self.share(start, end)


def own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------

_SERVING = re.compile(r"serving on (http://[\d.]+:(\d+))")


class Server:
    """One ``repro serve`` process (plus its cluster nodes, if any).

    ``spans_dir`` turns on the traced build: the benchmark's own
    ``sitecustomize`` (see ``trace_site/``) is put first on the
    interpreter path, so the server, and every cluster node it
    spawns with the inherited environment, records spans.
    """

    def __init__(self, args: Sequence[str], log_path: Path,
                 spans_dir: Optional[Path] = None,
                 node_root: Optional[Path] = None,
                 n_nodes: int = 0) -> None:
        self.args = list(args)
        self.log_path = log_path
        self.spans_dir = spans_dir
        self.node_root = node_root
        self.n_nodes = n_nodes
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.launched_at = 0.0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._log = None
        #: Every node pid ever seen, for the "no survivors" check.
        self.seen_node_pids: set = set()

    def launch(self, timeout_s: float = 60.0) -> "Server":
        env = dict(os.environ)
        paths = [str(SRC)]
        if self.spans_dir is not None:
            paths.insert(0, str(TRACE_SITE))
            env["PERFBENCH_SPANS"] = str(self.spans_dir)
        else:
            env.pop("PERFBENCH_SPANS", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self._log = open(self.log_path, "ab")
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0", *self.args],
            cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"server not serving within "
                                 f"{timeout_s}s\n{self.log_tail()}")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(f"server exited during start "
                                 f"(code {self.proc.wait()})\n"
                                 f"{self.log_tail()}")
            match = _SERVING.search(line)
            if match:
                self.port = int(match.group(2))
                break
        if self.n_nodes:
            self.node_pids()
        return self

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8",
                                           errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def node_pids(self) -> List[int]:
        """Current node pids, from each node's ready file."""
        pids = []
        for index in range(self.n_nodes):
            ready = self.node_root / f"node-{index:02d}" / "node.json"
            doc = json.loads(ready.read_text(encoding="utf-8"))
            pids.append(int(doc["pid"]))
        self.seen_node_pids.update(pids)
        return pids

    def pids(self) -> List[int]:
        """Every process serving: the front process and its nodes."""
        return [self.pid] + (self.node_pids() if self.n_nodes else [])

    def dump_spans(self, pids: Iterable[int],
                   timeout_s: float = 30.0) -> None:
        """Ask traced processes to write their spans, and wait."""
        if self.spans_dir is None:
            return
        pending = {}
        for pid in pids:
            target = self.spans_dir / f"spans-{pid}.json"
            marker = target.stat().st_mtime_ns if target.exists() else 0
            pending[pid] = (target, marker)
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout_s
        while pending:
            for pid, (target, marker) in list(pending.items()):
                if (target.exists()
                        and target.stat().st_mtime_ns != marker):
                    del pending[pid]
            if time.monotonic() > deadline:
                raise BenchError(f"no span dump from {sorted(pending)}")
            time.sleep(0.02)

    def stop(self) -> None:
        """SIGINT, the documented way to stop ``repro serve``; fails
        the run if the server or any node it ever ran outlives it."""
        if self.proc is None:
            return
        pids = self.pids() if self.proc.poll() is None else [self.pid]
        self.dump_spans(pids)
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.destroy()
            raise BenchError("server did not stop on SIGINT")
        self._finish()
        survivors = [pid for pid in self.seen_node_pids
                     if pid_alive(pid)]
        if survivors:
            self.destroy()
            raise BenchError(f"node processes {survivors} outlived "
                             "their server")

    def kill(self) -> None:
        """SIGKILL the front process (single-process servers)."""
        assert self.proc is not None
        self.dump_spans([self.pid])
        self.proc.kill()
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._finish()

    def destroy(self) -> None:
        """Last resort: SIGKILL the whole process group and reap."""
        if self.proc is None:
            return
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        for pid in self.seen_node_pids:
            if is_node(pid):
                os.kill(pid, signal.SIGKILL)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10.0
        while (any(pid_alive(pid) for pid in self.seen_node_pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        self._finish()

    def _finish(self) -> None:
        if self._reader is not None:
            self._reader.join(timeout=10.0)
            self._reader = None
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None


class Fleet:
    """Every server a run started, so that a failing run stops them."""

    def __init__(self) -> None:
        self.servers: List[Server] = []

    def add(self, server: Server) -> Server:
        self.servers.append(server)
        return server

    def destroy_all(self) -> None:
        for server in self.servers:
            if server.proc is not None and (
                    server.proc.poll() is None
                    or any(pid_alive(p) for p in server.seen_node_pids)):
                server.destroy()


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------

class Conn:
    """One keep-alive connection; no retries, so every failure counts.

    Each call returns ``(status, body, elapsed_s)``.  A transport error
    raises :class:`BenchError`: a closed loop that loses its
    connection has lost an acknowledgement it cannot account for.
    """

    def __init__(self, port: int, timeout_s: float = 120.0) -> None:
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout_s)
        self.requests = 0
        self.response_bytes = 0
        self.round_trip_s = 0.0

    def call(self, method: str, path: str, body=None
             ) -> Tuple[int, object, float]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body, separators=(",", ":")).encode()
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        try:
            self._conn.request(method, path, body=payload,
                               headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise BenchError(f"{method} {path}: {exc!r}") from exc
        elapsed = time.perf_counter() - started
        self.requests += 1
        self.response_bytes += len(raw)
        self.round_trip_s += elapsed
        try:
            doc = json.loads(raw) if raw else None
        except ValueError:
            doc = raw.decode("utf-8", "replace")
        return response.status, doc, elapsed

    def expect(self, method: str, path: str, body=None,
               status: int = 200) -> object:
        code, doc, _ = self.call(method, path, body)
        if code != status:
            raise BenchError(f"{method} {path}: HTTP {code} "
                             f"(expected {status}): {str(doc)[:300]}")
        return doc

    def close(self) -> None:
        self._conn.close()


def metrics_doc(port: int) -> Dict:
    conn = Conn(port)
    try:
        return conn.expect("GET", "/metrics")
    finally:
        conn.close()


def metric_total(doc: Dict, name: str, field: str = "value") -> float:
    """Sum one metric over all its label sets in a ``/metrics`` JSON
    document (``field`` is ``value`` for counters, ``sum`` or
    ``count`` for histograms).  A cluster router's document carries
    every node's series under ``federated`` and its own under
    ``router``."""
    sections = (("federated", "router") if "federated" in doc
                else ("metrics",))
    total = 0.0
    for section in sections:
        entry = doc.get(section, {}).get(name)
        for series in (entry or {}).get("series", []):
            total += float(series.get(field, 0.0) or 0.0)
    return total


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

TAIL_LEVELS = (0.999, 0.998, 0.995, 0.99, 0.98, 0.95, 0.9)
#: Samples a tail must have beyond it.  Ten is the least that makes a
#: tail; twenty keeps one stolen time slice from moving it.
TAIL_BEYOND = 20


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of already sorted values."""
    if not sorted_values:
        raise BenchError("quantile of no samples")
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    frac = pos - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def tail_level(n: int) -> float:
    """The highest level with ``TAIL_BEYOND`` samples beyond it; the
    maximum when a short run has too few samples for any."""
    for level in TAIL_LEVELS:
        if n * (1 - level) >= TAIL_BEYOND:
            return level
    return 1.0


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return quantile(ordered, 0.5)

