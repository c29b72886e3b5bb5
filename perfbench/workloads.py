"""The three closed-loop workloads.

Each workload does a fixed amount of work, proportional to
``--seconds`` and independent of how fast the server is: the WAL
checkpoint cost grows with state, so a time-boxed run would hand a
faster commit path more state and slower checkpoints.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import (BenchError, Conn, Fleet, Server, cpu_seconds,
                     StealTimeline, metrics_doc, own_cpu_seconds,
                     peak_rss_mb, pid_alive, write_bytes)
from ledger import Answerer, Ledger, vocabulary

#: Boots per run; setup_s is their median.  The last one serves the
#: workload.
BOOTS = 3
#: SIGKILL-and-recover cycles per run; recovery_s is their median.
RECOVERIES = 3


@dataclass
class Phase:
    """What the measured phase saw, from the client side."""

    #: (end, elapsed) of every turn and read, both perf_counter
    #: seconds.
    turns: List[Tuple[float, float]] = field(default_factory=list)
    reads: List[Tuple[float, float]] = field(default_factory=list)
    ok_requests: int = 0
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    started_ns: int = 0
    ended_ns: int = 0
    started: float = 0.0
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    steal_share: float = 0.0
    answers: int = 0
    write_bytes: int = 0
    metrics_before: Dict = field(default_factory=dict)
    metrics_after: Dict = field(default_factory=dict)
    client_rtt_s: float = 0.0
    client_requests: int = 0
    client_bytes: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, kind: str, elapsed: float, requests: int) -> None:
        sample = (time.perf_counter(), elapsed)
        with self.lock:
            (self.turns if kind == "turn" else self.reads).append(sample)
            self.ok_requests += requests


@dataclass
class Outcome:
    """A run's figures.  Set-up and recovery times already have the
    stolen share of their own stretch of time taken out (see
    :class:`~harness.StealTimeline`); the phase's samples are raw."""

    phase: Phase
    setups: List[float]
    recoveries: List[float]
    rss_mb: float
    #: (start_ns, end_ns) of each recovery, to pick its spans.
    recovery_windows: List[Tuple[int, int]]


class Context:
    """Per-run settings and the run's fleet of servers."""

    def __init__(self, seed: int, seconds: int, run_dir: Path,
                 spans_dir: Optional[Path]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.spans_dir = spans_dir
        self.fleet = Fleet()
        self.steal = StealTimeline()
        self.vocab = vocabulary(seed)
        self._boots = 0

    def server(self, args: List[str], n_nodes: int = 0,
               node_root: Optional[Path] = None) -> Server:
        self._boots += 1
        return self.fleet.add(Server(
            args, self.run_dir / f"server-{self._boots}.log",
            spans_dir=self.spans_dir, node_root=node_root,
            n_nodes=n_nodes))

    def unstolen(self, started: float) -> float:
        """Seconds since ``started`` (a perf_counter reading), less
        the share the hypervisor stole meanwhile."""
        self.steal.sample()
        now = time.perf_counter()
        return (now - started) * self.steal.kept(started, now)

    def data_dir(self, name: str) -> Path:
        path = self.run_dir / name
        path.mkdir()
        return path


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------

def create_job(conn: Conn, ledger: Ledger, name: str, redundancy: int,
               truths: Dict[str, str], labels: List[str],
               chunk: int = 500) -> str:
    """Create, fill and start one job; its tasks' truth labels go to
    ``truths`` (the server only ever sees an opaque item id)."""
    job_id = conn.expect("POST", "/jobs", {"name": name,
                                           "redundancy": redundancy},
                         status=201)["job_id"]
    task_ids: List[str] = []
    for start in range(0, len(labels), chunk):
        part = labels[start:start + chunk]
        created = conn.expect(
            "POST", f"/jobs/{job_id}/tasks",
            {"tasks": [{"payload": {"item": f"{name}/{start + i}"}}
                       for i in range(len(part))]},
            status=201)["tasks"]
        for task, label in zip(created, part):
            truths[task["task_id"]] = label
            task_ids.append(task["task_id"])
    conn.expect("POST", f"/jobs/{job_id}/start")
    ledger.add_job(job_id, redundancy, task_ids)
    return job_id


def probe_turn(conn: Conn, ledger: Optional[Ledger]) -> None:
    """A one-task job played once: the first servable turn."""
    job_id = conn.expect("POST", "/jobs", {"name": "probe",
                                           "redundancy": 1},
                         status=201)["job_id"]
    task = conn.expect("POST", f"/jobs/{job_id}/tasks",
                       {"tasks": [{"payload": {"item": "probe"}}]},
                       status=201)["tasks"][0]
    conn.expect("POST", f"/jobs/{job_id}/start")
    conn.expect("GET", f"/jobs/{job_id}/next?worker=probe-0")
    conn.expect("POST", f"/tasks/{task['task_id']}/answers",
                {"worker_id": "probe-0", "answer": "probe"}, status=201)
    if ledger is not None:
        ledger.add_job(job_id, 1, [task["task_id"]])
        ledger.record(task["task_id"], "probe-0", "probe")


def boot(ctx: Context, make: Callable[[], Server],
         ledger: Ledger) -> Tuple[Server, List[float]]:
    """Boot ``BOOTS`` fresh servers, each timed from launch to its
    first servable turn; all but the last are stopped again."""
    setups = []
    for index in range(BOOTS):
        server = make().launch()
        conn = Conn(server.port)
        probe_turn(conn, ledger if index == BOOTS - 1 else None)
        setups.append(ctx.unstolen(server.launched_at))
        conn.close()
        if index < BOOTS - 1:
            server.stop()
    return server, setups


def run_threads(targets: List[Callable[[], None]]) -> None:
    """Run the closed-loop clients; re-raise the first failure."""
    errors: List[BaseException] = []

    def wrap(target):
        try:
            target()
        except BaseException as exc:  # re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(t,), daemon=True)
               for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def measure(phase: Phase, steal: StealTimeline, pids: List[int],
            port: int, body: Callable[[], None],
            conns: List[Conn]) -> None:
    """Run ``body`` as the measured phase, reading server CPU, disk
    writes and ``/metrics`` on both sides of it."""
    phase.metrics_before = metrics_doc(port)
    cpu0 = sum(cpu_seconds(pid) for pid in pids)
    io0 = sum(write_bytes(pid) for pid in pids)
    client0 = own_cpu_seconds()
    phase.started_ns = time.monotonic_ns()
    phase.started = time.perf_counter()
    body()
    phase.wall_s = time.perf_counter() - phase.started
    phase.ended_ns = time.monotonic_ns()
    phase.client_cpu_s = own_cpu_seconds() - client0
    steal.sample()
    phase.steal_share = steal.share(phase.started,
                                    phase.started + phase.wall_s)
    phase.server_cpu_s = sum(cpu_seconds(pid) for pid in pids) - cpu0
    phase.write_bytes = sum(write_bytes(pid) for pid in pids) - io0
    phase.metrics_after = metrics_doc(port)
    for conn in conns:
        phase.client_rtt_s += conn.round_trip_s
        phase.client_requests += conn.requests
        phase.client_bytes += conn.response_bytes


def play_turn(conn: Conn, job_id: str, worker: str, answerer: Answerer,
              truths: Dict[str, str], ledger: Ledger,
              phase: Phase) -> bool:
    """One player turn: fetch a task, answer it.  False when the job
    has nothing left for this worker (the normal drained 404)."""
    status, doc, fetch_s = conn.call(
        "GET", f"/jobs/{job_id}/next?worker={worker}")
    if status == 404:
        with phase.lock:
            phase.ok_requests += 1
        return False
    if status != 200:
        raise BenchError(f"next task for {worker}: HTTP {status} {doc}")
    task_id = doc["task_id"]
    answer = answerer.answer(truths[task_id])
    status, doc, answer_s = conn.call(
        "POST", f"/tasks/{task_id}/answers",
        {"worker_id": worker, "answer": answer,
         "idempotency_key": f"{task_id}/{worker}"})
    if status != 201:
        raise BenchError(f"answer {task_id} by {worker}: HTTP {status} "
                         f"{doc}")
    ledger.record(task_id, worker, answer)
    phase.add("turn", fetch_s + answer_s, 2)
    return True


# ----------------------------------------------------------------------
# durable-play
# ----------------------------------------------------------------------

DURABLE_JOBS = 3
DURABLE_TASKS_PER_SECOND = 100   # x3 turns each
DURABLE_WORKERS_PER_CONN = 12
DURABLE_POLL_EVERY = 7           # turns between requester polls


def durable_play(ctx: Context) -> Outcome:
    rng = random.Random(ctx.seed)
    ledger = Ledger()
    truths: Dict[str, str] = {}
    dirs: List[Path] = []

    def make() -> Server:
        dirs.append(ctx.data_dir(f"data-{len(dirs)}"))
        return ctx.server(["--data-dir", str(dirs[-1])])

    server, setups = boot(ctx, make, ledger)
    conn = Conn(server.port)
    tasks = DURABLE_TASKS_PER_SECOND * ctx.seconds
    per_job = [tasks // DURABLE_JOBS + (i < tasks % DURABLE_JOBS)
               for i in range(DURABLE_JOBS)]
    jobs = [create_job(conn, ledger, f"esp-{i}", 3, truths,
                       [rng.choice(ctx.vocab) for _ in range(n)])
            for i, n in enumerate(per_job)]
    conn.close()

    phase = Phase()
    conns = [Conn(server.port) for _ in range(2)]
    turn_counter = [0]
    turn_lock = threading.Lock()

    def player(index: int) -> Callable[[], None]:
        conn = conns[index]
        answerer = Answerer(ctx.seed * 1000 + index, ctx.vocab)
        workers = [f"p{index}-{k:02d}"
                   for k in range(DURABLE_WORKERS_PER_CONN)]

        def loop() -> None:
            for job_id in jobs:
                active = list(workers)
                cursor = 0
                while active:
                    cursor %= len(active)
                    worker = active[cursor]
                    if not play_turn(conn, job_id, worker, answerer,
                                     truths, ledger, phase):
                        active.pop(cursor)
                        continue
                    cursor += 1
                    with turn_lock:
                        turn_counter[0] += 1
                        poll = turn_counter[0] % DURABLE_POLL_EVERY == 0
                    if poll:
                        status, doc, elapsed = conn.call(
                            "GET", f"/jobs/{job_id}")
                        if status != 200:
                            raise BenchError(f"poll {job_id}: {status}")
                        phase.add("read", elapsed, 1)
        return loop

    pids = server.pids()
    measure(phase, ctx.steal, pids, server.port,
            lambda: run_threads([player(0), player(1)]), conns)
    for c in conns:
        c.close()
    phase.answers = len(phase.turns)
    phase.verified = ledger.total_verified() - 1   # minus the probe
    phase.attempted = len(phase.turns) + len(phase.reads)
    rss = sum(peak_rss_mb(pid) for pid in pids)
    check = Conn(server.port)
    ledger.check_all(check)
    check.close()

    recoveries, windows = [], []
    args = server.args
    for _ in range(RECOVERIES):
        server.kill()
        server = ctx.server(args)
        started_ns = time.monotonic_ns()
        server.launch()
        conn = Conn(server.port)
        for job_id in jobs:
            doc = conn.expect("GET", f"/jobs/{job_id}")
            if doc["progress"]["completed"] != ledger.verified(job_id):
                raise BenchError(f"{job_id} lost completed tasks in "
                                 "recovery")
        recoveries.append(ctx.unstolen(server.launched_at))
        windows.append((started_ns, time.monotonic_ns()))
        ledger.check_all(conn)
        conn.close()
    server.stop()
    return Outcome(phase, setups, recoveries, rss, windows)


# ----------------------------------------------------------------------
# requester-reads
# ----------------------------------------------------------------------

READ_JOBS = 20
READ_TASKS_PER_JOB = 500
READ_WORKERS = 60
READ_ROUNDS_PER_SECOND = 4      # per connection
LIVE_WORKERS_PER_CONN = 10
#: One round per connection: 17 reads, one malformed read and two
#: player turns.  Each round runs them in a fresh seeded order, so the
#: two connections do not fall into step and always pair a turn with
#: the same kind of read.
READ_ROUND = ("results", "job", "tasks", "worker", "turn",
              "leaderboard", "results", "low_confidence", "tasks",
              "job", "results", "worker", "malformed", "tasks",
              "turn", "job", "low_confidence", "results",
              "leaderboard", "worker")
MALFORMED_PATH = "/leaderboard?k=abc"
#: Re-feeding the whole history costs seconds, and as the sum of
#: ~70 batch requests it varies little: one recovery per run.
READ_RECOVERIES = 1


def _history_answers(ledger: Ledger, truths: Dict[str, str],
                     job_ids: List[str], workers: List[str],
                     answerer: Answerer, rng: random.Random) -> List:
    items = []
    for job_id in job_ids:
        for task_id in ledger.tasks_of(job_id):
            for worker in rng.sample(workers, 3):
                items.append({"task_id": task_id, "worker_id": worker,
                              "answer": answerer.answer(truths[task_id]),
                              "idempotency_key": f"{task_id}/{worker}"})
    return items


def submit_batches(conn: Conn, items: List[Dict], ledger: Optional[Ledger],
                   size: int = 500) -> None:
    for start in range(0, len(items), size):
        part = items[start:start + size]
        doc = conn.expect("POST", "/answers:batch", {"answers": part})
        if doc["accepted"] != len(part):
            bad = [r for r in doc["results"] if r.get("status") != 201]
            raise BenchError(f"batch rejected items: {bad[:3]}")
        if ledger is not None:
            for item in part:
                ledger.record(item["task_id"], item["worker_id"],
                              item["answer"])


def requester_reads(ctx: Context) -> Outcome:
    rng = random.Random(ctx.seed)
    ledger = Ledger()
    truths: Dict[str, str] = {}
    server, setups = boot(ctx, lambda: ctx.server([]), ledger)
    conn = Conn(server.port)
    labels = {index: [rng.choice(ctx.vocab)
                      for _ in range(READ_TASKS_PER_JOB)]
              for index in range(READ_JOBS)}
    history = [create_job(conn, ledger, f"history-{i}", 3, truths,
                          labels[i]) for i in range(READ_JOBS)]
    workers = [f"r-{k:02d}" for k in range(READ_WORKERS)]
    items = _history_answers(ledger, truths, history, workers,
                             Answerer(ctx.seed + 7, ctx.vocab), rng)
    submit_batches(conn, items, ledger)
    rounds = READ_ROUNDS_PER_SECOND * ctx.seconds
    turns_per_conn = rounds * READ_ROUND.count("turn")
    live_tasks = (2 * turns_per_conn * 2) // 5
    live = create_job(conn, ledger, "live", 3, truths,
                      [rng.choice(ctx.vocab) for _ in range(live_tasks)])
    conn.close()
    # Everything a read of the answered history must show.
    allowed = {task_id: ledger.allowed_results(task_id)
               for job_id in history for task_id in ledger.tasks_of(job_id)}
    low_confidence = {
        job_id: sorted(task_id for task_id in ledger.tasks_of(job_id)
                       if len({a for _, a in ledger.answers[task_id]}) > 1)
        for job_id in history}
    history_points = {w: 10 * ledger.per_worker[w] for w in workers}

    phase = Phase()
    conns = [Conn(server.port) for _ in range(2)]

    def requester(index: int) -> Callable[[], None]:
        conn = conns[index]
        pick = random.Random(ctx.seed * 1000 + index)
        answerer = Answerer(ctx.seed * 1000 + 500 + index, ctx.vocab)
        live_workers = [f"l{index}-{k:02d}"
                        for k in range(LIVE_WORKERS_PER_CONN)]

        def read(path: str) -> object:
            status, doc, elapsed = conn.call("GET", path)
            if status != 200:
                raise BenchError(f"GET {path}: HTTP {status} {doc}")
            phase.add("read", elapsed, 1)
            return doc

        def loop() -> None:
            turn = 0
            for _ in range(rounds):
                ops = list(READ_ROUND)
                pick.shuffle(ops)
                for op in ops:
                    job_id = pick.choice(history)
                    if op == "results":
                        got = read(f"/jobs/{job_id}/results")["results"]
                        if len(got) != READ_TASKS_PER_JOB or any(
                                row["answer"] not in allowed[task_id]
                                for task_id, row in got.items()):
                            raise BenchError(f"{job_id}: wrong results")
                    elif op == "job":
                        got = read(f"/jobs/{job_id}")
                        if (got["progress"]["completed"]
                                != READ_TASKS_PER_JOB):
                            raise BenchError(f"{job_id}: wrong progress")
                    elif op == "tasks":
                        offset = 100 * pick.randrange(5)
                        got = read(f"/jobs/{job_id}/tasks?offset="
                                   f"{offset}&limit=100")["tasks"]
                        for task in got:
                            pairs = sorted((a["worker_id"], a["answer"])
                                           for a in task["answers"])
                            if pairs != sorted(
                                    ledger.answers[task["task_id"]]):
                                raise BenchError(
                                    f"{task['task_id']}: wrong answers")
                    elif op == "low_confidence":
                        got = read(f"/jobs/{job_id}/low_confidence")
                        if got["tasks"] != low_confidence[job_id]:
                            raise BenchError(
                                f"{job_id}: wrong low-confidence set")
                    elif op == "leaderboard":
                        got = read("/leaderboard?k=10")["leaderboard"]
                        if len(got) != 10:
                            raise BenchError("short leaderboard")
                    elif op == "worker":
                        worker = pick.choice(workers)
                        got = read(f"/workers/{worker}")
                        if got["points"] != history_points[worker]:
                            raise BenchError(f"{worker}: wrong points")
                    elif op == "malformed":
                        status, doc, _ = conn.call("GET", MALFORMED_PATH)
                        if status == 500:
                            with phase.lock:
                                phase.failed += 1
                        elif not 400 <= status < 500:
                            raise BenchError(f"GET {MALFORMED_PATH}: "
                                             f"HTTP {status} {doc}")
                        else:
                            with phase.lock:
                                phase.ok_requests += 1
                    else:
                        worker = live_workers[turn % len(live_workers)]
                        turn += 1
                        if not play_turn(conn, live, worker, answerer,
                                         truths, ledger, phase):
                            raise BenchError(f"{live} drained early")
        return loop

    pids = server.pids()
    measure(phase, ctx.steal, pids, server.port,
            lambda: run_threads([requester(0), requester(1)]), conns)
    for c in conns:
        c.close()
    phase.answers = len(phase.turns)
    phase.verified = ledger.verified(live)
    phase.attempted = 2 * rounds * len(READ_ROUND)
    rss = sum(peak_rss_mb(pid) for pid in pids)
    check = Conn(server.port)
    ledger.check_all(check)
    check.close()

    # An in-memory server keeps nothing across a crash: recovering it
    # means booting again and feeding it the same history from the
    # requester's own record, in the order it was first created.
    recoveries, windows = [], []
    for _ in range(READ_RECOVERIES):
        server.kill()
        server = ctx.server([])
        started_ns = time.monotonic_ns()
        server.launch()
        conn = Conn(server.port)
        _refeed(conn, ledger)
        got = conn.expect("GET", f"/jobs/{live}/results")["results"]
        ledger.check_results(live, got)
        recoveries.append(ctx.unstolen(server.launched_at))
        windows.append((started_ns, time.monotonic_ns()))
        ledger.check_all(conn)
        conn.close()
    server.stop()
    return Outcome(phase, setups, recoveries, rss, windows)


def _refeed(conn: Conn, ledger: Ledger) -> None:
    """Recreate every job and answer of ``ledger`` on an empty server,
    checking that ids come back the same."""
    for job_id in sorted(ledger.jobs):
        task_ids = ledger.tasks_of(job_id)
        got = conn.expect("POST", "/jobs",
                          {"name": "refeed",
                           "redundancy": ledger.jobs[job_id]},
                          status=201)["job_id"]
        created = []
        for start in range(0, len(task_ids), 500):
            created += conn.expect(
                "POST", f"/jobs/{got}/tasks",
                {"tasks": [{"payload": {"item": task_id}}
                           for task_id in task_ids[start:start + 500]]},
                status=201)["tasks"]
        if got != job_id or [t["task_id"] for t in created] != task_ids:
            raise BenchError(f"refeed minted other ids for {job_id}")
        conn.expect("POST", f"/jobs/{job_id}/start")
    items = [{"task_id": task_id, "worker_id": worker, "answer": answer,
              "idempotency_key": f"{task_id}/{worker}"}
             for task_id in sorted(ledger.answers)
             for worker, answer in ledger.answers[task_id]]
    submit_batches(conn, items, None)


# ----------------------------------------------------------------------
# cluster-batch
# ----------------------------------------------------------------------

CLUSTER_NODES = 2
CLUSTER_JOBS = 4                 # two per node
CLUSTER_TASKS_PER_SECOND = 100
CLUSTER_BATCH_WORKERS = 8        # per job per round
CLUSTER_READS_PER_SECOND = 80


def cluster_batch(ctx: Context) -> Outcome:
    rng = random.Random(ctx.seed)
    ledger = Ledger()
    truths: Dict[str, str] = {}
    roots: List[Path] = []

    def make() -> Server:
        roots.append(ctx.data_dir(f"cluster-{len(roots)}"))
        return ctx.server(["--cluster", str(CLUSTER_NODES),
                           "--data-dir", str(roots[-1])],
                          n_nodes=CLUSTER_NODES, node_root=roots[-1])

    server, setups = boot(ctx, make, ledger)
    conn = Conn(server.port)
    tasks = CLUSTER_TASKS_PER_SECOND * ctx.seconds
    # The router places jobs round-robin, so consecutive jobs land on
    # different nodes and each pair below spans both.
    jobs = [create_job(conn, ledger, f"batch-{i}", 3, truths,
                       [rng.choice(ctx.vocab)
                        for _ in range(tasks // CLUSTER_JOBS)])
            for i in range(CLUSTER_JOBS)]
    all_jobs = sorted(ledger.jobs)
    conn.close()

    phase = Phase()
    conns = [Conn(server.port) for _ in range(2)]
    reads = CLUSTER_READS_PER_SECOND * ctx.seconds

    def player() -> None:
        conn = conns[0]
        answerer = Answerer(ctx.seed * 1000, ctx.vocab)
        workers = [f"b-{k:02d}" for k in range(2 * CLUSTER_BATCH_WORKERS)]
        for pair in (jobs[0:2], jobs[2:4]):
            while True:
                elapsed = 0.0
                items = []
                for side, job_id in enumerate(pair):
                    mine = workers[side::2]
                    status, doc, took = conn.call(
                        "POST", "/tasks:batch-assign",
                        {"job_id": job_id, "workers": mine})
                    if status != 200:
                        raise BenchError(f"batch-assign {job_id}: "
                                         f"HTTP {status} {doc}")
                    elapsed += took
                    for row in doc["assignments"]:
                        if row["task"] is None:
                            continue
                        task_id = row["task"]["task_id"]
                        items.append({
                            "task_id": task_id,
                            "worker_id": row["worker_id"],
                            "answer": answerer.answer(truths[task_id]),
                            "idempotency_key":
                                f"{task_id}/{row['worker_id']}"})
                if not items:
                    with phase.lock:
                        phase.ok_requests += len(pair)
                    break
                status, doc, took = conn.call(
                    "POST", "/answers:batch", {"answers": items})
                if status != 200 or doc["accepted"] != len(items):
                    raise BenchError(f"answers:batch: HTTP {status} "
                                     f"{str(doc)[:300]}")
                for item in items:
                    ledger.record(item["task_id"], item["worker_id"],
                                  item["answer"])
                phase.add("turn", elapsed + took, len(pair) + 1)
                with phase.lock:
                    phase.answers += len(items)

    def requester() -> None:
        conn = conns[1]
        for index in range(reads):
            if index % 2 == 0:
                status, doc, took = conn.call("GET", "/jobs")
                if status != 200 or sorted(
                        job["job_id"] for job in doc["jobs"]) != all_jobs:
                    raise BenchError(f"GET /jobs: HTTP {status} "
                                     f"{str(doc)[:300]}")
            else:
                status, doc, took = conn.call("GET", "/leaderboard?k=10")
                if status != 200:
                    raise BenchError(f"GET /leaderboard: HTTP {status}")
            phase.add("read", took, 1)

    pids = server.pids()
    measure(phase, ctx.steal, pids, server.port,
            lambda: run_threads([player, requester]), conns)
    for c in conns:
        c.close()
    phase.verified = ledger.total_verified() - 1   # minus the probe
    phase.attempted = len(phase.turns) + len(phase.reads)
    rss = sum(peak_rss_mb(pid) for pid in pids)
    check = Conn(server.port)
    # Points are checked on the merged leaderboard only: the router's
    # GET /workers/{id} answers 409 for a worker who has played on one
    # node alone, because the other node has no account for them.
    ledger.check_all(check, stats=False)

    recoveries, windows = [], []
    for _ in range(RECOVERIES):
        old = server.node_pids()
        server.dump_spans(old)
        started_ns = time.monotonic_ns()
        started = time.perf_counter()
        for pid in old:
            os.kill(pid, signal.SIGKILL)
        while True:
            status, doc, _ = check.call("GET", "/jobs")
            if status == 200 and _statuses(doc) == _statuses_of(
                    ledger, all_jobs):
                break
            if status not in (200, 503):
                raise BenchError(f"GET /jobs after node kill: HTTP "
                                 f"{status}")
            if time.perf_counter() - started > 60:
                raise BenchError("cluster did not recover in 60 s")
            time.sleep(0.01)
        recoveries.append(ctx.unstolen(started))
        windows.append((started_ns, time.monotonic_ns()))
        if any(pid_alive(pid) for pid in old):
            raise BenchError("a killed node still runs beside its "
                             "replacement")
        _wait_nodes_ready(server, old)
        ledger.check_all(check, stats=False)
    check.close()
    server.stop()
    return Outcome(phase, setups, recoveries, rss, windows)


def _statuses(doc: Dict) -> Dict[str, str]:
    return {job["job_id"]: job["status"] for job in doc["jobs"]}


def _statuses_of(ledger: Ledger, job_ids: List[str]) -> Dict[str, str]:
    return {job_id: "completed" if ledger.verified(job_id) == len(
        ledger.tasks_of(job_id)) else "running" for job_id in job_ids}


def _wait_nodes_ready(server: Server, old: List[int]) -> None:
    """Wait until every node has published a new ready file."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            pids = server.node_pids()
        except (OSError, ValueError):
            pids = old
        if not set(pids) & set(old):
            return
        time.sleep(0.02)
    raise BenchError("nodes did not come back after the kill")
