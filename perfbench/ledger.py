"""The benchmark's own record of what the server acknowledged, and the
checks that hold the server's outputs to it.

Every expected value is computed here from the recorded answers, never
through ``repro.aggregation``, so a fault in the program's aggregation
cannot hide behind itself.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from typing import Dict, List, Tuple

from harness import BenchError, Conn

POINTS_PER_ANSWER = 10
PAGE = 500

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "ch", "sh")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ee")


def vocabulary(seed: int, size: int = 4096) -> List[str]:
    """``size`` distinct pronounceable labels, shuffled by ``seed``.

    Big enough that a player's answer stream stays diverse: the spam
    detector flags answer streams whose distinct/total ratio falls
    below 0.16, and no player here answers more than a few hundred
    tasks.
    """
    words = [a + b + c + d for a in _ONSETS for b in _NUCLEI
             for c in _ONSETS for d in _NUCLEI]
    rng = random.Random(seed)
    rng.shuffle(words)
    return words[:size]


class Answerer:
    """Seeded answers: the task's truth label with probability
    ``accuracy``, else another word from the vocabulary."""

    def __init__(self, seed: int, vocab: List[str],
                 accuracy: float = 0.75) -> None:
        self.rng = random.Random(seed)
        self.vocab = vocab
        self.accuracy = accuracy

    def answer(self, truth: str) -> str:
        if self.rng.random() < self.accuracy:
            return truth
        while True:
            word = self.rng.choice(self.vocab)
            if word != truth:
                return word


class Ledger:
    """Acknowledged answers per task, per job and per worker."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: job_id -> redundancy
        self.jobs: Dict[str, int] = {}
        #: task_id -> job_id
        self.task_job: Dict[str, str] = {}
        #: task_id -> [(worker_id, answer)]
        self.answers: Dict[str, List[Tuple[str, str]]] = {}
        self.per_worker: Counter = Counter()

    def add_job(self, job_id: str, redundancy: int,
                task_ids: List[str]) -> None:
        with self._lock:
            self.jobs[job_id] = redundancy
            for task_id in task_ids:
                self.task_job[task_id] = job_id
                self.answers[task_id] = []

    def record(self, task_id: str, worker_id: str, answer: str) -> None:
        with self._lock:
            self.answers[task_id].append((worker_id, answer))
            self.per_worker[worker_id] += 1

    def verified(self, job_id: str) -> int:
        need = self.jobs[job_id]
        return sum(1 for task_id, job in self.task_job.items()
                   if job == job_id and len(self.answers[task_id]) >= need)

    def total_verified(self) -> int:
        return sum(self.verified(job_id) for job_id in self.jobs)

    def tasks_of(self, job_id: str) -> List[str]:
        return sorted(task_id for task_id, job in self.task_job.items()
                      if job == job_id)

    def allowed_results(self, task_id: str) -> set:
        """The strict majority, or every answer tied for the lead."""
        counts = Counter(answer for _, answer in self.answers[task_id])
        top = max(counts.values())
        return {answer for answer, n in counts.items() if n == top}

    # ------------------------------------------------------------------
    # Checks against a live server
    # ------------------------------------------------------------------

    def check_job(self, conn: Conn, job_id: str) -> None:
        """Answers, results and the completed count of one job."""
        got: Dict[str, List[Tuple[str, str]]] = {}
        offset = 0
        while True:
            page = conn.expect(
                "GET", f"/jobs/{job_id}/tasks?offset={offset}"
                       f"&limit={PAGE}")
            for task in page["tasks"]:
                got[task["task_id"]] = [(a["worker_id"], a["answer"])
                                        for a in task["answers"]]
            offset += PAGE
            if offset >= page["total"]:
                break
        expected_ids = self.tasks_of(job_id)
        if sorted(got) != expected_ids:
            raise BenchError(f"{job_id}: server lists {len(got)} tasks, "
                             f"ledger has {len(expected_ids)}")
        for task_id in expected_ids:
            if sorted(got[task_id]) != sorted(self.answers[task_id]):
                raise BenchError(
                    f"{task_id}: server answers {sorted(got[task_id])} "
                    f"!= acknowledged {sorted(self.answers[task_id])}")
        self.check_results(job_id, conn.expect(
            "GET", f"/jobs/{job_id}/results")["results"])
        doc = conn.expect("GET", f"/jobs/{job_id}")
        completed = doc["progress"]["completed"]
        if completed != self.verified(job_id):
            raise BenchError(f"{job_id}: {completed} tasks completed, "
                             f"ledger has {self.verified(job_id)}")

    def check_results(self, job_id: str, results: Dict) -> None:
        answered = [task_id for task_id in self.tasks_of(job_id)
                    if self.answers[task_id]]
        if sorted(results) != answered:
            raise BenchError(f"{job_id}: results for {len(results)} "
                             f"tasks, {len(answered)} answered")
        for task_id in answered:
            if results[task_id]["answer"] not in \
                    self.allowed_results(task_id):
                raise BenchError(
                    f"{task_id}: result {results[task_id]['answer']!r} "
                    f"is not a plurality of {self.answers[task_id]}")

    def check_workers(self, conn: Conn, stats: bool = True) -> None:
        """Points on the leaderboard (and, with ``stats``, each
        worker's own stats) equal 10 x acknowledged answers; nobody
        is flagged as a spammer."""
        board = conn.expect(
            "GET", f"/leaderboard?k={len(self.per_worker) + 10}")
        points = {row["account_id"]: row["points"]
                  for row in board["leaderboard"]}
        expected = {worker: POINTS_PER_ANSWER * n
                    for worker, n in self.per_worker.items()}
        if points != expected:
            wrong = sorted(set(points.items()) ^ set(expected.items()))
            raise BenchError(f"leaderboard differs from the ledger: "
                             f"{wrong[:6]}")
        if stats:
            for worker, want in sorted(expected.items()):
                doc = conn.expect("GET", f"/workers/{worker}")
                if doc["points"] != want:
                    raise BenchError(f"{worker}: {doc['points']} points,"
                                     f" ledger says {want}")
        flagged = conn.expect("GET", "/workers/flagged")["flagged"]
        if flagged:
            raise BenchError(f"honest workers flagged: {flagged}")

    def check_all(self, conn: Conn, stats: bool = True) -> None:
        for job_id in sorted(self.jobs):
            self.check_job(conn, job_id)
        self.check_workers(conn, stats=stats)
