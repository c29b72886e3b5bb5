"""Span recorder wrapped around the program's public functions.

Each span is ``(id, parent, request, name, start_ns, end_ns, size)``:
the parent is the span open on the calling thread when it began (or,
on an executor thread, the span that submitted the work), and the
request is the id of the outermost span, so all spans of one request
share it.  ``size`` is the byte length of what an encoder returned.
Spans stay in memory and are written to ``spans-<pid>.json`` on
SIGUSR1 (sent before the benchmark kills or stops a process) and at
exit.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import functools
import importlib
import itertools
import json
import os
import signal
import threading
import time

_spans = []
_ids = itertools.count(1)
_local = threading.local()
_now = time.monotonic_ns

#: (module, class or None, attribute, span name)
METHODS = (
    ("repro.service.api", "ApiServer", "handle", "api.handle"),
    ("repro.cluster.router", "ClusterRouter", "handle", "router.handle"),
    ("repro.service.client", "HttpClient", "forward", "cluster.forward"),
    ("repro.platform.facade", "Platform", "request_task",
     "platform.request_task"),
    ("repro.platform.facade", "Platform", "submit_answer",
     "platform.submit_answer"),
    ("repro.platform.facade", "Platform", "results", "platform.results"),
    ("repro.platform.facade", "Platform", "checkpoint",
     "platform.checkpoint"),
    ("repro.platform.leaderboard", "Leaderboard", "top",
     "platform.leaderboard"),
    ("repro.platform.store", "_SnapshotSupport", "snapshot_job",
     "platform.snapshot"),
    ("repro.aggregation.majority", "MajorityVote", "vote",
     "aggregation.vote"),
    ("repro.durability.log", "DurabilityLog", "append",
     "durability.append"),
    ("repro.durability.log", "DurabilityLog", "append_batch",
     "durability.append"),
    ("repro.durability.log", "DurabilityLog", "checkpoint",
     "durability.checkpoint"),
    ("repro.durability.log", "DurabilityLog", "load_checkpoint",
     "durability.load_checkpoint"),
    ("repro.obs.live", "LiveAnalytics", "observe_request", "obs.live"),
)


def _stack():
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


def traced(name, fn, size=None):
    """``fn`` wrapped in a span called ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        span_id = next(_ids)
        parent, request = stack[-1] if stack else (0, span_id)
        stack.append((span_id, request))
        start = _now()
        measured = 0
        try:
            result = fn(*args, **kwargs)
            if size is not None:
                measured = size(result)
            return result
        finally:
            end = _now()
            stack.pop()
            _spans.append((span_id, parent, request, name, start, end,
                           measured))

    return wrapper


def _carry_context(submit):
    """Executor work inherits the submitting thread's open span."""

    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        stack = _stack()
        if not stack:
            return submit(self, fn, *args, **kwargs)
        context = stack[-1]

        def run(*a, **k):
            inner = _stack()
            inner.append(context)
            try:
                return fn(*a, **k)
            finally:
                inner.pop()

        return submit(self, run, *args, **kwargs)

    return wrapper


def dump(directory):
    spans = list(_spans)
    target = os.path.join(directory, f"spans-{os.getpid()}.json")
    staging = target + ".tmp"
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(spans, handle, separators=(",", ":"))
    os.replace(staging, target)


def install(directory):
    for module_name, owner, attr, name in METHODS:
        cls = getattr(importlib.import_module(module_name), owner)
        setattr(cls, attr, traced(name, getattr(cls, attr)))
    facade = importlib.import_module("repro.platform.facade")
    recover = facade.Platform.__dict__["recover"].__func__
    facade.Platform.recover = classmethod(
        traced("durability.recover", recover))
    wal = importlib.import_module("repro.durability.wal")
    log = importlib.import_module("repro.durability.log")
    for attr in ("encode_record", "encode_frame"):
        wrapped = traced("durability.encode", getattr(wal, attr), len)
        setattr(wal, attr, wrapped)
        setattr(log, attr, wrapped)
    os.fsync = traced("durability.fsync", os.fsync)
    executor = concurrent.futures.ThreadPoolExecutor
    executor.submit = _carry_context(executor.submit)
    signal.signal(signal.SIGUSR1, lambda *_: dump(directory))
    atexit.register(dump, directory)
