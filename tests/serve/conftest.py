"""Shared fixtures for the serving-layer tests."""

from __future__ import annotations

import threading

import pytest

from repro.engine import AlignRequest, register_engine, unregister_engine
from repro.engine.api import AlignResult
from repro.seq.alignment import Alignment


class ServeCountingEngine:
    """Deterministic toy engine that counts executions and can block.

    Class-level state so the counter survives service/gateway restarts
    within one test (the restart-without-recompute proofs).  ``seeds``
    records each executed request's seed in dispatch order.
    """

    name = "serve-counting"
    kind = "sequential"
    calls = 0
    seeds: list = []
    lock = threading.Lock()
    started = threading.Event()
    release = threading.Event()

    def run(self, request):
        with ServeCountingEngine.lock:
            ServeCountingEngine.calls += 1
            ServeCountingEngine.seeds.append(request.seed)
        ServeCountingEngine.started.set()
        ServeCountingEngine.release.wait(timeout=10)
        aln = Alignment.from_rows(
            [s.id for s in request.sequences],
            [s.residues.ljust(40, "-")[:40] for s in request.sequences],
        )
        return AlignResult(
            alignment=aln, engine=self.name, sp=0.0, wall_time=0.0,
            request_hash=request.content_hash(),
        )


@pytest.fixture()
def counting_engine():
    ServeCountingEngine.calls = 0
    ServeCountingEngine.seeds = []
    ServeCountingEngine.started = threading.Event()
    ServeCountingEngine.release = threading.Event()
    ServeCountingEngine.release.set()  # default: do not block
    register_engine(
        "serve-counting", lambda **kw: ServeCountingEngine(), overwrite=True
    )
    yield ServeCountingEngine
    unregister_engine("serve-counting")


@pytest.fixture()
def make_request(tiny_seqs):
    """Requests over the session seqs; ``seed`` distinguishes content."""

    def make(engine="serve-counting", **kw):
        return AlignRequest(sequences=tuple(tiny_seqs), engine=engine, **kw)

    return make
