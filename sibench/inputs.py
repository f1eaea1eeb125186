"""The benchmark's inputs: workload shapes and their seeded generation.

Every input comes from ``--seed`` through the program's deterministic
MVCC simulator (``repro.workloads.generator`` + ``repro.storage``): the
same seed gives byte-identical histories and event streams.  Input ``i``
of a run with seed ``s`` is generated from the sub-seed ``s * 1000 + i``
(the workload from it, the store from +1, the interleaving from +2), and
the fault oracle from ``s * 1000 + 999``.

A run checks several independent inputs and reports medians over them,
because one history's checking cost varies with its seed (see
``README.md``).
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.storage.client import stream_workload
from repro.storage.database import MVCCDatabase
from repro.storage.faults import FaultConfig
from repro.workloads.generator import (
    WorkloadParams,
    generate_history,
    generate_workload,
)

#: Sub-seed of the fault-injected oracle input (inputs use 0..inputs-1).
ORACLE_INDEX = 999


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass(frozen=True)
class BatchShape:
    """A batch workload: ``inputs`` SI-store histories of ``params``
    (with spontaneous aborts at ``abort_prob``), plus one small history
    of ``oracle`` run on a store with ``oracle_faults``, which must come
    back violated."""

    params: WorkloadParams
    abort_prob: float
    inputs: int
    oracle: WorkloadParams
    oracle_faults: FaultConfig


@dataclass(frozen=True)
class StreamShape:
    """The service workload: ``inputs`` event streams of ``params``, each
    pushed through one windowed tenant of a daemon run with these
    settings, then recovered ``restarts`` times after a SIGKILL."""

    params: WorkloadParams
    inputs: int
    restarts: int
    queue_depth: int
    max_live_total: int
    solve_every: int
    checkpoint_every: int


def _params(sessions, txns, ops, reads, keys, dist) -> WorkloadParams:
    return WorkloadParams(sessions=sessions, txns_per_session=txns,
                          ops_per_txn=ops, read_proportion=reads,
                          keys=keys, distribution=dist)


# Oracle faults.  Lost updates need a read and a write of one key in the
# same transaction, so the write-heavy oracle uses few keys; the
# read-heavy oracle gets stale snapshots (causality violations).
_LOST_UPDATE = FaultConfig(no_first_committer_wins=True)
_STALE_SNAPSHOT = FaultConfig(stale_snapshot_prob=0.5, stale_snapshot_depth=5)

SHAPES: Dict[str, Dict[str, object]] = {
    "batch-wh": {
        "full": BatchShape(_params(20, 100, 4, 0.2, 10_000, "uniform"),
                           abort_prob=0.02, inputs=10,
                           oracle=_params(6, 20, 4, 0.2, 4, "uniform"),
                           oracle_faults=_LOST_UPDATE),
        "tiny": BatchShape(_params(4, 25, 4, 0.2, 400, "uniform"),
                           abort_prob=0.02, inputs=1,
                           oracle=_params(6, 20, 4, 0.2, 4, "uniform"),
                           oracle_faults=_LOST_UPDATE),
    },
    "batch-rh": {
        "full": BatchShape(_params(20, 200, 8, 0.9, 8_000, "zipfian"),
                           abort_prob=0.0, inputs=6,
                           oracle=_params(6, 20, 8, 0.9, 8, "zipfian"),
                           oracle_faults=_STALE_SNAPSHOT),
        "tiny": BatchShape(_params(4, 25, 8, 0.9, 320, "zipfian"),
                           abort_prob=0.0, inputs=1,
                           oracle=_params(6, 20, 8, 0.9, 8, "zipfian"),
                           oracle_faults=_STALE_SNAPSHOT),
    },
    "service-stream": {
        "full": StreamShape(_params(6, 166, 5, 0.8, 200, "zipfian"),
                            inputs=4, restarts=3, queue_depth=16,
                            max_live_total=64, solve_every=8,
                            checkpoint_every=256),
        "tiny": StreamShape(_params(3, 40, 5, 0.8, 60, "zipfian"),
                            inputs=1, restarts=2, queue_depth=8,
                            max_live_total=64, solve_every=8,
                            checkpoint_every=32),
    },
}


def batch_history(shape: BatchShape, seed: int, index: int):
    """Input ``index``: a history recorded on the correct SI store."""
    faults = FaultConfig(abort_prob=shape.abort_prob)
    return generate_history(shape.params, seed=sub_seed(seed, index),
                            faults=faults).history


def oracle_history(shape: BatchShape, seed: int):
    """The small fault-injected history the checker must reject."""
    return generate_history(shape.oracle,
                            seed=sub_seed(seed, ORACLE_INDEX),
                            faults=shape.oracle_faults).history


def event_stream(shape: StreamShape, seed: int, index: int) -> List[tuple]:
    """Input ``index``: ``(session, ops, status)`` events in commit order,
    as the SI store produced them (aborted transactions included)."""
    base = sub_seed(seed, index)
    spec = generate_workload(shape.params, seed=base)
    db = MVCCDatabase(isolation="snapshot", seed=base + 1)
    return list(stream_workload(db, spec, seed=base + 2))
