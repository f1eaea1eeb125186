"""The ``service-stream`` workload: ``repro serve --state-dir`` end to end.

One round per input stream:

1. set-up: generate the stream, spawn the daemon, wait for its banner;
2. push every event from this process over one TCP credit connection
   (``ServiceClient.push_events_tcp``) to one windowed tenant, and poll
   ``/verdict`` until the verdict covers every event and every
   checkpoint the cadence calls for is written — so the split between
   checkpoint and replayed tail is the same on every run;
3. read the daemon's peak resident set, SIGKILL it, restart it on the
   same state directory and time it until it serves again (it recovers
   every tenant before it listens); kill and restart it again, so each
   stream gives ``restarts`` samples of the same recovery, then drain.

Checks: events sent, acknowledged, journaled and recovered are all
equal; the final verdict is ``satisfied`` and matches ``repro.check``
of the same events in batch mode.

The traced run adds an in-process replay of each stream with the
daemon's settings, timing the codec, journal, checkpoint, restore and
online-checker calls one by one; its counts must equal the daemon's.
"""

import glob
import os
import re
import signal
import subprocess
import sys
import time
from statistics import median

import repro
from repro.api import adapt_result
from repro.histories.codec import (event_from_json, event_to_json,
                                   history_from_events)
from repro.online import OnlineChecker, WindowPolicy
from repro.service import ServiceClient, ServiceConfig, ServiceError
from repro.store import SegmentStore

from common import CheckFailed, require, require_repeats, stop, vm_hwm_mb
from inputs import SHAPES, event_stream

TENANT = "bench"

#: Interval of the ``/verdict`` poll that ends the timed push.  It runs
#: only after the last event is acknowledged, when at most a queue's
#: worth of events is still being checked.
POLL_S = 0.005

#: A daemon that has not consumed the stream by then has stalled.
CONSUME_TIMEOUT_S = 120

_BANNER = re.compile(r"http://[^:]+:(\d+), tcp://[^:]+:(\d+)")


def _spawn(shape, state_dir: str, run):
    """Start ``repro serve`` and wait until it listens; it recovers every
    journaled tenant before that."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--tcp-port", "0",
         "--queue-depth", str(shape.queue_depth),
         "--max-live-total", str(shape.max_live_total),
         "--solve-every", str(shape.solve_every),
         "--state-dir", state_dir,
         "--checkpoint-every", str(shape.checkpoint_every)],
        stdout=subprocess.PIPE, text=True, env=run.env, cwd=run.root)
    match = _BANNER.search(proc.stdout.readline())
    if match is None:
        stop(proc)
        raise CheckFailed("daemon printed no listening banner")
    client = ServiceClient("127.0.0.1", int(match.group(1)),
                           tcp_port=int(match.group(2)))
    return proc, client


def _covers(payload: dict, events: int, checkpoints: int) -> bool:
    stats = payload["report"].get("stats", {})
    return (stats.get("accepted", 0) + stats.get("aborted", 0) == events
            and payload["persistence"]["checkpoints_written"]
            == checkpoints)


def _wait_consumed(client, events: int, checkpoints: int) -> dict:
    deadline = time.monotonic() + CONSUME_TIMEOUT_S
    while True:
        payload = client.verdict(TENANT)
        if _covers(payload, events, checkpoints):
            return payload
        if time.monotonic() > deadline:
            raise CheckFailed(f"daemon consumed {payload['events']} of "
                              f"{events} events")
        time.sleep(POLL_S)


def _counts(payload: dict) -> dict:
    stats = payload["report"]["stats"]
    return {"solves": stats["solves"],
            "evicted": stats["window"]["evicted"]}


def _daemon_round(shape, events, state_dir, run) -> dict:
    """Push one stream, kill the daemon, recover it, drain it."""
    n = len(events)
    sessions = shape.params.sessions
    checkpoints = n // shape.checkpoint_every
    t0 = time.perf_counter()
    proc, client = _spawn(shape, state_dir, run)
    spawn_s = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        push = client.push_events_tcp(TENANT, events, sessions=sessions)
        push_s = time.perf_counter() - t0
        live = _wait_consumed(client, n, checkpoints)
        check_s = time.perf_counter() - t0
        peak_rss_mb = vm_hwm_mb(proc.pid)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        stop(proc)
    require(push.sent == n and push.accepted == n,
            f"sent {push.sent} and acknowledged {push.accepted} of {n}")
    require(live["persistence"]["journaled_events"] == n,
            f"journaled {live['persistence']['journaled_events']} of {n}")
    require(live["report"]["verdict"] == "satisfied",
            "SI stream reported violated before the kill")

    resume_at = checkpoints * shape.checkpoint_every
    recover_s = []
    for restart in range(1, shape.restarts + 1):
        t0 = time.perf_counter()
        proc, client = _spawn(shape, state_dir, run)
        recover_s.append(time.perf_counter() - t0)
        try:
            recovered = client.verdict(TENANT)
            persistence = recovered["persistence"]
            require(recovered["events"] == n
                    and persistence["recovered_events"] == n,
                    f"recovered {persistence['recovered_events']} of {n} "
                    "events")
            require(persistence["resumed_from"] == resume_at,
                    f"resumed from {persistence['resumed_from']}, not from "
                    f"the newest checkpoint at {resume_at}")
            if restart < shape.restarts:
                os.kill(proc.pid, signal.SIGKILL)
                continue
            final = client.shutdown()[TENANT]
            code = proc.wait(timeout=CONSUME_TIMEOUT_S)
        finally:
            stop(proc)
    require(code == 0 and final["events"] == n
            and final["report"]["verdict"] == "satisfied",
            f"final verdict {final['report']['verdict']} after "
            f"{final['events']} events, exit {code}")
    return {
        "check_s": check_s, "push_s": push_s, "spawn_s": spawn_s,
        "recover_s": recover_s, "peak_rss_mb": peak_rss_mb,
        "credit_waits": push.credit_waits,
        "live": {**_counts(live), "checkpoints_written":
                 live["persistence"]["checkpoints_written"]},
        "resumed_from": persistence["resumed_from"],
        "final": _counts(final),
        "verdict": final["report"]["verdict"],
    }


def _batch_agrees(events, verdict: str) -> None:
    report = repro.check(history_from_events(events), trace=False)
    require(report.verdict == verdict,
            f"batch check says {report.verdict}, the service {verdict}")


def _journal_bytes(store_dir: str) -> int:
    return sum(os.path.getsize(path)
               for path in glob.glob(os.path.join(store_dir, "seg-*.jsonl")))


def _replay(shape, events, store_dir) -> dict:
    """The daemon's per-event work, in-process and layer by layer."""
    sessions = range(shape.params.sessions)
    config = ServiceConfig()
    share = max(config.min_live_share, shape.max_live_total)
    n = len(events)
    layers = {}

    t0 = time.perf_counter()
    lines = [event_to_json(event) for event in events]
    layers["codec.encode_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    parsed = [event_from_json(line) for line in lines]
    layers["codec.parse_s"] = time.perf_counter() - t0
    require([e[:3] for e in parsed] == [tuple(e[:3]) for e in events],
            "repro-events/1 round trip changed an event")

    store = SegmentStore.create(store_dir, meta={
        "tenant": TENANT, "sessions": list(sessions)})
    checker = OnlineChecker(solve_every=shape.solve_every,
                            window=WindowPolicy(max_live=share),
                            sessions=sessions)
    append_s = checkpoint_s = 0.0
    checkpoints = checkpoint_bytes = committed = 0
    add_s = []
    for i, (session, ops, status, _ts) in enumerate(parsed, 1):
        t0 = time.perf_counter()
        store.append_event((session, ops, status))
        t1 = time.perf_counter()
        checker.add(session, ops, status=status)
        t2 = time.perf_counter()
        append_s += t1 - t0
        add_s.append(t2 - t1)
        committed += status == "committed"
        if i % shape.checkpoint_every == 0:
            path = store.save_checkpoint(i, checker.snapshot(), extra={
                "committed_seen": committed, "stamped_seen": 0})
            checkpoint_s += time.perf_counter() - t2
            checkpoints += 1
            checkpoint_bytes = os.path.getsize(path)
    live = checker.result()
    journal_bytes = _journal_bytes(store_dir)
    store.close()

    t0 = time.perf_counter()
    with SegmentStore.open(store_dir) as store:
        payload = store.latest_checkpoint_payload()
        restored = OnlineChecker.restore(payload["checker"])
        replayed = 0
        for _pos, event in store.iter_events(payload["events"]):
            restored.add(event[0], event[1], status=event[2])
            replayed += 1
    layers["store.restore_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    final = restored.finish()
    report = adapt_result(final, isolation="si", mode="online",
                          engine="polysi")
    layers["service.drain_s"] = time.perf_counter() - t0
    require(report.verdict == "satisfied", "replay reported a violation")

    quarter = max(1, n // 4)
    layers.update({
        "store.append_s": append_s,
        "store.journal_bytes_per_txn": journal_bytes / n,
        "store.checkpoint_s": checkpoint_s,
        "store.checkpoints": checkpoints,
        "store.checkpoint_bytes": checkpoint_bytes,
        "store.replayed": replayed,
        "online.add_s": sum(add_s),
        "online.solves": live.stats["solves"],
        "online.evicted": live.stats["window"]["evicted"],
        "online.peak_live": live.stats["window"]["peak_live"],
        "online.unresolved_end": final.stats["unresolved_constraints"],
        "online.ms_per_txn_q1": 1000.0 * sum(add_s[:quarter]) / quarter,
        "online.ms_per_txn_q4": 1000.0 * sum(add_s[-quarter:]) / quarter,
    })
    for stage in ("ingest", "prune", "solve", "gc"):
        layers[f"online.{stage}_s"] = live.timings.get(stage, 0.0)
    return {"layers": layers, "resumed_from": payload["events"],
            "final": {"solves": final.stats["solves"],
                      "evicted": final.stats["window"]["evicted"]},
            "total_s": sum(layers[name] for name in (
                "codec.encode_s", "codec.parse_s", "store.append_s",
                "online.add_s", "store.checkpoint_s"))}


def _round(shape, run, index: int, number: int) -> dict:
    t0 = time.perf_counter()
    events = event_stream(shape, run.seed, index)
    generate_s = time.perf_counter() - t0
    try:
        daemon = _daemon_round(
            shape, events, os.path.join(run.workdir, f"state-{number}"), run)
    except ServiceError as exc:
        raise CheckFailed(f"daemon request failed: {exc}") from exc
    _batch_agrees(events, daemon["verdict"])
    out = {**daemon, "events": len(events), "generate_s": generate_s,
           "setup_s": generate_s + daemon["spawn_s"]}
    if run.trace:
        replay = _replay(shape, events,
                         os.path.join(run.workdir, f"replay-{number}"))
        layers = replay["layers"]
        mine = {"solves": layers["online.solves"],
                "evicted": layers["online.evicted"],
                "checkpoints_written": layers["store.checkpoints"]}
        require(mine == daemon["live"],
                f"replay counts {mine} differ from the daemon's "
                f"{daemon['live']}")
        require(replay["resumed_from"] == daemon["resumed_from"]
                and replay["final"] == daemon["final"],
                f"replay resumed from {replay['resumed_from']} with final "
                f"{replay['final']}, the daemon from "
                f"{daemon['resumed_from']} with {daemon['final']}")
        out["layers"] = layers
        out["overhead_pct"] = (100.0 * (replay["total_s"] - daemon["check_s"])
                               / daemon["check_s"])
    return out


def run_service(workload: str, run) -> dict:
    shape = SHAPES[workload][run.size]
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < run.seconds:
        for index in range(shape.inputs):
            samples.append(run.tally.run(_round, shape, run, index,
                                         len(samples)))
    require_repeats(samples, shape.inputs,
                    ("live", "resumed_from", "final"))
    if not run.trace:
        return {
            "check_s": median([s["check_s"] for s in samples]),
            "txns_per_s": median([s["events"] / s["check_s"]
                                  for s in samples]),
            "setup_s": median([s["setup_s"] for s in samples]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
            "recover_s": median([t for s in samples
                                 for t in s["recover_s"]]),
        }
    layers = {name: median([s["layers"][name] for s in samples])
              for name in samples[0]["layers"]}
    layers.update({
        "workload.generate_s": median([s["generate_s"] for s in samples]),
        "service.push_s": median([s["push_s"] for s in samples]),
        "service.credit_waits": median([s["credit_waits"]
                                        for s in samples]),
        "trace.overhead_pct": median([s["overhead_pct"] for s in samples]),
    })
    return layers
