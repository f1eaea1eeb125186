"""The batch workloads, ``batch-wh`` and ``batch-rh``.

Set-up generates an input history and writes it to a file.  Its check
then runs in a fresh ``check_worker.py`` process, from history file to
``Report``; the process's peak resident set is the check's memory, and
the time from its spawn until it holds the loaded history is the batch
restart-to-ready time (a batch check keeps no checkpoint, so recovering
from a crash means starting over from the history file).
"""

import os
import subprocess
import sys
import time
from statistics import median

import repro
from repro.histories.codec import dump_history

from common import (CheckFailed, read_json_line, require, require_repeats,
                    stop)
from inputs import SHAPES, batch_history, oracle_history

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_worker.py")

#: A check worker that has not answered by then has hung.
WORKER_TIMEOUT_S = 150


def _set_up(shape, run, index: int):
    """Generate input ``index`` and write it to a file; returns the path,
    the set-up seconds and the seconds of generation alone."""
    t0 = time.perf_counter()
    history = batch_history(shape, run.seed, index)
    t1 = time.perf_counter()
    path = os.path.join(run.workdir, f"history-{index}.json")
    dump_history(history, path)
    return path, time.perf_counter() - t0, t1 - t0


def _check_oracle(shape, run) -> None:
    """A fault-injected history must come back violated: a checker that
    answers "satisfied" fast cannot pass."""
    report = repro.check(oracle_history(shape, run.seed), trace=False)
    require(report.verdict == "violated",
            "fault-injected oracle history was not reported violated")


def _worker(path: str, run) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--trace", str(run.trace), path],
        stdout=subprocess.PIPE, text=True, env=run.env, cwd=run.root)
    try:
        read_json_line(proc.stdout, "check worker ready line")
        recover_s = time.perf_counter() - t0
        out = read_json_line(proc.stdout, "check worker result")
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed("check worker did not exit")
    finally:
        stop(proc)
    require(code == 0, f"check worker exited with {code}")
    out["recover_s"] = recover_s
    return out


def _check(path: str, run) -> dict:
    out = _worker(path, run)
    require(out["verdict"] == "satisfied",
            f"SI-store history {os.path.basename(path)} came back "
            f"{out['verdict']} ({out['decided_by']})")
    return out


def _staged(path: str, run) -> dict:
    out = _worker(path, run)
    facade = out["facade"]
    require(facade["verdict"] == "satisfied",
            f"SI-store history {os.path.basename(path)} came back "
            f"{facade['verdict']} ({facade['decided_by']})")
    for key in ("verdict", "decided_by", "decisions", "pruned"):
        require(out[key] == facade[key],
                f"staged pipeline {key} {out[key]!r} differs from the "
                f"façade's {facade[key]!r}")
    return out


def run_batch(workload: str, run) -> dict:
    shape = SHAPES[workload][run.size]
    run.tally.run(_check_oracle, shape, run)
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < run.seconds:
        for index in range(shape.inputs):
            # Set-up runs next to each check, so its samples spread over
            # the run like the checks' do.
            path, setup_s, generate_s = _set_up(shape, run, index)
            sample = run.tally.run(_staged if run.trace else _check,
                                   path, run)
            samples.append({**sample, "setup_s": setup_s,
                            "generate_s": generate_s})
    require_repeats(samples, shape.inputs, ("decisions", "pruned"))
    if not run.trace:
        return {
            "check_s": median([s["check_s"] for s in samples]),
            "txns_per_s": median([s["txns"] / s["check_s"]
                                  for s in samples]),
            "setup_s": median([s["setup_s"] for s in samples]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
            "recover_s": median([s["recover_s"] for s in samples]),
        }
    names = {name for s in samples for name in s["layers"]}
    layers = {name: median([s["layers"].get(name, 0) for s in samples])
              for name in names}
    layers["workload.generate_s"] = median([s["generate_s"]
                                            for s in samples])
    layers["trace.overhead_pct"] = median([
        100.0 * (s["staged_s"] - s["facade"]["check_s"])
        / s["facade"]["check_s"] for s in samples])
    return layers
