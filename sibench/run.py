"""The repository's end-to-end benchmark.

    python3 sibench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--size full|tiny]

Runs one workload named in ``BENCHMARK.json`` on inputs generated from
``--seed``, checks the program's outputs, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (layers a workload does not exercise read 0).  Whole
passes over the workload's inputs repeat until ``--seconds`` have
passed.  ``--size tiny`` runs the same code and checks on inputs small
enough for the benchmark's own tests.  Exit status: 0 when every check
held, 1 when one failed, 2 when the program's sources or
``BENCHMARK.json`` are missing.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


class Run:
    """Settings and bookkeeping of one benchmark run."""

    def __init__(self, args, workdir: str, tally, env: dict):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.size = args.size
        self.workdir = workdir
        self.root = ROOT
        self.env = env
        self.tally = tally


def _metrics(spec: dict, trace: int, values: dict) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {metric["name"] for metric in declared}
    unknown = set(values) - names
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: "
                       f"{sorted(unknown)}")
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and not trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    return out


def _emit(correct: bool, tally, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}),
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"sibench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"sibench: {SPEC} is missing", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    sys.path.insert(0, SRC)
    from batch import run_batch
    from common import CheckFailed, Tally, child_env
    from service import run_service

    runner = run_service if args.workload == "service-stream" else run_batch
    # A terminated run still stops the daemons and workers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = os.path.join(ROOT, ".sibench_run", str(os.getpid()))
    os.makedirs(workdir)
    tally = Tally()
    try:
        values = runner(args.workload,
                        Run(args, workdir, tally, child_env(SRC)))
    except CheckFailed as exc:
        print(f"sibench: {args.workload}: check failed: {exc}",
              file=sys.stderr)
        _emit(False, tally, {})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    _emit(True, tally, _metrics(spec, args.trace, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
