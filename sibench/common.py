"""Helpers shared by the benchmark's workloads."""

import json
import os
import subprocess


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def require(condition, what: str) -> None:
    """Raise :class:`CheckFailed` naming ``what`` unless ``condition``."""
    if not condition:
        raise CheckFailed(what)


class Tally:
    """Operations a run attempted, and how many of them failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args, **kwargs):
        """Count one operation; a :class:`CheckFailed` marks it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed:
            self.failed += 1
            raise


def require_repeats(samples, inputs: int, keys) -> None:
    """Sample ``i`` and sample ``i + inputs`` checked the same input: the
    program's counts for it must repeat exactly."""
    for later, sample in enumerate(samples[inputs:], inputs):
        first = samples[later % inputs]
        for key in keys:
            require(sample[key] == first[key],
                    f"{key} changed between two checks of input "
                    f"{later % inputs}: {first[key]!r} then "
                    f"{sample[key]!r}")


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM line for process {pid}")


def child_env(src_dir: str) -> dict:
    """Environment for the program's processes: its sources on the path
    and a fixed hash seed, so every count a run prints repeats exactly."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def stop(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs, and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def read_json_line(stream, what: str) -> dict:
    """Next line of ``stream`` as a JSON object."""
    line = stream.readline()
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        raise CheckFailed(f"{what}: expected a JSON line, got {line!r}")
    require(isinstance(data, dict), f"{what}: not a JSON object")
    return data

