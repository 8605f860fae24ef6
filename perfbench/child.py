"""Run one workload's passes in a fresh process and write what was measured.

Usage: ``python3 perfbench/child.py PLAN.json``, with the checkout's ``src``
on ``PYTHONPATH``. The plan (written by ``run.py``) lists the CLI commands of
one pass, the seconds to measure for and whether to trace. Each pass calls
``cogrelay.cli.main`` once per command and then checks every output; its
wall time covers both. With tracing on, untraced and traced passes
alternate, so the difference between them is the tracing overhead. The
results go to the ``result`` path named in the plan, the spans to ``spans``.
"""

from __future__ import annotations

import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import cogrelay.cli as cli

import speed
import workloads
from tracing import Tracer

#: Size of the simulator's draw blocks, mirrored by the RNG floor.
RNG_BLOCK = 1 << 16
#: Uniform draws per slot: destination, decode, admission, pick, SU
#: destination and the two arrival streams.
RNG_STREAMS = 7
FLOOR_REPEATS = 3


def run_command(argv: list[str]) -> object:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return "exception"


def rng_floor(calls: list[dict]) -> float:
    """Seconds to draw the simulator's uniforms for these calls, and nothing else.

    Uses the simulator's SeedSequence layout: one root per (seed,
    replication), spawned into one generator per draw stream.
    """
    import numpy as np

    start = perf_counter()
    for call in calls:
        for replication in range(call["replications"]):
            root = np.random.SeedSequence(entropy=call["seed"], spawn_key=(replication,))
            streams = [np.random.default_rng(child) for child in root.spawn(RNG_STREAMS)]
            for first in range(0, call["run_slots"], RNG_BLOCK):
                n = min(RNG_BLOCK, call["run_slots"] - first)
                for stream in streams:
                    stream.random(n)
    return perf_counter() - start


def peak_rss_mb() -> float:
    """This process's peak resident set since it started, in MiB.

    ``ru_maxrss`` is not used: it also covers the resident set of the parent
    at the moment it spawned this process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer() if plan["trace"] else None
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    measured: dict[str, list[float]] = {"untraced": [], "traced": []}
    runs: list[tuple[int, int]] = []
    attempted = 0
    problems: list[str] = []
    began = perf_counter()
    before = speed.sample()
    while True:
        traced = tracer is not None and len(walls["untraced"]) > len(walls["traced"])
        mode = "traced" if traced else "untraced"
        if walls["untraced"] and (tracer is None or walls["traced"]):
            expected = statistics.median(measured[mode])
            if perf_counter() - began + expected > plan["seconds"]:
                break
        if traced:
            tracer.install()
        start = perf_counter()
        codes = []
        for index, cmd in enumerate(plan["commands"]):
            if traced:
                tracer.run_id = len(runs)
                runs.append((len(walls["traced"]), index))
            codes.append(run_command(cmd["argv"]))
        problems += workloads.check(plan, codes)
        elapsed = perf_counter() - start
        if traced:
            tracer.uninstall()
        after = speed.sample()
        measured[mode].append(elapsed)
        walls[mode].append(
            speed.corrected(elapsed, before, after) if plan["speed_corrected"] else elapsed
        )
        before = after
        attempted += plan["units"]

    result = {
        "walls": walls,
        "measured": measured,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        first_pass = {i for i, (p, _) in enumerate(runs) if p == 0}
        sim_calls = [attrs for index, attrs in tracer.attrs.items()
                     if "run_slots" in attrs and tracer.runs[index] in first_pass]
        result["runs"] = runs
        result["rng_floor_s"] = statistics.median(rng_floor(sim_calls) for _ in range(FLOOR_REPEATS))
        outputs = [Path(cmd["out"]) for cmd in plan["commands"]]
        result["rows"] = sum(len(path.read_bytes().splitlines()) - 1 for path in outputs)
        result["bytes_out"] = sum(path.stat().st_size for path in outputs)
        tracer.dump(Path(plan["spans"]))
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
