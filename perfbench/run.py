"""Benchmark harness for the cogrelay command-line tool.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

or every workload, untraced and traced, with one combined table::

    python3 perfbench/run.py --report --seconds 25

Each run writes the workload's seed-generated config files to a scratch
directory under ``.perfbench_work/`` and then, one process after another:

* times ``setup_s`` in fresh interpreters that import ``cogrelay.cli`` and
  load the workload's first config file (median of several);
* starts one fresh single-threaded child (``child.py``) that repeats the
  workload's pass of CLI commands for ``--seconds`` and checks every output;
  ``wall_s`` is the median pass and ``peak_rss_mb`` the child's peak
  resident set.

Times are scaled to a reference speed where ``speed.py`` says so.

With ``--trace 1`` the child alternates untraced and traced passes, the
traced ones recording spans around the public functions of each module
(see ``tracing.py``), and the harness reports per-layer metrics instead.
The program's source is never modified: ``src/`` is only put on the path.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table of
the same metrics, with ``error_rate`` = failed / attempted, comes before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 60.0

SETUP_PROBE = (
    "import sys, cogrelay.cli, cogrelay.config; "
    "cogrelay.config.load_config_file(sys.argv[1]); print('ready', flush=True)"
)
IMPORT_PROBE = "import numpy, cogrelay.cli"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.cogrelay_s": "s",
    "config.calls": "count",
    "config.self_s": "s",
    "cli.commands": "count",
    "cli.rows": "count",
    "cli.bytes_out": "B",
    "cli.self_s": "s",
    "analytics.calls": "count",
    "analytics.is_stable_calls": "count",
    "analytics.self_s": "s",
    "analytics.us_per_call": "us",
    "optimizer.calls": "count",
    "optimizer.self_s": "s",
    "simulator.slots": "count",
    "simulator.packets": "count",
    "simulator.self_s": "s",
    "simulator.slots_per_s.randomized": "slots/s",
    "simulator.slots_per_s.strict_priority_relay": "slots/s",
    "simulator.slots_per_s.no_cooperation": "slots/s",
    "simulator.rng_floor_s": "s",
    "simulator.wasted_frac": "frac",
    "oracle.solves": "count",
    "oracle.build_s": "s",
    "oracle.solve_s": "s",
    "oracle.iterations": "count",
    "oracle.nnz": "count",
    "oracle.bytes_per_iter": "B",
    "oracle.flops_per_iter": "flop",
    "oracle.residual_max": "max-norm",
    "oracle.boundary_mass_max": "prob",
    "trace.overhead_s": "s",
}

POLICY_KINDS = ("randomized", "strict_priority_relay", "no_cooperation")


class HarnessError(RuntimeError):
    """The program could not be run or measured; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the seed variable would override the seeds written into the configs
    env.pop("COGRELAY_SEED", None)
    # an installed package runs from cached bytecode, and so does the benchmark
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def time_setup(config: str) -> float:
    """Seconds from spawning an interpreter to cogrelay.cli imported and config loaded."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, config],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != b"ready":
        raise HarnessError(f"setup probe exited {code}")
    return elapsed


def parse_importtime(text: str) -> list[tuple[int, float, str, str | None]]:
    """``-X importtime`` lines as (depth, cumulative seconds, module, parent module)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative) / 1e6, name.strip()))
    # a module is printed after the modules it imports, at one level less
    parents: list[str | None] = [None] * len(entries)
    stack: list[tuple[int, str]] = []
    for index in range(len(entries) - 1, -1, -1):
        depth, _, name = entries[index]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parents[index] = stack[-1][1] if stack else None
        stack.append((depth, name))
    return [(d, c, n, p) for (d, c, n), p in zip(entries, parents)]


def import_shares() -> dict[str, float]:
    """Import numpy, then cogrelay.cli, in a fresh process and split the cost.

    ``setup.scipy_s`` is the scipy imports that importing cogrelay.cli
    triggers, so it falls to zero once scipy is loaded lazily.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise HarnessError(f"import probe exited {proc.returncode}: {proc.stderr[-500:]}")

    def is_pkg(name: str | None, pkg: str) -> bool:
        return name is not None and (name == pkg or name.startswith(pkg + "."))

    entries = parse_importtime(proc.stderr)
    top = [(c, n) for d, c, n, _ in entries if d == 0]
    scipy = sum(c for _, c, n, p in entries if is_pkg(n, "scipy") and not is_pkg(p, "scipy"))
    cogrelay = sum(c for c, n in top if is_pkg(n, "cogrelay"))
    return {
        "setup.numpy_s": sum(c for c, n in top if n == "numpy"),
        "setup.scipy_s": scipy,
        "setup.cogrelay_s": cogrelay - scipy,
    }


def run_child(plan_path: Path) -> int:
    """Run child.py on the plan and return its exit code."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path)], env=child_env(), cwd=ROOT
    )
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child did not finish within {CHILD_TIMEOUT_S:.0f} s") from exc
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def median_of(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def simulator_metrics(calls: list[tuple[dict, float]]) -> dict[str, float]:
    """Simulator metrics from the (attributes, self seconds) of each call in a pass."""
    m = {
        "simulator.slots": sum(a["slots"] for a, _ in calls),
        "simulator.packets": sum(a["packets"] for a, _ in calls),
    }
    for kind in POLICY_KINDS:
        slots = sum(a["slots"] for a, _ in calls if a["kind"] == kind)
        busy = sum(seconds for a, seconds in calls if a["kind"] == kind)
        m[f"simulator.slots_per_s.{kind}"] = slots / busy if busy else 0.0
    observed = sum(a["observed"] for a, _ in calls)
    m["simulator.wasted_frac"] = sum(a["wasted"] for a, _ in calls) / observed if observed else 0.0
    return m


def oracle_metrics(solves: list[tuple[dict, dict]]) -> dict[str, float]:
    """Oracle metrics from the (solve, kernel build) attributes of each solve in a pass.

    Bytes and flops are computed for one power-iteration step: the CSR
    arrays plus 11 vector passes of 8 bytes per state (SpMV in and out 2,
    difference 3, abs 2, max 1, sum 1, scale 2); 2 flops per nonzero plus 5
    per state. They are averaged over all iterations of the pass.
    """
    iterations = sum(solve["iterations"] for solve, _ in solves)
    moved = sum(s["iterations"] * (b["csr_bytes"] + 88 * b["states"]) for s, b in solves)
    flops = sum(s["iterations"] * (2 * b["nnz"] + 5 * b["states"]) for s, b in solves)
    return {
        "oracle.iterations": iterations,
        "oracle.nnz": max((build["nnz"] for _, build in solves), default=0),
        "oracle.bytes_per_iter": moved / iterations if iterations else 0.0,
        "oracle.flops_per_iter": flops / iterations if iterations else 0.0,
        "oracle.residual_max": max((solve["residual"] for solve, _ in solves), default=0.0),
        "oracle.boundary_mass_max": max((solve["boundary_mass"] for solve, _ in solves), default=0.0),
    }


def pass_layers(spans, selfs, in_pass, labels: dict[int, str], notes: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; per-solve oracle figures go to ``notes``."""
    import numpy as np

    names = spans["names"]
    ids = spans["name_ids"][in_pass]
    calls = np.bincount(ids, minlength=len(names))
    busy = np.bincount(ids, weights=selfs[in_pass], minlength=len(names))

    def total(prefix: str) -> tuple[int, float]:
        """Calls and self seconds of the wrapped functions whose name starts with prefix."""
        chosen = [i for i, name in enumerate(names) if name.startswith(prefix)]
        return int(calls[chosen].sum()), float(busy[chosen].sum())

    m: dict[str, float] = {}
    for layer in ("config", "analytics", "optimizer"):
        m[f"{layer}.calls"], m[f"{layer}.self_s"] = total(layer + ".")
    m["cli.commands"], m["cli.self_s"] = total("cli.main")
    m["analytics.is_stable_calls"] = total("analytics.is_stable")[0]
    m["analytics.us_per_call"] = (
        m["analytics.self_s"] / m["analytics.calls"] * 1e6 if m["analytics.calls"] else 0.0
    )
    m["simulator.self_s"] = total("simulator.")[1]
    m["oracle.solves"], m["oracle.solve_s"] = total("oracle.solve_stationary")
    m["oracle.build_s"] = total("oracle.build_transitions")[1]

    annotated = [(index, names[spans["name_ids"][index]], attrs)
                 for index, attrs in spans["attrs"].items() if in_pass[index]]
    m.update(simulator_metrics(
        [(attrs, float(selfs[index])) for index, name, attrs in annotated
         if name.startswith("simulator.")]
    ))
    solves = {index: attrs for index, name, attrs in annotated if name == "oracle.solve_stationary"}
    pairs = []
    for index, name, build in annotated:
        if name != "oracle.build_transitions":
            continue
        parent = int(spans["parents"][index])
        pairs.append((solves[parent], build))
        key = f"oracle.{labels[int(spans['runs'][index])]}.{build['pair']}"
        notes[f"{key}.build_s"] = float(selfs[index])
        notes[f"{key}.iterations"] = solves[parent]["iterations"]
        notes[f"{key}.solve_s"] = float(selfs[parent])
    m.update(oracle_metrics(pairs))
    return m


def layer_metrics(plan: dict, child: dict, spans) -> tuple[dict[str, float], dict[str, float]]:
    """Median per-layer metrics over the traced passes, plus per-command oracle figures."""
    import numpy as np

    from tracing import self_times

    selfs = self_times(spans)
    run_pass = np.array([p for p, _ in child["runs"]], dtype=np.int64)
    labels = {run: plan["commands"][cmd]["label"] for run, (_, cmd) in enumerate(child["runs"])}
    span_pass = run_pass[spans["runs"]]
    passes, notes = [], []
    for number in range(len(child["walls"]["traced"])):
        note: dict[str, float] = {}
        passes.append(pass_layers(spans, selfs, span_pass == number, labels, note))
        notes.append(note)
    return median_of(passes), (median_of(notes) if notes[0] else {})


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """Measure one workload; return (metrics, attempted, failed, problems, notes)."""
    if not (SRC / "cogrelay" / "cli.py").is_file():
        raise HarnessError(f"no cogrelay source under {SRC}; run from a full checkout")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        plan = workloads.build(workload, seed, workdir)
        plan.update(
            seconds=seconds, trace=trace, speed_corrected=workload in workloads.SPEED_CORRECTED,
            result=str(workdir / "result.json"), spans=str(workdir / "spans.npz"),
        )
        first_config = plan["commands"][0]["config"]
        time_setup(first_config)  # fills the bytecode cache; not timed
        notes: dict[str, float] = {}
        if trace:
            metrics = median_of([import_shares() for _ in range(IMPORT_SAMPLES)])
        else:
            measured, corrected = [], []
            before = speed.sample()
            for _ in range(SETUP_SAMPLES):
                elapsed = time_setup(first_config)
                after = speed.sample()
                measured.append(elapsed)
                corrected.append(speed.corrected(elapsed, before, after))
                before = after
            metrics = {"setup_s": statistics.median(corrected)}
            notes["setup_s as measured"] = statistics.median(measured)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code = run_child(plan_path)
        if code != 0:
            raise HarnessError(f"workload child exited {code}")
        child = json.loads(Path(plan["result"]).read_text())
        if trace:
            from tracing import load_spans

            layers, notes = layer_metrics(plan, child, load_spans(Path(plan["spans"])))
            metrics.update(layers)
            metrics["cli.rows"] = child["rows"]
            metrics["cli.bytes_out"] = child["bytes_out"]
            metrics["simulator.rng_floor_s"] = child["rng_floor_s"]
            measured = child["measured"]
            metrics["trace.overhead_s"] = (
                statistics.median(measured["traced"]) - statistics.median(measured["untraced"])
            )
            metrics = {name: metrics[name] for name in PER_LAYER}
        else:
            metrics["wall_s"] = statistics.median(child["walls"]["untraced"])
            notes["wall_s as measured"] = statistics.median(child["measured"]["untraced"])
            notes["passes"] = len(child["measured"]["untraced"])
            metrics["peak_rss_mb"] = child["peak_rss_mb"]
            metrics = {name: metrics[name] for name in END_TO_END}
        return metrics, child["attempted"], child["failed"], child["problems"], notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_table(title: str, rows: list[tuple[str, str, list[object]]], columns: list[str]) -> None:
    print(title)
    widths = [max(len(str(c)), 12) for c in columns]
    print(f"  {'metric':44} {'unit':9}" + "".join(f" {c:>{w}}" for c, w in zip(columns, widths)))
    for name, unit, values in rows:
        cells = "".join(
            f" {v:>{w}.6g}" if isinstance(v, (int, float)) else f" {str(v):>{w}}"
            for v, w in zip(values, widths)
        )
        print(f"  {name:44} {unit:9}{cells}")


def metric_rows(results: list[tuple[dict, int, int]], units: dict[str, str]):
    rows = [(name, unit, [r[0].get(name, "") for r in results]) for name, unit in units.items()]
    rows.append(("error_rate", "ratio", [f / a for _, a, f in results]))
    return rows


def baseline_rows(plain: dict[str, dict], traced: dict[str, dict], notes: dict[str, dict]):
    """The ROADMAP baseline quantities, from the runs just made."""
    rows = []
    for kind, workload in (("randomized", "sim_validate"),
                           ("strict_priority_relay", "sim_baselines"),
                           ("no_cooperation", "sim_baselines")):
        if workload in traced:
            rows.append((f"simulate slots/s, {kind}", "slots/s",
                         traced[workload][f"simulator.slots_per_s.{kind}"]))
    units = {"build_s": "s", "iterations": "count", "solve_s": "s"}
    for key, value in sorted(notes.get("oracle", {}).items()):
        rows.append((key, units[key.rsplit(".", 1)[1]], value))
    for workload in plain:
        if workload in traced:
            setup, scipy = plain[workload]["setup_s"], traced[workload]["setup.scipy_s"]
            rows.append((f"setup_s ({workload})", "s", setup))
            rows.append((f"  of which scipy import ({workload})", "s", scipy))
    if "figures" in traced:
        rows.append(("closed-form call (figures)", "us", traced["figures"]["analytics.us_per_call"]))
    return rows


def report(seed: int, seconds: int) -> int:
    plain, traced, notes, results = {}, {}, {}, {}
    correct = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            metrics, attempted, failed, problems, note = run_workload(workload, seed, seconds, trace)
            (traced if trace else plain)[workload] = metrics
            if trace:
                notes[workload] = note
            results[(workload, trace)] = (metrics, attempted, failed)
            correct = correct and failed == 0
            for problem in problems:
                print(f"{workload}: {problem}", file=sys.stderr)
    names = list(workloads.WORKLOADS)
    print_table("end-to-end (untraced runs)",
                metric_rows([results[(w, False)] for w in names], END_TO_END), names)
    print_table("per-layer (traced runs)",
                metric_rows([results[(w, True)] for w in names], PER_LAYER), names)
    rows = baseline_rows(plain, traced, notes)
    print_table("baseline", [(n, u, [v]) for n, u, v in rows], ["value"])
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and print one table")
    args = parser.parse_args(argv)
    # a terminated harness still stops its child (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.report == (args.workload is not None):
        parser.error("give exactly one of --workload and --report")
    try:
        if args.report:
            return report(args.seed, args.seconds)
        metrics, attempted, failed, problems, notes = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print_table(f"{args.workload}, seed {args.seed}", metric_rows([(metrics, attempted, failed)], units),
                [args.workload])
    if notes:
        print_table("notes", [(k, "", [v]) for k, v in sorted(notes.items())], ["value"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
