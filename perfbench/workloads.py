"""Workload inputs and output checks for the cogrelay benchmark.

Each workload turns a seed into config files and a fixed list of CLI
commands (one *pass*), and knows how to check the outputs a pass leaves
behind. The program under test only ever sees the generated files.

The parent harness uses :func:`build` to write the inputs; the child
process that drives the CLI uses :func:`check` after every pass. Neither
imports ``cogrelay``: the expected shapes below are the benchmark's own
record of what each command must produce.
"""

from __future__ import annotations

import csv
import hashlib
import random
from pathlib import Path

#: Workloads whose pass times are scaled by the reference loop in speed.py.
#: They spend their time in the interpreter, as the loop does. The oracle
#: spends its time in sparse and vector kernels bound by memory traffic,
#: which the loop does not track, so its times are left as measured.
SPEED_CORRECTED = ("figures", "sim_validate", "sim_baselines")

#: Seed whose full ``figures`` output digest is recorded below.
DEFAULT_SEED = 1

# Every analytic preset, with the subcommand that runs it and the rows it
# must produce. ``None`` marks region-boundary presets, whose row count
# depends on the channel; they are checked by shape instead.
FIGURE_PRESETS = (
    ("region", "fig2", None),
    ("region", "fig3", None),
    ("region", "fig4", 4 * 101),
    ("region", "fig5", 4 * 101),
    ("delay", "fig6", 3 * 30),
    ("delay", "fig7", 3 * 30),
    ("delay", "fig8", 4 * 21),
    ("delay", "fig9", 4 * 21),
    ("tradeoff", "fig10", 4 * 21),
    ("optimize", "fig11", 3 * 30),
    ("optimize", "fig12", 30),
)
#: Region-boundary presets: (number of policies, grid steps).
BOUNDARY_SHAPE = {"fig2": (4, 101), "fig3": (5, 101)}

#: Seed-drawn channel profiles run in addition to the standard channel.
FIGURE_PROFILES = 24

#: sha256 of the standard-channel CSVs of all presets, concatenated in
#: FIGURE_PRESETS order. These bytes do not depend on the seed.
STANDARD_DIGEST = "44ea276d1f62a1a4accded63e20509fc247b3c3e3c7dc37347c9a08a0b12f066"
#: sha256 of every ``figures`` CSV of one pass at DEFAULT_SEED.
DEFAULT_SEED_DIGEST = "b221ddbfdb3cd413ac370ca4e58a784941416dbffa7d12b810cb9b7240227123"

VALIDATE_CURVES = (0.3, 0.5, 0.8)
VALIDATE_LAMBDAS = (0.04, 0.1)

#: Symmetric-load sweep top per policy kind: about 80% of each kind's bound
#: on the standard channel (0.218 for no_cooperation, 0.28 for
#: strict_priority_relay).
BASELINE_STOP = {"strict_priority_relay": 0.224, "no_cooperation": 0.175}
BASELINE_STEPS = 3

#: 70% of the primary rate bound (0.3412) at p_q = 0.5, p_a = 1 on the
#: standard channel.
ORACLE_HEAVY_LAMBDA_P = 0.2388
ORACLE_TOLERANCE = 0.005
ORACLE_BOUNDARY_MASS = 1e-6


def _write_config(path: Path, values: dict[str, object]) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return str(path)


def _command(args: list[str], config: str, out: Path, label: str, units: int) -> dict:
    """One CLI invocation; ``units`` is how many checked items it yields."""
    return {
        "argv": args + ["--config", config, "--out", str(out)],
        "config": config,
        "out": str(out),
        "label": label,
        "units": units,
    }


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's config files under ``workdir`` and return its plan.

    ``units`` is the number of checked items in one pass, each of which
    passes or fails on its own.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = workdir / "inputs"
    outputs = workdir / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir(parents=True)
    commands = BUILDERS[workload](rng, inputs, outputs)
    units = sum(cmd["units"] for cmd in commands)
    if workload == "figures":
        units += 2 if seed == DEFAULT_SEED else 1  # the digest checks
    return {"workload": workload, "seed": seed, "commands": commands, "units": units}


def _build_figures(rng: random.Random, inputs: Path, outputs: Path) -> list[dict]:
    # f_sd stays above 0.6, the largest f_pd in fig11's f_pd_list
    profiles = [(0.3, 0.8, 0.4)]
    for _ in range(FIGURE_PROFILES):
        f_sd = round(rng.uniform(0.65, 0.95), 4)
        f_pd = round(rng.uniform(0.1, min(0.55, f_sd - 0.05)), 4)
        f_ps = round(rng.uniform(0.2, 0.8), 4)
        profiles.append((f_pd, f_sd, f_ps))
    commands = []
    for index, (f_pd, f_sd, f_ps) in enumerate(profiles):
        cfg = _write_config(
            inputs / f"channel{index:02d}.cfg", {"f_pd": f_pd, "f_sd": f_sd, "f_ps": f_ps}
        )
        for sub, preset, _ in FIGURE_PRESETS:
            commands.append(
                _command(
                    [sub, "--preset", preset],
                    cfg,
                    outputs / f"channel{index:02d}_{preset}.csv",
                    f"channel{index:02d}:{preset}",
                    1,
                )
            )
    return commands


def _build_sim_validate(rng: random.Random, inputs: Path, outputs: Path) -> list[dict]:
    # Criterion 1's settings: 10^6 slots, 10^4 warm-up, p_a = 1 and both
    # relative stability margins >= 10% at every point (the tightest curve,
    # p_q = 0.3, keeps 10% up to lambda = 0.157).
    cfg = _write_config(
        inputs / "validate.cfg",
        {
            "variable": "lambda",
            "start": VALIDATE_LAMBDAS[0],
            "stop": VALIDATE_LAMBDAS[1],
            "steps": len(VALIDATE_LAMBDAS),
            "p_q_list": ", ".join(str(p) for p in VALIDATE_CURVES),
            "p_a": 1,
            "slots": 1_000_000,
            "warmup": 10_000,
            "seed": rng.randrange(1, 2**31),
        },
    )
    units = len(VALIDATE_CURVES) * len(VALIDATE_LAMBDAS)
    return [_command(["validate"], cfg, outputs / "validate.csv", "validate", units)]


def _build_sim_baselines(rng: random.Random, inputs: Path, outputs: Path) -> list[dict]:
    commands = []
    for kind, stop in BASELINE_STOP.items():
        cfg = _write_config(
            inputs / f"{kind}.cfg",
            {
                "variable": "lambda",
                "start": 0.02,
                "stop": stop,
                "steps": BASELINE_STEPS,
                "p_q": 0.5,
                "p_a": 1,
                "policy_kind": kind,
                "slots": 400_000,
                "warmup": 10_000,
                "replications": 2,
                "seed": rng.randrange(1, 2**31),
            },
        )
        commands.append(
            _command(["simulate"], cfg, outputs / f"{kind}.csv", kind, BASELINE_STEPS)
        )
    return commands


def _build_oracle(rng: random.Random, inputs: Path, outputs: Path) -> list[dict]:
    # The light point is fixed; the heavy point's lambda_s is drawn from a
    # narrow range so that the seed changes the input but hardly the work
    # (the relay pair, which dominates, does not depend on lambda_s).
    points = {
        "light": (0.1, 0.1),
        "heavy": (ORACLE_HEAVY_LAMBDA_P, round(rng.uniform(0.045, 0.055), 4)),
    }
    commands = []
    for label, (lambda_p, lambda_s) in points.items():
        cfg = _write_config(
            inputs / f"oracle_{label}.cfg",
            {"p_q": 0.5, "p_a": 1, "lambda_p": lambda_p, "lambda_s": lambda_s, "truncation": 400},
        )
        commands.append(_command(["oracle"], cfg, outputs / f"oracle_{label}.csv", label, 2))
    return commands


BUILDERS = {
    "figures": _build_figures,
    "sim_validate": _build_sim_validate,
    "sim_baselines": _build_sim_baselines,
    "oracle": _build_oracle,
}
WORKLOADS = tuple(BUILDERS)


def check(plan: dict, exit_codes: list[object]) -> list[str]:
    """Check one pass's outputs; return one message per failed unit.

    A command that exited non-zero fails all of its units unchecked.
    """
    problems: list[str] = []
    for cmd, code in zip(plan["commands"], exit_codes):
        if code != 0:
            problems += [f"{cmd['label']}: exit {code}"] * cmd["units"]
        elif plan["workload"] == "figures":
            problems += [f"{cmd['label']}: {msg}" for msg in _check_figure(cmd)]
        else:
            problems += [f"{cmd['label']}: {msg}" for msg in _check_rows(cmd, ROW_CHECKS[plan["workload"]])]
    if plan["workload"] == "figures":
        problems += _check_figures_digests(plan)
    return problems


def _check_figure(cmd: dict) -> list[str]:
    preset = cmd["label"].split(":")[1]
    with open(cmd["out"], newline="") as handle:
        header, *rows = list(csv.reader(handle))
    if any(len(row) != len(header) for row in rows):
        return ["row width differs from the header"]
    expected = {p: n for _, p, n in FIGURE_PRESETS}[preset]
    if expected is not None:
        return [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
    policies, steps = BOUNDARY_SHAPE[preset]
    union = sum(1 for row in rows if row[0] == "union")
    fixed = len(rows) - union
    if union != steps or not policies <= fixed <= policies * steps:
        return [f"{union} union and {fixed} policy rows, "
                f"expected {steps} and {policies}..{policies * steps}"]
    return []


def _figures_digest(plan: dict, label_prefix: str) -> str:
    digest = hashlib.sha256()
    for cmd in plan["commands"]:
        if cmd["label"].startswith(label_prefix):
            digest.update(Path(cmd["out"]).read_bytes())
    return digest.hexdigest()


def _check_figures_digests(plan: dict) -> list[str]:
    problems = []
    if _figures_digest(plan, "channel00:") != STANDARD_DIGEST:
        problems.append("standard-channel CSV bytes differ from the recorded digest")
    if plan["seed"] == DEFAULT_SEED and _figures_digest(plan, "channel") != DEFAULT_SEED_DIGEST:
        problems.append(f"CSV bytes at seed {DEFAULT_SEED} differ from the recorded digest")
    return problems


def _check_rows(cmd: dict, row_problem) -> list[str]:
    """One message per CSV row that fails ``row_problem`` and per missing row."""
    with open(cmd["out"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = [msg for msg in (row_problem(cmd, row) for row in rows) if msg]
    problems += [f"{cmd['units']} rows expected, {len(rows)} written"] * (cmd["units"] - len(rows))
    return problems


def _validate_row(cmd: dict, row: dict[str, str]) -> str | None:
    if row["status"] != "ok":
        return f"status {row['status']} at p_q={row['p_q']}, lambda={row['lambda_p']}"
    return None


def _baseline_row(cmd: dict, row: dict[str, str]) -> str | None:
    where = f"lambda={row['lambda_p']}"
    if row["stable"] != "1" or row["policy_kind"] != cmd["label"]:
        return f"{where}: not simulated as a stable {cmd['label']} point"
    for origin in ("p", "s"):
        arrivals, delivered, backlog = (
            int(row[f"{name}_{origin}"]) for name in ("arrivals", "delivered", "backlog")
        )
        if arrivals != delivered + backlog:
            return f"{where}: arrivals_{origin} {arrivals} != delivered {delivered} + backlog {backlog}"
    return None


def _oracle_row(cmd: dict, row: dict[str, str]) -> str | None:
    keys = ("rel_err_n_p", "rel_err_partner", "abs_err_g00", "abs_err_p_qp_empty")
    error = max(float(row[key]) for key in keys if row[key] != "")
    mass = float(row["mass_at_boundary"])
    if error > ORACLE_TOLERANCE or mass > ORACLE_BOUNDARY_MASS:
        return f"{row['pair']}: error {error:.3g}, boundary mass {mass:.3g}"
    return None


ROW_CHECKS = {
    "sim_validate": _validate_row,
    "sim_baselines": _baseline_row,
    "oracle": _oracle_row,
}
