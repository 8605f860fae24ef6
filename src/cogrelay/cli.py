"""Command-line front end: sweeps, validation, oracle runs and optimization reports.

Every subcommand emits CSV (comma separator, ``.`` decimal point, 12
significant digits, mandatory header) except ``optimize`` without a sweep,
which prints a key=value report. Identical config plus seed yields
byte-identical output. Exit codes: 0 success, 1 validation failure, 2 config
or output error (a point the closed forms cannot evaluate exits 2 naming it),
141 when standard output is closed before the command ends (as ``| head``
does).

Parameter precedence, lowest to highest: preset, config file, the seed
environment variable, command-line flags; each value arrives typed and
range-checked by :data:`cogrelay.config.KEYS`, with its origin.

A sweep is built as columns, one float64 array per channel, policy and point
key (:func:`_sweep_columns`); an invalid step raises before anything is
evaluated or simulated. Every command evaluates its closed forms in one call
of the array core (:func:`cogrelay.analytics.closed_forms`,
:func:`cogrelay.analytics.union_region`, :func:`cogrelay.optimizer.optima`),
whose masks decide each row: stable, unstable, or stable but not evaluable,
which raises :class:`cogrelay.analytics.UnevaluableError` naming the row's
point. A failing command writes nothing. Every command names each column
beside its cells, in one mapping that :func:`_write_table` writes at once.
``simulate`` and ``validate`` simulate every stable row in one
:func:`cogrelay.simulator.replicate_many` batch, which spreads the runs over
the CPUs when the batch is long enough to gain from it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from . import analytics, optimizer
from .config import KEYS, Config, ConfigError, channel_from_config, load_config_file, parse_values
from .model import NO_COOPERATION, STRICT_PRIORITY, ChannelProfile, OperatingPoint, Policy, _require_memory
from .oracle import ChainSpec, ConvergenceError, RangeError, TruncationError, UnstableError, solve_stationary
from .simulator import Scenario, SimStats, replicate_many

__all__ = ["main", "entrypoint", "PRESETS", "ENV_SEED"]

ENV_SEED = "COGRELAY_SEED"
#: Exit code when stdout is closed early: 128 + SIGPIPE, as shells report it.
EXIT_BROKEN_PIPE = 141

#: Relative stability margin above which validation failures drive the exit code.
MARGIN_ENFORCEMENT = 0.10

# Parameter bundles reproducing the reference sweeps; the standard channel
# (f_pd=0.3, f_sd=0.8, f_ps=0.4) is the config default throughout.
PRESETS: dict[str, dict[str, str]] = {
    "fig2": {"policies": "0.2:1, 0.4:1, 0.625:1, 0.8:1", "steps": "101"},
    "fig3": {
        "policies": "0.625:0, 0.625:0.25, 0.625:0.5, 0.625:0.75, 0.625:1",
        "steps": "101",
    },
    "fig4": {
        "region_mode": "rates",
        "p_q_list": "0.2, 0.4, 0.625, 0.8",
        "steps": "101",
        "lambda_p": "0.2",
    },
    "fig6": {
        "variable": "lambda",
        "start": "0.01",
        "stop": "0.3",
        "steps": "30",
        "p_a": "1",
        "p_q_list": "0.3, 0.5, 0.8",
    },
    "fig8": {
        "variable": "p_a",
        "start": "0",
        "stop": "1",
        "steps": "21",
        "lambda_p": "0.1",
        "lambda_s": "0.1",
        "p_q_list": "0.3, 0.5, 0.625, 0.8",
    },
    "fig10": {
        "p_q_list": "0.625, 0.7, 0.8, 0.9",
        "steps": "21",
        "lambda_p": "0.1",
        "lambda_s": "0.1",
    },
    "fig11": {
        "variable": "lambda_p",
        "start": "0.01",
        "stop": "0.59",
        "steps": "30",
        "lambda_s": "0.2",
        "f_pd_list": "0.3, 0.4, 0.6",
    },
    "fig12": {
        "variable": "lambda_s",
        "start": "0.01",
        "stop": "0.7",
        "steps": "30",
        "lambda_p": "0.2",
    },
}
# fig5, fig7 and fig9 run the same sweeps as fig4, fig6 and fig8
PRESETS.update(fig5=PRESETS["fig4"], fig7=PRESETS["fig6"], fig9=PRESETS["fig8"])


#: The channel, policy and point keys of a sweep row, in the order
#: :func:`cogrelay.analytics.closed_forms` takes them.
POINT_KEYS = ("f_pd", "f_sd", "f_ps", "p_q", "p_a", "lambda_p", "lambda_s")

#: Grid defaults of the p_a sweeps that ``tradeoff`` and ``region`` in rates
#: mode run over ``p_q_list``; config keys override them.
TRADEOFF_GRID = Config({"start": 0.0, "stop": 1.0, "steps": 21})
RATES_GRID = Config({
    "start": 0.0, "stop": 1.0, "steps": 101, "p_q_list": (0.2, 0.4, 0.625, 0.8), "lambda_p": 0.2,
})


# a sweep row holds seven float64 columns, its closed forms and a dozen formatted cells, about
# 1 KiB; a grid is refused where this much a step would not fit in memory
_BYTES_PER_ROW = 1024


def _grid(cfg: Config) -> np.ndarray:
    """The config's linear sweep grid; start < stop is checked here, where the two values meet, and
    steps against the physical memory before anything is allocated."""
    start, stop, steps = cfg["start"], cfg["stop"], cfg["steps"]
    if not start < stop:
        raise ConfigError(f"{cfg.where('start', 'stop')}: need start < stop, got start={start}, stop={stop}")
    try:
        _require_memory(_BYTES_PER_ROW * steps, f"a grid of {steps} steps", "its rows")
    except ValueError as exc:
        raise ConfigError(f"{cfg.where('steps')}: {exc}") from exc
    return np.linspace(start, stop, steps)


def _format(values: np.ndarray, present: np.ndarray | None = None) -> list[str]:
    """The cells of a column, empty where ``present`` is False.

    Integers print exactly; floats and bools print as float64 to 12
    significant digits, so True is 1 and -0.0 is 0. A float column whose
    entries all have the same bits is formatted once.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        cells = [str(value) for value in values.tolist()]
    else:
        values = np.ascontiguousarray(values, dtype=np.float64) + 0.0  # -0.0 + 0.0 is 0.0; no other bits change
        bits = values.view(np.int64)
        if values.size and (bits == bits[0]).all():
            cells = ["%.12g" % values[0]] * values.size
        else:
            cells = ["%.12g" % value for value in values.tolist()]
    if present is not None:
        cells = [cell if keep else "" for cell, keep in zip(cells, present.tolist())]
    return cells


def _cells(columns: dict[str, np.ndarray]) -> dict[str, list[str]]:
    return {key: _format(column) for key, column in columns.items()}


def _write_table(out, columns: dict[str, list[str]]) -> None:
    """Write a header of the column names and then the rows of their cells, at once."""
    rows = zip(*columns.values(), strict=True)
    out.write("".join([",".join(columns) + "\n", *[",".join(row) + "\n" for row in rows]]))


class OutputError(OSError):
    """The output path cannot be written."""


@contextmanager
def _open_out(path: str | None):
    """Stream to a temporary file beside ``path`` that replaces it only if the command returns."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe shows here, inside main
        return
    if os.path.isdir(path):  # refused before the command runs: only the final rename would fail
        raise OutputError(f"cannot write {path}: Is a directory")
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        handle = open(temp, "w", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with handle:
            yield handle
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        os.unlink(temp)
        raise


def _sweep_columns(cfg: Config, curve: str = "p_q") -> dict[str, np.ndarray]:
    """The config's sweep as one float64 column per POINT_KEYS, curve after curve.

    A curve is the config with its ``curve`` key (p_q, or f_pd for optimize)
    set from that key's list. Every value was range-checked at load, so the
    one check left per step is f_pd < f_sd: the first step that fails it
    raises, before any row is evaluated.
    """
    variable, values = cfg["variable"], _grid(cfg)
    keys = ("lambda_p", "lambda_s") if variable == "lambda" else (variable,)
    listed = f"{curve}_list"
    if listed in cfg and variable == curve:
        raise ConfigError(f"{cfg.where(listed, 'variable')}: "
                          f"{listed} cannot be combined with a {curve} sweep")
    curves = cfg.get(listed, [cfg[curve]])
    columns = {key: np.full(len(curves) * values.size, cfg[key]) for key in POINT_KEYS}
    columns[curve] = np.repeat(np.array(curves, dtype=np.float64), values.size)
    columns.update(dict.fromkeys(keys, np.tile(values, len(curves))))
    rejected = np.flatnonzero(~(columns["f_pd"] < columns["f_sd"]))
    if rejected.size:
        row = {key: float(column[rejected[0]]) for key, column in columns.items()}
        if listed in cfg:
            cfg = cfg.derive(listed, **{curve: row[curve]})
        channel_from_config(cfg.derive("variable", **{key: row[key] for key in keys}))
    return columns


def _require_evaluable(point: dict[str, object], unevaluable: np.ndarray) -> None:
    """Raise UnevaluableError naming the first row of ``unevaluable``, if any.

    ``point`` maps each key to its value or column, broadcastable to the mask.
    """
    rows = np.flatnonzero(unevaluable)
    if rows.size:
        values = (np.broadcast_to(value, np.shape(unevaluable)).flat[rows[0]] for value in point.values())
        named = ", ".join(f"{key}={float(value)!r}" for key, value in zip(point, values))
        raise analytics.UnevaluableError(f"the closed forms cannot be evaluated at {named}")


def _point_seed(base_seed: int, index: int) -> int:
    """Row ``index``'s scenario seed ``base_seed << 32 | index``, whose SeedSequence entropy is that of
    ``[index, base_seed]``, numpy's idiom for per-worker streams from one root seed. ``index < 2**32``
    always holds: a sweep keeps each row in seven float64 columns, so 2**32 rows would need 224 GiB."""
    return base_seed << 32 | index


def _delay_forms(columns: dict[str, np.ndarray]) -> analytics.ClosedForms:
    """The closed forms of every sweep row; raises at a stable row they cannot evaluate."""
    cf = analytics.closed_forms(*columns.values())
    _require_evaluable(columns, cf.stable & ~cf.evaluable)
    return cf


def cmd_region(cfg: Config, out) -> int:
    channel = channel_from_config(cfg)
    if cfg["region_mode"] == "boundary":
        policies = cfg["policies"]
        union_root = analytics.union_region(channel.f_pd, channel.f_sd, channel.f_ps)[1]
        if "stop" not in cfg and union_root <= 0.0:
            raise ConfigError(f"{cfg.where('f_pd', 'f_sd', 'f_ps')}: the union of the stability regions ends at "
                              f"lambda_p = 0, so the default grid, which ends there too, is empty")
        root = f"the union boundary's root, from {cfg.where('f_pd', 'f_sd', 'f_ps')}"
        grid = _grid(Config({"start": 0.0, "stop": float(union_root), "steps": 101}, {"stop": root}) | cfg)
        p_q = np.array([[pol.p_q] for pol in policies])
        p_a = np.array([[pol.p_a] for pol in policies])
        cf = analytics.closed_forms(channel.f_pd, channel.f_sd, channel.f_ps, p_q, p_a, grid)
        # a curve shows the idle point lambda_p = 0 and the grid below bound_p, which is <= mu in floating
        # point (alpha >= serve_relay gives fl(serve_relay / alpha) <= 1; bound_p is mu where relay == 0).
        # So the one unstable point shown is the idle point of a policy whose mu is 0: its region is empty.
        # It is refused where the grid holds that point or where f_ps = 0 too, so that no policy serves
        # the primary; a grid above 0 leaves its curve empty, as for any policy whose bound is below it
        never = np.flatnonzero(cf.mu[:, 0] == 0.0)
        if never.size and (grid[0] == 0.0 or channel.f_ps == 0.0):
            pol = policies[never[0]]
            raise ConfigError(f"{cfg.where('f_pd', 'f_ps', 'policies')}: the primary is never served under the "
                              f"policy {pol.p_q!r}:{pol.p_a!r} (its service rate is 0), so its region is empty")
        shown = (grid == 0.0) | (grid < cf.bound_p)
        union = analytics.union_region(channel.f_pd, channel.f_sd, channel.f_ps, grid)[0]
        curve, step = np.nonzero(shown)
        blank = [""] * grid.size
        _write_table(out, {
            "policy": ["fixed"] * curve.size + ["union"] * grid.size,
            "p_q": _format(p_q[curve, 0]) + blank,
            "p_a": _format(p_a[curve, 0]) + blank,
            "lambda_p": _format(grid[step]) + _format(grid),
            "max_lambda_s": _format(cf.bound_s[shown]) + _format(union),
        })
        return 0
    columns = _sweep_columns(RATES_GRID | cfg | Config({"variable": "p_a"}))
    cf = analytics.closed_forms(*columns.values())
    _write_table(out, {
        "p_q": _format(columns["p_q"]),
        "p_a": _format(columns["p_a"]),
        "max_lambda_p": _format(cf.bound_p),
        "max_lambda_s": _format(cf.bound_s, ~(columns["lambda_p"] >= cf.mu)),
        "lambda_p_ref": _format(columns["lambda_p"]),
    })
    return 0


def cmd_delay(cfg: Config, out) -> int:
    columns = _sweep_columns(cfg)
    cf = _delay_forms(columns)
    stable = cf.stable
    _write_table(out, {
        **_cells(columns),
        "stable": _format(stable),
        "d_p": _format(cf.d_p, stable & (columns["lambda_p"] > 0.0)),
        "d_s": _format(cf.d_s, stable & (columns["lambda_s"] > 0.0)),
        "n_p": _format(cf.n_p, stable),
        "n_sp": _format(cf.n_sp, stable),
        "n_s": _format(cf.n_s, stable),
        "g00": _format(cf.g00, stable),
    })
    return 0


def _policy_columns(cfg: Config, kind: str) -> dict[str, np.ndarray]:
    """The sweep columns with the policy that runs: no cooperation is (p_q, p_a) = (1, 0)."""
    columns = _sweep_columns(cfg)
    if kind == "no_cooperation":
        columns.update(p_q=np.full_like(columns["p_q"], NO_COOPERATION.p_q),
                       p_a=np.full_like(columns["p_a"], NO_COOPERATION.p_a))
    return columns


def _simulate_rows(cfg: Config, columns: dict[str, np.ndarray], stable: np.ndarray) -> list[SimStats]:
    """The pooled stats of every stable row, in order, from one batch; no stable row, no batch."""
    scenarios = []
    for index in np.flatnonzero(stable).tolist():
        f_pd, f_sd, f_ps, p_q, p_a, lambda_p, lambda_s = (float(columns[key][index]) for key in POINT_KEYS)
        try:
            scenarios.append(Scenario(
                ChannelProfile(f_pd, f_sd, f_ps), OperatingPoint(lambda_p, lambda_s), Policy(p_q, p_a),
                policy_kind=cfg["policy_kind"], slots=cfg["slots"], warmup_slots=cfg["warmup"],
                seed=_point_seed(cfg["seed"], index),
            ))
        except ValueError as exc:  # slots > warmup, checked where the two values meet
            raise ConfigError(f"{cfg.where('slots', 'warmup')}: {exc}") from exc
    return replicate_many(scenarios, cfg["replications"]) if scenarios else []


def cmd_simulate(cfg: Config, out) -> int:
    kind = cfg["policy_kind"]
    columns = _policy_columns(cfg, kind)
    if kind == "strict_priority_relay":
        # strict priority (Sadek, Liu & Ephremides, IEEE Trans. Inf. Theory 53(10), 2007) runs the
        # policy STRICT_PRIORITY, whatever p_q and p_a say, plus a fallback to the own queue that
        # leaves the primary and relay queues as they are; its own queue is stable below the union region
        channel = [columns["f_pd"], columns["f_sd"], columns["f_ps"]]
        forms = analytics.closed_forms(*channel, STRICT_PRIORITY.p_q, STRICT_PRIORITY.p_a, columns["lambda_p"])
        primary = forms.margin_p > 0.0
        stable = primary & (analytics.union_region(*channel, columns["lambda_p"])[0] > columns["lambda_s"])
    else:
        stable = analytics.closed_forms(*columns.values()).stable
    runs = _simulate_rows(cfg, columns, stable)
    rows = stable.size
    stats = {}
    for field in fields(SimStats):
        column = np.zeros(rows, dtype=np.int64 if field.type == "int" else np.float64)
        column[stable] = [getattr(run, field.name) for run in runs]
        stats[field.name] = _format(column, stable)
    _write_table(out, {
        **_cells(columns),
        "policy_kind": [kind] * rows,
        **{key: [str(cfg[key])] * rows for key in ("slots", "warmup", "replications")},
        "seed": [str(_point_seed(cfg["seed"], index)) for index in range(rows)],
        "stable": _format(stable),
        **stats,
    })
    return 0


def cmd_validate(cfg: Config, out) -> int:
    kind = cfg["policy_kind"]
    if kind == "strict_priority_relay":
        raise ConfigError(f"{cfg.where('policy_kind')}: "
                          "validate has no closed forms for strict_priority_relay")
    columns = _policy_columns(cfg, kind)
    cf = _delay_forms(columns)
    stable = cf.stable
    runs = _simulate_rows(cfg, columns, stable)
    analytic = np.stack([cf.d_p, cf.d_s])
    simulated = np.zeros_like(analytic)
    simulated[:, stable] = [[run.mean_delay_p for run in runs], [run.mean_delay_s for run in runs]]
    present = stable & (np.stack([columns["lambda_p"], columns["lambda_s"]]) > 0.0)
    with np.errstate(all="ignore"):  # rows unstable or without arrivals hold any IEEE value
        margins = [cf.margin_p / cf.bound_p, cf.margin_s / cf.bound_s]
        errors = abs(simulated - analytic) / analytic
    within = ((errors <= cfg["tolerance"]) | ~present).all(axis=0)
    enforced = (margins[0] >= MARGIN_ENFORCEMENT) & (margins[1] >= MARGIN_ENFORCEMENT)
    failed = stable & ~within & enforced
    ok = within & (enforced | ~present.any(axis=0))
    status = np.where(~stable, "unstable", np.where(failed, "fail", np.where(ok, "ok", "marginal")))
    _write_table(out, {
        **_cells(columns),
        "rel_margin_p": _format(margins[0], stable),
        "rel_margin_s": _format(margins[1], stable),
        "analytic_d_p": _format(analytic[0], present[0]),
        "sim_d_p": _format(simulated[0], present[0]),
        "rel_err_d_p": _format(errors[0], present[0]),
        "analytic_d_s": _format(analytic[1], present[1]),
        "sim_d_s": _format(simulated[1], present[1]),
        "rel_err_d_s": _format(errors[1], present[1]),
        "status": status.tolist(),
    })
    return 1 if failed.any() else 0


def _optimize_columns(columns: dict[str, np.ndarray]) -> tuple[dict[str, list[str]], np.ndarray]:
    """The optimize cells of every (f_pd, f_sd, f_ps, lambda_p, lambda_s) row, by column, from
    one evaluation of both optima, and ``su_fault``. An optimum the closed forms cannot evaluate
    is left empty, as an infeasible one is; raises at a row that has no other optimum to report.
    So in a row that is reported, ``su_fault`` marks a feasible secondary optimum: the zero
    p_q-bound denominator faults both optima."""
    o = optimizer.optima(*columns.values())
    primary = (columns["lambda_p"] > 0.0) & ~o.pu_fault
    secondary = (columns["lambda_s"] > 0.0) & o.feasible & ~o.su_fault
    _require_evaluable(columns, (o.pu_fault | o.su_fault) & ~primary & ~secondary)
    no_coop = ~o.cooperate & o.feasible & o.no_coop_ok
    modes = np.where(o.cooperate, "cooperate", np.where(no_coop, "no_cooperation", "infeasible"))
    return {
        "pu_mode": [mode if keep else "" for mode, keep in zip(modes.tolist(), primary.tolist())],
        "pu_p_q_star": _format(o.pu_p_q_star, primary & o.cooperate),
        "pu_p_a_star": _format(np.ones_like(o.pu_p_q_star), primary & o.cooperate),
        "pu_d_p_star": _format(np.where(o.cooperate, o.pu_d_p_star, o.no_coop_d_p),
                               primary & (o.cooperate | no_coop)),
        "no_coop_d_p": _format(o.no_coop_d_p, o.no_coop_ok),
        "su_p_q_star": _format(o.su_p_q_star, secondary),
        "su_d_s_star": _format(o.su_d_s_star, secondary),
        "p_q_lower": _format(o.p_q_lower, o.bounds_defined),
        "p_q_upper": _format(o.p_q_upper, o.bounds_defined),
        "threshold_p_q": _format(o.threshold),
    }, o.su_fault


def cmd_optimize(cfg: Config, out) -> int:
    keys = ("f_pd", "f_sd", "f_ps", "lambda_p", "lambda_s")
    if "variable" in cfg:
        if cfg["variable"] not in ("lambda_p", "lambda_s"):
            raise ConfigError(f"{cfg.where('variable')}: "
                              "optimize sweeps support variable = lambda_p or lambda_s")
        columns = _sweep_columns(cfg, curve="f_pd")
        columns = {key: columns[key] for key in keys}
        _write_table(out, {**_cells(columns), **_optimize_columns(columns)[0]})
        return 0
    channel_from_config(cfg)  # a sweep checks each of its rows' channels instead
    point = {key: np.full(1, cfg[key]) for key in keys}
    columns, unevaluable = _optimize_columns(point)
    row = {key: cells[0] for key, cells in columns.items()}
    out.write("# primary delay minimization\n")
    for key, cell in row.items():
        if not key.startswith("su_"):
            out.write(f"{key} = {cell or 'n/a'}\n")
    out.write("# secondary delay minimization\n")
    if not row["su_p_q_star"]:
        status = "unevaluable" if unevaluable[0] else "infeasible"
        out.write(f"su_status = {status if cfg['lambda_s'] > 0.0 else 'no_traffic'}\n")
    for key, cell in row.items():
        if key.startswith("su_") and cell:
            out.write(f"{key} = {cell}\n")
    return 0


def cmd_oracle(cfg: Config, out) -> int:
    channel = channel_from_config(cfg)
    policy, point = Policy(cfg["p_q"], cfg["p_a"]), OperatingPoint(cfg["lambda_p"], cfg["lambda_s"])
    values = [cfg[key] for key in POINT_KEYS]
    cf = analytics.closed_forms(*values)
    if not cf.stable:
        raise ConfigError(f"{cfg.where('lambda_p', 'lambda_s')}: oracle requires a stable operating point, "
                          f"got lambda_p={point.lambda_p!r}, lambda_s={point.lambda_s!r}")
    _require_evaluable(dict(zip(POINT_KEYS, values)), ~cf.evaluable)
    truncation = cfg["truncation"]
    partners = {"primary_secondary": cf.n_s, "primary_relay": cf.n_sp}
    try:
        specs = [ChainSpec(channel, policy, point, pair=pair, truncation=truncation) for pair in partners]
    except ValueError as exc:  # the memory guard: a solve's memory grows linearly in the truncation
        raise ConfigError(f"{cfg.where('truncation')}: {exc}") from exc
    sols = []
    for spec in specs:
        try:
            sols.append(solve_stationary(spec))
        except (ConvergenceError, np.linalg.LinAlgError) as exc:  # the solver's own fault: no key can cure it
            raise type(exc)(f"oracle solve failed for {spec.pair}: {exc}") from exc
        except (TruncationError, UnstableError, RangeError) as exc:
            # a tail longer than the budget is the truncation's fault, a drift or range fault the point's
            keys = ("truncation",) if isinstance(exc, TruncationError) else ("lambda_p", "lambda_s")
            raise ConfigError(f"{cfg.where(*keys)}: oracle solve failed for {spec.pair}: {exc}") from exc

    def solved(name: str) -> np.ndarray:
        return np.array([getattr(sol, name) for sol in sols])

    means = np.stack([solved("mean_first"), solved("mean_second")])
    analytic = np.stack([np.full(2, cf.n_p), np.array(list(partners.values()))])
    with np.errstate(all="ignore"):  # an analytic mean of 0 takes the absolute error
        rel_errs = np.where(analytic > 0.0, abs(means - analytic) / analytic, abs(means))
    p_qp_empty = np.array([sol.primary_law[0] for sol in sols])
    # the relay pair has no joint-empty probability to compare
    g00 = np.array([True, False])
    _write_table(out, {
        "pair": list(partners),
        "truncation": [str(truncation)] * 2,
        "iterations": _format(solved("iterations")),
        "residual": _format(solved("residual")),
        "mass_at_boundary": _format(solved("mass_at_boundary")),
        "mean_qp": _format(means[0]),
        "mean_partner": _format(means[1]),
        "p00": _format(solved("p00")),
        "p_qp_empty": _format(p_qp_empty),
        "n_p_analytic": _format(analytic[0]),
        "partner_analytic": _format(analytic[1]),
        "g00_analytic": _format(np.full(2, cf.g00), g00),
        "p_qp_empty_analytic": _format(np.full(2, cf.p_empty)),
        "rel_err_n_p": _format(rel_errs[0]),
        "rel_err_partner": _format(rel_errs[1]),
        "abs_err_g00": _format(abs(solved("p00") - cf.g00), g00),
        "abs_err_p_qp_empty": _format(abs(p_qp_empty - cf.p_empty)),
    })
    return 0


def cmd_tradeoff(cfg: Config, out) -> int:
    channel_from_config(cfg)
    if cfg["lambda_p"] <= 0.0 or cfg["lambda_s"] <= 0.0:
        raise ConfigError(f"{cfg.where('lambda_p', 'lambda_s')}: "
                          "tradeoff requires positive lambda_p and lambda_s")
    columns = _sweep_columns(TRADEOFF_GRID | cfg | Config({"variable": "p_a"}))
    cf = _delay_forms(columns)
    stable = cf.stable
    _write_table(out, {
        **{key: _format(columns[key]) for key in ("p_q", "p_a", "lambda_p", "lambda_s")},
        "stable": _format(stable),
        "d_s": _format(cf.d_s, stable),
        "d_p": _format(cf.d_p, stable),
    })
    return 0


#: Every subcommand in ``--help``'s order, as (body, description, the config keys only it takes as flags
#: with their help, to which the parser adds the key's default). Only the parser and main read it.
_COMMANDS = {
    "region": (cmd_region, "trace stable-throughput region boundaries to CSV", {}),
    "delay": (cmd_delay, "evaluate closed-form delays and queue lengths over a sweep", {}),
    "simulate": (cmd_simulate, "run slot-level simulations over a sweep", {}),
    "validate": (cmd_validate, "compare simulation against closed forms, exit 1 on violations",
                 {"tolerance": "relative error tolerance"}),
    "optimize": (cmd_optimize, "solve the delay-minimization problems (report or sweep CSV)", {}),
    "oracle": (cmd_oracle, "cross-check closed forms against the truncated-chain solver",
               {"truncation": "most phases (primary queue lengths) an oracle solve may use; a point whose "
                              "tail needs more is refused"}),
    "tradeoff": (cmd_tradeoff, "emit (D_s, D_p) pairs along a p_a sweep at fixed p_q values", {}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one parser serves every call
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="path to a key=value config file")
    shared.add_argument("--out", help="output path (default stdout)")
    shared.add_argument("--seed", help="base RNG seed")
    shared.add_argument("--slots", help="slots per simulation run")
    shared.add_argument("--warmup", help="warmup slots excluded from statistics")
    shared.add_argument("--replications", help="independent replications per point")
    shared.add_argument("--preset", help=f"parameter preset, one of: {', '.join(sorted(PRESETS))}")
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Queueing toolkit for cooperative spectrum sharing with probabilistic relaying.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, description, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=description, description=description, parents=[shared])
        for key, text in flags.items():
            command.add_argument(f"--{key}", help=f"{text} (default {KEYS[key].default})")
    return parser


def _effective_config(args: argparse.Namespace) -> Config:
    """The preset, the config file, the seed variable and the flags, each laid over the one before."""
    cfg = Config()
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
        cfg = parse_values(PRESETS[args.preset], f"preset {args.preset}")
    if args.config:
        cfg |= load_config_file(args.config)
    if ENV_SEED in os.environ:
        cfg |= parse_values({"seed": os.environ[ENV_SEED]}, ENV_SEED)
    for key, value in vars(args).items():  # the flags named after config keys
        if key in KEYS and value is not None:
            cfg |= parse_values({key: value}, f"--{key}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        with _open_out(args.out) as out:
            run = _COMMANDS[args.command][0]
            return run(cfg, out)
    except (OutputError, ConvergenceError, np.linalg.LinAlgError) as exc:
        # an unwritable output or a solver fault: no key of the request can cure it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError and UnevaluableError are ValueErrors: anything a
        # well-formed request cannot trigger is a configuration problem
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (``| head``): stop without a traceback,
        # and point stdout at devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
