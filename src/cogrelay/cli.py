"""Command-line front end: sweeps, validation, oracle runs and optimization reports.

Every subcommand emits CSV (comma separator, ``.`` decimal point, 12
significant digits, mandatory header) except ``optimize`` without a sweep,
which prints a key=value report. Identical config plus seed yields
byte-identical output. Exit codes: 0 success, 1 validation failure, 2 config
or output error, 141 when standard output is closed before the command ends
(as ``| head`` does).

Parameter precedence, lowest to highest: preset, config file, the seed
environment variable, command-line flags.

A sweep is built as columns, one float64 array per channel, policy and point
key (:func:`_sweep_columns`). The closed-form commands (``delay``,
``tradeoff``, ``region``, ``optimize``) evaluate their whole table in one
call of the array core (:func:`cogrelay.analytics.closed_forms`,
:func:`cogrelay.optimizer.optima`) and write it at once with
:func:`_write_table`. Where the core marks a row the closed forms cannot
evaluate, that row is evaluated again through the scalar functions, which
raise what they always raised; a failing sweep writes nothing. ``simulate``
and ``validate`` build the scenario of every stable row and simulate them all
in one :func:`cogrelay.simulator.replicate_many` batch, which spreads the runs
over the CPUs; a failing sweep raises what its first failing row raises.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import analytics, optimizer
from .analytics import DegeneratePolicyError, InstabilityError
from .config import (
    ConfigError,
    channel_from_config,
    get_float,
    get_float_list,
    get_int,
    get_policy_list,
    get_str,
    load_config_file,
    point_from_config,
    policy_from_config,
)
from .model import ChannelProfile, OperatingPoint, Policy
from .oracle import ChainSpec, solve_stationary
from .simulator import POLICY_KINDS, Scenario, SimStats, replicate_many

__all__ = ["main", "entrypoint", "SweepSpec", "PRESETS", "ENV_SEED"]

ENV_SEED = "COGRELAY_SEED"
DEFAULT_SEED = 12345
DEFAULT_SLOTS = 1_000_000
DEFAULT_WARMUP = 10_000
#: Exit code when stdout is closed early: 128 + SIGPIPE, as shells report it.
EXIT_BROKEN_PIPE = 141

#: Relative stability margin above which validation failures drive the exit code.
MARGIN_ENFORCEMENT = 0.10

SWEEP_VARIABLES = ("lambda", "lambda_p", "lambda_s", "p_q", "p_a", "f_pd")

REGION_BOUNDARY_HEADER = "policy,p_q,p_a,lambda_p,max_lambda_s"
REGION_RATES_HEADER = "p_q,p_a,max_lambda_p,max_lambda_s,lambda_p_ref"
DELAY_HEADER = "f_pd,f_sd,f_ps,p_q,p_a,lambda_p,lambda_s,stable,d_p,d_s,n_p,n_sp,n_s,g00"
SIMULATE_HEADER = (
    "f_pd,f_sd,f_ps,p_q,p_a,lambda_p,lambda_s,policy_kind,slots,warmup,replications,seed,stable,"
    + ",".join(f.name for f in fields(SimStats))
)
VALIDATE_HEADER = (
    "f_pd,f_sd,f_ps,p_q,p_a,lambda_p,lambda_s,rel_margin_p,rel_margin_s,"
    "analytic_d_p,sim_d_p,rel_err_d_p,analytic_d_s,sim_d_s,rel_err_d_s,status"
)
#: The optimize columns after the channel and the point. The point report
#: prints the same keys, its su_* ones in a section of their own.
OPTIMIZE_COLUMNS = (
    "pu_mode", "pu_p_q_star", "pu_p_a_star", "pu_d_p_star", "no_coop_d_p",
    "su_p_q_star", "su_d_s_star", "p_q_lower", "p_q_upper", "threshold_p_q",
)
OPTIMIZE_SWEEP_HEADER = "f_pd,f_sd,f_ps,lambda_p,lambda_s," + ",".join(OPTIMIZE_COLUMNS)
ORACLE_HEADER = (
    "pair,truncation,iterations,residual,mass_at_boundary,mean_qp,mean_partner,p00,p_qp_empty,"
    "n_p_analytic,partner_analytic,g00_analytic,p_qp_empty_analytic,"
    "rel_err_n_p,rel_err_partner,abs_err_g00,abs_err_p_qp_empty"
)
TRADEOFF_HEADER = "p_q,p_a,lambda_p,lambda_s,stable,d_s,d_p"

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
TRADEOFF_GRID = {"start": "0", "stop": "1", "steps": "21"}
RATES_GRID = {
    "start": "0", "stop": "1", "steps": "101", "p_q_list": "0.2, 0.4, 0.625, 0.8", "lambda_p": "0.2",
}


@dataclass(frozen=True)
class SweepSpec:
    """A linear sweep of one scenario parameter."""

    variable: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if self.steps < 2:
            raise ConfigError(f"key 'steps': must be >= 2, got {self.steps}")
        if not self.start < self.stop:
            raise ConfigError(f"need start < stop, got start={self.start}, stop={self.stop}")
        for key, value in (("start", self.start), ("stop", self.stop)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"key {key!r}: sweep range must stay within [0, 1], got {value}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _cell(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % value


def _format(values: np.ndarray, present: np.ndarray | None = None) -> list[str]:
    """The cells of a float64 column, empty where ``present`` is False.

    A column whose entries all have the same bits is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    if values.size and (bits == bits[0]).all():
        cells = ["%.12g" % values[0]] * values.size
    else:
        cells = ["%.12g" % value for value in values.tolist()]
    if present is not None:
        cells = [cell if keep else "" for cell, keep in zip(cells, present.tolist())]
    return cells


def _flags(mask: np.ndarray) -> list[str]:
    return ["1" if flag else "0" for flag in mask.tolist()]


def _write_table(out, header: str, rows) -> None:
    """Write the header and the rows, each a sequence of formatted cells, at once."""
    out.write("".join([header + "\n", *[",".join(row) + "\n" for row in rows]]))


def _write_rows(out, header: str, rows) -> None:
    """:func:`_write_table` for rows of values, formatted cell by cell."""
    _write_table(out, header, ([_cell(value) for value in row] for row in rows))


class OutputError(OSError):
    """The output path cannot be written."""


@contextmanager
def _open_out(path: str | None):
    """Stream to a temporary file beside ``path`` that replaces it only if the command returns."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe shows here, inside main
        return
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


def _sweep_from_config(cfg: dict[str, str]) -> SweepSpec:
    return SweepSpec(
        variable=get_str(cfg, "variable"),
        start=get_float(cfg, "start"),
        stop=get_float(cfg, "stop"),
        steps=get_int(cfg, "steps"),
    )


def _step_objects(cfg: dict[str, str], sweep: SweepSpec, keys: tuple[str, ...], value: float):
    """(channel, policy, point) of the sweep step that sets ``keys`` to ``value``.

    ``repr`` round-trips every float exactly.
    """
    step = {**cfg, **dict.fromkeys(keys, repr(value))}
    try:
        return channel_from_config(step), policy_from_config(step), point_from_config(step)
    except ConfigError as exc:
        raise ConfigError(f"invalid sweep point ({sweep.variable}={value!r}): {exc}") from exc


def _sweep_columns(cfg: dict[str, str]) -> tuple[dict[str, np.ndarray], ConfigError | None]:
    """The config's sweep as one float64 column per POINT_KEYS, curve after curve.

    A curve is the config with its p_q from ``p_q_list`` overlaid. Each curve
    is validated once, through the objects of its first step; its other steps
    change only the swept keys, to values in [0, 1], so the one check left
    per step is f_pd < f_sd. The columns end before the first step the model
    rejects, and that step's error is returned beside them (None when every
    step is valid), so a command raises it after the rows before it.
    """
    sweep = _sweep_from_config(cfg)
    keys = ("lambda_p", "lambda_s") if sweep.variable == "lambda" else (sweep.variable,)
    curves: list[dict[str, str]] = [{}]
    if "p_q_list" in cfg:
        if sweep.variable == "p_q":
            raise ConfigError("p_q_list cannot be combined with a p_q sweep")
        curves = [{"p_q": repr(p_q)} for p_q in get_float_list(cfg, "p_q_list")]
    values = sweep.values()
    blocks: list[dict[str, np.ndarray]] = []
    error = None
    for curve in curves:
        try:
            ch, pol, pt = _step_objects({**cfg, **curve}, sweep, keys, float(values[0]))
        except ConfigError as exc:
            error = exc
            break
        first = dict(zip(POINT_KEYS, (ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a,
                                      pt.lambda_p, pt.lambda_s)))
        block = {key: values if key in keys else np.full(values.size, first[key])
                 for key in POINT_KEYS}
        rejected = np.flatnonzero(~(block["f_pd"] < block["f_sd"]))
        if rejected.size:
            bad = int(rejected[0])
            blocks.append({key: column[:bad] for key, column in block.items()})
            try:
                _step_objects({**cfg, **curve}, sweep, keys, float(values[bad]))
            except ConfigError as exc:
                error = exc
            break
        blocks.append(block)
    columns = {key: np.concatenate([block[key] for block in blocks] or [np.empty(0)])
               for key in POINT_KEYS}
    return columns, error


def _row_objects(columns: dict[str, np.ndarray], index: int):
    f_pd, f_sd, f_ps, p_q, p_a, lambda_p, lambda_s = (
        float(columns[key][index]) for key in POINT_KEYS
    )
    return ChannelProfile(f_pd, f_sd, f_ps), Policy(p_q, p_a), OperatingPoint(lambda_p, lambda_s)


def _raise_first(fault: np.ndarray, error: Exception | None, evaluate) -> None:
    """Raise what the sweep's first failing row raises, if any row fails.

    ``evaluate(index)`` runs that row through the scalar functions, which
    raise for every row in ``fault``; rows the model rejected come after all
    evaluated rows, so ``error`` goes last.
    """
    faulty = np.flatnonzero(fault)
    if faulty.size:
        evaluate(int(faulty[0]))
        raise AssertionError(f"sweep row {faulty[0]} is marked as failing but evaluates")
    if error is not None:
        raise error


def _point_seed(base_seed: int, index: int) -> int:
    state = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)).generate_state(
        1, dtype=np.uint64
    )
    return int(state[0])


def _delay_forms(columns: dict[str, np.ndarray], error: ConfigError | None):
    """The closed forms of every sweep row; raises where a stable row's report would."""
    cf = analytics.closed_forms(*columns.values())
    _raise_first(
        cf.stable & ~cf.evaluable,
        error,
        lambda index: analytics.delay_report(*_row_objects(columns, index)),
    )
    return cf


def cmd_region(cfg: dict[str, str], out) -> int:
    mode = get_str(cfg, "region_mode", "boundary")
    channel = channel_from_config(cfg)
    if mode == "boundary":
        policies = get_policy_list(cfg, "policies", default=[Policy(0.5, 1.0)])
        steps = get_int(cfg, "steps", 101)
        _, union_root, _ = analytics.union_region(channel.f_pd, channel.f_sd, channel.f_ps)
        start = get_float(cfg, "start", 0.0)
        stop = get_float(cfg, "stop", float(union_root))
        grid = SweepSpec("lambda_p", start, stop, steps).values()
        p_q = np.array([[pol.p_q] for pol in policies])
        p_a = np.array([[pol.p_a] for pol in policies])
        cf = analytics.closed_forms(channel.f_pd, channel.f_sd, channel.f_ps, p_q, p_a, grid)
        # the curve's domain always includes the idle-primary point
        shown = (grid == 0.0) | (grid < cf.bound_p)
        unstable = shown & (grid >= cf.mu)
        for pol, degenerate, row in zip(policies, cf.degenerate[:, 0], unstable):
            if degenerate or row.any():
                try:
                    analytics.max_arrival_primary(channel, pol)
                except DegeneratePolicyError as exc:
                    raise ConfigError(str(exc)) from exc
                analytics.max_arrival_secondary(channel, pol, float(grid[row.argmax()]))
        union, _, slope_den = analytics.union_region(channel.f_pd, channel.f_sd, channel.f_ps, grid)
        if (slope_den == 0.0).any():
            analytics.union_region_max_lambda_s(channel, float(grid[0]))
        curve, step = np.nonzero(shown)
        blank = [""] * grid.size
        _write_table(out, REGION_BOUNDARY_HEADER, zip(
            ["fixed"] * curve.size + ["union"] * grid.size,
            _format(p_q[curve, 0]) + blank,
            _format(p_a[curve, 0]) + blank,
            _format(grid[step]) + _format(grid),
            _format(cf.bound_s[shown]) + _format(union),
        ))
        return 0
    if mode == "rates":
        columns, error = _sweep_columns({**RATES_GRID, **cfg, "variable": "p_a"})
        if error is not None:
            raise error
        cf = analytics.closed_forms(*columns.values())
        _write_table(out, REGION_RATES_HEADER, zip(
            _format(columns["p_q"]),
            _format(columns["p_a"]),
            _format(cf.bound_p, ~cf.degenerate),
            _format(cf.bound_s, ~(columns["lambda_p"] >= cf.mu)),
            _format(columns["lambda_p"]),
        ))
        return 0
    raise ConfigError(f"region_mode must be 'boundary' or 'rates', got {mode!r}")


def cmd_delay(cfg: dict[str, str], out) -> int:
    columns, error = _sweep_columns(cfg)
    cf = _delay_forms(columns, error)
    stable = cf.stable
    _write_table(out, DELAY_HEADER, zip(
        *map(_format, columns.values()),
        _flags(stable),
        _format(cf.d_p, stable & (columns["lambda_p"] > 0.0)),
        _format(cf.d_s, stable & (columns["lambda_s"] > 0.0)),
        _format(cf.n_p, stable),
        _format(cf.n_sp, stable),
        _format(cf.n_s, stable),
        _format(cf.g00, stable),
    ))
    return 0


def _sim_options(cfg: dict[str, str]) -> tuple[int, int, int, int, str]:
    slots = get_int(cfg, "slots", DEFAULT_SLOTS)
    warmup = get_int(cfg, "warmup", DEFAULT_WARMUP)
    replications = get_int(cfg, "replications", 1)
    seed = get_int(cfg, "seed", DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"key 'seed': expected a non-negative integer, got {seed}")
    kind = get_str(cfg, "policy_kind", "randomized")
    if kind not in POLICY_KINDS:
        raise ConfigError(f"policy_kind must be one of {POLICY_KINDS}, got {kind!r}")
    return slots, warmup, replications, seed, kind


def _simulate_batch(scenarios: list[Scenario], replications: int):
    """The pooled stats of every scenario, from one batch, in order."""
    return iter(replicate_many(scenarios, replications) if scenarios else ())


def cmd_simulate(cfg: dict[str, str], out) -> int:
    slots, warmup, replications, seed, kind = _sim_options(cfg)
    columns, error = _sweep_columns(cfg)
    rows, scenarios = [], []
    for index in range(columns["f_pd"].size):
        ch, pol, pt = _row_objects(columns, index)
        point_seed = _point_seed(seed, index)
        stable = analytics.is_stable(ch, pol, pt).stable
        rows.append([
            ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s,
            kind, slots, warmup, replications, point_seed, int(stable),
        ])
        if stable:
            try:
                scenarios.append(Scenario(ch, pt, pol, policy_kind=kind, slots=slots,
                                          warmup_slots=warmup, seed=point_seed))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    try:
        batch = _simulate_batch(scenarios, replications)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if error is not None:
        raise error
    blank = (None,) * len(fields(SimStats))
    # a row's last cell is its stability flag
    _write_rows(out, SIMULATE_HEADER, ([*row, *(astuple(next(batch)) if row[-1] else blank)]
                                       for row in rows))
    return 0


def cmd_validate(cfg: dict[str, str], out) -> int:
    slots, warmup, replications, seed, kind = _sim_options(cfg)
    if kind != "randomized":
        raise ConfigError("validate compares against the randomized-policy closed forms")
    tolerance = get_float(cfg, "tolerance", 0.03)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ConfigError(f"key 'tolerance': must be finite and >= 0, got {tolerance!r}")
    columns, error = _sweep_columns(cfg)
    points, scenarios, fault = [], [], None
    try:
        for index in range(columns["f_pd"].size):
            ch, pol, pt = _row_objects(columns, index)
            identity = [ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s]
            verdict = analytics.is_stable(ch, pol, pt)
            if not verdict.stable:
                points.append((identity, None, None))
                continue
            bound_p = analytics.max_arrival_primary(ch, pol)
            bound_s = analytics.max_arrival_secondary(ch, pol, pt.lambda_p)
            rel_margin_p = verdict.margin_p / bound_p if bound_p > 0.0 else 0.0
            rel_margin_s = verdict.margin_s / bound_s if bound_s > 0.0 else 0.0
            scenarios.append(Scenario(ch, pt, pol, policy_kind=kind, slots=slots,
                                      warmup_slots=warmup, seed=_point_seed(seed, index)))
            points.append((identity, (rel_margin_p, rel_margin_s),
                           analytics.delay_report(ch, pol, pt)))
    except Exception as exc:
        # a row-by-row loop simulates every row before this one, and this one
        # if only its report failed, so their errors come first
        fault = exc
    batch = _simulate_batch(scenarios, replications)
    if fault is not None:
        raise fault
    rows = []
    failed = False
    for identity, margins, report in points:
        if report is None:
            rows.append(identity + [None] * 8 + ["unstable"])
            continue
        stats = next(batch)
        errors: list[float] = []
        cells: list[float | None] = []
        for analytic_value, sim_value in (
            (report.d_p, stats.mean_delay_p),
            (report.d_s, stats.mean_delay_s),
        ):
            if analytic_value is None:
                cells += [None, None, None]
            else:
                err = abs(sim_value - analytic_value) / analytic_value
                errors.append(err)
                cells += [analytic_value, sim_value, err]
        enforced = min(margins) >= MARGIN_ENFORCEMENT
        if not errors:
            status = "ok"
        elif max(errors) <= tolerance:
            status = "ok" if enforced else "marginal"
        elif enforced:
            status = "fail"
            failed = True
        else:
            status = "marginal"
        rows.append(identity + [*margins] + cells + [status])
    if error is not None:
        raise error
    _write_rows(out, VALIDATE_HEADER, rows)
    return 1 if failed else 0


def _optimize_point(ch: ChannelProfile, pt: OperatingPoint) -> None:
    """The optimizer calls of one optimize row, in the row's order: raises where the row fails."""
    try:
        optimizer.pq_lower_bound(ch, pt, 1.0)
    except optimizer.InfeasibleError:
        pass
    if pt.lambda_p > 0.0:
        optimizer.minimize_primary_delay(ch, pt)
    if pt.lambda_s > 0.0:
        try:
            optimizer.minimize_secondary_delay(ch, pt)
        except optimizer.InfeasibleError:
            pass


def _optimize_columns(f_pd, f_sd, f_ps, lambda_p, lambda_s, error=None) -> list[list[str]]:
    """The OPTIMIZE_COLUMNS cells of every row, from one evaluation of both optima."""
    o = optimizer.optima(f_pd, f_sd, f_ps, lambda_p, lambda_s)
    _raise_first(o.fault, error, lambda index: _optimize_point(
        ChannelProfile(float(f_pd[index]), f_sd, f_ps),
        OperatingPoint(float(lambda_p[index]), float(lambda_s[index])),
    ))
    primary = lambda_p > 0.0
    no_coop = ~o.cooperate & o.feasible & o.no_coop_ok
    secondary = (lambda_s > 0.0) & o.feasible
    modes = np.where(o.cooperate, "cooperate", np.where(no_coop, "no_cooperation", "infeasible"))
    return [
        [mode if keep else "" for mode, keep in zip(modes.tolist(), primary.tolist())],
        _format(o.pu_p_q_star, primary & o.cooperate),
        _format(np.ones_like(o.pu_p_q_star), primary & o.cooperate),
        _format(np.where(o.cooperate, o.pu_d_p_star, o.no_coop_d_p),
                primary & (o.cooperate | no_coop)),
        _format(o.no_coop_d_p, o.no_coop_ok),
        _format(o.su_p_q_star, secondary),
        _format(o.su_d_s_star, secondary),
        _format(o.p_q_lower, o.bounds_defined),
        _format(o.p_q_upper, o.bounds_defined),
        _format(o.threshold),
    ]


def cmd_optimize(cfg: dict[str, str], out) -> int:
    channel = channel_from_config(cfg)
    if "variable" in cfg:
        sweep = _sweep_from_config(cfg)
        if sweep.variable not in ("lambda_p", "lambda_s"):
            raise ConfigError("optimize sweeps support variable = lambda_p or lambda_s")
        f_pd_values = get_float_list(cfg, "f_pd_list", default=[channel.f_pd])
        base_point = point_from_config(cfg)
        error = None
        curves = []
        for f_pd in f_pd_values:
            try:
                ChannelProfile(f_pd, channel.f_sd, channel.f_ps)
            except ValueError as exc:
                error = ConfigError(str(exc))
                break
            curves.append(f_pd)
        values = sweep.values()
        f_pd = np.repeat(np.array(curves, dtype=np.float64), values.size)
        swept = np.tile(values, len(curves))
        lambda_p, lambda_s = (
            swept if sweep.variable == key else np.full(swept.size, getattr(base_point, key))
            for key in ("lambda_p", "lambda_s")
        )
        columns = _optimize_columns(f_pd, channel.f_sd, channel.f_ps, lambda_p, lambda_s, error)
        _write_table(out, OPTIMIZE_SWEEP_HEADER, zip(
            _format(f_pd), _format(np.full(f_pd.size, channel.f_sd)),
            _format(np.full(f_pd.size, channel.f_ps)), _format(lambda_p), _format(lambda_s),
            *columns,
        ))
        return 0
    point = point_from_config(cfg)
    columns = _optimize_columns(
        np.array([channel.f_pd]), channel.f_sd, channel.f_ps,
        np.array([point.lambda_p]), np.array([point.lambda_s]),
    )
    row = {key: cells[0] for key, cells in zip(OPTIMIZE_COLUMNS, columns)}
    out.write("# primary delay minimization\n")
    for key, cell in row.items():
        if not key.startswith("su_"):
            out.write(f"{key} = {cell or 'n/a'}\n")
    out.write("# secondary delay minimization\n")
    if not row["su_p_q_star"]:
        out.write("su_status = infeasible\n")
    for key, cell in row.items():
        if key.startswith("su_") and cell:
            out.write(f"{key} = {cell}\n")
    return 0


def cmd_oracle(cfg: dict[str, str], out) -> int:
    channel = channel_from_config(cfg)
    policy = policy_from_config(cfg)
    point = point_from_config(cfg)
    try:
        report = analytics.delay_report(channel, policy, point)
    except InstabilityError as exc:
        raise ConfigError("oracle requires a stable operating point") from exc
    truncation = get_int(cfg, "truncation", 400)
    tolerance = get_float(cfg, "oracle_tolerance", 1e-12)
    n_p = report.n_p
    p_empty = analytics.prob_primary_empty(channel, policy, point)
    rows = []
    for pair in ("primary_secondary", "primary_relay"):
        spec = ChainSpec(channel, policy, point, pair=pair, truncation=truncation, tolerance=tolerance)
        try:
            sol = solve_stationary(spec)
        except RuntimeError as exc:
            raise ConfigError(f"oracle solve failed for {pair}: {exc}") from exc
        if pair == "primary_secondary":
            partner_analytic = report.n_s
            g00_analytic: float | None = report.g00
            abs_err_g00: float | None = abs(sol.p00 - report.g00)
        else:
            partner_analytic = report.n_sp
            g00_analytic = None
            abs_err_g00 = None
        p_qp_empty = float(sol.distribution[0, :].sum())
        rel_err_n_p = abs(sol.mean_first - n_p) / n_p if n_p > 0.0 else abs(sol.mean_first)
        rel_err_partner = (
            abs(sol.mean_second - partner_analytic) / partner_analytic
            if partner_analytic > 0.0
            else abs(sol.mean_second)
        )
        rows.append(
            [pair, truncation, sol.iterations, sol.residual, sol.mass_at_boundary,
             sol.mean_first, sol.mean_second, sol.p00, p_qp_empty,
             n_p, partner_analytic, g00_analytic, p_empty,
             rel_err_n_p, rel_err_partner, abs_err_g00, abs(p_qp_empty - p_empty)],
        )
    _write_rows(out, ORACLE_HEADER, rows)
    return 0


def cmd_tradeoff(cfg: dict[str, str], out) -> int:
    channel_from_config(cfg)
    point = point_from_config(cfg)
    if point.lambda_p <= 0.0 or point.lambda_s <= 0.0:
        raise ConfigError("tradeoff requires positive lambda_p and lambda_s")
    columns, error = _sweep_columns({**TRADEOFF_GRID, **cfg, "variable": "p_a"})
    cf = _delay_forms(columns, error)
    stable = cf.stable
    _write_table(out, TRADEOFF_HEADER, zip(
        _format(columns["p_q"]),
        _format(columns["p_a"]),
        _format(columns["lambda_p"]),
        _format(columns["lambda_s"]),
        _flags(stable),
        _format(cf.d_s, stable),
        _format(cf.d_p, stable),
    ))
    return 0


_COMMANDS = {
    "region": cmd_region,
    "delay": cmd_delay,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "optimize": cmd_optimize,
    "oracle": cmd_oracle,
    "tradeoff": cmd_tradeoff,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one parser serves every call
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="path to a key=value config file")
    shared.add_argument("--out", help="output path (default stdout)")
    shared.add_argument("--seed", type=int, help="base RNG seed")
    shared.add_argument("--slots", type=int, help="slots per simulation run")
    shared.add_argument("--warmup", type=int, help="warmup slots excluded from statistics")
    shared.add_argument("--replications", type=int, help="independent replications per point")
    shared.add_argument("--preset", help=f"parameter preset, one of: {', '.join(sorted(PRESETS))}")
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Queueing toolkit for cooperative spectrum sharing with probabilistic relaying.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "region": "trace stable-throughput region boundaries to CSV",
        "delay": "evaluate closed-form delays and queue lengths over a sweep",
        "simulate": "run slot-level simulations over a sweep",
        "validate": "compare simulation against closed forms, exit 1 on violations",
        "optimize": "solve the delay-minimization problems (report or sweep CSV)",
        "oracle": "cross-check closed forms against the truncated-chain solver",
        "tradeoff": "emit (D_s, D_p) pairs along a p_a sweep at fixed p_q values",
    }
    for name, desc in descriptions.items():
        sub.add_parser(name, help=desc, description=desc, parents=[shared])
    sub.choices["validate"].add_argument(
        "--tolerance", type=float, help="relative error tolerance (default 0.03)"
    )
    sub.choices["oracle"].add_argument(
        "--truncation", type=int, help="lattice size per dimension (default 400)"
    )
    return parser


def _effective_config(args: argparse.Namespace) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
        cfg.update(PRESETS[args.preset])
    if args.config:
        cfg.update(load_config_file(args.config))
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED}={env_seed!r} is not an integer") from exc
        cfg["seed"] = env_seed
    for flag in ("seed", "slots", "warmup", "replications", "tolerance", "truncation"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = str(value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        with _open_out(args.out) as out:
            return _COMMANDS[args.command](cfg, out)
    except ValueError as exc:
        # ConfigError and the analytics errors are ValueErrors: anything a
        # well-formed request cannot trigger is a configuration problem
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
