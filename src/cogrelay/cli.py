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
from dataclasses import astuple, fields

import numpy as np

from . import analytics, optimizer
from .config import (
    KEYS,
    POINT_DEFAULTS,
    Config,
    ConfigError,
    channel_from_config,
    load_config_file,
    parse_values,
    point_from_config,
    policy_from_config,
)
from .model import NO_COOPERATION, ChannelProfile, OperatingPoint, Policy
from .oracle import ChainSpec, solve_stationary
from .simulator import Scenario, SimStats, replicate_many

__all__ = ["main", "entrypoint", "PRESETS", "ENV_SEED"]

ENV_SEED = "COGRELAY_SEED"
DEFAULT_SEED = 12345
DEFAULT_SLOTS = 1_000_000
DEFAULT_WARMUP = 10_000
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
POINT_KEYS = tuple(POINT_DEFAULTS)

#: Grid defaults of the p_a sweeps that ``tradeoff`` and ``region`` in rates
#: mode run over ``p_q_list``; config keys override them.
TRADEOFF_GRID = Config({"start": 0.0, "stop": 1.0, "steps": 21})
RATES_GRID = Config({
    "start": 0.0, "stop": 1.0, "steps": 101, "p_q_list": [0.2, 0.4, 0.625, 0.8], "lambda_p": 0.2,
})


def _grid(cfg: Config) -> np.ndarray:
    """The config's linear sweep grid; start < stop is checked here, where the two values meet."""
    start, stop, steps = cfg["start"], cfg["stop"], cfg["steps"]
    if not start < stop:
        raise ConfigError(f"{cfg.where('start', 'stop')}: need start < stop, got start={start}, stop={stop}")
    return np.linspace(start, stop, steps)


def _format(values: np.ndarray, present: np.ndarray | None = None) -> list[str]:
    """The cells of a column, empty where ``present`` is False.

    Integers print exactly; floats and bools print as float64 to 12
    significant digits, so True is 1. A float column whose entries all have
    the same bits is formatted once.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        cells = [str(value) for value in values.tolist()]
    else:
        values = np.ascontiguousarray(values, dtype=np.float64)
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
    curves = cfg.get(listed, [cfg.get(curve, POINT_DEFAULTS[curve])])
    columns = {key: np.full(len(curves) * values.size, cfg.get(key, default))
               for key, default in POINT_DEFAULTS.items()}
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


_MASK32 = 0xFFFF_FFFF


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of n >= 0, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _point_seed(base_seed: int, index: int) -> int:
    """``SeedSequence(entropy=base_seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]``.

    A transcription of numpy's SeedSequence (O'Neill's seed_seq design, pool of
    four 32-bit words) for one spawn key and one 64-bit output, so that a CLI
    process whose runs are simulated in forked workers never imports
    ``numpy.random``.
    """
    entropy = _words(base_seed)
    entropy += [0] * (4 - len(entropy)) + _words(index)  # a spawn key pads the entropy to the pool
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for word in pool[:2]:
        word ^= hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32


def _delay_forms(columns: dict[str, np.ndarray]) -> analytics.ClosedForms:
    """The closed forms of every sweep row; raises at a stable row they cannot evaluate."""
    cf = analytics.closed_forms(*columns.values())
    _require_evaluable(columns, cf.stable & ~cf.evaluable)
    return cf


def cmd_region(cfg: Config, out) -> int:
    channel = channel_from_config(cfg)
    if cfg.get("region_mode", "boundary") == "boundary":
        policies = cfg.get("policies", [Policy(0.5, 1.0)])
        _, union_root, _ = analytics.union_region(channel.f_pd, channel.f_sd, channel.f_ps)
        grid = _grid(Config({"start": 0.0, "stop": float(union_root), "steps": 101}) | cfg)
        p_q = np.array([[pol.p_q] for pol in policies])
        p_a = np.array([[pol.p_a] for pol in policies])
        cf = analytics.closed_forms(channel.f_pd, channel.f_sd, channel.f_ps, p_q, p_a, grid)
        # the curve's domain always includes the idle-primary point
        shown = (grid == 0.0) | (grid < cf.bound_p)
        unstable = shown & (grid >= cf.mu)
        for row, mu in zip(unstable, cf.mu[:, 0]):
            if row.any():
                raise ConfigError(f"lambda_p={float(grid[row.argmax()])!r} not below the primary "
                                  f"service rate {float(mu)!r}")
        union, _, slope_den = analytics.union_region(channel.f_pd, channel.f_sd, channel.f_ps, grid)
        _require_evaluable({"f_pd": channel.f_pd, "f_sd": channel.f_sd, "f_ps": channel.f_ps,
                            "lambda_p": grid}, slope_den == 0.0)
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


def _sim_options(cfg: Config) -> tuple[int, int, int, int, str]:
    return (cfg.get("slots", DEFAULT_SLOTS), cfg.get("warmup", DEFAULT_WARMUP), cfg.get("replications", 1),
            cfg.get("seed", DEFAULT_SEED), cfg.get("policy_kind", "randomized"))


def _policy_columns(cfg: Config, kind: str) -> dict[str, np.ndarray]:
    """The sweep columns with the policy that runs: no cooperation is (p_q, p_a) = (1, 0)."""
    columns = _sweep_columns(cfg)
    if kind == "no_cooperation":
        columns.update(p_q=np.full_like(columns["p_q"], NO_COOPERATION.p_q),
                       p_a=np.full_like(columns["p_a"], NO_COOPERATION.p_a))
    return columns


def _simulate_rows(cfg: Config, columns: dict[str, np.ndarray], stable: np.ndarray) -> list[SimStats]:
    """The pooled stats of every stable row, in order, from one batch; no stable row, no batch."""
    slots, warmup, replications, seed, kind = _sim_options(cfg)
    scenarios = []
    for index in np.flatnonzero(stable).tolist():
        f_pd, f_sd, f_ps, p_q, p_a, lambda_p, lambda_s = (float(columns[key][index]) for key in POINT_KEYS)
        try:
            scenarios.append(Scenario(
                ChannelProfile(f_pd, f_sd, f_ps), OperatingPoint(lambda_p, lambda_s), Policy(p_q, p_a),
                policy_kind=kind, slots=slots, warmup_slots=warmup, seed=_point_seed(seed, index),
            ))
        except ValueError as exc:  # slots > warmup, checked where the two values meet
            raise ConfigError(f"{cfg.where('slots', 'warmup')}: {exc}") from exc
    return replicate_many(scenarios, replications) if scenarios else []


def cmd_simulate(cfg: Config, out) -> int:
    slots, warmup, replications, seed, kind = _sim_options(cfg)
    columns = _policy_columns(cfg, kind)
    if kind == "strict_priority_relay":
        # strict priority (Sadek, Liu & Ephremides, IEEE Trans. Inf. Theory 53(10), 2007) serves
        # the relay queue first and admits every decoded packet, whatever p_q and p_a say: its
        # primary and relay queues are those of the policy (0, 1), and its own queue is stable
        # below the union region
        channel = [columns["f_pd"], columns["f_sd"], columns["f_ps"]]
        primary = analytics.closed_forms(*channel, 0.0, 1.0, columns["lambda_p"]).margin_p > 0.0
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
        "slots": [str(slots)] * rows,
        "warmup": [str(warmup)] * rows,
        "replications": [str(replications)] * rows,
        "seed": [str(_point_seed(seed, index)) for index in range(rows)],
        "stable": _format(stable),
        **stats,
    })
    return 0


def cmd_validate(cfg: Config, out) -> int:
    *_, kind = _sim_options(cfg)
    if kind == "strict_priority_relay":
        raise ConfigError(f"{cfg.where('policy_kind')}: "
                          "validate has no closed forms for strict_priority_relay")
    tolerance = cfg.get("tolerance", 0.03)
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
    within = ((errors <= tolerance) | ~present).all(axis=0)
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


def _optimize_columns(columns: dict[str, np.ndarray]) -> dict[str, list[str]]:
    """The optimize cells of every (f_pd, f_sd, f_ps, lambda_p, lambda_s) row, by column, from
    one evaluation of both optima; raises at a row whose optimum cannot be evaluated."""
    o = optimizer.optima(*columns.values())
    _require_evaluable(columns, o.fault)
    primary = columns["lambda_p"] > 0.0
    no_coop = ~o.cooperate & o.feasible & o.no_coop_ok
    secondary = (columns["lambda_s"] > 0.0) & o.feasible
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
    }


def cmd_optimize(cfg: Config, out) -> int:
    channel_from_config(cfg)
    keys = ("f_pd", "f_sd", "f_ps", "lambda_p", "lambda_s")
    if "variable" in cfg:
        if cfg["variable"] not in ("lambda_p", "lambda_s"):
            raise ConfigError(f"{cfg.where('variable')}: "
                              "optimize sweeps support variable = lambda_p or lambda_s")
        columns = _sweep_columns(cfg, curve="f_pd")
        columns = {key: columns[key] for key in keys}
        _write_table(out, {**_cells(columns), **_optimize_columns(columns)})
        return 0
    point = {key: np.full(1, cfg.get(key, POINT_DEFAULTS[key])) for key in keys}
    row = {key: cells[0] for key, cells in _optimize_columns(point).items()}
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


def cmd_oracle(cfg: Config, out) -> int:
    channel = channel_from_config(cfg)
    policy = policy_from_config(cfg)
    point = point_from_config(cfg)
    values = (*astuple(channel), *astuple(policy), *astuple(point))
    cf = analytics.closed_forms(*values)
    if not cf.stable:
        raise ConfigError("oracle requires a stable operating point")
    _require_evaluable(dict(zip(POINT_KEYS, values)), ~cf.evaluable)
    truncation = cfg.get("truncation", 400)
    partners = {"primary_secondary": cf.n_s, "primary_relay": cf.n_sp}
    try:
        specs = [ChainSpec(channel, policy, point, pair=pair, truncation=truncation) for pair in partners]
    except ValueError as exc:  # the memory guard
        raise ConfigError(f"{cfg.where('truncation')}: {exc}") from exc
    sols = []
    for spec in specs:
        try:
            sols.append(solve_stationary(spec))
        except RuntimeError as exc:
            raise ConfigError(f"{cfg.where('truncation')}: "
                              f"oracle solve failed for {spec.pair}: {exc}") from exc

    def solved(name: str) -> np.ndarray:
        return np.array([getattr(sol, name) for sol in sols])

    means = np.stack([solved("mean_first"), solved("mean_second")])
    analytic = np.stack([np.full(2, cf.n_p), np.array(list(partners.values()))])
    with np.errstate(all="ignore"):  # an analytic mean of 0 takes the absolute error
        rel_errs = np.where(analytic > 0.0, abs(means - analytic) / analytic, abs(means))
    p_qp_empty = np.array([sol.distribution[0, :].sum() for sol in sols])
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
    point = point_from_config(cfg)
    if point.lambda_p <= 0.0 or point.lambda_s <= 0.0:
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
        "--tolerance", help="relative error tolerance (default 0.03)"
    )
    sub.choices["oracle"].add_argument(
        "--truncation", help="lattice size per dimension (default 400)"
    )
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
            return _COMMANDS[args.command](cfg, out)
    except ValueError as exc:
        # ConfigError and UnevaluableError are ValueErrors: anything a
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
