"""Command-line front end: sweeps, validation, oracle runs and optimization reports.

Every subcommand emits CSV (comma separator, ``.`` decimal point, 12
significant digits, mandatory header) except ``optimize`` without a sweep,
which prints a key=value report. Identical config plus seed yields
byte-identical output. Exit codes: 0 success, 1 validation failure, 2 config
or output error.

Parameter precedence, lowest to highest: preset, config file, the seed
environment variable, command-line flags.
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
from .simulator import POLICY_KINDS, Scenario, SimStats, replicate

__all__ = ["main", "entrypoint", "SweepSpec", "PRESETS", "ENV_SEED"]

ENV_SEED = "COGRELAY_SEED"
DEFAULT_SEED = 12345
DEFAULT_SLOTS = 1_000_000
DEFAULT_WARMUP = 10_000

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
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if not self.start < self.stop:
            raise ConfigError(f"need start < stop, got start={self.start}, stop={self.stop}")
        if self.start < 0.0 or self.stop > 1.0:
            raise ConfigError("sweep range must stay within [0, 1]")

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.steps)]


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_row(out, cells) -> None:
    out.write(",".join(_fmt(cell) for cell in cells) + "\n")


class OutputError(OSError):
    """The output path cannot be written."""


@contextmanager
def _open_out(path: str | None):
    """Stream to a temporary file beside ``path`` that replaces it only if the command returns."""
    if path is None or path == "-":
        yield sys.stdout
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


def _sweep_points(cfg: dict[str, str]):
    """Yield (channel, policy, point) for every curve and step of the config's sweep.

    Each step is the config with the swept keys, and the curve's p_q from
    ``p_q_list``, overlaid; ``repr`` round-trips every float exactly.
    """
    sweep = _sweep_from_config(cfg)
    keys = ("lambda_p", "lambda_s") if sweep.variable == "lambda" else (sweep.variable,)
    curves: list[dict[str, str]] = [{}]
    if "p_q_list" in cfg:
        if sweep.variable == "p_q":
            raise ConfigError("p_q_list cannot be combined with a p_q sweep")
        curves = [{"p_q": repr(p_q)} for p_q in get_float_list(cfg, "p_q_list")]
    for curve in curves:
        for value in sweep.values():
            step = {**cfg, **curve, **dict.fromkeys(keys, repr(value))}
            try:
                channel = channel_from_config(step)
                policy = policy_from_config(step)
                point = point_from_config(step)
            except ConfigError as exc:
                raise ConfigError(f"invalid sweep point ({sweep.variable}={value!r}): {exc}") from exc
            yield channel, policy, point


def _point_seed(base_seed: int, index: int) -> int:
    state = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)).generate_state(
        1, dtype=np.uint64
    )
    return int(state[0])


def cmd_region(cfg: dict[str, str], out) -> int:
    mode = get_str(cfg, "region_mode", "boundary")
    channel = channel_from_config(cfg)
    if mode == "boundary":
        policies = get_policy_list(cfg, "policies", default=[Policy(0.5, 1.0)])
        steps = get_int(cfg, "steps", 101)
        relay_full = channel.f_ps * (1.0 - channel.f_pd)
        union_root = channel.f_sd * (channel.f_pd + relay_full) / (channel.f_sd + relay_full)
        start = get_float(cfg, "start", 0.0)
        stop = get_float(cfg, "stop", union_root)
        grid = np.linspace(start, stop, steps)
        out.write(REGION_BOUNDARY_HEADER + "\n")
        for pol in policies:
            try:
                bound = analytics.max_arrival_primary(channel, pol)
            except DegeneratePolicyError as exc:
                raise ConfigError(str(exc)) from exc
            for lam_p in grid:
                lam = float(lam_p)
                # the curve's domain always includes the idle-primary point
                if lam == 0.0 or lam < bound:
                    max_ls = analytics.max_arrival_secondary(channel, pol, lam)
                    _write_row(out, ["fixed", pol.p_q, pol.p_a, lam, max_ls])
        for lam_p in grid:
            _write_row(
                out,
                ["union", None, None, lam_p, analytics.union_region_max_lambda_s(channel, float(lam_p))],
            )
        return 0
    if mode == "rates":
        p_q_values = get_float_list(cfg, "p_q_list", default=[0.2, 0.4, 0.625, 0.8])
        steps = get_int(cfg, "steps", 101)
        lambda_p_ref = get_float(cfg, "lambda_p", 0.2)
        grid = np.linspace(get_float(cfg, "start", 0.0), get_float(cfg, "stop", 1.0), steps)
        out.write(REGION_RATES_HEADER + "\n")
        for p_q in p_q_values:
            for p_a in grid:
                pol = Policy(p_q, float(p_a))
                try:
                    max_lp = analytics.max_arrival_primary(channel, pol)
                except DegeneratePolicyError:
                    max_lp = None
                try:
                    max_ls = analytics.max_arrival_secondary(channel, pol, lambda_p_ref)
                except InstabilityError:
                    max_ls = None
                _write_row(out, [p_q, p_a, max_lp, max_ls, lambda_p_ref])
        return 0
    raise ConfigError(f"region_mode must be 'boundary' or 'rates', got {mode!r}")


def cmd_delay(cfg: dict[str, str], out) -> int:
    out.write(DELAY_HEADER + "\n")
    for ch, pol, pt in _sweep_points(cfg):
        identity = [ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s]
        try:
            r = analytics.delay_report(ch, pol, pt)
        except InstabilityError:
            _write_row(out, identity + [0, None, None, None, None, None, None])
            continue
        _write_row(out, identity + [1, r.d_p, r.d_s, r.n_p, r.n_sp, r.n_s, r.g00])
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


def cmd_simulate(cfg: dict[str, str], out) -> int:
    slots, warmup, replications, seed, kind = _sim_options(cfg)
    out.write(SIMULATE_HEADER + "\n")
    for index, (ch, pol, pt) in enumerate(_sweep_points(cfg)):
        point_seed = _point_seed(seed, index)
        identity = [
            ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s,
            kind, slots, warmup, replications, point_seed,
        ]
        if not analytics.is_stable(ch, pol, pt).stable:
            _write_row(out, identity + [0] + [None] * len(fields(SimStats)))
            continue
        try:
            stats = replicate(
                Scenario(ch, pt, pol, policy_kind=kind, slots=slots,
                         warmup_slots=warmup, seed=point_seed),
                replications,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _write_row(out, identity + [1, *astuple(stats)])
    return 0


def cmd_validate(cfg: dict[str, str], out) -> int:
    slots, warmup, replications, seed, kind = _sim_options(cfg)
    if kind != "randomized":
        raise ConfigError("validate compares against the randomized-policy closed forms")
    tolerance = get_float(cfg, "tolerance", 0.03)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ConfigError(f"key 'tolerance': must be finite and >= 0, got {tolerance!r}")
    out.write(VALIDATE_HEADER + "\n")
    failed = False
    for index, (ch, pol, pt) in enumerate(_sweep_points(cfg)):
        point_seed = _point_seed(seed, index)
        identity = [ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s]
        verdict = analytics.is_stable(ch, pol, pt)
        if not verdict.stable:
            _write_row(out, identity + [None] * 8 + ["unstable"])
            continue
        bound_p = analytics.max_arrival_primary(ch, pol)
        bound_s = analytics.max_arrival_secondary(ch, pol, pt.lambda_p)
        rel_margin_p = verdict.margin_p / bound_p if bound_p > 0.0 else 0.0
        rel_margin_s = verdict.margin_s / bound_s if bound_s > 0.0 else 0.0
        stats = replicate(
            Scenario(ch, pt, pol, policy_kind=kind, slots=slots,
                     warmup_slots=warmup, seed=point_seed),
            replications,
        )
        report = analytics.delay_report(ch, pol, pt)
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
        enforced = min(rel_margin_p, rel_margin_s) >= MARGIN_ENFORCEMENT
        if not errors:
            status = "ok"
        elif max(errors) <= tolerance:
            status = "ok" if enforced else "marginal"
        elif enforced:
            status = "fail"
            failed = True
        else:
            status = "marginal"
        _write_row(out, identity + [rel_margin_p, rel_margin_s] + cells + [status])
    return 1 if failed else 0


def _optimize_row(ch: ChannelProfile, pt: OperatingPoint) -> dict[str, float | str | None]:
    """The optimize columns at one point, keyed and ordered as OPTIMIZE_COLUMNS."""
    row: dict[str, float | str | None] = dict.fromkeys(OPTIMIZE_COLUMNS)
    row["threshold_p_q"] = analytics.phase_transition_pq(ch)
    try:
        row["p_q_lower"] = optimizer.pq_lower_bound(ch, pt, 1.0)
        row["p_q_upper"] = optimizer.pq_upper_bound(ch, pt, 1.0)
    except optimizer.InfeasibleError:
        pass
    if pt.lambda_p > 0.0:
        decision = optimizer.minimize_primary_delay(ch, pt)
        row["pu_mode"] = decision.mode
        row["pu_p_q_star"] = decision.p_q_star
        row["pu_p_a_star"] = decision.p_a_star
        row["pu_d_p_star"] = decision.d_p_star
    try:
        row["no_coop_d_p"] = optimizer.no_cooperation_delay_primary(ch, pt.lambda_p)
    except optimizer.InfeasibleError:
        pass
    if pt.lambda_s > 0.0:
        try:
            row["su_p_q_star"], row["su_d_s_star"] = optimizer.minimize_secondary_delay(ch, pt)
        except optimizer.InfeasibleError:
            pass
    return row


def cmd_optimize(cfg: dict[str, str], out) -> int:
    channel = channel_from_config(cfg)
    if "variable" in cfg:
        sweep = _sweep_from_config(cfg)
        if sweep.variable not in ("lambda_p", "lambda_s"):
            raise ConfigError("optimize sweeps support variable = lambda_p or lambda_s")
        f_pd_values = get_float_list(cfg, "f_pd_list", default=[channel.f_pd])
        base_point = point_from_config(cfg)
        out.write(OPTIMIZE_SWEEP_HEADER + "\n")
        for f_pd in f_pd_values:
            try:
                ch = ChannelProfile(f_pd, channel.f_sd, channel.f_ps)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            for value in sweep.values():
                if sweep.variable == "lambda_p":
                    pt = OperatingPoint(value, base_point.lambda_s)
                else:
                    pt = OperatingPoint(base_point.lambda_p, value)
                identity = [ch.f_pd, ch.f_sd, ch.f_ps, pt.lambda_p, pt.lambda_s]
                _write_row(out, identity + list(_optimize_row(ch, pt).values()))
        return 0
    row = _optimize_row(channel, point_from_config(cfg))
    out.write("# primary delay minimization\n")
    for key, value in row.items():
        if not key.startswith("su_"):
            out.write(f"{key} = {_fmt(value) or 'n/a'}\n")
    out.write("# secondary delay minimization\n")
    if row["su_p_q_star"] is None:
        out.write("su_status = infeasible\n")
    for key, value in row.items():
        if key.startswith("su_") and value is not None:
            out.write(f"{key} = {_fmt(value)}\n")
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
    out.write(ORACLE_HEADER + "\n")
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
        _write_row(
            out,
            [pair, truncation, sol.iterations, sol.residual, sol.mass_at_boundary,
             sol.mean_first, sol.mean_second, sol.p00, p_qp_empty,
             n_p, partner_analytic, g00_analytic, p_empty,
             rel_err_n_p, rel_err_partner, abs_err_g00, abs(p_qp_empty - p_empty)],
        )
    return 0


def cmd_tradeoff(cfg: dict[str, str], out) -> int:
    channel = channel_from_config(cfg)
    point = point_from_config(cfg)
    if point.lambda_p <= 0.0 or point.lambda_s <= 0.0:
        raise ConfigError("tradeoff requires positive lambda_p and lambda_s")
    p_q_values = get_float_list(cfg, "p_q_list", default=[get_float(cfg, "p_q", 0.5)])
    steps = get_int(cfg, "steps", 21)
    grid = np.linspace(get_float(cfg, "start", 0.0), get_float(cfg, "stop", 1.0), steps)
    out.write(TRADEOFF_HEADER + "\n")
    for p_q in p_q_values:
        for p_a in grid:
            pol = Policy(p_q, float(p_a))
            identity = [pol.p_q, pol.p_a, point.lambda_p, point.lambda_s]
            try:
                r = analytics.delay_report(channel, pol, point)
            except InstabilityError:
                _write_row(out, identity + [0, None, None])
                continue
            _write_row(out, identity + [1, r.d_s, r.d_p])
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
