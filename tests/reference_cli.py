"""Point-by-point reference for the closed-form sweep commands of :mod:`cogrelay.cli`.

``cmd_region``, ``cmd_delay``, ``cmd_tradeoff``, ``cmd_optimize`` and
``cmd_validate`` below are the commands' original bodies: they walk their
sweep one point at a time, overlaying each step on the config dict and
calling the scalar closed forms of :mod:`reference_closed_forms`, and write
each row as it is made (``cmd_validate`` simulates each point on its own).
The CLI now evaluates each table in one call of the array core; tests
require both to give the same bytes, exit code and messages. The bodies
follow the rules that have changed since: a policy without relay inflow
has a primary bound (no cooperation, p_q = 1 and p_a = 0, included), and
``validate`` checks ``no_cooperation`` runs against the closed forms at
that policy, refusing only ``strict_priority_relay``; ``region`` refuses a
default grid whose stop, the union boundary's root, is not positive, a
start not below its stop, naming the channel keys that fix a default stop,
and a listed policy that never serves the primary where its grid holds
lambda_p = 0 or f_ps = 0 too; its union boundary is f_sd at lambda_p = 0,
also where the slope overflows; and a zero cell prints as ``0``, never
``-0``. :func:`main` is ``cogrelay.cli.main`` with these bodies in place of
the commands'.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import reference_closed_forms as closed
from reference_closed_forms import InstabilityError

from cogrelay import cli
from cogrelay.config import ConfigError, channel_from_config
from cogrelay.model import NO_COOPERATION, OperatingPoint, Policy
from cogrelay.simulator import Scenario, replicate_many

# The header of every CSV table the CLI writes, and the optimize columns
# after the channel and the point, which the point report prints as keys.
REGION_BOUNDARY_HEADER = "policy,p_q,p_a,lambda_p,max_lambda_s"
REGION_RATES_HEADER = "p_q,p_a,max_lambda_p,max_lambda_s,lambda_p_ref"
DELAY_HEADER = "f_pd,f_sd,f_ps,p_q,p_a,lambda_p,lambda_s,stable,d_p,d_s,n_p,n_sp,n_s,g00"
SIMULATE_HEADER = (
    "f_pd,f_sd,f_ps,p_q,p_a,lambda_p,lambda_s,policy_kind,slots,warmup,replications,seed,stable,"
    "throughput_p,throughput_s,mean_delay_p,mean_delay_s,mean_len_p,mean_len_sp,mean_len_s,"
    "frac_both_empty,frac_primary_empty,delivered_p,delivered_s,relayed_count,"
    "ci_halfwidth_delay_p,ci_halfwidth_delay_s,arrivals_p,arrivals_s,wasted_slots,backlog_p,backlog_s,"
    "final_len_p,final_len_sp,final_len_s,observed_slots"
)
VALIDATE_HEADER = (
    "f_pd,f_sd,f_ps,p_q,p_a,lambda_p,lambda_s,rel_margin_p,rel_margin_s,"
    "analytic_d_p,sim_d_p,rel_err_d_p,analytic_d_s,sim_d_s,rel_err_d_s,status"
)
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value) + 0.0, ".12g")


def _write_row(out, cells) -> None:
    out.write(",".join(_fmt(cell) for cell in cells) + "\n")


def _point(cfg) -> OperatingPoint:
    return OperatingPoint(cfg["lambda_p"], cfg["lambda_s"])


def _sweep(cfg) -> tuple[str, list[float]]:
    variable = cfg["variable"]
    return variable, [float(v) for v in cli._grid(cfg)]


def _sweep_points(cfg):
    variable, values = _sweep(cfg)
    keys = ("lambda_p", "lambda_s") if variable == "lambda" else (variable,)
    curves = [{}]
    if "p_q_list" in cfg:
        if variable == "p_q":
            raise ConfigError(f"{cfg.where('p_q_list', 'variable')}: "
                              "p_q_list cannot be combined with a p_q sweep")
        curves = [{"p_q": p_q} for p_q in cfg["p_q_list"]]
    for curve in curves:
        for value in values:
            step = cfg.derive("p_q_list", **curve).derive("variable", **dict.fromkeys(keys, value))
            yield channel_from_config(step), Policy(step["p_q"], step["p_a"]), _point(step)


def cmd_region(cfg, out) -> int:
    mode = cfg["region_mode"]
    channel = channel_from_config(cfg)
    if mode == "boundary":
        policies = cfg["policies"]
        steps = cfg.get("steps", 101)
        relay_full = channel.f_ps * (1.0 - channel.f_pd)
        union_root = channel.f_sd * (channel.f_pd + relay_full) / (channel.f_sd + relay_full)
        if "stop" not in cfg and union_root <= 0.0:
            raise ConfigError(f"{cfg.where('f_pd', 'f_sd', 'f_ps')}: the union of the stability regions ends at "
                              f"lambda_p = 0, so the default grid, which ends there too, is empty")
        start = cfg.get("start", 0.0)
        stop = cfg.get("stop", union_root)
        if not start < stop:
            root = f"the union boundary's root, from {cfg.where('f_pd', 'f_sd', 'f_ps')}"
            stop_at = cfg.where("stop") if "stop" in cfg else f"stop ({root})"
            raise ConfigError(f"{cfg.where('start')}, {stop_at}: need start < stop, got start={start}, stop={stop}")
        grid = np.linspace(start, stop, steps)
        for pol in policies:
            if closed.service_rate_primary(channel, pol.p_a) == 0.0 and (start == 0.0 or channel.f_ps == 0.0):
                raise ConfigError(f"{cfg.where('f_pd', 'f_ps', 'policies')}: the primary is never served under the "
                                  f"policy {pol.p_q!r}:{pol.p_a!r} (its service rate is 0), so its region is empty")
        out.write(REGION_BOUNDARY_HEADER + "\n")
        for pol in policies:
            bound = closed.max_arrival_primary(channel, pol)
            for lam_p in grid:
                lam = float(lam_p)
                if lam == 0.0 or lam < bound:
                    max_ls = closed.max_arrival_secondary(channel, pol, lam)
                    _write_row(out, ["fixed", pol.p_q, pol.p_a, lam, max_ls])
        for lam_p in grid:
            _write_row(
                out,
                ["union", None, None, lam_p, closed.union_region_max_lambda_s(channel, float(lam_p))],
            )
        return 0
    if mode == "rates":
        p_q_values = cfg.get("p_q_list", [0.2, 0.4, 0.625, 0.8])
        steps = cfg.get("steps", 101)
        lambda_p_ref = cfg.get("lambda_p", 0.2)
        grid = np.linspace(cfg.get("start", 0.0), cfg.get("stop", 1.0), steps)
        out.write(REGION_RATES_HEADER + "\n")
        for p_q in p_q_values:
            for p_a in grid:
                pol = Policy(p_q, float(p_a))
                max_lp = closed.max_arrival_primary(channel, pol)
                try:
                    max_ls = closed.max_arrival_secondary(channel, pol, lambda_p_ref)
                except InstabilityError:
                    max_ls = None
                _write_row(out, [p_q, p_a, max_lp, max_ls, lambda_p_ref])
        return 0
    raise ConfigError(f"region_mode must be 'boundary' or 'rates', got {mode!r}")


def cmd_delay(cfg, out) -> int:
    out.write(DELAY_HEADER + "\n")
    for ch, pol, pt in _sweep_points(cfg):
        identity = [ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s]
        try:
            r = closed.delay_report(ch, pol, pt)
        except InstabilityError:
            _write_row(out, identity + [0, None, None, None, None, None, None])
            continue
        _write_row(out, identity + [1, r.d_p, r.d_s, r.n_p, r.n_sp, r.n_s, r.g00])
    return 0


def _optimize_row(ch, pt):
    row = dict.fromkeys(OPTIMIZE_COLUMNS)
    row["threshold_p_q"] = closed.phase_transition_pq(ch)
    try:
        row["p_q_lower"] = closed.pq_lower_bound(ch, pt, 1.0)
        row["p_q_upper"] = closed.pq_upper_bound(ch, pt, 1.0)
    except closed.InfeasibleError:
        pass
    faults, su_status = [], "infeasible" if pt.lambda_s > 0.0 else "no_traffic"
    if pt.lambda_p > 0.0:
        try:
            decision = closed.minimize_primary_delay(ch, pt)
            row["pu_mode"] = decision.mode
            row["pu_p_q_star"] = decision.p_q_star
            row["pu_p_a_star"] = decision.p_a_star
            row["pu_d_p_star"] = decision.d_p_star
        except (ValueError, AssertionError, ArithmeticError) as exc:
            faults.append(exc)
    try:
        row["no_coop_d_p"] = closed.no_cooperation_delay_primary(ch, pt.lambda_p)
    except closed.InfeasibleError:
        pass
    if pt.lambda_s > 0.0:
        try:
            row["su_p_q_star"], row["su_d_s_star"] = closed.minimize_secondary_delay(ch, pt)
        except closed.InfeasibleError:
            pass
        except (ValueError, AssertionError, ArithmeticError) as exc:
            faults.append(exc)
            su_status = "unevaluable"
    # an optimum that cannot be evaluated is left empty; a row with no other optimum fails
    if faults and row["pu_mode"] is None and row["su_p_q_star"] is None:
        raise faults[0]
    return row, su_status


def cmd_optimize(cfg, out) -> int:
    if "variable" in cfg:
        if cfg["variable"] not in ("lambda_p", "lambda_s"):
            raise ConfigError(f"{cfg.where('variable')}: "
                              "optimize sweeps support variable = lambda_p or lambda_s")
        variable, values = _sweep(cfg)
        curves = [cfg.derive("f_pd_list", f_pd=f_pd) for f_pd in cfg.get("f_pd_list", ())] or [cfg]
        base_point = _point(cfg)
        out.write(OPTIMIZE_SWEEP_HEADER + "\n")
        for curve in curves:
            ch = channel_from_config(curve)
            for value in values:
                if variable == "lambda_p":
                    pt = OperatingPoint(value, base_point.lambda_s)
                else:
                    pt = OperatingPoint(base_point.lambda_p, value)
                identity = [ch.f_pd, ch.f_sd, ch.f_ps, pt.lambda_p, pt.lambda_s]
                _write_row(out, identity + list(_optimize_row(ch, pt)[0].values()))
        return 0
    row, su_status = _optimize_row(channel_from_config(cfg), _point(cfg))
    out.write("# primary delay minimization\n")
    for key, value in row.items():
        if not key.startswith("su_"):
            out.write(f"{key} = {_fmt(value) or 'n/a'}\n")
    out.write("# secondary delay minimization\n")
    if row["su_p_q_star"] is None:
        out.write(f"su_status = {su_status}\n")
    for key, value in row.items():
        if key.startswith("su_") and value is not None:
            out.write(f"{key} = {_fmt(value)}\n")
    return 0


def cmd_tradeoff(cfg, out) -> int:
    channel = channel_from_config(cfg)
    point = _point(cfg)
    if point.lambda_p <= 0.0 or point.lambda_s <= 0.0:
        raise ConfigError(f"{cfg.where('lambda_p', 'lambda_s')}: "
                          "tradeoff requires positive lambda_p and lambda_s")
    p_q_values = cfg.get("p_q_list", [cfg["p_q"]])
    steps = cfg.get("steps", 21)
    grid = np.linspace(cfg.get("start", 0.0), cfg.get("stop", 1.0), steps)
    out.write(TRADEOFF_HEADER + "\n")
    for p_q in p_q_values:
        for p_a in grid:
            pol = Policy(p_q, float(p_a))
            identity = [pol.p_q, pol.p_a, point.lambda_p, point.lambda_s]
            try:
                r = closed.delay_report(channel, pol, point)
            except InstabilityError:
                _write_row(out, identity + [0, None, None])
                continue
            _write_row(out, identity + [1, r.d_s, r.d_p])
    return 0


def cmd_validate(cfg, out) -> int:
    kind = cfg["policy_kind"]
    if kind == "strict_priority_relay":
        raise ConfigError(f"{cfg.where('policy_kind')}: "
                          "validate has no closed forms for strict_priority_relay")
    rows = []
    failed = False
    for index, (ch, pol, pt) in enumerate(_sweep_points(cfg)):
        if kind == "no_cooperation":
            pol = NO_COOPERATION
        identity = [ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s]
        verdict = closed.is_stable(ch, pol, pt)
        if not verdict.stable:
            rows.append(identity + [None] * 8 + ["unstable"])
            continue
        margins = (verdict.margin_p / closed.max_arrival_primary(ch, pol),
                   verdict.margin_s / closed.max_arrival_secondary(ch, pol, pt.lambda_p))
        report = closed.delay_report(ch, pol, pt)
        # row i of a sweep under base seed b runs at b << 32 | i, written out here so that the
        # reference checks the CLI's seeding rather than sharing it
        scenario = Scenario(ch, pt, pol, policy_kind=kind, slots=cfg["slots"], warmup_slots=cfg["warmup"],
                            seed=cfg["seed"] << 32 | index)
        stats = replicate_many([scenario], cfg["replications"])[0]
        errors, cells = [], []
        for analytic, simulated in ((report.d_p, stats.mean_delay_p), (report.d_s, stats.mean_delay_s)):
            if analytic is None:
                cells += [None, None, None]
            else:
                errors.append(abs(simulated - analytic) / analytic)
                cells += [analytic, simulated, errors[-1]]
        enforced = min(margins) >= cli.MARGIN_ENFORCEMENT
        if not errors:
            status = "ok"
        elif max(errors) <= cfg["tolerance"]:
            status = "ok" if enforced else "marginal"
        elif enforced:
            status = "fail"
            failed = True
        else:
            status = "marginal"
        rows.append(identity + [*margins] + cells + [status])
    out.write(VALIDATE_HEADER + "\n")
    for row in rows:
        _write_row(out, row)
    return 1 if failed else 0


COMMANDS = {
    "region": cmd_region,
    "validate": cmd_validate,
    "delay": cmd_delay,
    "optimize": cmd_optimize,
    "tradeoff": cmd_tradeoff,
}


def main(argv: list[str]) -> int:
    """``cogrelay.cli.main`` running the reference bodies of the sweep commands."""
    commands = {name: (run, *cli._COMMANDS[name][1:]) for name, run in COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, commands):
        return cli.main(argv)
