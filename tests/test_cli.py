import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_cli import (
    DELAY_HEADER,
    OPTIMIZE_SWEEP_HEADER,
    ORACLE_HEADER,
    REGION_BOUNDARY_HEADER,
    REGION_RATES_HEADER,
    SIMULATE_HEADER,
    TRADEOFF_HEADER,
    VALIDATE_HEADER,
)
from test_analytics import ILL_CONDITIONED_POINTS

from cogrelay import cli, simulator
from cogrelay.cli import ENV_SEED, EXIT_BROKEN_PIPE, PRESETS, main
from cogrelay.config import KEYS

PRESET_COMMANDS = {
    "fig2": "region",
    "fig3": "region",
    "fig4": "region",
    "fig5": "region",
    "fig6": "delay",
    "fig7": "delay",
    "fig8": "delay",
    "fig9": "delay",
    "fig10": "tradeoff",
    "fig11": "optimize",
    "fig12": "optimize",
}

#: sha256 of the standard-channel CSVs of all presets, fig2 to fig12,
#: concatenated in that order.
STANDARD_PRESETS_SHA256 = "44ea276d1f62a1a4accded63e20509fc247b3c3e3c7dc37347c9a08a0b12f066"

SRC = str(Path(__file__).resolve().parents[1] / "src")

SMALL_VALIDATE = (
    "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\nslots = 2000\nwarmup = 100\n"
)


def run(tmp_path, command, config_text=None, extra=(), name="out.csv"):
    out = tmp_path / name
    argv = [command, "--out", str(out)]
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    argv += list(extra)
    code = main(argv)
    return code, out.read_text() if out.exists() else ""


def rows(text):
    lines = text.strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_region_boundary_values(tmp_path):
    code, text = run(tmp_path, "region", "policies = 1:1\nsteps = 11\n")
    assert code == 0
    header, body = rows(text)
    assert header == REGION_BOUNDARY_HEADER
    fixed = [r for r in body if r[0] == "fixed"]
    union = [r for r in body if r[0] == "union"]
    # a policy that always serves the SU's own queue only sustains an idle primary
    assert len(fixed) == 1
    assert float(fixed[0][3]) == 0.0
    assert float(fixed[0][4]) == pytest.approx(0.8, rel=1e-9)
    assert float(union[0][4]) == pytest.approx(0.8, rel=1e-9)
    assert len(union) == 11


def test_region_fixed_rows_below_union(tmp_path):
    code, text = run(tmp_path, "region", "policies = 0.3:1, 0.625:1, 0.8:0.5\nsteps = 51\n")
    assert code == 0
    _, body = rows(text)
    union = {r[3]: float(r[4]) for r in body if r[0] == "union"}
    for r in body:
        if r[0] == "fixed":
            assert float(r[4]) <= union[r[3]] + 1e-12


def test_region_union_line(tmp_path):
    code, text = run(tmp_path, "region", "policies = 0.5:1\nsteps = 11\nstop = 0.4\n")
    assert code == 0
    _, body = rows(text)
    union = [(float(r[3]), float(r[4])) for r in body if r[0] == "union"]
    assert union[0][1] == pytest.approx(0.8, rel=1e-9)
    slope = (union[1][1] - union[0][1]) / (union[1][0] - union[0][0])
    assert slope == pytest.approx(-1.08 / 0.58, rel=1e-9)


def test_region_no_cooperation_boundary(tmp_path):
    # without cooperation the PU queue alone is served at f_pd = 0.3, and the
    # SU serves its own queue in every PU-idle slot: f_sd (1 - lambda_p / f_pd)
    code, text = run(tmp_path, "region", "policies = 1:0\nsteps = 11\nstop = 0.4\n")
    assert code == 0
    _, body = rows(text)
    fixed = [(float(r[3]), float(r[4])) for r in body if r[0] == "fixed"]
    assert [r[1:3] for r in body if r[0] == "fixed"] == [["1", "0"]] * 8
    assert [lam for lam, _ in fixed] == pytest.approx([0.04 * k for k in range(8)], abs=1e-12)
    for lam, max_ls in fixed:
        assert max_ls == pytest.approx(0.8 * (1.0 - lam / 0.3), rel=1e-11, abs=1e-15)  # 12 digits


def test_region_rates_mode(tmp_path):
    code, text = run(tmp_path, "region", "region_mode = rates\np_q_list = 0.2, 0.8\nsteps = 5\nlambda_p = 0.2\n")
    assert code == 0
    header, body = rows(text)
    assert header == REGION_RATES_HEADER
    assert len(body) == 10
    low = [float(r[2]) for r in body if r[0] == "0.2"]
    high = [float(r[2]) for r in body if r[0] == "0.8"]
    # below the phase transition the bound grows with admission, above it falls
    assert all(a < b for a, b in zip(low, low[1:]))
    assert all(a > b for a, b in zip(high, high[1:]))


def test_delay_sweep_matches_analytics(tmp_path):
    from points import at

    from cogrelay.model import ChannelProfile, OperatingPoint, Policy

    code, text = run(
        tmp_path,
        "delay",
        "variable = lambda\nstart = 0.05\nstop = 0.15\nsteps = 3\np_q = 0.5\np_a = 1\n",
    )
    assert code == 0
    header, body = rows(text)
    assert header == DELAY_HEADER
    assert len(body) == 3
    ch, pol = ChannelProfile(0.3, 0.8, 0.4), Policy(0.5, 1.0)
    for r in body:
        lam = float(r[5])
        assert r[7] == "1"
        pt = OperatingPoint(lam, lam)
        assert float(r[8]) == pytest.approx(at(ch, pol, pt).d_p, rel=1e-9)
        assert float(r[9]) == pytest.approx(at(ch, pol, pt).d_s, rel=1e-9)


def test_delay_sweep_marks_unstable_points(tmp_path):
    code, text = run(
        tmp_path,
        "delay",
        "variable = lambda\nstart = 0.1\nstop = 0.5\nsteps = 5\np_q = 0.5\np_a = 1\n",
    )
    assert code == 0
    _, body = rows(text)
    unstable = [r for r in body if r[7] == "0"]
    assert unstable
    assert all(r[8] == "" and r[9] == "" for r in unstable)


def test_simulate_sweep(tmp_path):
    code, text = run(
        tmp_path,
        "simulate",
        "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n"
        "slots = 20000\nwarmup = 1000\nseed = 9\n",
    )
    assert code == 0
    header, body = rows(text)
    assert header == SIMULATE_HEADER
    assert len(body) == 2
    for r in body:
        assert r[12] == "1"
        lam = float(r[5])
        assert float(r[13]) == pytest.approx(lam, abs=0.02)


def test_simulate_skips_unstable_points(tmp_path):
    code, text = run(
        tmp_path,
        "simulate",
        "variable = lambda\nstart = 0.1\nstop = 0.45\nsteps = 2\nslots = 5000\nwarmup = 100\n",
    )
    assert code == 0
    _, body = rows(text)
    assert body[1][12] == "0"
    assert body[1][13] == ""


def test_simulate_no_cooperation_judges_stability_at_its_policy(tmp_path):
    # no cooperation runs Policy(1, 0), whatever p_q and p_a say: at lambda_p =
    # 0.32 the configured Policy(0.5, 1) would be stable (bound 0.341), but the
    # PU queue alone is served at f_pd = 0.3
    code, text = run(
        tmp_path,
        "simulate",
        "variable = lambda_p\nstart = 0.1\nstop = 0.32\nsteps = 2\nlambda_s = 0.05\n"
        "p_q = 0.5\np_a = 1\npolicy_kind = no_cooperation\nslots = 5000\nwarmup = 100\n",
    )
    assert code == 0
    _, body = rows(text)
    assert [r[3:5] for r in body] == [["1", "0"], ["1", "0"]]
    assert [r[7] for r in body] == ["no_cooperation"] * 2
    assert body[0][12] == "1" and body[0][13] != ""
    assert body[1][12] == "0" and body[1][13:] == [""] * (len(body[1]) - 13)


#: strict priority's own verdict: stable at the first three loads, not at 0.3
STRICT_SWEEP = (
    "variable = lambda\nstart = 0.05\nstop = 0.3\nsteps = 4\nslots = 20000\nwarmup = 1000\nseed = 5\n"
    "policy_kind = strict_priority_relay\n"
)


def test_simulate_strict_priority_is_stable_whatever_its_policy_columns(tmp_path):
    # at (p_q, p_a) = (1, 1) the randomized closed forms never serve the relay
    # queue, but strict priority serves it first and ignores both
    code, text = run(
        tmp_path,
        "simulate",
        "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\nslots = 20000\nwarmup = 1000\n"
        "p_q = 1\np_a = 1\npolicy_kind = strict_priority_relay\n",
    )
    assert code == 0
    _, body = rows(text)
    assert [r[3:5] for r in body] == [["1", "1"], ["1", "1"]]
    assert body[0][5] == "0.05" and body[0][12] == "1"
    assert float(body[0][13]) == pytest.approx(0.05, abs=0.02)


def test_simulate_strict_priority_stats_do_not_depend_on_policy_columns(tmp_path):
    _, first = run(tmp_path, "simulate", STRICT_SWEEP + "p_q = 0.5\np_a = 1\n", name="a.csv")
    _, second = run(tmp_path, "simulate", STRICT_SWEEP + "p_q = 1\np_a = 0.3\n", name="b.csv")
    first, second = rows(first)[1], rows(second)[1]
    assert [r[12] for r in first] == ["1", "1", "1", "0"]
    assert [r[3:5] for r in second] == [["1", "0.3"]] * 4
    assert [r[:3] + r[5:] for r in first] == [r[:3] + r[5:] for r in second]


def test_validate_pass_and_fail_exit_codes(tmp_path):
    config = (
        "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n"
        "slots = 20000\nwarmup = 1000\nseed = 4\n"
    )
    code_ok, text = run(tmp_path, "validate", config + "tolerance = 0.5\n")
    assert code_ok == 0
    header, body = rows(text)
    assert header == VALIDATE_HEADER
    assert all(r[-1] == "ok" for r in body)
    code_fail, text = run(tmp_path, "validate", config + "tolerance = 1e-9\n", name="fail.csv")
    assert code_fail == 1
    _, body = rows(text)
    assert any(r[-1] == "fail" for r in body)


#: two stable points and an unstable one, with warm-up past the first 2^16-slot block
WORKER_SWEEP = (
    "variable = lambda\nstart = 0.05\nstop = 0.3\nsteps = 3\n"
    "slots = 80000\nwarmup = 70000\nreplications = 3\nseed = 8\n"
)


@pytest.mark.parametrize("command,setting,exit_code", [
    ("simulate", "policy_kind = randomized\n", 0),
    ("simulate", "policy_kind = strict_priority_relay\n", 0),
    ("simulate", "policy_kind = no_cooperation\n", 0),
    ("validate", "tolerance = 0.5\n", 0),
    ("validate", "tolerance = 0\n", 1),
])
def test_sweep_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, command, setting,
                                                   exit_code):
    outcomes = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulator, "_cpus", lambda: cpus)
        monkeypatch.setattr(simulator, "_POOL_MIN_SLOTS", 0)
        outcomes.add(run(tmp_path, command, WORKER_SWEEP + setting, name=f"{cpus}.csv"))
    (outcome,) = outcomes
    code, text = outcome
    assert code == exit_code
    _, body = rows(text)
    unstable = [r[12] == "0" if command == "simulate" else r[-1] == "unstable" for r in body]
    assert unstable == [False, False, True]


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_replications_are_checked_once_a_point_is_simulated(tmp_path, capsys, command):
    # the key is checked where it is loaded, so also in a sweep that simulates no point
    unstable = "variable = lambda\nstart = 0.3\nstop = 0.4\nsteps = 2\nreplications = 0\n"
    for config, line in ((unstable, 5), (SMALL_VALIDATE + "replications = 0\n", 7)):
        code, text = run(tmp_path, command, config)
        assert code == 2 and text == ""
        assert f"run.cfg:{line}: key 'replications': must be >= 1, got 0" in capsys.readouterr().err


def _config(point: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in point.items())


def _named(point: dict) -> str:
    named = ", ".join(f"{key}={float(value)!r}" for key, value in point.items())
    return f"config error: the closed forms cannot be evaluated at {named}\n"


def _point(ch, pol, pt) -> dict:
    return {"f_pd": ch.f_pd, "f_sd": ch.f_sd, "f_ps": ch.f_ps, "p_q": pol.p_q, "p_a": pol.p_a,
            "lambda_p": pt.lambda_p, "lambda_s": pt.lambda_s}


STANDARD = {"f_pd": 0.3, "f_sd": 0.8, "f_ps": 0.4}
#: the p_q interval is narrower than rounding here: both ends read 0.998335359762
UNSTABLE_OPTIMUM = {"f_pd": 0.7130607983330924, "f_sd": 0.9, "f_ps": 0.020126716603189432,
                    "lambda_p": 0.14806757846412472, "lambda_s": 0.7134262293980463}
#: the secondary optimum (p_q 0.999999, p_a 1) is stable, but its delay report is out of bounds
UNREPORTABLE_OPTIMUM = {"f_pd": 8e-21, "f_sd": 0.8, "f_ps": 0.0, "lambda_p": 0.0, "lambda_s": 5e-324}


@pytest.mark.parametrize("command,config,point", [
    *(("oracle", _config(_point(*case)) + "truncation = 4\n", _point(*case))
      for case in ILL_CONDITIONED_POINTS),
    # B * C underflows to 0 at the first row
    ("delay", "variable = lambda_s\nstart = 0\nstop = 0.5\nsteps = 3\np_q = 1e-323\nlambda_p = 0.1\n",
     {**STANDARD, "p_q": 1e-323, "p_a": 1.0, "lambda_p": 0.1, "lambda_s": 0.0}),
    # nothing reaches the destination, so the union slope divides by zero
    ("region", "f_pd = 0\nf_ps = 0\npolicies = 0.5:1\nstart = 0.1\nstop = 0.5\nsteps = 3\n",
     {"f_pd": 0.0, "f_sd": 0.8, "f_ps": 0.0, "lambda_p": 0.1}),
    # the secondary optimum's mean delay reads 0, below one slot, as delay would report
    ("optimize", _config(UNREPORTABLE_OPTIMUM), UNREPORTABLE_OPTIMUM),
])
def test_unevaluable_point_exits_2_naming_it(tmp_path, capsys, command, config, point):
    code, text = run(tmp_path, command, config)
    assert code == 2 and text == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    err = capsys.readouterr().err
    assert err == _named(point) and "Traceback" not in err


def test_interval_narrower_than_the_offset_is_infeasible(tmp_path, capsys):
    # no p_q inside the interval is stable in float64, so neither optimum exists
    code, text = run(tmp_path, "optimize", _config(UNSTABLE_OPTIMUM))
    assert code == 0 and capsys.readouterr().err == ""
    report = dict(line.split(" = ") for line in text.splitlines() if not line.startswith("#"))
    assert report["p_q_lower"] == report["p_q_upper"] == "0.998335359762"
    assert report["pu_mode"] == report["su_status"] == "infeasible"
    assert report["pu_d_p_star"] == "n/a" and "su_p_q_star" not in report


def test_validate_simulates_nothing_before_an_unevaluable_row_fails(tmp_path, capsys, monkeypatch):
    # the closed forms fail at the sweep's first, stable point (the fifth of
    # ILL_CONDITIONED_POINTS), so the sweep stops before any row is simulated
    sweep = (
        "f_pd = 0.25\nf_sd = 1.0\nf_ps = 1.0\np_q = 0.515625\np_a = 1\n"
        "lambda_p = 0.1962025316455696\nvariable = lambda_s\nstart = 0.41445806962025317\n"
        "stop = 0.5\nsteps = 2\nslots = 2000\nwarmup = 100\n"
    )
    batches = []
    monkeypatch.setattr(cli, "replicate_many", lambda *args: batches.append(args))
    code, text = run(tmp_path, "validate", sweep)
    assert code == 2 and text == "" and batches == []
    assert capsys.readouterr().err == _named(_point(*ILL_CONDITIONED_POINTS[4]))


def test_validate_standard_point_full_run(tmp_path):
    # full-length validation at the reference operating point
    code, text = run(
        tmp_path,
        "validate",
        "variable = lambda\nstart = 0.08\nstop = 0.1\nsteps = 2\n"
        "slots = 1000000\nwarmup = 10000\nseed = 12345\ntolerance = 0.03\n",
    )
    assert code == 0
    _, body = rows(text)
    assert [r[-1] for r in body] == ["ok", "ok"]
    assert all(float(r[11]) <= 0.03 and float(r[14]) <= 0.03 for r in body)


def test_validate_no_cooperation_against_its_closed_forms(tmp_path):
    # both points have at least a 50% margin under Policy(1, 0), which the
    # rows print in place of the configured policy
    code, text = run(
        tmp_path,
        "validate",
        "variable = lambda\nstart = 0.05\nstop = 0.15\nsteps = 2\np_q = 0.5\np_a = 1\n"
        "policy_kind = no_cooperation\nslots = 1000000\nwarmup = 10000\nseed = 12345\n"
        "tolerance = 0.03\n",
    )
    assert code == 0
    _, body = rows(text)
    assert [r[3:5] for r in body] == [["1", "0"], ["1", "0"]]
    assert [r[-1] for r in body] == ["ok", "ok"]
    assert all(float(r[7]) >= 0.1 and float(r[8]) >= 0.1 for r in body)


def test_validate_refuses_strict_priority(tmp_path, capsys):
    code, text = run(tmp_path, "validate", SMALL_VALIDATE + "policy_kind = strict_priority_relay\n")
    assert code == 2 and text == ""
    assert "strict_priority_relay" in capsys.readouterr().err


def test_validate_marks_unstable_points(tmp_path):
    code, text = run(
        tmp_path,
        "validate",
        "variable = lambda\nstart = 0.4\nstop = 0.5\nsteps = 2\nslots = 5000\nwarmup = 100\n"
        "tolerance = 1e-9\n",
    )
    assert code == 0  # unstable points are skipped, not failed
    _, body = rows(text)
    assert all(r[-1] == "unstable" for r in body)


def test_optimize_point_report(tmp_path):
    code, text = run(tmp_path, "optimize", "lambda_p = 0.1\nlambda_s = 0.2\n", name="report.txt")
    assert code == 0
    assert "pu_mode = cooperate" in text
    assert "su_p_q_star" in text
    assert "p_q_lower" in text


def test_optimize_point_report_prefers_no_cooperation_on_strong_direct_link(tmp_path):
    code, text = run(
        tmp_path, "optimize", "f_pd = 0.6\nlambda_p = 0.1\nlambda_s = 0.2\n", name="report.txt"
    )
    assert code == 0
    assert "pu_mode = no_cooperation" in text


def test_optimize_sweep_modes(tmp_path):
    code, text = run(
        tmp_path,
        "optimize",
        "variable = lambda_p\nstart = 0.05\nstop = 0.4\nsteps = 4\nlambda_s = 0.2\n"
        "f_pd_list = 0.3, 0.6\n",
    )
    assert code == 0
    header, body = rows(text)
    assert header == OPTIMIZE_SWEEP_HEADER
    modes_low = {r[5] for r in body if r[0] == "0.3"}
    modes_high = {r[5] for r in body if r[0] == "0.6"}
    assert "cooperate" in modes_low
    assert modes_high <= {"no_cooperation", "infeasible"}


def test_oracle_agreement_columns(tmp_path):
    code, text = run(
        tmp_path,
        "oracle",
        "p_q = 0.5\np_a = 1\nlambda_p = 0.1\nlambda_s = 0.1\ntruncation = 60\n",
    )
    assert code == 0
    header, body = rows(text)
    assert header == ORACLE_HEADER
    assert [r[0] for r in body] == ["primary_secondary", "primary_relay"]
    for r in body:
        assert float(r[13]) < 0.005
        assert float(r[14]) < 0.005
        assert float(r[16]) < 1e-9
    assert float(body[0][15]) < 1e-9
    assert body[1][11] == body[1][15] == ""


def test_oracle_at_no_cooperation_matches_closed_forms(tmp_path):
    code, text = run(
        tmp_path, "oracle", "p_q = 1\np_a = 0\nlambda_p = 0.1\nlambda_s = 0.1\ntruncation = 100\n"
    )
    assert code == 0
    _, body = rows(text)
    for r in body:
        assert float(r[13]) <= 1e-12 and float(r[14]) <= 1e-12 and float(r[16]) <= 1e-12
    assert float(body[0][15]) <= 1e-12
    # no PU packet enters the relay queue
    assert body[1][6] == body[1][10] == "0"


def test_oracle_rejects_unstable_point(tmp_path):
    code, _ = run(tmp_path, "oracle", "lambda_p = 0.5\nlambda_s = 0.5\n")
    assert code == 2


@pytest.mark.parametrize("variable", ["lambda", "lambda_p", "lambda_s", "p_q", "p_a", "f_pd"])
def test_sweep_overlays_swept_keys_on_config(tmp_path, variable):
    base = {"f_pd": 0.2, "f_sd": 0.9, "f_ps": 0.5, "p_q": 0.4, "p_a": 0.7, "lambda_p": 0.03,
            "lambda_s": 0.04}
    config = "".join(f"{key} = {value}\n" for key, value in base.items())
    code, text = run(
        tmp_path, "delay", config + f"variable = {variable}\nstart = 0.01\nstop = 0.05\nsteps = 3\n"
    )
    assert code == 0
    _, body = rows(text)
    swept = ["lambda_p", "lambda_s"] if variable == "lambda" else [variable]
    columns = ["f_pd", "f_sd", "f_ps", "p_q", "p_a", "lambda_p", "lambda_s"]
    for r, value in zip(body, [0.01, 0.03, 0.05], strict=True):
        for column, cell in zip(columns, r):
            assert float(cell) == (value if column in swept else base[column]), column


def test_tradeoff_directions(tmp_path):
    code, text = run(tmp_path, "tradeoff", "p_q_list = 0.7\nsteps = 11\nlambda_p = 0.1\nlambda_s = 0.1\n")
    assert code == 0
    header, body = rows(text)
    assert header == TRADEOFF_HEADER
    d_s = [float(r[5]) for r in body if r[4] == "1"]
    d_p = [float(r[6]) for r in body if r[4] == "1"]
    # above the phase transition, admission trades primary delay for secondary delay
    assert all(a >= b - 1e-12 for a, b in zip(d_s, d_s[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(d_p, d_p[1:]))


def test_config_error_reports_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p_q = 0.5\nthis is not a pair\n")
    code = main(["delay", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.cfg:2" in err


def test_unknown_key_exits_2_with_line(tmp_path, capsys):
    # a misspelt key must not fall back to the default it was meant to override
    code, text = run(tmp_path, "delay", "p_q = 0.5\nlamda_p = 0.25\n", extra=["--preset", "fig6"])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert f"{tmp_path / 'run.cfg'}:2: unknown key 'lamda_p'" in err


def test_oracle_tolerance_is_an_unknown_key(tmp_path, capsys):
    # the oracle's residual check takes the solver's own tolerance
    code, text = run(tmp_path, "oracle", "truncation = 30\noracle_tolerance = 1e-9\n")
    assert code == 2 and text == ""
    assert f"{tmp_path / 'run.cfg'}:2: unknown key 'oracle_tolerance'" in capsys.readouterr().err


def test_presets_use_only_config_keys():
    for name, preset in PRESETS.items():
        assert set(preset) <= KEYS.keys(), name


def test_failed_sweep_leaves_no_output_file(tmp_path):
    # the p_q_list conflict is found after the header is written
    code, _ = run(
        tmp_path,
        "simulate",
        "variable = p_q\nstart = 0.2\nstop = 0.8\nsteps = 2\np_q_list = 0.3\nslots = 2000\n",
    )
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_failed_run_keeps_previous_output(tmp_path):
    code, first = run(tmp_path, "delay", "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n")
    assert code == 0
    code, _ = run(tmp_path, "delay", "variable = p_q\nstart = 0.2\nstop = 0.8\nsteps = 2\np_q_list = 0.5\n")
    assert code == 2
    assert (tmp_path / "out.csv").read_text() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "run.cfg"]


def test_failed_sweep_writes_nothing_to_stdout(tmp_path, capsys):
    # the f_pd sweep reaches f_sd = 0.8 at its last step
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variable = f_pd\nstart = 0.2\nstop = 0.8\nsteps = 4\n")
    assert main(["delay", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"config error: f_pd (variable at {cfg}:1), f_sd (default): "
                   "channel requires f_pd < f_sd, got f_pd=0.8, f_sd=0.8\n")


def test_invalid_values_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "delay", "variable = lambda\nstart = 0.2\nstop = 0.1\nsteps = 5\n")
    assert code == 2
    code, _ = run(tmp_path, "delay", "variable = lambda\nstart = 0.1\nstop = 0.2\nsteps = 5\nf_pd = 0.9\n")
    assert code == 2


@pytest.mark.parametrize("command,config,extra,message", [
    ("delay", "stop = 0.005\n", ["--preset", "fig6"],
     "start (preset fig6), stop ({cfg}:1): need start < stop, got start=0.01, stop=0.005"),
    ("simulate", SMALL_VALIDATE, ["--warmup", "5000"],
     "slots ({cfg}:5), warmup (--warmup): need slots > warmup_slots >= 0, got slots=2000, warmup=5000"),
    ("optimize", "f_sd = 0.5\n", ["--preset", "fig11"],
     "f_pd (f_pd_list at preset fig11), f_sd ({cfg}:1): "
     "channel requires f_pd < f_sd, got f_pd=0.6, f_sd=0.5"),
    ("tradeoff", "lambda_s = 0\n", [],
     "lambda_p (default), lambda_s ({cfg}:1): tradeoff requires positive lambda_p and lambda_s"),
])
def test_check_between_keys_names_the_origin_of_each(tmp_path, capsys, command, config, extra, message):
    code, text = run(tmp_path, command, config, extra=extra)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"config error: {message.format(cfg=tmp_path / 'run.cfg')}\n"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    code = main(["delay", "--preset", "fig6", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


def test_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    code = main(["delay", "--preset", "fig6", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_validate_rejects_bad_tolerance(tmp_path, capsys, value):
    code, text = run(tmp_path, "validate", SMALL_VALIDATE + f"tolerance = {value}\n")
    assert code == 2 and text == ""
    assert "'tolerance'" in capsys.readouterr().err
    code, text = run(tmp_path, "validate", SMALL_VALIDATE, extra=["--tolerance", value])
    assert code == 2 and text == ""
    assert "config error: --tolerance: key 'tolerance'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_negative_seed_names_key(tmp_path, capsys, command):
    code, _ = run(tmp_path, command, SMALL_VALIDATE + "seed = -3\n")
    assert code == 2
    assert "'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["delay", "--truncation", "5"], ["oracle", "--tolerance", "0.1"]])
def test_command_specific_flags_stay_on_their_command(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_oracle_truncation_flag(tmp_path):
    code, text = run(tmp_path, "oracle", "truncation = 60\n", extra=["--truncation", "30"])
    assert code == 0
    _, body = rows(text)
    assert [r[1] for r in body] == ["30", "30"]


def test_oracle_truncation_beyond_memory_exits_2(tmp_path, capsys):
    # the solve would hold five T x T float64 lattices: 373 GiB at T = 100000
    truncation = 100_000
    if 5 * 8 * truncation**2 <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        pytest.skip("this machine's memory would hold the solve")
    code, text = run(tmp_path, "oracle", None, extra=["--truncation", str(truncation)])
    assert code == 2 and text == "" and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("config error: truncation (--truncation): truncation 100000 needs 373 GiB")
    assert "Traceback" not in err


def test_standard_channel_preset_bytes(tmp_path):
    digest = hashlib.sha256()
    for preset, command in PRESET_COMMANDS.items():
        code, text = run(tmp_path, command, None, extra=["--preset", preset])
        assert code == 0
        digest.update(text.encode())
    assert digest.hexdigest() == STANDARD_PRESETS_SHA256


def test_unknown_preset_exits_2(tmp_path):
    code, _ = run(tmp_path, "delay", None, extra=["--preset", "fig99"])
    assert code == 2


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_run_clean(tmp_path, preset):
    code, text = run(tmp_path, PRESET_COMMANDS[preset], None, extra=["--preset", preset])
    assert code == 0
    header, body = rows(text)
    assert body, f"preset {preset} produced no rows"


def test_symmetric_load_sweep_delays_grow_with_load(tmp_path):
    code, text = run(tmp_path, "delay", None, extra=["--preset", "fig6"])
    assert code == 0
    _, body = rows(text)
    for p_q in ("0.3", "0.5", "0.8"):
        d_p = [float(r[8]) for r in body if r[3] == p_q and r[7] == "1"]
        d_s = [float(r[9]) for r in body if r[3] == p_q and r[7] == "1"]
        assert len(d_p) >= 5
        assert all(a <= b + 1e-12 for a, b in zip(d_p, d_p[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(d_s, d_s[1:]))


def test_seed_precedence_env_over_config_flag_over_env(tmp_path, monkeypatch):
    config = (
        "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n"
        "slots = 2000\nwarmup = 100\nseed = 1\n"
    )
    monkeypatch.setenv(ENV_SEED, "2")
    _, text_env = run(tmp_path, "simulate", config, name="env.csv")
    _, text_flag = run(tmp_path, "simulate", config, extra=["--seed", "3"], name="flag.csv")
    monkeypatch.delenv(ENV_SEED)
    _, text_cfg = run(tmp_path, "simulate", config, name="cfg.csv")

    def seeds(text):
        return [r[11] for r in rows(text)[1]]

    assert seeds(text_env) != seeds(text_cfg)
    assert seeds(text_flag) != seeds(text_env)


# past 2^64 the entropy and the spawn key take three words or more
@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**160), st.integers(0, 2**160))
@example(0, 0)
@example(2**32 - 1, 2**32 - 1)
@example(2**32, 2**32)
@example(2**64 - 1, 2**64 - 1)
@example(2**32, 0)
@example(2**64 - 1, 2**32)
def test_point_seed_is_numpys_seed_sequence(base, index):
    expected = np.random.SeedSequence(entropy=base, spawn_key=(index,)).generate_state(1, np.uint64)
    assert cli._point_seed(base, index) == int(expected[0])


def test_env_seed_must_be_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    code, _ = run(tmp_path, "delay", "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: {ENV_SEED}: key 'seed': 'not-a-number' is not an integer\n"


def test_byte_identical_reruns(tmp_path):
    config = (
        "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n"
        "slots = 10000\nwarmup = 500\nseed = 6\n"
    )
    _, first = run(tmp_path, "simulate", config, name="a.csv")
    _, second = run(tmp_path, "simulate", config, name="b.csv")
    assert first == second


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("tradeoff", "steps = -1\n", "'steps'"),
        ("region", "steps = -1\n", "'steps'"),
        ("region", "region_mode = rates\nsteps = -1\n", "'steps'"),
        ("tradeoff", "start = -0.5\n", "'start'"),
        ("region", "region_mode = rates\nstop = 1.5\n", "'stop'"),
    ],
)
def test_bad_grid_names_its_key(tmp_path, capsys, command, config, key):
    code, text = run(tmp_path, command, config)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "p_a" not in err and "Number of samples" not in err


@pytest.mark.parametrize("argv", [["region", "--preset", "fig4"], ["optimize"]])
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the command starts, so its first write
    # fails: for a large table while writing, for a short report at the flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cogrelay.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


#: Presets plus sweeps across both stability bounds, through no cooperation,
#: the policy (p_q, p_a) = (1, 0), and from lambda = 0.
EDGE_SWEEPS = [
    ("delay", "variable = lambda\nstart = 0\nstop = 1\nsteps = 41\np_q_list = 0, 0.5, 1\np_a = 0\n"),
    ("delay", "variable = p_a\nstart = 0\nstop = 1\nsteps = 21\np_q_list = 0.3, 1\n"
              "lambda_p = 0.2\nlambda_s = 0.2\n"),
    ("delay", "variable = f_pd\nstart = 0\nstop = 0.79\nsteps = 21\nf_ps = 0\np_a = 0\n"),
    ("tradeoff", "p_q_list = 0, 0.5, 1\nlambda_p = 0.25\nlambda_s = 0.05\n"),
    ("region", "policies = 0:0, 0.5:1, 1:1\nsteps = 31\nstop = 1\n"),
    ("region", "region_mode = rates\np_q_list = 0, 1\nlambda_p = 0.5\nsteps = 11\n"),
    ("optimize", "variable = lambda_p\nstart = 0\nstop = 1\nsteps = 41\nlambda_s = 0\n"
                 "f_pd_list = 0, 0.3, 0.79\n"),
    ("optimize", "variable = lambda_s\nstart = 0\nstop = 1\nsteps = 41\nlambda_p = 0.6\n"),
    ("optimize", "lambda_p = 0\nlambda_s = 0\n"),
    ("region", "policies = 1:0, 0.5:1\nsteps = 31\nstop = 1\n"),
    ("oracle", "p_q = 1\np_a = 0\ntruncation = 60\n"),
]


@pytest.mark.parametrize(
    "command,config,preset",
    [(command, None, preset) for preset, command in PRESET_COMMANDS.items()]
    + [(command, config, None) for command, config in EDGE_SWEEPS],
)
def test_no_numpy_warnings(tmp_path, capsys, command, config, preset):
    extra = ["--preset", preset] if preset else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, command, config, extra=extra)
    assert code == 0 and text
    assert capsys.readouterr().err == ""
