"""The array core and the table-at-once commands against their point-by-point references."""

import contextlib
import dataclasses
import io
import os
import tempfile

import pytest
import reference_cli
import reference_closed_forms as closed
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from points import at, optimum, primary_decision, ulps_under

from cogrelay import analytics, optimizer
from cogrelay.cli import main
from cogrelay.config import SWEEP_VARIABLES
from cogrelay.model import ChannelProfile, OperatingPoint, Policy

# probabilities with the edges the closed forms are sensitive to: exact 0
# and 1, subnormals, values that underflow when multiplied, and the
# standard channel
PROB = (
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-320, 1e-200, 1e-20, 0.3, 0.4, 0.5, 0.625, 0.8])
    | st.floats(0.0, 1.0)
)
SMALL_STEPS = st.integers(2, 9)

#: How the CLI reports an unevaluable row.
UNEVALUABLE = "config error: the closed forms cannot be evaluated at "


def _grid(draw, config, defaults=False):
    # commands with grid defaults also run without the keys
    start = draw(st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.9))
    stop = draw(st.sampled_from([1.0]) | st.floats(start, 1.0, exclude_min=True))
    assume(start < stop)
    grid = {"start": start, "stop": stop, "steps": draw(SMALL_STEPS)}
    if defaults:
        grid = {key: value for key, value in grid.items() if draw(st.booleans())}
    config.update(grid)


def _near_bounds(draw, config):
    # loads at, just under and over the stability bounds, or 1-8 floats under them;
    # lambda_s's bound is the one at the lambda_p drawn first
    ch = (config["f_pd"], config["f_sd"], config["f_ps"], config["p_q"], config["p_a"])
    for key in ("lambda_p", "lambda_s"):
        forms = analytics.closed_forms(*ch, config["lambda_p"])
        bound = float(forms.bound_p if key == "lambda_p" else forms.bound_s)
        scale = draw(st.sampled_from([None, 0.0, 0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15]) | st.integers(1, 8))
        if scale is None:
            continue
        value = float(ulps_under(bound, scale)) if isinstance(scale, int) else bound * scale
        if 0.0 <= value <= 1.0:
            config[key] = value


@st.composite
def configs(draw):
    command = draw(st.sampled_from(
        ["delay", "tradeoff", "region", "region_rates", "optimize", "optimize_point"]
    ))
    f_sd = draw(st.sampled_from([0.8, 1.0]) | PROB)
    f_pd = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, abs(f_sd)) | PROB.map(lambda p: p * f_sd))
    config = {"f_pd": f_pd, "f_sd": f_sd, "f_ps": draw(PROB), "p_q": draw(PROB), "p_a": draw(PROB),
              "lambda_p": draw(PROB), "lambda_s": draw(PROB)}
    if f_pd < f_sd:
        _near_bounds(draw, config)
    curves = st.lists(PROB | st.sampled_from([1.0, 1.5]), min_size=1, max_size=3)
    if command == "delay":
        config["variable"] = draw(st.sampled_from(SWEEP_VARIABLES))
        _grid(draw, config)
        if draw(st.booleans()):
            config["p_q_list"] = ", ".join(map(repr, draw(curves)))
    elif command == "tradeoff":
        _grid(draw, config, defaults=True)
        if draw(st.booleans()):
            config["p_q_list"] = ", ".join(map(repr, draw(st.lists(PROB, min_size=1, max_size=3))))
    elif command == "region":
        config["policies"] = ", ".join(
            f"{p_q!r}:{p_a!r}"
            for p_q, p_a in draw(st.lists(st.tuples(PROB, PROB) | st.just((1.0, 0.0)),
                                          min_size=1, max_size=3))
        )
        if draw(st.booleans()):
            _grid(draw, config)
        else:
            # the default grid ends at the union boundary's root, and is refused where that is not positive
            config["steps"] = draw(SMALL_STEPS)
    elif command == "region_rates":
        command = "region"
        config["region_mode"] = "rates"
        _grid(draw, config, defaults=True)
        if draw(st.booleans()):
            config["p_q_list"] = ", ".join(map(repr, draw(st.lists(PROB, min_size=1, max_size=3))))
    elif command == "optimize":
        config["variable"] = draw(st.sampled_from(["lambda_p", "lambda_s"]))
        _grid(draw, config)
        if draw(st.booleans()):
            config["f_pd_list"] = ", ".join(map(repr, draw(curves)))
    else:
        command = "optimize"
    return command, "".join(f"{key} = {value}\n" for key, value in config.items())


def _outcome(run, command, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "sweep.cfg"), os.path.join(tmp, "out.csv")
        with open(cfg, "w") as handle:
            handle.write(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                result = run([command, "--config", cfg, "--out", out])
            except (AssertionError, ArithmeticError) as exc:
                result = (type(exc).__name__, str(exc))
        written = open(out, "rb").read() if os.path.exists(out) else None
        # errors name the config file's line, whose directory differs from run to run
        return result, stderr.getvalue().replace(tmp, "<tmp>"), written


@settings(max_examples=250, deadline=None, derandomize=True)
@given(configs())
@example(("delay", "variable = lambda\nstart = 0\nstop = 1\nsteps = 9\np_q_list = 0.3, 1.0\np_a = 0\n"))
@example(("delay", "variable = f_pd\nstart = 0\nstop = 1\nsteps = 5\n"))
@example(("delay", "variable = lambda_s\nstart = 0\nstop = 0.5\nsteps = 3\np_q = 1e-323\nlambda_p = 0.1\n"))
@example(("tradeoff", "p_q_list = 1, 0.625, 0.3\nsteps = 5\n"))
@example(("region", "policies = 1:0, 0.5:1\n"))
@example(("region", "f_pd = 0\nf_ps = 0\npolicies = 0.5:1\nstart = 0.1\nstop = 0.5\nsteps = 3\n"))
# a policy that never serves the primary is refused where the grid holds its idle point, and else omitted
@example(("region", "f_pd = 0\npolicies = 1:0, 0.5:1\n"))
@example(("region", "f_pd = 0\npolicies = 1:0, 0.5:1\nstart = 0.1\nstop = 0.5\nsteps = 3\n"))
# the union boundary's root rounds to 0, where the default grid ends
@example(("region", "f_pd = 0\nf_ps = 5e-324\nf_sd = 0.3\n"))
@example(("region", "f_pd = 0\nf_ps = 5e-324\nf_sd = 0.3\nstop = 0.5\nsteps = 3\n"))
# a start past the union boundary's root, where the default grid ends
@example(("region", "f_pd = 0.3\nstart = 0.64\n"))
@example(("delay", "variable = lambda_s\nstart = 0\nstop = 0.5\nsteps = 3\np_q_list = 1e-323, 1.5\n"
                  "lambda_p = 0.1\n"))
@example(("delay", "variable = lambda\nstart = 0\nstop = 0.1\nsteps = 3\np_q_list = 0, -0.0\n"))
@example(("optimize", "variable = lambda_p\nstart = 0\nstop = 1\nsteps = 9\nf_pd_list = 0.3, 0.6, 0.9\n"))
# the listed f_pd values are below f_sd, the config's own f_pd is not
@example(("optimize", "variable = lambda_p\nstart = 0.01\nstop = 0.2\nsteps = 3\nf_pd_list = 0.1, 0.15\n"
                      "f_sd = 0.2\nlambda_s = 0.01\n"))
@example(("optimize", "f_pd = 0.5\nf_sd = 1.0\nf_ps = 0.25\nlambda_p = 0.3125\nlambda_s = 0.25\n"))
@example(("optimize", "f_pd = 0.7130607983330924\nf_sd = 0.9\nf_ps = 0.020126716603189432\n"
                      "lambda_p = 0.14806757846412472\nlambda_s = 0.7134262293980463\n"))
# the secondary optimum cannot be evaluated, the primary one can
@example(("optimize", "f_pd = 8e-21\nf_sd = 0.8\nf_ps = 0.0\nlambda_p = 7.999999999999992e-21\nlambda_s = 5e-324\n"))
# no secondary traffic, so no secondary optimum is asked for
@example(("optimize", "lambda_p = 0.1\nlambda_s = 0\n"))
def test_commands_match_point_by_point_reference(case):
    command, text = case
    outcome, expected = _outcome(main, command, text), _outcome(reference_cli.main, command, text)
    if expected[0] == 0:
        assert outcome == expected
        return
    # where the reference fails, the CLI exits 2 and writes nothing; it names
    # the reference's error or a row the closed forms cannot evaluate
    code, stderr, written = outcome
    assert code == 2 and written is None
    assert stderr == expected[1] or stderr.startswith(UNEVALUABLE), stderr


@pytest.mark.parametrize("tolerance,code", [("0.1", 1), ("1", 0)])
def test_validate_matches_point_by_point_reference(tolerance, code):
    # rows of every status (ok, fail, marginal near the primary bound, unstable)
    # and rows without a primary delay
    text = ("variable = lambda_p\nstart = 0\nstop = 0.36\nsteps = 7\nlambda_s = 0.05\np_q_list = 0.3, 0.7\n"
            f"slots = 4000\nwarmup = 100\ntolerance = {tolerance}\n")
    outcome = _outcome(main, "validate", text)
    assert outcome == _outcome(reference_cli.main, "validate", text)
    assert outcome[0] == code


def _result(function, *args):
    """What a reference function returns, or the exception it raises."""
    try:
        return function(*args)
    except (ValueError, AssertionError, ArithmeticError) as exc:
        return exc


def _check(outcome, mask, *values) -> None:
    """The core's mask is set exactly where the reference returns, and there its values have the same repr."""
    returned = not isinstance(outcome, Exception)
    assert bool(mask) == returned, outcome
    if returned:
        expected = dataclasses.astuple(outcome) if dataclasses.is_dataclass(outcome) else outcome
        assert repr(expected) == repr(float(values[0]) if len(values) == 1 else tuple(map(float, values)))


@st.composite
def points(draw):
    f_sd = draw(st.sampled_from([0.8, 1.0]) | PROB)
    f_pd = draw(st.sampled_from([0.0, 0.3]) | PROB.map(lambda p: p * f_sd))
    assume(f_pd < f_sd)
    config = {"f_pd": f_pd, "f_sd": f_sd, "f_ps": draw(PROB), "p_q": draw(PROB), "p_a": draw(PROB),
              "lambda_p": draw(PROB), "lambda_s": draw(PROB)}
    _near_bounds(draw, config)
    ch = ChannelProfile(config["f_pd"], config["f_sd"], config["f_ps"])
    return ch, Policy(config["p_q"], config["p_a"]), OperatingPoint(config["lambda_p"], config["lambda_s"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points())
@example((ChannelProfile(0.3, 0.8, 0.4), Policy(1e-323, 1.0), OperatingPoint(0.1, 0.0)))
@example((ChannelProfile(1e-200, 0.8, 0.0), Policy(1e-200, 0.0), OperatingPoint(0.0, 0.0)))
@example((ChannelProfile(0.0, 0.8, 0.0), Policy(0.5, 1.0), OperatingPoint(0.0, 0.0)))
@example((ChannelProfile(0.3, 0.8, 0.4), Policy(1.0, 0.0), OperatingPoint(0.1, 0.1)))
# the secondary optimum is stable there, but its delay report is out of bounds
@example((ChannelProfile(8e-21, 0.8, 0.0), Policy(0.5, 1.0), OperatingPoint(0.0, 5e-324)))
# only the secondary optimum cannot be evaluated: its delay reads 0, below one slot
@example((ChannelProfile(8e-21, 0.8, 0.0), Policy(0.5, 1.0), OperatingPoint(7.999999999999992e-21, 5e-324)))
# zero arrival rates, where a delay report has no delay
@example((ChannelProfile(0.3, 0.8, 0.4), Policy(0.5, 1.0), OperatingPoint(0.0, 0.0)))
@example((ChannelProfile(0.3, 0.8, 0.4), Policy(0.5, 1.0), OperatingPoint(0.1, 0.0)))
@example((ChannelProfile(0.3, 0.8, 0.4), Policy(0.5, 1.0), OperatingPoint(0.0, 0.1)))
def test_scalar_functions_match_term_by_term_reference(case):
    ch, pol, pt = case
    lp, ls = pt.lambda_p, pt.lambda_s
    cf = at(ch, pol, pt)
    below_mu = ~(lp >= cf.mu)
    relay = cf.stable & cf.relay_ok
    secondary = cf.stable & (cf.c_coef != 0.0)  # where stable B > 0, as the core's comment proves
    n_s = secondary & (cf.n_s_den != 0.0)
    for name, (mask, *values) in {
        "mean_queue_primary": (below_mu, cf.n_p),
        "prob_primary_empty": (below_mu, cf.p_empty),
        "mean_queue_relay": (relay, cf.n_sp),
        "secondary_coefficients": (secondary, cf.a_coef, cf.b_coef, cf.c_coef),
        "mean_queue_secondary": (n_s, cf.n_s),
        "delay_primary": ((lp > 0.0) & relay, cf.d_p),
        "delay_secondary": ((ls > 0.0) & n_s, cf.d_s),
        "empty_joint_probability": (cf.stable & (cf.g00_den != 0.0), cf.g00),
    }.items():
        _check(_result(getattr(closed, name), ch, pol, pt), mask, *values)
    _check(_result(closed.max_arrival_primary, ch, pol), True, cf.bound_p)
    _check(_result(closed.relay_coefficients, ch, pol), cf.mu != 0.0,
           cf.m, cf.n, cf.alpha, cf.beta, cf.gamma)
    _check(_result(closed.max_arrival_secondary, ch, pol, lp), below_mu, cf.bound_s)
    _check(_result(closed.phase_transition_pq, ch), True, cf.threshold)
    _check(_result(closed.service_rate_primary, ch, pol.p_a), True, cf.mu)
    _check(_result(closed.relay_fraction_epsilon, ch, pol.p_a), cf.mu != 0.0, cf.epsilon)
    union, _, slope_den = analytics.union_region(ch.f_pd, ch.f_sd, ch.f_ps, lp)
    _check(_result(closed.union_region_max_lambda_s, ch, lp), slope_den != 0.0, union)
    lower, upper, den, forms = optimizer._pq_interval(ch.f_pd, ch.f_sd, ch.f_ps, pol.p_a, lp, ls)
    bounds = ~(lp >= forms.mu) & (den != 0.0)
    _check(_result(closed.pq_lower_bound, ch, pt, pol.p_a), bounds, lower)
    _check(_result(closed.pq_upper_bound, ch, pt, pol.p_a), bounds, upper)
    o = optimum(ch, pt)
    _check(_result(closed.no_cooperation_delay_primary, ch, lp), o.no_coop_ok, o.no_coop_d_p)

    verdict = dataclasses.astuple(closed.is_stable(ch, pol, pt))
    assert repr(verdict) == repr((bool(cf.stable), float(cf.margin_p), float(cf.margin_s)))
    # the report returns exactly where the core's masks say: the CLI fails a
    # stable row on them alone; a zero arrival rate has no delay
    report = _result(closed.delay_report, ch, pol, pt)
    assert (not isinstance(report, Exception)) == bool(cf.stable & cf.evaluable), report
    if not isinstance(report, Exception):
        assert repr(dataclasses.astuple(report)) == repr((
            float(cf.n_p), float(cf.n_sp), float(cf.n_s),
            None if lp == 0.0 else float(cf.d_p), None if ls == 0.0 else float(cf.d_s),
            float(cf.g00), float(cf.epsilon),
        ))

    primary = _result(closed.minimize_primary_delay, ch, pt)
    secondary = _result(closed.minimize_secondary_delay, ch, pt)
    undefined = (closed.InfeasibleError, closed.UndefinedRateError)
    bounds_fault = isinstance(_result(closed.pq_lower_bound, ch, pt, 1.0), ZeroDivisionError)
    for fault, outcome in [(o.pu_fault, primary), (o.su_fault, secondary)]:
        assert bool(fault) == (
            bounds_fault or (isinstance(outcome, Exception) and not isinstance(outcome, undefined))
        )
    assert isinstance(primary, closed.UndefinedRateError) == (lp <= 0.0)
    if not isinstance(primary, Exception):
        mode, d_p_star = primary_decision(o)
        kept = mode == "cooperate"
        near = False
        if kept:
            star = at(ch, Policy(float(o.pu_p_q_star), 1.0), pt)
            near = bool(min(star.margin_p, star.margin_s) < closed.NEAR_BOUNDARY_MARGIN)
        assert repr(primary) == repr(closed.PrimaryDelayDecision(
            mode, float(o.pu_p_q_star) if kept else None, 1.0 if kept else None,
            None if d_p_star is None else float(d_p_star), near,
        ))
    assert isinstance(secondary, closed.UndefinedRateError) == (ls <= 0.0)
    if isinstance(secondary, closed.InfeasibleError):
        assert not o.feasible
    elif not isinstance(secondary, Exception):
        assert o.feasible and repr(secondary) == repr((float(o.su_p_q_star), float(o.su_d_s_star)))
