"""The array core and the table-at-once commands against their point-by-point references."""

import contextlib
import io
import os
import tempfile

import pytest
import reference_cli
import reference_closed_forms
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cogrelay import analytics, optimizer
from cogrelay.cli import SWEEP_VARIABLES, main
from cogrelay.model import ChannelProfile, OperatingPoint, Policy

# probabilities with the edges the closed forms are sensitive to: exact 0
# and 1, subnormals, values that underflow when multiplied, and the
# standard channel
PROB = (
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-320, 1e-200, 1e-20, 0.3, 0.4, 0.5, 0.625, 0.8])
    | st.floats(0.0, 1.0)
)
SMALL_STEPS = st.integers(2, 9)

#: How the CLI reports an unevaluable row, an invalid sweep step and an
#: invalid optimize curve.
FAILURES = tuple("config error: " + text for text in (
    "the closed forms cannot be evaluated at ", "invalid sweep point (", "channel requires f_pd < f_sd",
    "f_pd must be a finite probability",
))


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
    # loads at, just under and over the stability bounds of the base point
    ch = (config["f_pd"], config["f_sd"], config["f_ps"])
    forms = analytics.closed_forms(*ch, config["p_q"], config["p_a"], config["lambda_p"])
    for key, bound in (("lambda_p", float(forms.bound_p)), ("lambda_s", float(forms.bound_s))):
        scale = draw(st.sampled_from([None, 0.0, 0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15]))
        if scale is not None and 0.0 <= bound * scale <= 1.0:
            config[key] = float(bound * scale)


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
        elif f_pd < f_sd:
            # the default grid ends at the union boundary's root
            assume(analytics.union_region(f_pd, f_sd, config["f_ps"])[1] > 0.0)
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
        return result, stderr.getvalue(), written


@settings(max_examples=250, deadline=None, derandomize=True)
@given(configs())
@example(("delay", "variable = lambda\nstart = 0\nstop = 1\nsteps = 9\np_q_list = 0.3, 1.0\np_a = 0\n"))
@example(("delay", "variable = f_pd\nstart = 0\nstop = 1\nsteps = 5\n"))
@example(("delay", "variable = lambda_s\nstart = 0\nstop = 0.5\nsteps = 3\np_q = 1e-323\nlambda_p = 0.1\n"))
@example(("tradeoff", "p_q_list = 1, 0.625, 0.3\nsteps = 5\n"))
@example(("region", "policies = 1:0, 0.5:1\n"))
@example(("region", "f_pd = 0\nf_ps = 0\npolicies = 0.5:1\nstart = 0.1\nstop = 0.5\nsteps = 3\n"))
@example(("delay", "variable = lambda_s\nstart = 0\nstop = 0.5\nsteps = 3\np_q_list = 1e-323, 1.5\n"
                  "lambda_p = 0.1\n"))
@example(("delay", "variable = lambda\nstart = 0\nstop = 0.1\nsteps = 3\np_q_list = 0, -0.0\n"))
@example(("optimize", "variable = lambda_p\nstart = 0\nstop = 1\nsteps = 9\nf_pd_list = 0.3, 0.6, 0.9\n"))
@example(("optimize", "f_pd = 0.5\nf_sd = 1.0\nf_ps = 0.25\nlambda_p = 0.3125\nlambda_s = 0.25\n"))
@example(("optimize", "f_pd = 0.7130607983330924\nf_sd = 0.9\nf_ps = 0.020126716603189432\n"
                      "lambda_p = 0.14806757846412472\nlambda_s = 0.7134262293980463\n"))
def test_commands_match_point_by_point_reference(case):
    command, text = case
    outcome, expected = _outcome(main, command, text), _outcome(reference_cli.main, command, text)
    if expected[0] == 0:
        assert outcome == expected
        return
    # where the reference fails, the CLI exits 2 and writes nothing; it names
    # the reference's error, a row the closed forms cannot evaluate, or an
    # invalid sweep step, which it now finds before evaluating any row
    code, stderr, written = outcome
    assert code == 2 and written is None
    assert stderr == expected[1] or stderr.startswith(FAILURES), stderr


@pytest.mark.parametrize("tolerance,code", [("0.1", 1), ("1", 0)])
def test_validate_matches_point_by_point_reference(tolerance, code):
    # rows of every status (ok, fail, marginal near the primary bound, unstable)
    # and rows without a primary delay
    text = ("variable = lambda_p\nstart = 0\nstop = 0.36\nsteps = 7\nlambda_s = 0.05\np_q_list = 0.3, 0.7\n"
            f"slots = 4000\nwarmup = 100\ntolerance = {tolerance}\n")
    outcome = _outcome(main, "validate", text)
    assert outcome == _outcome(reference_cli.main, "validate", text)
    assert outcome[0] == code


SCALAR_FUNCTIONS = {
    "point": ["is_stable", "mean_queue_primary", "mean_queue_relay", "secondary_coefficients",
              "mean_queue_secondary", "delay_primary", "delay_secondary",
              "empty_joint_probability", "prob_primary_empty", "delay_report"],
    "policy": ["max_arrival_primary", "relay_coefficients"],
    "channel": ["phase_transition_pq"],
    "optimizer": ["minimize_primary_delay", "minimize_secondary_delay"],
}


def _call(function, *args):
    try:
        return repr(function(*args))
    except (ValueError, AssertionError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


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
def test_scalar_functions_match_term_by_term_reference(case):
    ch, pol, pt = case
    modules = {"point": analytics, "policy": analytics, "channel": analytics, "optimizer": optimizer}
    args = {"point": (ch, pol, pt), "policy": (ch, pol), "channel": (ch,), "optimizer": (ch, pt)}
    for kind, names in SCALAR_FUNCTIONS.items():
        for name in names:
            new = _call(getattr(modules[kind], name), *args[kind])
            assert new == _call(getattr(reference_closed_forms, name), *args[kind]), name
    for name, extra in (("service_rate_primary", pol.p_a), ("relay_fraction_epsilon", pol.p_a),
                        ("union_region_max_lambda_s", pt.lambda_p)):
        new = _call(getattr(analytics, name), ch, extra)
        assert new == _call(getattr(reference_closed_forms, name), ch, extra), name
    assert _call(analytics.max_arrival_secondary, ch, pol, pt.lambda_p) == _call(
        reference_closed_forms.max_arrival_secondary, ch, pol, pt.lambda_p)
    for name, extra in (("pq_lower_bound", pol.p_a), ("pq_upper_bound", pol.p_a)):
        new = _call(getattr(optimizer, name), ch, pt, extra)
        assert new == _call(getattr(reference_closed_forms, name), ch, pt, extra), name
    assert _call(optimizer.no_cooperation_delay_primary, ch, pt.lambda_p) == _call(
        reference_closed_forms.no_cooperation_delay_primary, ch, pt.lambda_p)
    # the CLI reads a stable row's failure from these masks alone
    cf = analytics.closed_forms(ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s)
    fails = reference_closed_forms.is_stable(ch, pol, pt).stable and isinstance(
        _call(reference_closed_forms.delay_report, ch, pol, pt), tuple)
    assert bool(cf.stable & ~cf.evaluable) == fails
