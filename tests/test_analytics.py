import math
from typing import NamedTuple

import numpy as np
import pytest
import reference_closed_forms as closed
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from points import at, ulps_under

from cogrelay import analytics
from cogrelay.analytics import union_region
from cogrelay.model import ChannelProfile, OperatingPoint, Policy

CH = ChannelProfile(0.3, 0.8, 0.4)
POL = Policy(0.5, 1.0)
PT = OperatingPoint(0.1, 0.1)


def test_service_rate_primary():
    assert at(CH, Policy(0.0, 1.0)).mu == pytest.approx(0.58, rel=1e-12)
    assert at(CH, Policy(0.0, 0.0)).mu == 0.3
    assert at(ChannelProfile(0.0, 0.5, 0.0), Policy(0.0, 1.0)).mu == 0.0


def test_relay_fraction_epsilon():
    assert at(CH, Policy(0.0, 1.0)).epsilon == pytest.approx(0.28 / 0.58, rel=1e-12)
    assert at(CH, Policy(0.0, 0.0)).epsilon == 0.0
    assert at(ChannelProfile(0.0, 0.8, 1.0), Policy(0.0, 1.0)).epsilon == pytest.approx(1.0)
    # undefined where the primary service rate is zero
    assert at(ChannelProfile(0.0, 0.5, 0.0), Policy(0.0, 1.0)).mu == 0.0


def test_max_arrival_primary_values():
    # with no relay inflow the bound collapses to the direct-link rate
    for p_q in (0.0, 0.3, 0.99):
        assert at(CH, Policy(p_q, 0.0)).bound_p == pytest.approx(0.3, rel=1e-12)
    assert at(CH, Policy(0.625, 1.0)).bound_p == pytest.approx(0.3, rel=1e-12)
    assert at(CH, POL).bound_p == pytest.approx(0.34117647058823536, rel=1e-12)
    # decreasing in p_q
    assert at(CH, Policy(0.5, 1.0)).bound_p > at(CH, Policy(0.8, 1.0)).bound_p


def test_max_arrival_primary_degenerate_policy():
    # p_q = 1 without relay inflow: the relay queue is neither fed nor served,
    # so it never limits the primary queue, whose bound is its service rate
    for ch, pol in ((CH, Policy(1.0, 0.0)), (ChannelProfile(0.3, 0.8, 0.0), Policy(1.0, 1.0))):
        cf = at(ch, pol, OperatingPoint(0.1, 0.1))
        assert cf.bound_p == cf.mu == 0.3
        assert cf.n_sp == 0.0 and cf.relay_ok and cf.stable and cf.evaluable


def test_max_arrival_secondary_values():
    assert at(CH, Policy(1.0, 1.0)).bound_s == pytest.approx(0.8, rel=1e-12)
    assert at(CH, POL, OperatingPoint(0.2, 0.0)).bound_s == pytest.approx(0.2620689655172414, rel=1e-12)
    # increasing in p_a at fixed positive lambda_p
    assert at(CH, Policy(0.5, 1.0), OperatingPoint(0.2, 0.0)).bound_s > at(
        CH, Policy(0.5, 0.4), OperatingPoint(0.2, 0.0)
    ).bound_s
    # undefined where lambda_p reaches the primary service rate
    assert 0.58 >= at(CH, POL).mu


def test_is_stable_verdicts():
    assert at(CH, POL, OperatingPoint(0.0, 0.0)).stable
    assert not at(CH, POL, OperatingPoint(0.9, 0.9)).stable
    verdict = at(CH, POL, PT)
    assert verdict.stable
    assert verdict.margin_p == pytest.approx(0.34117647058823536 - 0.1, rel=1e-12)
    assert verdict.margin_s == pytest.approx(0.3310344827586207 - 0.1, rel=1e-12)


def test_is_stable_sentinels():
    # primary queue overloaded: secondary margin is a sentinel
    verdict = at(CH, POL, OperatingPoint(0.9, 0.0))
    assert not verdict.stable
    assert verdict.margin_s == analytics.MOST_NEGATIVE_MARGIN
    # no cooperation, Policy(1, 0): the primary bound is mu = f_pd, no sentinel
    verdict = at(CH, Policy(1.0, 0.0), OperatingPoint(0.1, 0.1))
    assert verdict.stable
    assert verdict.margin_p == 0.3 - 0.1
    assert verdict.margin_s == 0.8 * (1.0 - 0.1 / 0.3) - 0.1
    # beyond mu the secondary margin is still the sentinel
    verdict = at(CH, Policy(1.0, 0.0), OperatingPoint(0.3, 0.0))
    assert not verdict.stable and verdict.margin_p == 0.0
    assert verdict.margin_s == analytics.MOST_NEGATIVE_MARGIN


def test_phase_transition():
    assert at(CH).threshold == pytest.approx(0.625, rel=1e-12)
    assert at(ChannelProfile(0.4, 0.8, 0.4)).threshold == pytest.approx(0.5, rel=1e-12)
    assert at(ChannelProfile(0.6, 0.8, 0.4)).threshold == pytest.approx(0.25, rel=1e-12)


def test_union_region():
    def max_lambda_s(lambda_p):
        value, _, slope_den = union_region(CH.f_pd, CH.f_sd, CH.f_ps, lambda_p)
        assert slope_den != 0.0
        return value

    assert max_lambda_s(0.0) == pytest.approx(0.8, rel=1e-12)
    root = 0.8 * 0.58 / 1.08
    assert max_lambda_s(root) == pytest.approx(0.0, abs=1e-12)
    assert max_lambda_s(root + 0.05) == 0.0


def test_union_region_is_f_sd_at_an_idle_primary_where_the_slope_overflows():
    # mu = 5e-324 at full admission: the slope (f_sd + relay) / mu is inf, and inf * 0 is nan
    value, root, slope_den = union_region(0.0, 0.3, 5e-324, [0.0, 0.25])
    assert slope_den.tolist() == [5e-324] * 2 and root.tolist() == [0.0] * 2
    assert value.tolist() == [0.3, 0.0]


def test_mean_queue_primary():
    assert at(CH, POL).n_p == 0.0
    assert at(CH, POL, PT).n_p == pytest.approx(0.1875, rel=1e-12)
    near = at(CH, POL, OperatingPoint(0.58 - 1e-9, 0.0)).n_p
    assert near > 1e6
    # undefined where lambda_p reaches the primary service rate
    assert 0.58 >= at(CH, POL).mu


def test_relay_coefficients_frozen():
    c = at(CH, POL)
    assert c.m == pytest.approx(-0.14212413793103446, rel=1e-12)
    assert c.n == pytest.approx(0.1624, rel=1e-12)
    assert c.alpha == pytest.approx(0.68, rel=1e-12)
    assert c.beta == pytest.approx(-0.6264, rel=1e-12)
    assert c.gamma == pytest.approx(0.13456, rel=1e-12)
    assert c.gamma > 0.0


def test_mean_queue_relay():
    assert at(CH, Policy(0.5, 0.0), PT).n_sp == 0.0
    assert at(CH, POL, OperatingPoint(0.0, 0.1)).n_sp == 0.0
    assert at(CH, POL, PT).n_sp == pytest.approx(0.18824642556770396, rel=1e-12)
    assert not at(CH, POL, OperatingPoint(0.5, 0.1)).stable


def test_secondary_coefficients_frozen():
    co = at(CH, POL, PT)
    assert co.a_coef == pytest.approx(-0.168, rel=1e-12)
    assert co.b_coef == pytest.approx(0.48, rel=1e-12)
    assert co.c_coef == pytest.approx(-0.134, rel=1e-12)


def test_mean_queue_secondary():
    assert at(CH, POL, OperatingPoint(0.1, 0.0)).n_s == 0.0
    assert at(CH, POL, PT).n_s == pytest.approx(0.4156716417910447, rel=1e-12)
    assert not at(CH, POL, OperatingPoint(0.1, 0.4)).stable


@pytest.mark.parametrize("lambda_s", [0.05, 0.1, 0.2, 0.3])
@pytest.mark.parametrize("p_q", [0.3, 0.5, 0.8])
def test_secondary_reduces_to_single_queue_without_primary_traffic(p_q, lambda_s):
    pol = Policy(p_q, 1.0)
    pt = OperatingPoint(0.0, lambda_s)
    if not at(CH, pol, pt).stable:
        pytest.skip("outside the stable region")
    expected = (lambda_s - lambda_s**2) / (p_q * CH.f_sd - lambda_s)
    assert at(CH, pol, pt).n_s == pytest.approx(expected, rel=1e-12)


def test_delays_at_standard_point():
    assert at(CH, POL, PT).d_p == pytest.approx(3.7574642556770397, rel=1e-12)
    assert at(CH, POL, PT).d_s == pytest.approx(4.156716417910447, rel=1e-12)


def test_delay_limit_without_relaying():
    # vanishing load: delay approaches one geometric service time
    pol = Policy(0.5, 0.0)
    d = at(CH, pol, OperatingPoint(1e-9, 1e-9)).d_p
    assert d == pytest.approx(1.0 / CH.f_pd, rel=1e-6)


def test_delay_monotone_in_pq_example():
    d_low = at(CH, Policy(0.3, 1.0), PT).d_p
    d_high = at(CH, Policy(0.8, 1.0), PT).d_p
    assert d_low < d_high


def test_delay_errors():
    # a point with a zero arrival rate is reported, but the delay of that
    # queue is undefined (0 / 0)
    no_p, no_s = at(CH, POL, OperatingPoint(0.0, 0.1)), at(CH, POL, OperatingPoint(0.1, 0.0))
    assert no_p.stable and no_p.evaluable and math.isnan(no_p.d_p)
    assert no_s.stable and no_s.evaluable and math.isnan(no_s.d_s)
    # an overloaded queue makes the point unstable
    assert not at(CH, POL, OperatingPoint(0.4, 0.1)).stable
    assert not at(CH, POL, OperatingPoint(0.1, 0.4)).stable


def test_empty_joint_probability():
    assert at(CH, POL).g00 == pytest.approx(1.0, rel=1e-12)
    assert at(CH, POL, PT).g00 == pytest.approx(0.5775862068965518, rel=1e-12)
    assert not at(CH, POL, OperatingPoint(0.4, 0.1)).stable


def test_prob_primary_empty():
    assert at(CH, POL).p_empty == 1.0
    assert at(CH, POL, OperatingPoint(0.29, 0.0)).p_empty == pytest.approx(0.5, rel=1e-12)
    # undefined where lambda_p reaches the primary service rate
    assert 0.6 >= at(CH, POL).mu


def test_delay_report_bounds_on_stable_grid():
    for p_q in (0.3, 0.5, 0.7):
        for lam in (0.02, 0.08, 0.15):
            pol = Policy(p_q, 1.0)
            pt = OperatingPoint(lam, lam)
            rep = at(CH, pol, pt)
            if not rep.stable:
                continue
            assert rep.evaluable
            assert rep.n_p >= 0.0 and rep.n_sp >= 0.0 and rep.n_s >= 0.0
            assert rep.d_p >= 1.0 and rep.d_s >= 1.0
            assert 0.0 <= rep.g00 <= 1.0
            assert 0.0 <= rep.epsilon <= 1.0


@st.composite
def stable_points(draw):
    # nonzero probabilities and load shares stay above 1e-20, and loads a
    # relative 1e-6 below their bound, clear of ILL_CONDITIONED_POINTS
    prob = st.sampled_from([0.0, 1.0]) | st.floats(1e-20, 1.0)
    f_pd = draw(st.just(0.0) | st.floats(1e-20, 0.9))
    f_sd = draw(st.floats(max(f_pd, 1e-20), 1.0, exclude_min=True))
    ch = ChannelProfile(f_pd, f_sd, draw(prob))
    pol = Policy(draw(st.floats(1e-20, 1.0, exclude_max=True)), draw(prob))
    share = st.just(0.0) | st.floats(1e-20, 1.0 - 1e-6)
    try:
        lambda_p = draw(share) * closed.max_arrival_primary(ch, pol)
        lambda_s = draw(share) * closed.max_arrival_secondary(ch, pol, lambda_p)
    except closed.InstabilityError:
        reject()
    pt = OperatingPoint(lambda_p, lambda_s)
    if not at(ch, pol, pt).stable:
        reject()
    return ch, pol, pt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stable_points())
@example((CH, POL, OperatingPoint(0.0, 0.0)))
@example((CH, POL, OperatingPoint(0.1, 0.0)))
@example((CH, POL, OperatingPoint(0.0, 0.1)))
@example((CH, Policy(1.0, 0.0), OperatingPoint(0.1, 0.1)))  # no cooperation
def test_delay_report_equals_single_functions(case):
    # at a stable point the core is evaluable, and each of its queue metrics
    # equals the term-by-term single function of the reference
    ch, pol, pt = case
    rep = at(ch, pol, pt)
    assert rep.stable and rep.evaluable
    assert rep.n_p == closed.mean_queue_primary(ch, pol, pt)
    assert rep.n_sp == closed.mean_queue_relay(ch, pol, pt)
    assert rep.n_s == closed.mean_queue_secondary(ch, pol, pt)
    assert rep.g00 == closed.empty_joint_probability(ch, pol, pt)
    assert rep.epsilon == closed.relay_fraction_epsilon(ch, pol.p_a)
    # a delay is defined where its arrival rate is positive
    if pt.lambda_p > 0.0:
        assert rep.d_p == closed.delay_primary(ch, pol, pt)
    if pt.lambda_s > 0.0:
        assert rep.d_s == closed.delay_secondary(ch, pol, pt)
    # a point takes the sweep's path: every field is a 0-d array with the bits of its row in a sweep
    values = (ch.f_pd, ch.f_sd, ch.f_ps, pol.p_q, pol.p_a, pt.lambda_p, pt.lambda_s)
    others = (CH.f_pd, CH.f_sd, CH.f_ps, POL.p_q, POL.p_a, PT.lambda_p, PT.lambda_s)
    sweep = analytics.closed_forms(*(np.array(row) for row in zip(values, others)))
    for name, field, column in zip(rep._fields, rep, sweep):
        assert isinstance(field, np.ndarray) and field.shape == (), name
        assert field.tobytes() == column[0].tobytes(), name


UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
LOAD = UNIT | st.floats(0.0, 1e-300)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(UNIT, UNIT, UNIT, UNIT, UNIT, LOAD, LOAD))
def test_negative_secondary_length_is_never_evaluable(values):
    # in_bounds has no n_s term: the d_s bound refuses every point whose n_s is below the slack,
    # stable or not, anywhere in [0, 1], at exact zeros and at tiny loads
    cf = analytics.closed_forms(*values)
    if cf.n_s < -analytics.REPORT_SLACK:
        assert not cf.evaluable


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(UNIT, UNIT, UNIT, UNIT, UNIT, LOAD, LOAD))
def test_joint_empty_probability_never_exceeds_one(values):
    # in_bounds has no g00 <= 1 term: on [0, 1] rounding is monotone, so the numerator
    # serve_own * (mu - lambda_p) - lambda_s * mu is at most g00_den = serve_own * mu
    cf = analytics.closed_forms(*values)
    if cf.g00_den != 0.0:
        assert cf.g00 <= 1.0


@st.composite
def shared_loads(draw):
    # UNIT channel and policy values, and lambda_p and lambda_s drawn as LOAD shares of their bounds,
    # so most points are stable; a share of exactly 0 or 1, or below 1e-300, stays in reach
    values = [draw(UNIT) for _ in range(5)]
    lambda_p = draw(LOAD) * float(analytics.closed_forms(*values).bound_p)
    # at mu = 0 bound_s is 0 / 0, and the point is unstable at any lambda_s
    bound_s = float(np.nan_to_num(analytics.closed_forms(*values, lambda_p).bound_s))
    return (*values, lambda_p, draw(LOAD) * bound_s)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(shared_loads())
def test_stable_point_has_a_nonnegative_primary_length_and_a_relay_fraction_in_unit_interval(values):
    # in_bounds has no n_p or epsilon term: where stable, lambda_p < bound_p <= mu gives n_p >= 0,
    # and relay <= mu with mu > 0 gives 0 <= epsilon <= 1, as rounding is monotone
    cf = analytics.closed_forms(*values)
    if cf.stable:
        assert cf.n_p >= 0.0
        assert 0.0 <= cf.epsilon <= 1.0


# Points the core marks stable but where the closed forms lose every digit:
# products underflow near zero, or an expression cancels within rounding of
# the stability bound. The core marks them not evaluable.
ILL_CONDITIONED_POINTS = [
    (ChannelProfile(4.5508387226147335e-294, 1.0, 0.0), Policy(0.5, 0.0), OperatingPoint(0.0, 0.0)),
    (ChannelProfile(0.5, 1.0, 0.0), Policy(5e-324, 0.0), OperatingPoint(0.0, 0.0)),
    (ChannelProfile(1e-50, 1.0, 0.0), Policy(0.5, 0.0), OperatingPoint(0.0, 6.431885918611206e-249)),
    (
        ChannelProfile(0.3290743039648367, 0.875, 1.0),
        Policy(0.50390625, 2.220446049250313e-16),
        OperatingPoint(0.1645371519824184, 0.22045898437500008),
    ),
    (
        ChannelProfile(0.25, 1.0, 1.0),
        Policy(0.515625, 1.0),
        OperatingPoint(0.1962025316455696, 0.41445806962025317),
    ),
    (ChannelProfile(0.0, 1.0, 1.0), Policy(0.25, 1e-20), OperatingPoint(9.999999989999998e-21, 0.0)),
]


@pytest.mark.parametrize("ch,pol,pt", ILL_CONDITIONED_POINTS)
@pytest.mark.xfail(
    raises=(AssertionError, ValueError),
    strict=True,
    reason="closed forms break down within rounding of zero or of the stability bound",
)
def test_closed_forms_fail_within_rounding_of_zero_or_bound(ch, pol, pt):
    cf = at(ch, pol, pt)
    if not cf.stable:
        pytest.fail("the point must be stable")
    assert cf.evaluable


def _nine_term_mask(cf, lambda_p, lambda_s):
    # evaluable as it was before the terms that cannot refuse a stable point were cut from it
    slack = analytics.REPORT_SLACK
    return (
        cf.relay_ok & ~(cf.b_coef <= 0.0) & (cf.c_coef != 0.0) & (cf.n_s_den != 0.0) & (cf.g00_den != 0.0)
        & (cf.n_sp >= -slack) & (np.where(lambda_p > 0.0, cf.d_p, 1.0) >= 1.0 - slack)
        & (np.where(lambda_s > 0.0, cf.d_s, 1.0) >= 1.0 - slack) & (-slack <= cf.g00)
    )


def _load(draw, bound):
    # 1-8 floats under a stability bound, or a share of it; 0 where the bound is nan
    k = draw(st.integers(0, 8))
    value = float(ulps_under(bound, k)) if k else float(bound) * draw(st.floats(0.0, 1.0))
    return value if 0.0 <= value <= 1.0 else 0.0


class Channel(NamedTuple):
    """A channel the library accepts but ChannelProfile refuses: f_pd need not be below f_sd."""

    f_pd: float
    f_sd: float
    f_ps: float


@st.composite
def relay_corners(draw):
    # where m's factor can round below -1: f_pd 0-7 floats under 1, f_sd often in [1/4, 1/2] (the
    # factor needs serve_relay < f_pd / 2), and a relay of 1-8 ulps of serve_relay through any f_ps
    f_pd = 1.0 - draw(st.integers(0, 7)) * 2.0**-53
    f_sd, p_q = draw(st.floats(0.25, 0.5) | st.floats(0.0, 1.0)), draw(st.just(0.0) | st.floats(0.0, 1.0))
    f_ps = draw(st.floats(0.0, 1.0, exclude_min=True))
    relay = draw(st.floats(1.0, 8.0)) * float(np.spacing(f_sd * (1.0 - p_q)))
    reach = f_ps * (1.0 - f_pd)  # the relay at p_a = 1
    p_a = min(1.0, relay / reach) if reach > 0.0 else draw(st.floats(0.0, 1.0))
    return Channel(f_pd, f_sd, f_ps), Policy(p_q, p_a)


@st.composite
def rounding_edge_points(draw):
    # mu = 1 (f_ps = p_a = 1 with f_pd up to 64 floats under 1), subnormal policy values and
    # serve rates, admission down to 1e-20, and loads 1-8 floats under their bounds; or a relay
    # corner with lambda_p 1-5 floats under its bound
    if draw(st.booleans()):
        ch, pol = draw(relay_corners())
        lambda_p = float(ulps_under(at(ch, pol).bound_p, draw(st.integers(1, 5))))
        if not lambda_p >= 0.0:
            reject()
    else:
        unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        subnormal = st.floats(0.0, 2.0**-1022, exclude_min=True)
        under_one = st.integers(1, 64).map(lambda k: 1.0 - k * 2.0**-53)
        f_pd = draw(st.floats(0.0, 1.0, exclude_max=True) | st.just(0.0) | under_one)
        f_sd = draw(st.floats(f_pd, 1.0, exclude_min=True) | (subnormal if f_pd == 0.0 else st.just(1.0)))
        mu_one = draw(st.booleans())
        ch = ChannelProfile(f_pd, f_sd, 1.0 if mu_one else draw(unit))
        pol = Policy(draw(unit | subnormal | under_one),
                     1.0 if mu_one else draw(unit | subnormal | st.floats(1e-20, 1e-10)))
        lambda_p = _load(draw, at(ch, pol).bound_p)
    pt = OperatingPoint(lambda_p, _load(draw, at(ch, pol, OperatingPoint(lambda_p, 0.0)).bound_s))
    if not at(ch, pol, pt).stable:
        reject()
    return ch, pol, pt


# mu rounds to 1 and lambda_p sits 2^26 floats under 1, where n_p's numerator lambda_p - lambda_p**2
# loses 7e-9 of itself to rounding: d_p falls 2.5e-9 under one slot while n_sp >= 0
D_P_UNDER_ONE_SLOT = (
    ChannelProfile(1.0 - 2.0**-53, 1.0, 1.0), Policy(0.5, 1.0), OperatingPoint(0.9999999925489673, 0.0)
)


def test_the_delay_bound_alone_refuses_a_stable_point():
    cf = at(*D_P_UNDER_ONE_SLOT)
    assert cf.stable and cf.relay_ok and cf.n_s_den != 0.0 and cf.n_sp >= 0.0
    assert cf.d_p < 1.0 - analytics.REPORT_SLACK
    assert not cf.evaluable


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rounding_edge_points())
@example(D_P_UNDER_ONE_SLOT)
# m's factor rounds to -(1 + 2^-52) with lambda_p a few floats under bound_p: twice where alpha -
# serve_relay is under 3.5 ulps of alpha (relay_ok fails at the first, the second is evaluable), once past
@example((Channel(0.9999999999999998, 0.7155300491915006, 1.0),
          Policy(0.30777965288469067, 0.5026621189774707), OperatingPoint(0.9999999999999994, 0.0)))
@example((Channel(0.9999999999999998, 0.981087784197772, 0.727757410983716),
          Policy(0.535177001730164, 1.0), OperatingPoint(0.9999999999999994, 0.0)))
@example((Channel(0.9999999999999996, 0.9458950151299494, 1.0),
          Policy(0.72826491581644, 0.8446209888162), OperatingPoint(0.9999999999999982, 0.0)))
def test_evaluable_is_the_nine_term_mask_at_stable_points(case):
    # B > 0, C != 0, g00_den != 0, g00 >= -REPORT_SLACK and n_sp >= -REPORT_SLACK never refuse a
    # stable point that evaluable keeps (the proofs are in closed_forms); g00 stays above -6e-11
    # unless g00_den < 2^-1040, and the relay numerator is >= 0 wherever relay > 0 and lambda_p > 0
    ch, pol, pt = case
    cf = at(ch, pol, pt)
    assert cf.stable
    assert cf.evaluable == _nine_term_mask(cf, pt.lambda_p, pt.lambda_s)
    assert cf.g00_den < 2.0**-1040 or not cf.g00 < -6e-11
    if cf.relay > 0.0 and pt.lambda_p > 0.0:  # at lambda_p = 0 it is 0, or nan where m = inf
        assert cf.m * pt.lambda_p * pt.lambda_p + cf.n * pt.lambda_p >= 0.0


for _case in ILL_CONDITIONED_POINTS:
    test_evaluable_is_the_nine_term_mask_at_stable_points = example(_case)(
        test_evaluable_is_the_nine_term_mask_at_stable_points
    )


def _decade_points(limit, decades=(1e-1, 1e-2, 1e-3)):
    return [limit * (1.0 - d) for d in decades]


def test_primary_delay_diverges_at_relay_boundary():
    bound = float(at(CH, POL).bound_p)
    delays = [at(CH, POL, OperatingPoint(lp, 0.05)).d_p for lp in _decade_points(bound)]
    assert delays[1] > 3.0 * delays[0]
    assert delays[2] > 3.0 * delays[1]


def test_secondary_delay_diverges_at_secondary_boundary():
    bound = float(at(CH, POL, OperatingPoint(0.1, 0.0)).bound_s)
    delays = [at(CH, POL, OperatingPoint(0.1, ls)).d_s for ls in _decade_points(bound)]
    assert delays[1] > 3.0 * delays[0]
    assert delays[2] > 3.0 * delays[1]


def test_delay_diverges_along_diagonal_ray():
    # the binding queue's delay blows up approaching the boundary on any ray
    mu = float(at(CH, Policy(0.0, 1.0)).mu)
    t_star = POL.p_q * CH.f_sd * mu / (mu + POL.p_q * CH.f_sd)
    worst = [
        max(at(CH, POL, OperatingPoint(t, t)).d_p, at(CH, POL, OperatingPoint(t, t)).d_s)
        for t in _decade_points(t_star)
    ]
    assert worst[1] > 3.0 * worst[0]
    assert worst[2] > 3.0 * worst[1]
