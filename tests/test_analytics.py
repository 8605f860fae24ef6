import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cogrelay import analytics
from cogrelay.analytics import (
    DegeneratePolicyError,
    InstabilityError,
    UndefinedRateError,
    delay_primary,
    delay_report,
    delay_secondary,
    empty_joint_probability,
    is_stable,
    max_arrival_primary,
    max_arrival_secondary,
    mean_queue_primary,
    mean_queue_relay,
    mean_queue_secondary,
    phase_transition_pq,
    prob_primary_empty,
    relay_coefficients,
    relay_fraction_epsilon,
    secondary_coefficients,
    service_rate_primary,
    union_region_max_lambda_s,
)
from cogrelay.model import ChannelProfile, OperatingPoint, Policy

CH = ChannelProfile(0.3, 0.8, 0.4)
POL = Policy(0.5, 1.0)
PT = OperatingPoint(0.1, 0.1)


def test_service_rate_primary():
    assert service_rate_primary(CH, 1.0) == pytest.approx(0.58, rel=1e-12)
    assert service_rate_primary(CH, 0.0) == 0.3
    assert service_rate_primary(ChannelProfile(0.0, 0.5, 0.0), 1.0) == 0.0


def test_relay_fraction_epsilon():
    assert relay_fraction_epsilon(CH, 1.0) == pytest.approx(0.28 / 0.58, rel=1e-12)
    assert relay_fraction_epsilon(CH, 0.0) == 0.0
    assert relay_fraction_epsilon(ChannelProfile(0.0, 0.8, 1.0), 1.0) == pytest.approx(1.0)
    with pytest.raises(UndefinedRateError):
        relay_fraction_epsilon(ChannelProfile(0.0, 0.5, 0.0), 1.0)


def test_max_arrival_primary_values():
    # with no relay inflow the bound collapses to the direct-link rate
    for p_q in (0.0, 0.3, 0.99):
        assert max_arrival_primary(CH, Policy(p_q, 0.0)) == pytest.approx(0.3, rel=1e-12)
    assert max_arrival_primary(CH, Policy(0.625, 1.0)) == pytest.approx(0.3, rel=1e-12)
    assert max_arrival_primary(CH, POL) == pytest.approx(0.34117647058823536, rel=1e-12)
    # decreasing in p_q
    assert max_arrival_primary(CH, Policy(0.5, 1.0)) > max_arrival_primary(CH, Policy(0.8, 1.0))


def test_max_arrival_primary_degenerate_policy():
    with pytest.raises(DegeneratePolicyError):
        max_arrival_primary(CH, Policy(1.0, 0.0))
    with pytest.raises(DegeneratePolicyError):
        max_arrival_primary(ChannelProfile(0.3, 0.8, 0.0), Policy(1.0, 1.0))


def test_max_arrival_secondary_values():
    assert max_arrival_secondary(CH, Policy(1.0, 1.0), 0.0) == pytest.approx(0.8, rel=1e-12)
    assert max_arrival_secondary(CH, POL, 0.2) == pytest.approx(0.2620689655172414, rel=1e-12)
    # increasing in p_a at fixed positive lambda_p
    assert max_arrival_secondary(CH, Policy(0.5, 1.0), 0.2) > max_arrival_secondary(
        CH, Policy(0.5, 0.4), 0.2
    )
    with pytest.raises(InstabilityError):
        max_arrival_secondary(CH, POL, 0.58)


def test_is_stable_verdicts():
    assert is_stable(CH, POL, OperatingPoint(0.0, 0.0)).stable
    assert not is_stable(CH, POL, OperatingPoint(0.9, 0.9)).stable
    verdict = is_stable(CH, POL, PT)
    assert verdict.stable
    assert verdict.margin_p == pytest.approx(0.34117647058823536 - 0.1, rel=1e-12)
    assert verdict.margin_s == pytest.approx(0.3310344827586207 - 0.1, rel=1e-12)


def test_is_stable_sentinels():
    # primary queue overloaded: secondary margin is a sentinel
    verdict = is_stable(CH, POL, OperatingPoint(0.9, 0.0))
    assert not verdict.stable
    assert verdict.margin_s == analytics.MOST_NEGATIVE_MARGIN
    # degenerate policy: both margins are sentinels, no exception
    verdict = is_stable(CH, Policy(1.0, 0.0), OperatingPoint(0.1, 0.1))
    assert not verdict.stable
    assert verdict.margin_p == analytics.MOST_NEGATIVE_MARGIN


def test_phase_transition():
    assert phase_transition_pq(CH) == pytest.approx(0.625, rel=1e-12)
    assert phase_transition_pq(ChannelProfile(0.4, 0.8, 0.4)) == pytest.approx(0.5, rel=1e-12)
    assert phase_transition_pq(ChannelProfile(0.6, 0.8, 0.4)) == pytest.approx(0.25, rel=1e-12)


def test_union_region():
    assert union_region_max_lambda_s(CH, 0.0) == pytest.approx(0.8, rel=1e-12)
    root = 0.8 * 0.58 / 1.08
    assert union_region_max_lambda_s(CH, root) == pytest.approx(0.0, abs=1e-12)
    assert union_region_max_lambda_s(CH, root + 0.05) == 0.0


def test_mean_queue_primary():
    assert mean_queue_primary(CH, POL, OperatingPoint(0.0, 0.0)) == 0.0
    assert mean_queue_primary(CH, POL, PT) == pytest.approx(0.1875, rel=1e-12)
    near = mean_queue_primary(CH, POL, OperatingPoint(0.58 - 1e-9, 0.0))
    assert near > 1e6
    with pytest.raises(InstabilityError):
        mean_queue_primary(CH, POL, OperatingPoint(0.58, 0.0))


def test_relay_coefficients_frozen():
    c = relay_coefficients(CH, POL)
    assert c.m == pytest.approx(-0.14212413793103446, rel=1e-12)
    assert c.n == pytest.approx(0.1624, rel=1e-12)
    assert c.alpha == pytest.approx(0.68, rel=1e-12)
    assert c.beta == pytest.approx(-0.6264, rel=1e-12)
    assert c.gamma == pytest.approx(0.13456, rel=1e-12)
    assert c.gamma > 0.0


def test_mean_queue_relay():
    assert mean_queue_relay(CH, Policy(0.5, 0.0), PT) == 0.0
    assert mean_queue_relay(CH, POL, OperatingPoint(0.0, 0.1)) == 0.0
    assert mean_queue_relay(CH, POL, PT) == pytest.approx(0.18824642556770396, rel=1e-12)
    with pytest.raises(InstabilityError):
        mean_queue_relay(CH, POL, OperatingPoint(0.5, 0.1))


def test_secondary_coefficients_frozen():
    co = secondary_coefficients(CH, POL, PT)
    assert co.a_coef == pytest.approx(-0.168, rel=1e-12)
    assert co.b_coef == pytest.approx(0.48, rel=1e-12)
    assert co.c_coef == pytest.approx(-0.134, rel=1e-12)


def test_mean_queue_secondary():
    assert mean_queue_secondary(CH, POL, OperatingPoint(0.1, 0.0)) == 0.0
    assert mean_queue_secondary(CH, POL, PT) == pytest.approx(0.4156716417910447, rel=1e-12)
    with pytest.raises(InstabilityError):
        mean_queue_secondary(CH, POL, OperatingPoint(0.1, 0.4))


@pytest.mark.parametrize("lambda_s", [0.05, 0.1, 0.2, 0.3])
@pytest.mark.parametrize("p_q", [0.3, 0.5, 0.8])
def test_secondary_reduces_to_single_queue_without_primary_traffic(p_q, lambda_s):
    pol = Policy(p_q, 1.0)
    pt = OperatingPoint(0.0, lambda_s)
    if not is_stable(CH, pol, pt).stable:
        pytest.skip("outside the stable region")
    expected = (lambda_s - lambda_s**2) / (p_q * CH.f_sd - lambda_s)
    assert mean_queue_secondary(CH, pol, pt) == pytest.approx(expected, rel=1e-12)


def test_delays_at_standard_point():
    assert delay_primary(CH, POL, PT) == pytest.approx(3.7574642556770397, rel=1e-12)
    assert delay_secondary(CH, POL, PT) == pytest.approx(4.156716417910447, rel=1e-12)


def test_delay_limit_without_relaying():
    # vanishing load: delay approaches one geometric service time
    pol = Policy(0.5, 0.0)
    d = delay_primary(CH, pol, OperatingPoint(1e-9, 1e-9))
    assert d == pytest.approx(1.0 / CH.f_pd, rel=1e-6)


def test_delay_monotone_in_pq_example():
    d_low = delay_primary(CH, Policy(0.3, 1.0), PT)
    d_high = delay_primary(CH, Policy(0.8, 1.0), PT)
    assert d_low < d_high


def test_delay_errors():
    with pytest.raises(UndefinedRateError):
        delay_primary(CH, POL, OperatingPoint(0.0, 0.1))
    with pytest.raises(UndefinedRateError):
        delay_secondary(CH, POL, OperatingPoint(0.1, 0.0))
    with pytest.raises(InstabilityError):
        delay_primary(CH, POL, OperatingPoint(0.4, 0.1))
    with pytest.raises(InstabilityError):
        delay_secondary(CH, POL, OperatingPoint(0.1, 0.4))


def test_empty_joint_probability():
    assert empty_joint_probability(CH, POL, OperatingPoint(0.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert empty_joint_probability(CH, POL, PT) == pytest.approx(0.5775862068965518, rel=1e-12)
    with pytest.raises(InstabilityError):
        empty_joint_probability(CH, POL, OperatingPoint(0.4, 0.1))


def test_prob_primary_empty():
    assert prob_primary_empty(CH, POL, OperatingPoint(0.0, 0.0)) == 1.0
    assert prob_primary_empty(CH, POL, OperatingPoint(0.29, 0.0)) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(InstabilityError):
        prob_primary_empty(CH, POL, OperatingPoint(0.6, 0.0))


def test_delay_report_bounds_on_stable_grid():
    for p_q in (0.3, 0.5, 0.7):
        for lam in (0.02, 0.08, 0.15):
            pol = Policy(p_q, 1.0)
            pt = OperatingPoint(lam, lam)
            if not is_stable(CH, pol, pt).stable:
                continue
            rep = delay_report(CH, pol, pt)
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
        lambda_p = draw(share) * max_arrival_primary(ch, pol)
        lambda_s = draw(share) * max_arrival_secondary(ch, pol, lambda_p)
    except (DegeneratePolicyError, InstabilityError):
        reject()
    pt = OperatingPoint(lambda_p, lambda_s)
    if not is_stable(ch, pol, pt).stable:
        reject()
    return ch, pol, pt


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stable_points())
@example((CH, POL, OperatingPoint(0.0, 0.0)))
@example((CH, POL, OperatingPoint(0.1, 0.0)))
@example((CH, POL, OperatingPoint(0.0, 0.1)))
def test_delay_report_equals_single_functions(case):
    ch, pol, pt = case
    rep = delay_report(ch, pol, pt)
    assert rep.n_p == mean_queue_primary(ch, pol, pt)
    assert rep.n_sp == mean_queue_relay(ch, pol, pt)
    assert rep.n_s == mean_queue_secondary(ch, pol, pt)
    assert rep.g00 == empty_joint_probability(ch, pol, pt)
    assert rep.epsilon == relay_fraction_epsilon(ch, pol.p_a)
    assert (rep.d_p is None) == (pt.lambda_p == 0.0)
    assert (rep.d_s is None) == (pt.lambda_s == 0.0)
    if rep.d_p is not None:
        assert rep.d_p == delay_primary(ch, pol, pt)
    if rep.d_s is not None:
        assert rep.d_s == delay_secondary(ch, pol, pt)


# Points that is_stable admits but where the closed forms lose every digit:
# products underflow near zero, or an expression cancels within rounding of
# the stability bound. The evaluation raises instead of returning a report.
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
    if not is_stable(ch, pol, pt).stable:
        pytest.fail("the point must be stable")
    delay_report(ch, pol, pt)


def _decade_points(limit, decades=(1e-1, 1e-2, 1e-3)):
    return [limit * (1.0 - d) for d in decades]


def test_primary_delay_diverges_at_relay_boundary():
    bound = max_arrival_primary(CH, POL)
    delays = [
        delay_primary(CH, POL, OperatingPoint(lp, 0.05)) for lp in _decade_points(bound)
    ]
    assert delays[1] > 3.0 * delays[0]
    assert delays[2] > 3.0 * delays[1]


def test_secondary_delay_diverges_at_secondary_boundary():
    bound = max_arrival_secondary(CH, POL, 0.1)
    delays = [
        delay_secondary(CH, POL, OperatingPoint(0.1, ls)) for ls in _decade_points(bound)
    ]
    assert delays[1] > 3.0 * delays[0]
    assert delays[2] > 3.0 * delays[1]


def test_delay_diverges_along_diagonal_ray():
    # the binding queue's delay blows up approaching the boundary on any ray
    mu = service_rate_primary(CH, 1.0)
    t_star = POL.p_q * CH.f_sd * mu / (mu + POL.p_q * CH.f_sd)
    worst = [
        max(
            delay_primary(CH, POL, OperatingPoint(t, t)),
            delay_secondary(CH, POL, OperatingPoint(t, t)),
        )
        for t in _decade_points(t_star)
    ]
    assert worst[1] > 3.0 * worst[0]
    assert worst[2] > 3.0 * worst[1]
