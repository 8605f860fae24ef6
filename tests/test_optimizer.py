import math

import pytest

from gridsearch import primary_delay_grid
from points import at, optimum, primary_decision

from cogrelay.model import ChannelProfile, OperatingPoint, Policy
from cogrelay.optimizer import INTERIOR_OFFSET, _pq_interval
from cogrelay.simulator import Scenario, simulate

CH = ChannelProfile(0.3, 0.8, 0.4)
PT = OperatingPoint(0.1, 0.1)


def _pq_lower(ch, pt, p_a):
    return _pq_interval(ch.f_pd, ch.f_sd, ch.f_ps, p_a, pt.lambda_p, pt.lambda_s)[0]


def test_pq_bounds_frozen_values():
    assert optimum(CH, PT).p_q_lower == pytest.approx(0.15104166666666666, rel=1e-12)
    assert optimum(CH, PT).p_q_upper == pytest.approx(0.9270833333333334, rel=1e-12)
    assert _pq_lower(CH, PT, 0.5) == pytest.approx(0.16176470588235295, rel=1e-12)


def test_pq_bounds_degenerate_cases():
    assert optimum(CH, OperatingPoint(0.1, 0.0)).p_q_lower == 0.0
    assert optimum(CH, OperatingPoint(0.0, 0.1)).p_q_upper == 1.0
    assert not optimum(CH, OperatingPoint(0.6, 0.1)).bounds_defined
    assert not optimum(CH, OperatingPoint(0.58, 0.1)).bounds_defined


def test_pq_lower_bound_decreases_with_admission():
    # full admission admits the widest feasible interval
    values = [_pq_lower(CH, PT, p_a) for p_a in (0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cooperate_decision():
    pt = OperatingPoint(0.1, 0.2)
    o = optimum(CH, pt)
    assert primary_decision(o)[0] == "cooperate"
    # a cooperating optimum admits every relayable packet: p_a = 1
    expected_lower = 0.2 * 0.58 / (0.8 * 0.48)
    assert o.pu_p_q_star == pytest.approx(expected_lower + INTERIOR_OFFSET, rel=1e-9)
    # the optimum hugs the feasibility boundary, strictly inside it
    verdict = at(CH, Policy(float(o.pu_p_q_star), 1.0), pt)
    assert min(verdict.margin_p, verdict.margin_s) < 1e-3
    assert verdict.stable and verdict.margin_p > 0.0 and verdict.margin_s > 0.0


def test_no_cooperation_decision():
    ch = ChannelProfile(0.6, 0.8, 0.4)
    o = optimum(ch, OperatingPoint(0.1, 0.2))
    mode, d_p_star = primary_decision(o)
    assert mode == "no_cooperation"
    assert not o.cooperate
    assert d_p_star == pytest.approx(0.9 / 0.5, rel=1e-12)
    assert o.no_coop_ok and o.no_coop_d_p == pytest.approx(0.9 / 0.5, rel=1e-12)


def test_infeasible_decisions():
    assert primary_decision(optimum(CH, OperatingPoint(0.6, 0.1)))[0] == "infeasible"
    # secondary load too heavy for any p_q even at full admission
    assert primary_decision(optimum(CH, OperatingPoint(0.3, 0.7)))[0] == "infeasible"
    # no primary delay to minimize at lambda_p = 0
    assert math.isnan(optimum(CH, OperatingPoint(0.0, 0.1)).pu_d_p_star)


def test_cooperate_beats_brute_force_grid():
    pt = OperatingPoint(0.1, 0.2)
    _, d_p_star = primary_decision(optimum(CH, pt))
    grid = primary_delay_grid(CH, pt, n=51)
    assert grid is not None
    assert d_p_star <= grid["objective"] + grid["cell_variation"]
    assert grid["p_a"] == pytest.approx(1.0)


def test_no_cooperation_matches_brute_force_grid():
    ch = ChannelProfile(0.6, 0.8, 0.4)
    pt = OperatingPoint(0.15, 0.2)
    mode, d_p_star = primary_decision(optimum(ch, pt))
    assert mode == "no_cooperation"
    grid = primary_delay_grid(ch, pt, n=51)
    assert grid is not None
    assert d_p_star <= grid["objective"] + grid["cell_variation"]
    assert grid["p_a"] == pytest.approx(0.0)


def _lower_bound_crossing(f_sd, f_ps, pt, lo=0.05, hi=0.75):
    # f_pd at which the feasible infimum of p_q meets the cooperation threshold
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        o = optimum(ChannelProfile(mid, f_sd, f_ps), pt)
        if o.p_q_lower <= o.threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_decision_threshold_transition():
    pt = OperatingPoint(0.1, 0.1)
    crossing = _lower_bound_crossing(0.8, 0.4, pt)
    below = ChannelProfile(crossing - 0.05, 0.8, 0.4)
    above = ChannelProfile(crossing + 0.05, 0.8, 0.4)
    dec_below = primary_decision(optimum(below, pt))
    dec_above = primary_decision(optimum(above, pt))
    assert dec_below[0] == "cooperate"
    assert dec_above[0] == "no_cooperation"
    for ch, (_, d_p_star) in ((below, dec_below), (above, dec_above)):
        grid = primary_delay_grid(ch, pt, n=61)
        assert grid is not None
        assert d_p_star <= grid["objective"] + grid["cell_variation"]


def _secondary_optimum(ch, pt):
    o = optimum(ch, pt)
    assert o.feasible
    return float(o.su_p_q_star), o.su_d_s_star


def test_secondary_optimum_is_feasible_supremum():
    p_q_star, d_s_star = _secondary_optimum(CH, PT)
    assert p_q_star == pytest.approx(optimum(CH, PT).p_q_upper - INTERIOR_OFFSET, rel=1e-9)
    assert d_s_star == pytest.approx(at(CH, Policy(p_q_star, 1.0), PT).d_s, rel=1e-12)
    assert at(CH, Policy(p_q_star, 1.0), PT).stable


def test_secondary_optimum_matches_dense_line_search():
    p_q_star, d_s_star = _secondary_optimum(CH, PT)
    lo = float(optimum(CH, PT).p_q_lower)
    hi = float(optimum(CH, PT).p_q_upper)
    step = (hi - lo) / 1000
    best = None
    for i in range(1, 1000):
        p_q = lo + i * step
        pol = Policy(p_q, 1.0)
        if not at(CH, pol, PT).stable:
            continue
        d = at(CH, pol, PT).d_s
        if best is None or d < best:
            best = d
    assert best is not None
    assert d_s_star <= best + 1e-9
    assert abs(d_s_star - best) < abs(
        at(CH, Policy(hi - 2 * step, 1.0), PT).d_s - at(CH, Policy(hi - step, 1.0), PT).d_s
    ) + 1e-9


def test_secondary_infeasible_cases():
    # no secondary delay to minimize at lambda_s = 0
    assert math.isnan(optimum(CH, OperatingPoint(0.1, 0.0)).su_d_s_star)
    assert not optimum(CH, OperatingPoint(0.6, 0.1)).feasible
    assert not optimum(CH, OperatingPoint(0.3, 0.7)).feasible


@pytest.mark.parametrize("lambda_s", [0.1, 0.3])
def test_secondary_optimum_beats_strict_priority_baseline(lambda_s):
    pt = OperatingPoint(0.2, lambda_s)
    _, d_s_star = _secondary_optimum(CH, pt)
    baseline = simulate(
        Scenario(CH, pt, Policy(0.5, 1.0), policy_kind="strict_priority_relay",
                 slots=300_000, warmup_slots=10_000, seed=7)
    )
    assert d_s_star < baseline.mean_delay_s
