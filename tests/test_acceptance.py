"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py``; a PASS/FAIL line per criterion
is printed as each finishes (see conftest).
"""

import numpy as np
import pytest

from gridsearch import primary_delay_grid, secondary_delay_grid
from points import at, optimum, primary_decision

from cogrelay.analytics import closed_forms, union_region
from cogrelay.cli import main
from cogrelay.model import ChannelProfile, OperatingPoint, Policy
from cogrelay.oracle import ChainSpec, solve_stationary
from cogrelay.simulator import Scenario, replicate_many

STANDARD_CHANNEL = ChannelProfile(0.3, 0.8, 0.4)
ACCEPTANCE_SEED = 12345
SLOTS = 1_000_000
WARMUP = 10_000

MONOTONICITY_CHANNELS = (
    ChannelProfile(0.3, 0.8, 0.4),
    ChannelProfile(0.2, 0.9, 0.6),
    ChannelProfile(0.45, 0.7, 0.5),
)


def margin_limited_lambda(ch, pol, margin=0.10):
    """Largest symmetric rate lambda_p = lambda_s = lambda keeping both
    relative stability margins at or above the requested fraction."""
    bound_p = float(at(ch, pol).bound_p)
    lo, hi = 0.0, bound_p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        verdict = at(ch, pol, OperatingPoint(mid, mid))
        if not verdict.stable:
            hi = mid
            continue
        bound_s = at(ch, pol, OperatingPoint(mid, 0.0)).bound_s
        if min(verdict.margin_p / bound_p, verdict.margin_s / bound_s) >= margin:
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_1_closed_form_vs_simulation():
    """Simulated delays track the closed forms within 3% at every sweep point."""
    ch = STANDARD_CHANNEL
    cases = []
    for p_q in (0.3, 0.5, 0.8):
        pol = Policy(p_q, 1.0)
        lam_limit = margin_limited_lambda(ch, pol, margin=0.10)
        for frac in np.linspace(0.1, 0.8, 8):
            lam = float(lam_limit * frac)
            pt = OperatingPoint(lam, lam)
            rep = at(ch, pol, pt)
            bound_p = at(ch, pol).bound_p
            bound_s = at(ch, pol, OperatingPoint(lam, 0.0)).bound_s
            assert min(rep.margin_p / bound_p, rep.margin_s / bound_s) >= 0.10
            assert rep.stable and rep.evaluable
            cases.append((pol, pt, rep))
    runs = replicate_many(
        [Scenario(ch, pt, pol, slots=SLOTS, warmup_slots=WARMUP, seed=ACCEPTANCE_SEED)
         for pol, pt, _ in cases],
        1,
    )
    for (pol, pt, rep), stats in zip(cases, runs):
        err_p = abs(stats.mean_delay_p - rep.d_p) / rep.d_p
        err_s = abs(stats.mean_delay_s - rep.d_s) / rep.d_s
        lam = pt.lambda_p
        assert err_p <= 0.03, f"D_p off by {err_p:.2%} at p_q={pol.p_q}, lambda={lam:.4f}"
        assert err_s <= 0.03, f"D_s off by {err_s:.2%} at p_q={pol.p_q}, lambda={lam:.4f}"


ORACLE_POINTS = (
    (Policy(0.5, 1.0), OperatingPoint(0.1, 0.1)),
    (Policy(0.5, 1.0), OperatingPoint(0.15, 0.05)),
    (Policy(0.7, 0.8), OperatingPoint(0.08, 0.12)),
)


@pytest.mark.parametrize("pol,pt", ORACLE_POINTS)
def test_criterion_2_oracle_equivalence(pol, pt):
    """Chain solves at truncation 400 match every closed form."""
    ch = STANDARD_CHANNEL
    cf = at(ch, pol, pt)
    assert cf.stable and cf.evaluable
    n_p, n_s, n_sp, g00, p_empty = map(float, (cf.n_p, cf.n_s, cf.n_sp, cf.g00, cf.p_empty))

    ps = solve_stationary(ChainSpec(ch, pol, pt, pair="primary_secondary", truncation=400))
    pr = solve_stationary(ChainSpec(ch, pol, pt, pair="primary_relay", truncation=400))

    assert abs(ps.mean_first - n_p) / n_p <= 0.005
    assert abs(pr.mean_first - n_p) / n_p <= 0.005
    assert abs(ps.mean_second - n_s) / n_s <= 0.005
    if n_sp > 0.0:
        assert abs(pr.mean_second - n_sp) / n_sp <= 0.005
    assert abs(ps.p00 - g00) <= 0.005
    assert abs(float(ps.primary_law[0]) - p_empty) <= 0.005
    assert abs(float(pr.primary_law[0]) - p_empty) <= 0.005


def test_criterion_3_phase_transition_insensitivity():
    """At p_q = 1 - f_pd/f_sd the primary rate bound ignores p_a."""
    ch = STANDARD_CHANNEL
    p_q = float(at(ch).threshold)
    assert p_q == pytest.approx(0.625, rel=1e-12)
    values = [at(ch, Policy(p_q, p_a)).bound_p for p_a in np.linspace(0.0, 1.0, 11)]
    assert max(values) - min(values) < 1e-12


def _strict_sign(differences, sign, tol=1e-12):
    if sign > 0:
        return all(d > tol for d in differences)
    return all(d < -tol for d in differences)


def test_criterion_4_monotonicity_suites():
    """Finite-difference monotonicity of the rate bounds and delays."""
    grid = np.linspace(0.0, 1.0, 21)
    for ch in MONOTONICITY_CHANNELS:
        threshold = float(at(ch).threshold)
        below = max(threshold - 0.15, 0.05)
        above = min(threshold + 0.15, 0.95)

        # primary bound strictly decreasing in p_q; secondary bound strictly
        # increasing in p_q at a fixed feasible lambda_p
        lam_p = 0.5 * ch.f_pd
        for p_a in (0.5, 1.0):
            bounds_p = [at(ch, Policy(q, p_a)).bound_p for q in grid]
            assert _strict_sign(np.diff(bounds_p), -1)
            bounds_s = [at(ch, Policy(q, p_a), OperatingPoint(lam_p, 0.0)).bound_s for q in grid]
            assert _strict_sign(np.diff(bounds_s), +1)

        # primary bound vs p_a: sign flips across the phase transition
        diffs_below = np.diff([at(ch, Policy(below, a)).bound_p for a in grid])
        diffs_at = np.diff([at(ch, Policy(threshold, a)).bound_p for a in grid])
        diffs_above = np.diff([at(ch, Policy(above, a)).bound_p for a in grid])
        assert _strict_sign(diffs_below, +1)
        assert np.abs(diffs_at).max() <= 1e-12
        assert _strict_sign(diffs_above, -1)

        # secondary bound vs p_a: nonnegative everywhere, strict off the
        # degenerate edges (zero difference only at lambda_p=0 or p_q=0;
        # strictness is not asserted for the leg starting at p_a=0)
        for p_q, lam in ((below, lam_p), (above, lam_p), (0.0, lam_p), (below, 0.0)):
            values = [at(ch, Policy(p_q, a), OperatingPoint(lam, 0.0)).bound_s for a in grid]
            diffs = np.diff(values)
            assert all(d >= -1e-15 for d in diffs)
            if p_q > 0.0 and lam > 0.0:
                assert all(d > 0.0 for d, a in zip(diffs[1:], grid[1:-1]) if a > 0.0)
            else:
                assert np.abs(diffs).max() <= 1e-15

        # delays vs p_q at a fixed stable point
        lo = max(0.05, 0.3 * ch.f_pd)
        pt = OperatingPoint(lo, 0.1 * ch.f_sd)
        q_grid = [q for q in np.linspace(0.05, 0.95, 21) if at(ch, Policy(q, 1.0), pt).stable]
        assert len(q_grid) >= 10
        d_p = [at(ch, Policy(q, 1.0), pt).d_p for q in q_grid]
        d_s = [at(ch, Policy(q, 1.0), pt).d_s for q in q_grid]
        assert _strict_sign(np.diff(d_p), +1)
        assert _strict_sign(np.diff(d_s), -1)

        # delays vs p_a at fixed stable points on both sides of the threshold
        pt_a = OperatingPoint(0.3 * ch.f_pd, 0.05 * ch.f_sd)
        for p_q, p_sign in ((below, -1), (above, +1)):
            pol_grid = [Policy(p_q, a) for a in grid]
            assert all(at(ch, pol, pt_a).stable for pol in pol_grid)
            dp_diffs = np.diff([at(ch, pol, pt_a).d_p for pol in pol_grid])
            ds_diffs = np.diff([at(ch, pol, pt_a).d_s for pol in pol_grid])
            assert all(d <= 1e-12 for d in ds_diffs)
            if p_sign < 0:
                assert all(d <= 1e-12 for d in dp_diffs)
            else:
                assert all(d >= -1e-12 for d in dp_diffs)


def test_criterion_5_union_containment():
    """Every fixed-policy secondary bound stays inside the union region."""
    ch = STANDARD_CHANNEL
    p_q, p_a = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21), indexing="ij")
    policies = closed_forms(ch.f_pd, ch.f_sd, ch.f_ps, p_q, p_a)
    # every policy has a primary bound, no cooperation (1, 0) included
    p_q, p_a = p_q.reshape(-1, 1), p_a.reshape(-1, 1)
    # each row is np.linspace(0.0, bound_p, 50, endpoint=False), bit for bit
    lam = np.arange(50) * (policies.bound_p.reshape(-1, 1) / 50)
    inner = closed_forms(ch.f_pd, ch.f_sd, ch.f_ps, p_q, p_a, lam)
    outer, _, slope_den = union_region(ch.f_pd, ch.f_sd, ch.f_ps, lam)
    # the secondary bound needs lambda_p below mu, the union slope a nonzero mu
    assert (lam < inner.mu).all() and (slope_den != 0.0).all()
    bad = np.argwhere(~(inner.bound_s <= outer + 1e-12))
    assert not bad.size, "containment violated at (p_q, p_a, lambda_p) " + repr(
        [(p_q[row, 0], p_a[row, 0], lam[row, col]) for row, col in bad[:3]]
    )


def test_criterion_6_optimizer_threshold():
    """Cooperate/no-cooperate decisions match the brute-force grid on both channels."""
    # direct link as good as relaying never cooperates
    ch_high = ChannelProfile(0.6, 0.8, 0.4)
    lambda_s = 0.2
    no_coop_limit = ch_high.f_pd * (1.0 - lambda_s / ch_high.f_sd)  # both queues stable
    sweep_high = np.linspace(0.02, no_coop_limit - 0.01, 15)
    for lam_p in sweep_high:
        mode, _ = primary_decision(optimum(ch_high, OperatingPoint(float(lam_p), lambda_s)))
        assert mode == "no_cooperation", f"expected no_cooperation at lambda_p={lam_p}"
    for lam_p in sweep_high[::3]:
        pt = OperatingPoint(float(lam_p), lambda_s)
        _, d_p_star = primary_decision(optimum(ch_high, pt))
        grid = primary_delay_grid(ch_high, pt, n=101)
        assert grid is not None
        assert d_p_star <= grid["objective"] + grid["cell_variation"]

    # weak direct link cooperates over (at least) the low half of the sweep
    ch_low = STANDARD_CHANNEL
    feasible_top = 0.31
    sweep_low = np.linspace(0.02, feasible_top, 15)
    modes = []
    for lam_p in sweep_low:
        pt = OperatingPoint(float(lam_p), lambda_s)
        mode, d_p_star = primary_decision(optimum(ch_low, pt))
        modes.append(mode)
        grid = primary_delay_grid(ch_low, pt, n=101)
        assert grid is not None
        assert d_p_star <= grid["objective"] + grid["cell_variation"], (
            f"analytic optimum beaten by grid at lambda_p={lam_p}: "
            f"{d_p_star} vs {grid['objective']}"
        )
    half = len(modes) // 2
    assert all(m == "cooperate" for m in modes[:half])


SU_GUARD_POINTS = (
    OperatingPoint(0.1, 0.1),
    OperatingPoint(0.2, 0.1),
    OperatingPoint(0.1, 0.3),
)


@pytest.mark.parametrize("pt", SU_GUARD_POINTS)
def test_criterion_7_su_conjecture_guard(pt):
    """No grid policy undercuts the closed-form secondary optimum."""
    ch = STANDARD_CHANNEL
    o = optimum(ch, pt)
    assert o.feasible
    p_q_star, d_s_star = o.su_p_q_star, o.su_d_s_star
    grid = secondary_delay_grid(ch, pt, n=101)
    assert grid is not None
    assert grid["objective"] >= d_s_star - grid["cell_variation"], (
        f"counterexample to the p_a=1 conjecture at {pt}: grid found "
        f"D_s={grid['objective']} at (p_q={grid['p_q']}, p_a={grid['p_a']}) "
        f"vs analytic {d_s_star} at (p_q={p_q_star}, p_a=1)"
    )


def test_criterion_8_simulator_baselines():
    """No-cooperation matches the single-queue delay; priority wastes no slots."""
    ch = STANDARD_CHANNEL
    pt = OperatingPoint(0.1, 0.0)
    busy = OperatingPoint(0.1, 0.1)
    pol = Policy(0.5, 1.0)
    stats, strict, randomized = replicate_many([
        Scenario(ch, pt, Policy(1.0, 0.0), policy_kind="no_cooperation",
                 slots=SLOTS, warmup_slots=WARMUP, seed=ACCEPTANCE_SEED),
        Scenario(ch, busy, pol, policy_kind="strict_priority_relay",
                 slots=200_000, warmup_slots=WARMUP, seed=ACCEPTANCE_SEED),
        Scenario(ch, busy, pol, policy_kind="randomized",
                 slots=200_000, warmup_slots=WARMUP, seed=ACCEPTANCE_SEED),
    ], 1)
    expected = (1.0 - pt.lambda_p) / (ch.f_pd - pt.lambda_p)
    assert abs(stats.mean_delay_p - expected) / expected <= 0.03
    assert strict.wasted_slots == 0
    assert randomized.wasted_slots > 0


def test_criterion_9_csv_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output."""
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(
        "variable = lambda\nstart = 0.05\nstop = 0.1\nsteps = 2\n"
        "slots = 20000\nwarmup = 1000\nseed = 2718\ntolerance = 1.0\n"
    )
    outputs = []
    for name in ("first", "second"):
        sim_out = tmp_path / f"{name}_sim.csv"
        val_out = tmp_path / f"{name}_val.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        assert main(["validate", "--config", str(cfg), "--out", str(val_out)]) == 0
        outputs.append((sim_out.read_bytes(), val_out.read_bytes()))
    assert outputs[0] == outputs[1]
