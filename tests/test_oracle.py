import dataclasses
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_oracle as reference
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from points import at
from reference_oracle import build_transitions, dense, solve_direct

import cogrelay
from cogrelay import model, oracle
from cogrelay.model import ChannelProfile, OperatingPoint, Policy
from cogrelay.oracle import (
    CHAIN_PAIRS,
    ChainSpec,
    ConvergenceError,
    RangeError,
    TruncationError,
    UnstableError,
    solve_stationary,
)

CH = ChannelProfile(0.3, 0.8, 0.4)
POL = Policy(0.5, 1.0)
PT = OperatingPoint(0.1, 0.1)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(CH, POL, PT, pair="bogus")
    with pytest.raises(ValueError):
        ChainSpec(CH, POL, PT, truncation=3)


@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_rows_are_stochastic(pair):
    kernel = build_transitions(ChainSpec(CH, POL, PT, pair=pair, truncation=12))
    sums = np.asarray(kernel.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert kernel.data.min() >= 0.0


def test_empty_state_self_loop():
    kernel = build_transitions(ChainSpec(CH, POL, PT, pair="primary_secondary", truncation=8))
    assert kernel[0, 0] == pytest.approx((1 - PT.lambda_p) * (1 - PT.lambda_s), rel=1e-12)


def test_primary_marginal_is_birth_death():
    # summing the kernel over the partner coordinate must give the scalar
    # birth-death chain of the primary queue, for any partner level
    T = 9
    kernel = build_transitions(ChainSpec(CH, POL, PT, pair="primary_secondary", truncation=T)).toarray()
    mu = float(at(CH, POL).mu)
    lp = PT.lambda_p
    for i in (0, 1, 4):
        for j in (0, 2, 5):
            row = kernel[i * T + j].reshape(T, T).sum(axis=1)
            if i == 0:
                expected = {0: 1 - lp, 1: lp}
            else:
                expected = {
                    i - 1: mu * (1 - lp),
                    i: mu * lp + (1 - mu) * (1 - lp),
                    i + 1: (1 - mu) * lp,
                }
            for level, prob in expected.items():
                assert row[level] == pytest.approx(prob, rel=1e-12)
            assert row.sum() == pytest.approx(1.0, rel=1e-12)


def test_relay_transfer_coupling():
    # a relayed packet leaves the primary queue and joins the relay queue in
    # the same slot
    T = 8
    kernel = build_transitions(ChainSpec(CH, POL, PT, pair="primary_relay", truncation=T)).toarray()
    relay = POL.p_a * CH.f_ps * (1 - CH.f_pd)
    lp = PT.lambda_p
    i, k = 3, 2
    row = kernel[i * T + k].reshape(T, T)
    assert row[i - 1, k + 1] == pytest.approx(relay * (1 - lp), rel=1e-12)
    assert row[i, k + 1] == pytest.approx(relay * lp, rel=1e-12)
    assert row[i - 1, k] == pytest.approx(CH.f_pd * (1 - lp), rel=1e-12)
    # the relay queue has no exogenous arrivals: k can only grow via transfers
    empty_row = kernel[0 * T + k].reshape(T, T)
    assert empty_row[:, k + 1].sum() == 0.0


def test_zero_arrivals_concentrate_at_origin():
    sol = solve_stationary(
        ChainSpec(CH, POL, OperatingPoint(0.0, 0.0), pair="primary_secondary", truncation=6)
    )
    assert sol.p00 == pytest.approx(1.0, abs=1e-12)
    assert sol.mean_first == pytest.approx(0.0, abs=1e-12)
    assert sol.mean_second == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_chain_matches_closed_forms(pair):
    sol = solve_stationary(ChainSpec(CH, POL, PT, pair=pair, truncation=60))
    assert sol.residual < 1e-12
    cf = at(CH, POL, PT)
    n_p = cf.n_p
    assert abs(sol.mean_first - n_p) / n_p < 0.005
    if pair == "primary_secondary":
        partner = cf.n_s
        assert abs(sol.p00 - cf.g00) < 0.005
    else:
        partner = cf.n_sp
    assert abs(sol.mean_second - partner) / partner < 0.005
    p_empty = float(sol.primary_law[0])
    assert abs(p_empty - cf.p_empty) < 0.005


def test_truncation_doubling_is_stable():
    # the primary queue's tail falls below rounding at 16 phases, so a larger
    # truncation changes nothing: the level axis is never cut
    small = solve_stationary(ChainSpec(CH, POL, PT, pair="primary_secondary", truncation=60))
    large = solve_stationary(ChainSpec(CH, POL, PT, pair="primary_secondary", truncation=120))
    assert len(small.primary_law) == len(large.primary_law) == 16
    assert (small.mean_first, small.mean_second, small.p00) == (large.mean_first, large.mean_second, large.p00)


@pytest.mark.parametrize("point", [OperatingPoint(0.1, 0.1), OperatingPoint(0.2388, 0.05),
                                   OperatingPoint(0.0425, 0.0), OperatingPoint(0.0, 0.1)])
def test_phase_count_is_the_fewest_whose_edge_tail_is_below_rounding(point):
    # P(Q_p >= n) = (lambda_p / mu) rho^(n - 1), in exact rationals: the phases
    # stop where the tail from the edge phase T - 1 on is below the unit roundoff
    mu = Fraction(float(at(CH, POL).mu))
    lp = Fraction(point.lambda_p)
    rho = lp * (1 - mu) / (mu * (1 - lp))

    def tail(n):
        return lp / mu * rho ** (n - 1)

    spec = ChainSpec(CH, POL, point, truncation=400)
    T = len(oracle._phases(spec, float(mu)))
    sol = solve_stationary(spec)
    assert T == len(sol.primary_law)
    unit = Fraction(2) ** -53
    assert tail(T - 1) <= unit * (1 + Fraction(1, 10**12))
    assert T == 2 or tail(T - 2) > unit * (1 - Fraction(1, 10**12))
    # the Geo/Geo/1 law on T phases, whose edge phase keeps the overflow, at that edge
    assert sol.mass_at_boundary == pytest.approx(float((tail(T - 1) - tail(T)) / (1 - tail(T))), rel=1e-12)
    assert sol.mass_at_boundary <= 2.0**-53
    # a truncation of T phases takes the point, and one phase fewer refuses it before any block is built
    assert len(solve_stationary(dataclasses.replace(spec, truncation=max(T, 4))).primary_law) == T
    if T > 4:
        with pytest.raises(TruncationError, match=f"^the primary queue's tail needs {T} phases; "
                                                  f"truncation {T - 1} is too small$"):
            solve_stationary(dataclasses.replace(spec, truncation=T - 1))


def test_under_truncated_solve_is_rejected(monkeypatch):
    loaded = OperatingPoint(0.25, 0.2)
    monkeypatch.setattr(oracle, "_blocks", lambda *args: pytest.fail("built the blocks of a refused point"))
    with pytest.raises(TruncationError, match="needs 28 phases; truncation 4 is too small"):
        solve_stationary(ChainSpec(CH, POL, loaded, pair="primary_secondary", truncation=4))


# lambda_p = 0.9 exceeds mu = 0.58, so the primary queue has no stationary
# distribution: the solve refuses the point before it builds a block, also
# where the partner queue is never served (p_q = 0)
@pytest.mark.parametrize("policy, pair", [
    (POL, "primary_secondary"), (POL, "primary_relay"), (Policy(0.0, 1.0), "primary_secondary"),
], ids=["primary_secondary", "primary_relay", "policy0-primary_secondary"])
def test_primary_unstable_point_is_rejected(monkeypatch, policy, pair):
    assert at(CH, policy).mu < 0.9
    spec = ChainSpec(CH, policy, OperatingPoint(0.9, 0.1), pair=pair, truncation=400)
    monkeypatch.setattr(oracle, "_blocks", lambda *args: pytest.fail("built the blocks of an unstable point"))
    with pytest.raises(UnstableError, match=r"lambda_p=0\.9 is not below the primary service rate mu=0\.58"):
        solve_stationary(spec)


def test_unstable_point_is_rejected(monkeypatch):
    # far outside the stable region the partner queue's mean drift is
    # negative, so it has no stationary law: the solve refuses the point
    # before it solves a level, as it does an unstable primary queue
    spec = ChainSpec(CH, POL, OperatingPoint(0.1, 0.9), truncation=400)
    monkeypatch.setattr(oracle, "_solve_right", lambda *args: pytest.fail("solved an unstable partner"))
    with np.errstate(all="raise"), pytest.raises(UnstableError, match="the partner queue is unstable"):
        solve_stationary(spec)


def test_non_convergence_raises(monkeypatch):
    # the exact solve meets any reachable tolerance; only an unreachable one fails
    monkeypatch.setattr(oracle, "RESIDUAL_TOLERANCE", 1e-300)
    with pytest.raises(ConvergenceError):
        solve_stationary(ChainSpec(CH, POL, PT, truncation=40))


# a partner queue that is never served: the SU never picks its own queue
# (p_q = 0), or never picks the relay queue while it admits (p_q = 1, p_a = 1)
@pytest.mark.parametrize("policy, pair", [
    (Policy(0.0, 1.0), "primary_secondary"),
    (Policy(1.0, 1.0), "primary_relay"),
], ids=["policy0-primary_secondary", "policy1-primary_relay"])
def test_unserved_growing_partner_is_rejected(policy, pair):
    spec = ChainSpec(CH, policy, PT, pair=pair)
    with np.errstate(all="raise"), pytest.raises(UnstableError, match="drift -.* the partner queue is unstable"):
        solve_stationary(spec)


def _law(spec):
    """The primary queue's law over the phases of ``spec``'s solve, as ``solve_stationary`` passes it down."""
    return oracle._phases(spec, oracle._primary_rate(spec.channel, spec.policy))


def _level_sums(spec):
    """The solve, and the rows ``[pi_0, x, y]`` it reads every number from: level 0 and the level sums
    ``x = sum_{j >= 1} pi_j`` and ``y = sum_{j >= 1} j pi_j``, normalised as the solve normalises them."""
    sol = solve_stationary(spec)
    law = _law(spec)
    pi0, x, y, _ = oracle._solve_levels(oracle._blocks(spec, len(law)), law)
    return sol, np.stack([pi0, x, y]) / (pi0.sum() + x.sum())


def _joint_sums(joint):
    """The rows ``[pi_0, x, y]`` of a joint law laid out ``[phase, level]``."""
    return np.stack([joint[:, 0], joint[:, 1:].sum(axis=1), joint @ np.arange(joint.shape[1])])


def _flushed(law, spec, T):
    """``law(spec, K, T)``, a dense reference's joint law ``[phase, level]`` on T phases and K levels, at the
    fewest K of 64, 128, ... whose top level is below the oracle's flush threshold, so that the lattice's
    level edge holds nothing a float64 sum can see."""
    for levels in 64 * 2 ** np.arange(12):
        joint = law(spec, int(levels), T)
        if joint[:, -1].max() < oracle._FLUSH_BELOW:
            return joint
    pytest.fail(f"the reference's top level is not flushed at {levels} levels")


def _dense_law(spec, levels, phases):
    """``reference.solve_stationary``'s joint law ``[phase, level]``, from which it reads every number it reports."""
    return reference.solve_stationary(spec, levels, phases)[1]


def test_unserved_idle_partner_stays_empty():
    spec = ChainSpec(CH, Policy(0.0, 1.0), OperatingPoint(0.1, 0.0))
    sol, levels = _level_sums(spec)
    assert sol.mean_second == 0.0
    assert not levels[1:].any()
    assert not _dense_law(spec, 8, len(sol.primary_law))[:, 1:].any()
    assert sol.mean_first == pytest.approx(at(CH, spec.policy, spec.point).n_p, rel=1e-6)


EXACTNESS_POINTS = [OperatingPoint(0.1, 0.1), OperatingPoint(0.2388, 0.05), OperatingPoint(0.3, 0.02)]


@pytest.mark.parametrize("point", EXACTNESS_POINTS)
@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_matches_dense_direct_solve(pair, point):
    # a direct sparse solve of the whole lattice of the solve's T phases and
    # K levels, with K past the level at which the lattice's law flushes
    sol, levels = _level_sums(ChainSpec(CH, POL, point, pair=pair, truncation=40))
    T = len(sol.primary_law)
    joint = _flushed(solve_direct, ChainSpec(CH, POL, point, pair=pair), T)
    assert np.abs(levels - _joint_sums(joint)).max() <= 1e-13
    # the means and p00 come from the closed level sums, not from a joint law
    assert sol.mean_second == pytest.approx(joint.sum(axis=0) @ np.arange(joint.shape[1]), rel=1e-12)
    assert sol.mean_first == pytest.approx(joint.sum(axis=1) @ np.arange(T), rel=1e-12)
    assert sol.p00 == pytest.approx(joint[0, 0], rel=1e-12)


@pytest.mark.parametrize("point", EXACTNESS_POINTS)
@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_primary_marginal_is_truncated_geo_geo_1(pair, point):
    # Q_p alone is a birth-death chain whose edge phase absorbs the overflow,
    # so its law follows from detailed balance
    sol = solve_stationary(ChainSpec(CH, POL, point, pair=pair, truncation=40))
    T = len(sol.primary_law)
    mu = float(at(CH, POL).mu)
    lp = point.lambda_p
    law = np.empty(T)
    law[0] = 1.0
    law[1] = lp / (mu * (1 - lp))
    for i in range(2, T):
        law[i] = law[i - 1] * lp * (1 - mu) / (mu * (1 - lp))
    law /= law.sum()
    assert np.abs(sol.primary_law - law).max() <= 1e-12


@pytest.mark.parametrize("lambda_share", [0.8, 0.85, 0.9])
@pytest.mark.parametrize("f_pd", [0.01, 0.05])
def test_primary_marginal_is_exact_on_slow_chains(f_pd, lambda_share):
    # slow exits near the primary bound, where a solve through the rounded
    # diagonal 1 - P[i, i] loses digits: without relaying (p_a = 0) level 0
    # is the whole chain, the primary queue's law, here in exact rationals
    # on all T phases its tail needs; a lattice of 120 phases, fewer, is refused
    ch, pol = ChannelProfile(f_pd, CH.f_sd, CH.f_ps), Policy(POL.p_q, 0.0)
    lambda_p = lambda_share * float(at(ch, pol).mu)
    spec = ChainSpec(ch, pol, OperatingPoint(lambda_p, 0.1), pair="primary_relay", truncation=120)
    T = _tail_count(spec, float(at(ch, pol).mu))
    assert T > 120
    with pytest.raises(TruncationError, match=f"needs {T} phases; truncation 120 is too small"):
        solve_stationary(spec)
    spec = dataclasses.replace(spec, truncation=T)
    pi0, x, *_ = oracle._solve_levels(oracle._blocks(spec, T), _law(spec))
    primary_law = (pi0 + x) / (pi0.sum() + x.sum())
    mu, lp = Fraction(float(at(ch, pol).mu)), Fraction(lambda_p)
    law = [Fraction(1), lp / (mu * (1 - lp))]
    for _ in range(2, T):
        law.append(law[-1] * lp * (1 - mu) / (mu * (1 - lp)))
    total = sum(law)
    assert np.abs(primary_law - [float(p / total) for p in law]).max() <= 1e-15
    # the closed-form N_p is the infinite queue's mean to rounding; a chain's mean differs
    # from it by the chain's own tail (a relative 5.9e-14 at T = 200, f_pd = 0.05, 0.85 mu)
    exact = (lp - lp * lp) / (mu - lp)
    assert abs(Fraction(float(at(ch, pol, spec.point).n_p)) - exact) <= exact / 10**15


def test_distribution_is_normalized_and_nonnegative():
    # level 0 and the levels above it hold all the mass, and y = sum_j j pi_j weighs each level by j >= 1
    sol, (pi0, x, y) = _level_sums(ChainSpec(CH, POL, PT, pair="primary_relay", truncation=50))
    assert min(pi0.min(), x.min(), sol.primary_law.min()) >= 0.0
    assert pi0.sum() + x.sum() == pytest.approx(1.0, abs=1e-14)
    assert (y >= x).all() and x.any()
    assert sol.primary_law.sum() == pytest.approx(1.0, abs=1e-15)


def _assert_blocks_are_kernel(spec, T, K):
    """``_blocks(spec, T)`` equals the reference kernel on T phases and K levels, bit for bit, at every level
    but the lattice's top one, which the oracle does not have (state i * K + j, as in the reference)."""
    blocks = oracle._blocks(spec, T)
    L0, Up0, D, L, Up = map(dense, blocks)
    kernel = np.zeros((T, K, T, K))  # [i, j, i', j']
    kernel[:, 0, :, 0] = L0
    kernel[:, 0, :, 1] = Up0
    for j in range(1, K - 1):
        kernel[:, j, :, j - 1], kernel[:, j, :, j], kernel[:, j, :, j + 1] = D, L, Up
    below_top = np.arange(T * K) % K < K - 1
    reference = build_transitions(spec, K, T).toarray()
    assert np.array_equal(kernel.reshape(T * K, T * K)[below_top], reference[below_top])
    # the slots for block[0, -1] and block[T - 1, T] hold nothing
    assert not any(block[0, 0] or block[2, -1] for block in blocks)


@pytest.mark.parametrize("policy", [Policy(0.5, 1.0), Policy(0.3, 0.2), Policy(0.0, 1.0), Policy(1.0, 1.0)])
@pytest.mark.parametrize("T", [4, 9, 40])
@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_blocks_assemble_to_reference_kernel(pair, T, policy):
    # idle, light, heavy and unstable points
    for point in [OperatingPoint(0.1, 0.1), OperatingPoint(0.2388, 0.05),
                  OperatingPoint(0.0, 0.0), OperatingPoint(0.1, 0.9)]:
        _assert_blocks_are_kernel(ChainSpec(CH, policy, point, pair=pair, truncation=T), T, T)


@st.composite
def kernel_specs(draw):
    # any channel, policy and point, stable or not, with each probability 0, 1
    # or uniform (subnormals included), and T down to _phases' floor of 2
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    f_sd = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
    ch = ChannelProfile(draw(st.just(0.0) | st.floats(0.0, f_sd, exclude_max=True)), f_sd, draw(prob))
    spec = ChainSpec(ch, Policy(draw(prob), draw(prob)), OperatingPoint(draw(prob), draw(prob)),
                     pair=draw(st.sampled_from(CHAIN_PAIRS)))
    return spec, draw(st.integers(2, 60))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_specs())
# T = 2, _phases' floor: phase 1 is the edge, where every primary arrival stays
@example((ChainSpec(CH, POL, OperatingPoint(1.0, 1.0)), 2))
def test_blocks_assemble_to_reference_kernel_at_random_specs(case):
    # levels 0 and 1 hold every block, and every level above 1 repeats level 1
    spec, T = case
    _assert_blocks_are_kernel(spec, T, 3)


def _level0_defect(spec, pi0):
    """Level 0's balance defect by phase under ``build_transitions``' full kernel, and ``_balance0``, at a law
    with level 0 ``pi0``, uniform levels above it, and level 1's phase 0 set by the flow balance across the
    level-0 cut, ``pi_0 Up0 1 = served pi_1[0]``, which ``_balance0`` takes pi_1 D from."""
    T = len(pi0)
    blocks = oracle._blocks(spec, T)
    _, Up0, D, _, _ = blocks
    levels = np.full((T, T), 1.0 / T**2)  # [level, phase]
    levels[0] = pi0
    levels[1, 0] = pi0 @ Up0.sum(axis=0) / D[:, 0].sum()
    pi = levels.T.ravel()
    defect = np.abs(build_transitions(spec).transpose() @ pi - pi).reshape(T, T)[:, 0]
    return defect, oracle._balance0(pi0, blocks)


@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_blockwise_residual_is_full_kernel_residual(pair):
    # a vector far from stationary: level 0's residual from the blocks must
    # still be the full kernel's, so the residual check bounds the actual error
    T = 40
    pi0 = np.linspace(1.0, 2.0, T)
    defect, balance = _level0_defect(ChainSpec(CH, POL, PT, pair=pair, truncation=T), pi0)
    assert defect.max() > 1e-3
    assert abs(balance - defect.max() / pi0.max()) <= 1e-15


@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_blockwise_residual_reaches_past_the_last_busy_phase(pair):
    # every primary queue empty under a heavy primary load: the largest
    # residual sits one phase past the last nonzero one, where the vector is 0
    T = 8
    pi0 = np.eye(T)[0]
    spec = ChainSpec(CH, POL, OperatingPoint(0.9, 0.1), pair=pair, truncation=T)
    defect, balance = _level0_defect(spec, pi0)
    assert pi0[1] == 0.0 and defect[1] == defect.max()
    assert abs(balance - defect.max()) <= 1e-15


def test_package_import_does_not_load_scipy():
    src = Path(cogrelay.__file__).resolve().parents[1]
    code = "import sys, cogrelay, cogrelay.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_the_process_pool():
    # the simulator forks its workers itself, without either
    src = Path(cogrelay.__file__).resolve().parents[1]
    code = ("import sys, cogrelay.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_pooled_validate_loads_neither_a_process_pool_nor_numpy_random(tmp_path):
    # the runs draw in forked workers; had they run inline, numpy.random would be loaded here
    src = Path(cogrelay.__file__).resolve().parents[1]
    config = tmp_path / "run.cfg"
    config.write_text("variable = lambda\nstart = 0.05\nstop = 0.15\nsteps = 2\n"
                      "slots = 20000\nwarmup = 100\ntolerance = 1\n")
    code = ("import sys\n"
            "from cogrelay import cli, simulator\n"
            "simulator._cpus = lambda: 2\n"
            "simulator._POOL_MIN_SLOTS = 0\n"
            f"code = cli.main(['validate', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'out.csv')!r}])\n"
            "print(code, sorted({'multiprocessing', 'concurrent.futures', 'numpy.random'} "
            "& set(sys.modules)))\n")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0 []"
    assert (tmp_path / "out.csv").read_text().count("\n") == 3


# the oracle benchmark's light and heavy points
BENCHMARK_POINTS = [OperatingPoint(0.1, 0.1), OperatingPoint(0.2388, 0.05)]


@pytest.mark.parametrize("point", BENCHMARK_POINTS)
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_full_truncation_matches_dense_level_solve(pair, point):
    # the dense level solve of the lattice of the solve's phases, with levels
    # past the one at which its law flushes; no product in the solve is subnormal
    spec = ChainSpec(CH, POL, point, pair=pair, truncation=400)
    with np.errstate(all="raise"):
        sol, levels = _level_sums(spec)
    T = len(sol.primary_law)
    joint = _flushed(_dense_law, spec, T)
    primary = joint.sum(axis=1)
    assert np.abs(levels - _joint_sums(joint)).max() <= 1e-15
    assert np.abs(sol.primary_law - primary).max() <= 1e-15
    # tails below the flush threshold are exactly 0, never subnormal
    assert levels[levels > 0.0].min() > 1e-156
    assert sol.mass_at_boundary == pytest.approx(primary[T - 1], rel=1e-12)
    assert sol.p00 == pytest.approx(joint[0, 0], rel=1e-13)
    for ours, theirs in [(sol.mean_first, primary @ np.arange(T)),
                         (sol.mean_second, joint.sum(axis=0) @ np.arange(joint.shape[1]))]:
        assert ours == pytest.approx(theirs, rel=1e-13)


# a slow primary queue at 0.92 and 0.93 mu, whose tail needs 421 and 483 phases
SLOW_CHANNEL, SLOW_POLICY = ChannelProfile(0.05, 0.8, 0.4), Policy(0.5, 0.0)
SLOW_POINTS = [OperatingPoint(0.046, 0.01), OperatingPoint(0.0465, 0.01)]


@pytest.mark.parametrize("point", SLOW_POINTS)
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_solve_holds_at_most_five_lattices(pair, point):
    # no T x T array is built: every level is one tridiagonal solve, so the
    # solve stays within the memory guard's bytes a phase, far below five
    # T x T float64 lattices
    peak, sol = _traced_peak(ChainSpec(SLOW_CHANNEL, SLOW_POLICY, point, pair=pair))
    T = len(sol.primary_law)
    assert T == {0.046: 421, 0.0465: 483}[point.lambda_p]
    assert peak <= oracle._BYTES_PER_PHASE * T


def _traced_peak(spec):
    """The peak of the memory traced while ``spec`` is solved, and the solution."""
    tracemalloc.start()
    try:
        sol = solve_stationary(spec)
        return tracemalloc.get_traced_memory()[1], sol
    finally:
        tracemalloc.stop()


# f_pd = 0.05, p_a = 0, lambda_p = 0.99 mu: the primary queue's tail needs 3475 phases
LONG_POINT = OperatingPoint(0.0495, 0.0005)


@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_solve_memory_is_linear_in_the_phases(pair):
    # at 3475 phases a rate matrix alone would take 97 MB; the solve stays
    # within the memory guard's bound, and its bytes a phase grow no faster
    # than at 421 phases
    spec = ChainSpec(SLOW_CHANNEL, SLOW_POLICY, LONG_POINT, pair=pair, truncation=4000)
    peak, sol = _traced_peak(spec)
    T = len(sol.primary_law)
    assert T == 3475
    assert peak <= oracle._BYTES_PER_PHASE * T
    small, slow = _traced_peak(dataclasses.replace(spec, point=SLOW_POINTS[0]))
    assert peak / T <= 1.25 * small / len(slow.primary_law)


# at 0.9 and 0.91 mu the tail needs 334 and 372 phases
GUARD_POINTS = [OperatingPoint(0.045, 0.01), OperatingPoint(0.0455, 0.01)]


@pytest.mark.parametrize("point", GUARD_POINTS)
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_memory_guard_admits_only_solves_that_fit(monkeypatch, pair, point):
    # on a machine whose physical memory is the guard's bytes a phase times the
    # T phases the point needs, the guard takes truncation T and refuses T + 1,
    # and the solve at T fits
    T = {0.045: 334, 0.0455: 372}[point.lambda_p]
    memory = oracle._BYTES_PER_PHASE * T
    with monkeypatch.context() as patch:
        patch.setattr(model.os, "sysconf", {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}.__getitem__)
        with pytest.raises(ValueError, match=f"truncation {T + 1} needs"):
            ChainSpec(SLOW_CHANNEL, SLOW_POLICY, point, pair=pair, truncation=T + 1)
        spec = ChainSpec(SLOW_CHANNEL, SLOW_POLICY, point, pair=pair, truncation=T)
    peak, sol = _traced_peak(spec)
    assert len(sol.primary_law) == T
    assert peak <= memory


@st.composite
def chain_specs(draw):
    # Probabilities are 0, 1 or in [0.01, 0.99], but mu and the rates that feed
    # and serve the pair's partner queue are positive, and the partner load,
    # lambda_s for the secondary pair and lambda_p for the relay pair, is a share
    # in [0.01, 0.95] of its bound, so most examples solve a partner queue that
    # grows; the secondary pair's lambda_p is a share of at most 0.95 of mu. Rates
    # nearer 0 may make the dense reference itself singular.
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)
    positive = st.just(1.0) | st.floats(0.01, 0.99)
    share = st.floats(0.01, 0.95)
    pair = draw(st.sampled_from(CHAIN_PAIRS))
    relay = pair == "primary_relay"
    f_pd = draw(st.just(0.0) | st.floats(0.01, 0.9))
    f_sd = draw(st.floats(max(f_pd, 0.01), 1.0, exclude_min=True))
    # relaying feeds the relay queue, and is the primary queue's only service at f_pd = 0
    feeds = positive if relay or f_pd == 0.0 else prob
    ch = ChannelProfile(f_pd, f_sd, draw(feeds))
    # the SU serves its own queue at p_q and the relay queue at 1 - p_q
    pol = Policy(draw(st.just(0.0) | st.floats(0.01, 0.99) if relay else positive), draw(feeds))
    cf = at(ch, pol)
    if relay:
        lambda_p, lambda_s = draw(share) * float(cf.bound_p), draw(prob)
    else:
        lambda_p = draw(st.just(0.0) | st.floats(0.0, 0.95)) * float(cf.mu)
        lambda_s = draw(share) * float(at(ch, pol, OperatingPoint(lambda_p, 0.0)).bound_s)
    return ChainSpec(ch, pol, OperatingPoint(lambda_p, lambda_s), pair=pair,
                     truncation=draw(st.sampled_from([8, 40, 120])))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _partner_margin(spec):
    cf = at(spec.channel, spec.policy, spec.point)
    return float(cf.margin_s if spec.pair == "primary_secondary" else cf.margin_p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(chain_specs())
# a slow birth-death level 0, where an unrefined dense reference is 1e-14 off; its tail needs 59 phases
@example(ChainSpec(ChannelProfile(0.01, 1.0, 0.0), Policy(0.0, 0.0), OperatingPoint(0.0053125, 0.0),
                   pair="primary_relay", truncation=120))
# level 0 never leaves phase 0, so I - L0 is singular and level 0 is e_0
@example(ChainSpec(ChannelProfile(0.0, 1.0, 0.5), Policy(0.0, 1.0), OperatingPoint(0.0, 0.0),
                   pair="primary_relay", truncation=8))
# mu = 0: the oracle refuses the primary queue as unstable, where the dense reference is singular
@example(ChainSpec(ChannelProfile(0.0, 0.8, 0.4), Policy(0.5, 0.0), OperatingPoint(0.0, 0.1), truncation=8))
# the primary queue's tail needs 28 phases, more than the truncation
@example(ChainSpec(CH, POL, OperatingPoint(0.25, 0.2), truncation=8))
# an unstable partner queue, and one that never grows
@example(ChainSpec(CH, POL, OperatingPoint(0.1, 0.9), truncation=40))
@example(ChainSpec(CH, POL, OperatingPoint(0.1, 0.0), truncation=40))
def test_matches_dense_level_solve(spec):
    # the primary queue is stable, so no step may overflow or divide by 0;
    # underflow is allowed, as at f = (0, 1, 0.75)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        ours = _outcome(_level_sums, spec)
    mu = oracle._primary_rate(spec.channel, spec.policy)
    if ours is UnstableError:
        # only a primary queue that never serves (mu = 0), where the dense reference is singular,
        # or a partner queue outside its stability bound is refused
        assert mu == 0.0 or _partner_margin(spec) <= 0.0
        return
    # both refuse a point whose tail needs more phases than the truncation
    T = min(_tail_count(spec, mu), spec.truncation)
    theirs = _outcome(_flushed, _dense_law, spec, T)
    if isinstance(ours, tuple):
        sol, levels = ours
        # every step is subtraction-free, which the one-sided flush relies on
        assert levels.min() >= 0.0 and sol.primary_law.min() >= 0.0
        assert _partner_margin(spec) > 0.0 or sol.mean_second == 0.0
    if ours is RangeError and isinstance(theirs, np.ndarray):
        # the oracle refuses a primary law whose mass off empty is below its flush
        # threshold; the dense solve, which flushes nothing, keeps that mass
        assert 0.0 < theirs[1:].sum() < oracle._FLUSH_BELOW
    elif isinstance(theirs, np.ndarray):
        assert isinstance(ours, tuple)
        assert np.abs(ours[0].primary_law - theirs.sum(axis=1)).max() <= 1e-14
        # pi_0 and x are probabilities; y = sum_j j pi_j grows with the partner mean,
        # so its error is bounded relative to its largest entry, where that is above 1
        sums = _joint_sums(theirs)
        scale = np.array([[1.0], [1.0], [max(1.0, np.abs(sums[2]).max())]])
        assert (np.abs(ours[1] - sums) <= 1e-14 * scale).all()
    else:
        assert ours is theirs


def _tail_count(spec, mu):
    """The fewest phases, at least 2, whose Geo/Geo/1 tail from the edge phase on is at most 2^-53, one by one."""
    lambda_p, tail, rho, phases = spec.point.lambda_p, 0.0, 0.0, 2
    if lambda_p > 0.0:
        tail, rho = lambda_p / mu, lambda_p * (1.0 - mu) / (mu * (1.0 - lambda_p))
    while tail > 2.0**-53:
        tail *= rho
        phases += 1
    return phases


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_specs())
def test_solve_is_exact_or_refused(spec):
    # within its truncation a solve uses exactly the phases the tail needs, and
    # leaves at most 2^-53 on the phase edge; past it the solve is refused,
    # naming that count, which the phase count's logarithms give exactly
    mu = oracle._primary_rate(spec.channel, spec.policy)
    T = _tail_count(spec, mu)
    try:
        sol = solve_stationary(spec)
    except TruncationError as exc:
        assert T > spec.truncation
        assert str(exc) == f"the primary queue's tail needs {T} phases; truncation {spec.truncation} is too small"
        return
    except (UnstableError, RangeError):
        sol = None  # the point is refused for its partner queue or float64's range, after the count
    assert len(oracle._phases(spec, mu)) == T <= spec.truncation
    if sol is not None:
        assert len(sol.primary_law) == T and sol.mass_at_boundary <= 2.0**-53


@st.composite
def growing_chains(draw):
    # any channel, policy and load with a stable primary queue; the partner
    # queue may be stable or not
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)
    f_pd = draw(st.just(0.0) | st.floats(0.01, 0.9))
    ch = ChannelProfile(f_pd, draw(st.floats(max(f_pd, 0.01), 1.0, exclude_min=True)), draw(prob))
    pol = Policy(draw(prob), draw(prob))
    mu = float(at(ch, pol).mu)
    lambda_p = draw(st.floats(0.0, 0.95)) * mu
    spec = ChainSpec(ch, pol, OperatingPoint(lambda_p, draw(prob)), pair=draw(st.sampled_from(CHAIN_PAIRS)))
    return spec, mu


@settings(max_examples=500, deadline=None, derandomize=True)
@given(growing_chains())
def test_partner_drift_is_the_closed_form_margin(case):
    # the QBD's mean drift a D 1 - a Up 1 is the secondary margin for the
    # secondary pair and (alpha / mu) margin_p for the relay pair, to rounding
    # plus the mass the phase cut moves, at most twice the edge's
    spec, mu = case
    assume(mu > 0.0)
    law = oracle._phases(spec, mu)
    a, drift = oracle._drift(oracle._blocks(spec, len(law)), law)
    cf = at(spec.channel, spec.policy, spec.point)
    margin = float(cf.margin_s if spec.pair == "primary_secondary" else cf.alpha / cf.mu * cf.margin_p)
    bound = 4e-15 + 2.0 * a[-1]
    assert abs(drift - margin) <= bound
    # the signs agree wherever the margin is not within that bound of 0
    assert abs(margin) <= bound or (drift > 0.0) == (margin > 0.0)


@st.composite
def near_bound_points(draw):
    # a stable point at relative margin 10^-k of the chain pair's partner bound,
    # at a truncation that may be below the phases its tail needs; lambda_p is 0
    # or large enough that no probability of the law falls below the flush threshold
    f_pd = draw(st.floats(0.05, 0.9))
    ch = ChannelProfile(f_pd, draw(st.floats(f_pd, 1.0, exclude_min=True)), draw(st.floats(0.05, 1.0)))
    pol = Policy(draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 1.0)))
    delta = 10.0 ** -draw(st.integers(1, 8))
    pair = draw(st.sampled_from(CHAIN_PAIRS))
    base = at(ch, pol)
    if pair == "primary_secondary":
        lambda_p = draw(st.just(0.0) | st.floats(0.01, 0.9)) * float(base.bound_p)
        bound_s = float(at(ch, pol, OperatingPoint(lambda_p, 0.0)).bound_s)
        point = OperatingPoint(lambda_p, bound_s * (1.0 - delta))
    else:
        lambda_p = float(base.bound_p) * (1.0 - delta)
        bound_s = float(at(ch, pol, OperatingPoint(lambda_p, 0.0)).bound_s)
        point = OperatingPoint(lambda_p, draw(st.floats(0.0, 0.9)) * bound_s)
    return ChainSpec(ch, pol, point, pair=pair, truncation=draw(st.sampled_from([20, 60, 400])))


#: c in the near-bound bound c eps / delta; the largest c over 3000 random draws of this kind was 54
NEAR_BOUND_C = 128


def _near_bound(cf, pair):
    """``delta, partner``: the pair's relative margin to its partner bound, and the partner's closed-form mean."""
    if pair == "primary_secondary":
        return float(cf.margin_s / cf.bound_s), float(cf.n_s)
    return float(cf.margin_p / cf.bound_p), float(cf.n_sp)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_bound_points())
# the light point at 1% of the secondary bound, which a 400 x 400 lattice could not solve
@example(ChainSpec(CH, POL, OperatingPoint(0.1, 0.99 * float(at(CH, POL, OperatingPoint(0.1, 0.0)).bound_s))))
# the relay pair at 1e-8 of the primary bound, whose tail needs 1262 phases
@example(ChainSpec(ChannelProfile(0.2803116035801936, 0.4287571501666164, 0.17158140474355582),
                   Policy(0.28496481188836853, 0.05237973299631507),
                   OperatingPoint(0.2808542843560448, 0.0), pair="primary_relay"))
def test_means_hold_to_the_closed_forms_near_the_bound(spec):
    # at relative margin delta both the oracle's means and the closed forms
    # are conditioned like 1 / delta, so they agree within c eps / delta; the
    # phase cut leaves at most 2^-53 of the primary queue out, or the point is refused
    cf = at(spec.channel, spec.policy, spec.point)
    assert cf.stable and cf.evaluable
    delta, partner = _near_bound(cf, spec.pair)
    T = _tail_count(spec, float(cf.mu))
    try:
        sol = solve_stationary(spec)
    except TruncationError:
        assert T > spec.truncation
        return
    assert len(sol.primary_law) == T and sol.mass_at_boundary <= 2.0**-53
    bound = NEAR_BOUND_C * np.finfo(float).eps / delta
    assert abs(sol.mean_first - float(cf.n_p)) <= bound * float(cf.n_p)
    assert abs(sol.mean_second - partner) <= bound * partner
    assert sol.residual < oracle.RESIDUAL_TOLERANCE


def test_cut_that_moves_a_near_bound_partner_is_rejected():
    # the relay pair at 1e-8 of the primary bound: its tail needs 1262 phases,
    # so a cut at 400, which would leave out 8.7e-6 of the primary queue and
    # move the partner queue's drift of 5.9e-8 by far more than the drift
    # itself, is refused; the default truncation's exact cut holds n_sp, about
    # 7.8e7, within c eps / delta
    ch = ChannelProfile(0.2803116035801936, 0.4287571501666164, 0.17158140474355582)
    pol = Policy(0.28496481188836853, 0.05237973299631507)
    spec = ChainSpec(ch, pol, OperatingPoint(0.2808542843560448, 0.0), pair="primary_relay")
    cf = at(ch, pol, spec.point)
    delta, n_sp = _near_bound(cf, spec.pair)
    assert delta == pytest.approx(1e-8, rel=1e-6)
    with pytest.raises(TruncationError, match="needs 1262 phases; truncation 400 is too small"):
        solve_stationary(dataclasses.replace(spec, truncation=400))
    sol = solve_stationary(spec)
    assert len(sol.primary_law) == 1262
    assert abs(sol.mean_second - n_sp) <= NEAR_BOUND_C * np.finfo(float).eps / delta * n_sp


def test_cut_that_moves_the_primary_mean_is_rejected():
    # a slow primary queue at 0.9 mu: its tail needs 347 phases, so a cut at
    # 120, which would move the primary mean by 3.85e-5 of it, is refused; at
    # the default truncation the primary mean holds n_p within c eps / delta,
    # at the primary queue's relative margin delta = 0.1
    ch, pol = ChannelProfile(0.01, 0.8, 0.4), Policy(0.5, 0.0)
    mu = oracle._primary_rate(ch, pol)
    spec = ChainSpec(ch, pol, OperatingPoint(0.9 * mu, 0.0), pair="primary_relay")
    cf = at(ch, pol, spec.point)
    with pytest.raises(TruncationError, match="needs 347 phases; truncation 120 is too small"):
        solve_stationary(dataclasses.replace(spec, truncation=120))
    delta = float(cf.margin_p / cf.bound_p)
    assert delta == pytest.approx(0.1, rel=1e-12)
    sol = solve_stationary(spec)
    assert len(sol.primary_law) == 347
    assert abs(sol.mean_first - float(cf.n_p)) <= NEAR_BOUND_C * np.finfo(float).eps / delta * float(cf.n_p)


def test_light_point_at_one_percent_of_the_secondary_bound_is_solved():
    # a 400 x 400 lattice left 6.1e-5 of the secondary pair's mass on its edge here and refused the point
    bound_s = float(at(CH, POL, OperatingPoint(0.1, 0.0)).bound_s)
    point = OperatingPoint(0.1, 0.99 * bound_s)
    cf = at(CH, POL, point)
    for pair, partner in [("primary_secondary", cf.n_s), ("primary_relay", cf.n_sp)]:
        sol = solve_stationary(ChainSpec(CH, POL, point, pair=pair))
        assert sol.mean_second == pytest.approx(float(partner), rel=1e-13)
        assert sol.mean_first == pytest.approx(float(cf.n_p), rel=1e-14)
        assert sol.mass_at_boundary <= 2.0**-53


def test_rare_arrivals_are_not_flushed():
    # level 0 is solved at its own scale, about 1 over the rate at which the partner leaves it,
    # which puts level 1 at served pi_1[0] = 1: a mean of 1e-200 is a ratio of sums far above the
    # flush, where scaling level 0 to pi_0[0] = 1 flushed it to 0
    point = OperatingPoint(0.1, 1e-200)  # level 0 is about 1 / lambda_s
    n_s = float(at(CH, POL, point).n_s)
    assert n_s == pytest.approx(3.203125e-200, rel=1e-15, abs=0.0)
    assert solve_stationary(ChainSpec(CH, POL, point)).mean_second == pytest.approx(n_s, rel=1e-15, abs=0.0)
    point = OperatingPoint(1e-200, 0.1)  # the relay pair's level 0 is about 1 / lambda_p in phase 0
    sol = solve_stationary(ChainSpec(CH, POL, point, pair="primary_relay"))
    assert sol.mean_first == pytest.approx(float(at(CH, POL, point).n_p), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("point, message", [
    # the secondary pair's level 0 is about 1 / lambda_s in phase 0 and lambda_p / lambda_s off it
    (OperatingPoint(1e-200, 0.1), "the primary queue receives arrivals, but the solve flushed its mass"),
    # level 0's scale, about 1 / lambda_s, passes float64's largest value
    (OperatingPoint(0.1, 5e-309), "level 0's mass, about 1 over the rate at which the partner leaves it"),
])
def test_law_past_float64_range_is_rejected(point, message):
    with pytest.raises(RangeError, match=message):
        solve_stationary(ChainSpec(CH, POL, point))


@pytest.mark.parametrize("point", EXACTNESS_POINTS + [OperatingPoint(0.1, 0.3277)])
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_level_sums_solve_their_own_systems(pair, point):
    # x = sum_{j >= 1} pi_j and y = sum_{j >= 1} j pi_j solve
    # x (I - L - Up - u d) = pi_0 Up0 and y (...) = pi_0 Up0 + x Up; checked
    # here on dense matrices, within RESIDUAL_TOLERANCE of each sum's size
    spec = ChainSpec(CH, POL, point, pair=pair)
    law = _law(spec)
    T = len(law)
    blocks = oracle._blocks(spec, T)
    pi0, x, y, residual = oracle._solve_levels(blocks, law)
    assert residual < oracle.RESIDUAL_TOLERANCE
    L0, Up0, D, L, Up = map(dense, blocks)
    d = D[0] / D[0].sum()
    system = np.eye(T) - L - Up - np.outer(Up.sum(axis=1), d)
    for z, rhs in [(x, pi0 @ Up0), (y, pi0 @ Up0 + x @ Up)]:
        assert np.abs(z @ system - rhs).max() <= oracle.RESIDUAL_TOLERANCE * z.max()
    # and they are the sums of the dense reference's levels, whose products
    # each add a rounding, over tens of thousands of levels at 1% of the bound
    joint = _flushed(_dense_law, spec, T)
    total = pi0.sum() + x.sum()
    for z, theirs in zip([x, y], _joint_sums(joint)[1:]):
        assert np.abs(theirs - z / total).max() <= 1e-12 * z.max() / total


def test_level_sum_residual_over_tolerance_is_rejected(monkeypatch):
    # the level sums' residual is part of the solve's: a sum whose system
    # does not hold fails the solve as a level residual would
    levels = oracle._solve_levels
    monkeypatch.setattr(oracle, "_solve_levels", lambda blocks, law: (*levels(blocks, law)[:-1], 1e-9))
    with pytest.raises(ConvergenceError, match="residual 1.000e-09"):
        solve_stationary(ChainSpec(CH, POL, PT))


def _plant_in_first_call(patch, name):
    """Make the first call of ``oracle.<name>`` return its vector with phase 1 off by a relative 1e-6."""
    original, calls = getattr(oracle, name), []

    def planted(*args):
        out = original(*args).copy()
        calls.append(name)
        if len(calls) == 1:
            out[1] *= 1.0 + 1e-6
        return out

    patch.setattr(oracle, name, planted)


@pytest.mark.parametrize("fault", ["drift", "level 0", "level sum"])
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_planted_fault_fails_the_residual_check(monkeypatch, pair, fault):
    # every reported number is read from level 0 and the level sums, which
    # level 0's balance and the two sums' systems fix: a drift 1e-6 off
    # itself, a level 0 off in one phase (its first solve) or a level sum off
    # in one phase (x, the first one flushed) each fails the solve
    spec = ChainSpec(CH, POL, PT, pair=pair)
    assert solve_stationary(spec).residual < oracle.RESIDUAL_TOLERANCE
    if fault == "drift":
        drift = oracle._drift

        def off(blocks, law):
            a, value = drift(blocks, law)
            return a, value * (1.0 + 1e-6)

        monkeypatch.setattr(oracle, "_drift", off)
    else:
        _plant_in_first_call(monkeypatch, "_solve_right" if fault == "level 0" else "_flush")
    with pytest.raises(ConvergenceError, match="not below tolerance"):
        solve_stationary(spec)


def test_phase_one_without_exit_is_singular(monkeypatch):
    # with f_pd = 0 and p_a = 0 no primary packet ever leaves: phase 1 has no
    # exit below it, so the chain has no stationary law; solve_stationary
    # refuses the point before it builds a block, as lambda_p = 1 is not below mu = 0
    spec = ChainSpec(ChannelProfile(0.0, 0.8, 0.4), Policy(0.5, 0.0), OperatingPoint(1.0, 0.1), truncation=8)
    monkeypatch.setattr(oracle, "_blocks", lambda *args: pytest.fail("built the blocks of an unstable point"))
    with pytest.raises(UnstableError, match="lambda_p=1.0 is not below the primary service rate mu=0.0"):
        solve_stationary(spec)


@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_primary_queue_that_is_never_served_is_unstable_without_arrivals(monkeypatch, pair):
    # mu = 0 at lambda_p = 0: no primary packet arrives or leaves, and the
    # closed forms' strict margin calls the point unstable; so does the solve,
    # before it builds a block
    spec = ChainSpec(ChannelProfile(0.0, 0.8, 0.4), Policy(0.5, 0.0), OperatingPoint(0.0, 0.1), pair=pair)
    assert not at(spec.channel, spec.policy, spec.point).stable
    monkeypatch.setattr(oracle, "_blocks", lambda *args: pytest.fail("built the blocks of an unstable point"))
    with pytest.raises(UnstableError, match=r"lambda_p=0\.0 is not below the primary service rate mu=0\.0"):
        solve_stationary(spec)


@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_kernel_off_the_primary_law_fails_the_residual_check(monkeypatch, pair):
    # the heavy point's kernel with 1e-9 of each interior phase's stay moved to
    # its step up at every level above 0: its rows still sum to 1, but its
    # primary queue is not the Geo/Geo/1 queue whose law cut the phases and
    # sets the level sums' phase law, so their residuals fail the solve
    spec = ChainSpec(CH, POL, OperatingPoint(0.2388, 0.05), pair=pair)
    assert solve_stationary(spec).residual < oracle.RESIDUAL_TOLERANCE
    blocks = oracle._blocks

    def climbing(spec, T):
        kernel = blocks(spec, T)
        for block in kernel[2:]:  # D, L and Up
            moved = 1e-9 * block[1, 1:-1]
            block[1, 1:-1] -= moved
            block[2, 1:-1] += moved
        return kernel

    monkeypatch.setattr(oracle, "_blocks", climbing)
    with pytest.raises(ConvergenceError, match="not below tolerance"):
        solve_stationary(spec)


@pytest.mark.parametrize("below", [
    # every phase above 0 moves down, so only the last pivot of the elimination, phase 0's, is 0
    pytest.param([0, .5, .5, .5], id="bottom"),
    # phase 2 never moves down and nothing leaks into it from phase 3, so the elimination stops at it
    pytest.param([0, .5, 0, .5], id="interior"),
])
def test_zero_pivot_is_singular(below):
    # a stochastic block leaks nothing, so I - block is singular
    above = [.5, .5, .5, 0]
    block = np.array([below, 1.0 - np.add(below, above), above])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        oracle._pivots(block, np.zeros(4))


def test_near_singular_chain_is_solved():
    # the relay queue is served at rate 1e-30, so 1 minus it rounds to 1 and a
    # dense solve for R through that diagonal sees phase 0 as absorbing and
    # fails; the tridiagonal solve, and the reference's dense one, take the
    # rate itself as phase 0's exit and find the chain at rest
    spec = ChainSpec(
        ChannelProfile(0.0, 1e-30, 1.0), Policy(0.0, 1.0), OperatingPoint(0.0, 0.0),
        pair="primary_relay", truncation=8,
    )
    _, _, D, L, Up = map(dense, oracle._blocks(spec, 8))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(8) - L - np.outer(Up.sum(axis=1), D[0] / D[0].sum()), Up)
    ref, _ = reference.solve_stationary(spec, 8)
    sol = solve_stationary(spec)
    assert sol.p00 == ref.p00 == 1.0 and sol.residual == ref.residual == 0.0


@pytest.mark.parametrize("block, entry, message", [
    (2, (0, 1), "while the primary queue is busy"),  # D serves the partner from phase 1
])
def test_solve_rejects_blocks_outside_its_structure(block, entry, message):
    spec = ChainSpec(CH, POL, PT)
    law = _law(spec)
    blocks = [b.copy() for b in oracle._blocks(spec, len(law))]
    blocks[block][entry] = 0.01
    with pytest.raises(ValueError, match=message):
        oracle._solve_levels(tuple(blocks), law)
