import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_oracle as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from points import at
from reference_oracle import build_transitions, dense

import cogrelay
from cogrelay import oracle
from cogrelay.model import ChannelProfile, OperatingPoint, Policy
from cogrelay.oracle import (
    CHAIN_PAIRS,
    ChainSpec,
    ConvergenceError,
    StationarySolution,
    TruncationError,
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
    p_empty = float(sol.distribution[0, :].sum())
    assert abs(p_empty - cf.p_empty) < 0.005


def test_truncation_doubling_is_stable():
    small = solve_stationary(ChainSpec(CH, POL, PT, pair="primary_secondary", truncation=60))
    large = solve_stationary(ChainSpec(CH, POL, PT, pair="primary_secondary", truncation=120))
    assert abs(small.mean_second - large.mean_second) < 0.005 * large.mean_second
    assert abs(small.mean_first - large.mean_first) < 0.005 * large.mean_first


def test_under_truncated_solve_is_rejected():
    loaded = OperatingPoint(0.25, 0.2)
    with pytest.raises(TruncationError):
        solve_stationary(ChainSpec(CH, POL, loaded, pair="primary_secondary", truncation=4))


# lambda_p = 0.9 exceeds mu = 0.58, so the primary queue has no stationary
# distribution: the solve refuses the point before it builds a block, also
# where the partner queue is never served (p_q = 0)
@pytest.mark.parametrize("policy, pair", [
    (POL, "primary_secondary"), (POL, "primary_relay"), (Policy(0.0, 1.0), "primary_secondary"),
], ids=["primary_secondary", "primary_relay", "policy0-primary_secondary"])
def test_primary_unstable_point_is_rejected_at_full_truncation(monkeypatch, policy, pair):
    assert at(CH, policy).mu < 0.9
    spec = ChainSpec(CH, policy, OperatingPoint(0.9, 0.1), pair=pair, truncation=400)
    monkeypatch.setattr(oracle, "_blocks", lambda spec: pytest.fail("built the blocks of an unstable point"))
    with pytest.raises(ValueError, match=r"lambda_p=0\.9 is not below the primary service rate mu=0\.58"):
        solve_stationary(spec)


def test_unstable_point_is_rejected_at_full_truncation():
    # far outside the stable region the partner levels grow by ~16x per step,
    # which overflows float64 long before level 400 unless the level loop
    # rescales; the primary queue is stable, so nothing else needs to
    spec = ChainSpec(CH, POL, OperatingPoint(0.1, 0.9), truncation=400)
    with np.errstate(over="raise", invalid="raise", divide="raise"), pytest.raises(TruncationError):
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
    spec = ChainSpec(CH, policy, PT, pair=pair, truncation=8)
    with np.errstate(all="raise"), pytest.raises(TruncationError, match="boundary mass 1.000e"):
        solve_stationary(spec)


def test_unserved_idle_partner_stays_empty():
    spec = ChainSpec(CH, Policy(0.0, 1.0), OperatingPoint(0.1, 0.0), truncation=8)
    sol = solve_stationary(spec)
    assert sol.mean_second == 0.0
    assert sol.distribution[:, 1:].sum() == 0.0
    assert sol.mean_first == pytest.approx(at(CH, spec.policy, spec.point).n_p, rel=1e-6)


EXACTNESS_POINTS = [OperatingPoint(0.1, 0.1), OperatingPoint(0.2388, 0.05), OperatingPoint(0.3, 0.02)]


def _solve_or_skip(spec):
    try:
        return solve_stationary(spec)
    except TruncationError as exc:
        pytest.skip(str(exc))


@pytest.mark.parametrize("point", EXACTNESS_POINTS)
@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_matches_dense_direct_solve(pair, point):
    spec = ChainSpec(CH, POL, point, pair=pair, truncation=40)
    sol = _solve_or_skip(spec)
    kernel = build_transitions(spec).toarray()
    n = len(kernel)
    system = np.eye(n) - kernel.T
    system[0] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    reference = np.linalg.solve(system, rhs).reshape(sol.distribution.shape)
    assert np.abs(sol.distribution - reference).max() <= 1e-13


@pytest.mark.parametrize("point", EXACTNESS_POINTS)
@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_primary_marginal_is_truncated_geo_geo_1(pair, point):
    # Q_p alone is a birth-death chain whose top level absorbs the overflow,
    # so its law follows from detailed balance
    T = 40
    sol = _solve_or_skip(ChainSpec(CH, POL, point, pair=pair, truncation=T))
    mu = float(at(CH, POL).mu)
    lp = point.lambda_p
    law = np.empty(T)
    law[0] = 1.0
    law[1] = lp / (mu * (1 - lp))
    for i in range(2, T):
        law[i] = law[i - 1] * lp * (1 - mu) / (mu * (1 - lp))
    law /= law.sum()
    assert np.abs(sol.distribution.sum(axis=1) - law).max() <= 1e-12


@pytest.mark.parametrize("lambda_share", [0.8, 0.85, 0.9])
@pytest.mark.parametrize("f_pd", [0.01, 0.05])
def test_primary_marginal_is_exact_on_slow_chains(f_pd, lambda_share):
    # slow exits near the primary bound, where a solve through the rounded
    # diagonal 1 - P[i, i] loses digits: without relaying (p_a = 0) level 0
    # is the whole chain, and its law is detailed balance, here in exact rationals
    T = 120
    ch, pol = ChannelProfile(f_pd, CH.f_sd, CH.f_ps), Policy(POL.p_q, 0.0)
    lambda_p = lambda_share * float(at(ch, pol).mu)
    spec = ChainSpec(ch, pol, OperatingPoint(lambda_p, 0.1), pair="primary_relay", truncation=T)
    sol = solve_stationary(spec)
    mu, lp = Fraction(float(at(ch, pol).mu)), Fraction(lambda_p)
    law = [Fraction(1), lp / (mu * (1 - lp))]
    for _ in range(2, T):
        law.append(law[-1] * lp * (1 - mu) / (mu * (1 - lp)))
    total = sum(law)
    assert np.abs(sol.distribution.sum(axis=1) - [float(p / total) for p in law]).max() <= 1e-15
    # the closed-form N_p is the infinite queue's mean to rounding; a chain's mean differs
    # from it by the chain's own tail (a relative 5.9e-14 at T = 200, f_pd = 0.05, 0.85 mu)
    exact = (lp - lp * lp) / (mu - lp)
    assert abs(Fraction(float(at(ch, pol, spec.point).n_p)) - exact) <= exact / 10**15


def test_distribution_is_normalized_and_nonnegative():
    sol = solve_stationary(ChainSpec(CH, POL, PT, pair="primary_relay", truncation=50))
    assert sol.distribution.min() >= 0.0
    assert sol.distribution.sum() == pytest.approx(1.0, abs=1e-9)


def _assemble(blocks):
    """The full kernel, indexed i * T + j like the reference, from the six blocks."""
    L0, Up0, D, L, Up, Ltop = blocks
    T = len(L0)
    kernel = np.zeros((T, T, T, T))  # [i, j, i', j']
    kernel[:, 0, :, 0] = L0
    kernel[:, 0, :, 1] = Up0
    for j in range(1, T - 1):
        kernel[:, j, :, j - 1], kernel[:, j, :, j], kernel[:, j, :, j + 1] = D, L, Up
    kernel[:, T - 1, :, T - 2], kernel[:, T - 1, :, T - 1] = D, Ltop
    return kernel.reshape(T * T, T * T)


@pytest.mark.parametrize("policy", [Policy(0.5, 1.0), Policy(0.3, 0.2), Policy(0.0, 1.0), Policy(1.0, 1.0)])
@pytest.mark.parametrize("T", [4, 9, 40])
@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_blocks_assemble_to_reference_kernel(pair, T, policy):
    # idle, light, heavy and unstable points: the blocks are the kernel, bit for bit
    for point in [OperatingPoint(0.1, 0.1), OperatingPoint(0.2388, 0.05),
                  OperatingPoint(0.0, 0.0), OperatingPoint(0.1, 0.9)]:
        spec = ChainSpec(CH, policy, point, pair=pair, truncation=T)
        reference = build_transitions(spec).toarray()
        blocks = oracle._blocks(spec)
        assert np.array_equal(_assemble(tuple(map(dense, blocks))), reference)
        # the slots for block[0, -1] and block[T - 1, T] hold nothing
        assert not any(block[0, 0] or block[2, -1] for block in blocks)


@pytest.mark.parametrize("pair", ["primary_secondary", "primary_relay"])
def test_blockwise_residual_is_full_kernel_residual(pair):
    # a vector far from stationary: the block-wise residual must still be the
    # true one, so the residual check bounds the actual error
    T = 40
    spec = ChainSpec(CH, POL, PT, pair=pair, truncation=T)
    levels = np.full((T, T), 1.0 / T**2)
    pi = levels.T.ravel()
    expected = np.abs(build_transitions(spec).transpose() @ pi - pi).max()
    assert expected > 1e-5
    assert abs(oracle._residual(levels, oracle._blocks(spec)) - expected) <= 1e-15


@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_blockwise_residual_reaches_past_the_last_busy_phase(pair):
    # every primary queue empty under a heavy primary load: the largest
    # residual sits one phase past the last nonzero one, where the vector is 0
    T = 8
    spec = ChainSpec(CH, POL, OperatingPoint(0.9, 0.1), pair=pair, truncation=T)
    levels = np.zeros((T, T))
    levels[:, 0] = 1.0 / T
    pi = levels.T.ravel()
    expected = np.abs(build_transitions(spec).transpose() @ pi - pi).reshape(T, T)  # [phase, level]
    assert expected.max(axis=1).argmax() == 1
    assert abs(oracle._residual(levels, oracle._blocks(spec)) - expected.max()) <= 1e-15


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
    spec = ChainSpec(CH, POL, point, pair=pair, truncation=400)
    # no product in the solve is subnormal, so no step underflows
    with np.errstate(all="raise"):
        sol = solve_stationary(spec)
    ref = reference.solve_stationary(spec)
    assert np.abs(sol.distribution - ref.distribution).max() <= 1e-15
    # tails below the flush threshold are exactly 0, never subnormal
    assert sol.distribution[sol.distribution > 0.0].min() > 1e-156
    if ref.mass_at_boundary >= 1e-140:
        assert sol.mass_at_boundary == pytest.approx(ref.mass_at_boundary, rel=1e-12)
    else:
        assert sol.mass_at_boundary <= 1e-140


@pytest.mark.parametrize("point", BENCHMARK_POINTS)
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_solve_holds_at_most_five_lattices(pair, point):
    # no T x T block is built: the levels, the Thomas right-hand sides, R and
    # the temporaries around them stay within five T x T float64 arrays
    T = 400
    spec = ChainSpec(CH, POL, point, pair=pair, truncation=T)
    tracemalloc.start()
    try:
        solve_stationary(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * T * T * 8


@pytest.mark.parametrize("point", BENCHMARK_POINTS)
@pytest.mark.parametrize("pair", CHAIN_PAIRS)
def test_memory_guard_admits_only_solves_that_fit(monkeypatch, pair, point):
    # on a machine whose physical memory is five T x T float64 lattices, the
    # guard takes truncation T and refuses T + 1, and the solve at T fits
    T = 200
    memory = 5 * T * T * 8
    with monkeypatch.context() as patch:
        patch.setattr(oracle.os, "sysconf", {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}.__getitem__)
        with pytest.raises(ValueError, match=f"truncation {T + 1} needs"):
            ChainSpec(CH, POL, point, pair=pair, truncation=T + 1)
        spec = ChainSpec(CH, POL, point, pair=pair, truncation=T)
    tracemalloc.start()
    try:
        solve_stationary(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= memory


@st.composite
def chain_specs(draw):
    # Probabilities are 0, 1 or in [0.01, 0.99], and lambda_p stays at least
    # 5% below mu, so the primary queue is stable; the partner queue may not
    # be. Rates nearer 0 make the dense reference itself singular (see
    # test_near_singular_chain_is_solved).
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)
    f_pd = draw(st.just(0.0) | st.floats(0.01, 0.9))
    ch = ChannelProfile(f_pd, draw(st.floats(max(f_pd, 0.01), 1.0, exclude_min=True)), draw(prob))
    pol = Policy(draw(prob), draw(prob))
    lambda_p = draw(st.just(0.0) | st.floats(0.0, 0.95)) * float(at(ch, pol).mu)
    return ChainSpec(
        ch, pol, OperatingPoint(lambda_p, draw(prob)),
        pair=draw(st.sampled_from(CHAIN_PAIRS)), truncation=draw(st.sampled_from([8, 40, 120])),
    )


def _outcome(solve, spec):
    try:
        return solve(spec)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(chain_specs())
# a slow birth-death level 0, where an unrefined dense reference is 1e-14 off
@example(ChainSpec(ChannelProfile(0.01, 1.0, 0.0), Policy(0.0, 0.0), OperatingPoint(0.0053125, 0.0),
                   pair="primary_relay", truncation=40))
def test_matches_dense_level_solve(spec):
    # the primary queue is stable, so no step may overflow or divide by 0;
    # underflow is allowed, as at f = (0, 1, 0.75)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        sol = _outcome(solve_stationary, spec)
    ref = _outcome(reference.solve_stationary, spec)
    if isinstance(sol, StationarySolution):
        # every step is subtraction-free, which the one-sided flush relies on
        assert sol.distribution.min() >= 0.0
    if isinstance(ref, StationarySolution):
        assert isinstance(sol, StationarySolution)
        assert np.abs(sol.distribution - ref.distribution).max() <= 1e-14
    else:
        assert sol is ref


def test_phase_one_without_exit_is_singular():
    # with f_pd = 0 and p_a = 0 no primary packet ever leaves: phase 1 of level 0
    # has no exit below it, and level 0's stationary vector is undetermined;
    # solve_stationary refuses the point first, as lambda_p = 1 is not below mu = 0
    spec = ChainSpec(ChannelProfile(0.0, 0.8, 0.4), Policy(0.5, 0.0), OperatingPoint(1.0, 0.1), truncation=8)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        oracle._solve_levels(oracle._blocks(spec))
    with pytest.raises(ValueError, match="lambda_p=1.0 is not below the primary service rate mu=0.0"):
        solve_stationary(spec)


def test_zero_bottom_pivot_is_singular():
    # a stochastic block leaks nothing, so I - block is singular; every phase
    # above 0 moves down, so only the last pivot of the elimination is 0
    block = np.array([[0, .5, .5, .5], [.5, 0, 0, .5], [.5, .5, .5, 0]])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        oracle._pivots(block, np.zeros(4))


def test_near_singular_chain_is_solved():
    # the relay queue is served at rate 1e-30, so 1 minus it rounds to 1 and the
    # dense solve for R sees phase 0 as absorbing and fails; the tridiagonal
    # solve takes the rate itself as phase 0's exit and finds the chain at rest
    spec = ChainSpec(
        ChannelProfile(0.0, 1e-30, 1.0), Policy(0.0, 1.0), OperatingPoint(0.0, 0.0),
        pair="primary_relay", truncation=8,
    )
    with pytest.raises(np.linalg.LinAlgError):
        reference.solve_stationary(spec)
    sol = solve_stationary(spec)
    assert sol.p00 == 1.0 and sol.residual == 0.0


@pytest.mark.parametrize("block, entry, message", [
    (2, (0, 1), "while the primary queue is busy"),  # D serves the partner from phase 1
])
def test_solve_rejects_blocks_outside_its_structure(block, entry, message):
    blocks = [b.copy() for b in oracle._blocks(ChainSpec(CH, POL, PT, truncation=8))]
    blocks[block][entry] = 0.01
    with pytest.raises(ValueError, match=message):
        oracle._solve_levels(tuple(blocks))
