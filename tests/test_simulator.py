import math
import os
import signal
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simulator as reference
from points import at

from cogrelay import simulator
from cogrelay.model import ChannelProfile, OperatingPoint, Policy
from cogrelay.simulator import (
    _BLOCK,
    POLICY_KINDS,
    QueueOverflowError,
    Scenario,
    SimStats,
    _run,
    replicate,
    replicate_many,
    simulate,
)

CH = ChannelProfile(0.3, 0.8, 0.4)
POL = Policy(0.5, 1.0)
PT = OperatingPoint(0.1, 0.1)


def scenario(**overrides) -> Scenario:
    base = dict(
        channel=CH, point=PT, policy=POL, policy_kind="randomized",
        slots=50_000, warmup_slots=2_000, seed=42,
    )
    base.update(overrides)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(policy_kind="round_robin")
    with pytest.raises(ValueError):
        scenario(slots=100, warmup_slots=100)
    with pytest.raises(ValueError):
        scenario(warmup_slots=-1)


def test_determinism():
    assert simulate(scenario()) == simulate(scenario())
    assert replicate(scenario(), 3) == replicate(scenario(), 3)


@pytest.mark.parametrize("kind", ["randomized", "strict_priority_relay", "no_cooperation"])
def test_zero_arrivals(kind):
    stats = simulate(
        scenario(point=OperatingPoint(0.0, 0.0), policy_kind=kind, slots=10_000, warmup_slots=100)
    )
    assert stats.delivered_p == stats.delivered_s == stats.relayed_count == 0
    assert stats.arrivals_p == stats.arrivals_s == 0
    assert stats.frac_both_empty == 1.0
    assert stats.mean_delay_p == 0.0 and stats.mean_delay_s == 0.0


@pytest.mark.parametrize("kind", ["randomized", "strict_priority_relay", "no_cooperation"])
def test_conservation_per_origin(kind):
    stats = simulate(scenario(policy_kind=kind))
    assert stats.arrivals_p == stats.delivered_p + stats.backlog_p
    assert stats.arrivals_s == stats.delivered_s + stats.backlog_s


def test_replicate_of_one_equals_simulate():
    assert replicate(scenario(), 1) == simulate(scenario())


def test_replication_confidence_halfwidth():
    stats = replicate(scenario(slots=100_000, warmup_slots=5_000), 20)
    assert stats.ci_halfwidth_delay_p > 0.0
    assert stats.ci_halfwidth_delay_p / stats.mean_delay_p < 0.02
    assert stats.observed_slots == 20 * 95_000


def test_throughput_matches_arrival_rate_within_confidence():
    runs = [simulate(scenario(slots=100_000, warmup_slots=5_000, seed=s)) for s in range(6)]
    for rate, field in ((PT.lambda_p, "throughput_p"), (PT.lambda_s, "throughput_s")):
        values = [getattr(r, field) for r in runs]
        mean = sum(values) / len(values)
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        halfwidth = 1.96 * sd / math.sqrt(len(values))
        assert abs(mean - rate) <= 3.0 * halfwidth


def test_no_cooperation_equals_randomized_with_degenerate_policy():
    # no cooperation is the randomized policy at (p_q, p_a) = (1, 0), whatever policy it is given
    kwargs = dict(slots=80_000, warmup_slots=4_000, seed=11, point=OperatingPoint(0.1, 0.05))
    no_coop = simulate(scenario(policy_kind="no_cooperation", **kwargs))
    degenerate = simulate(scenario(policy=Policy(1.0, 0.0), **kwargs))
    assert no_coop == degenerate


def test_common_random_numbers_across_policies():
    # policy changes must not perturb the arrival draws
    a = simulate(scenario(policy=Policy(0.3, 1.0)))
    b = simulate(scenario(policy=Policy(0.9, 0.2)))
    assert a.arrivals_p == b.arrivals_p
    assert a.arrivals_s == b.arrivals_s


def test_wasted_slots_by_policy_kind():
    randomized = simulate(scenario(slots=100_000, warmup_slots=5_000))
    strict = simulate(scenario(policy_kind="strict_priority_relay", slots=100_000, warmup_slots=5_000))
    assert randomized.wasted_slots > 0
    assert strict.wasted_slots == 0


def test_no_cooperation_never_relays():
    stats = simulate(scenario(policy_kind="no_cooperation"))
    assert stats.relayed_count == 0
    assert stats.mean_len_sp == 0.0
    assert stats.wasted_slots == 0


def test_primary_empty_fraction_matches_analytics():
    stats = simulate(scenario(slots=300_000, warmup_slots=10_000))
    assert abs(stats.frac_primary_empty - at(CH, POL, PT).p_empty) < 0.01


@pytest.mark.parametrize(
    "point",
    [OperatingPoint(0.45, 0.3), OperatingPoint(0.2, 0.5)],  # outside the stable region
)
def test_unstable_points_exhibit_drift(point):
    stats = simulate(scenario(point=point, slots=60_000, warmup_slots=5_000, seed=3))
    finals = (stats.final_len_p, stats.final_len_sp, stats.final_len_s)
    means = (stats.mean_len_p, stats.mean_len_sp, stats.mean_len_s)
    assert any(f >= 20 and f > 1.5 * m for f, m in zip(finals, means))


def test_queue_cap_aborts_unstable_runs():
    with pytest.raises(QueueOverflowError):
        simulate(scenario(point=OperatingPoint(0.9, 0.9), slots=200_000, queue_cap=1_000))


def test_delay_floor_is_one_slot():
    stats = simulate(scenario())
    assert stats.mean_delay_p >= 1.0
    assert stats.mean_delay_s >= 1.0


def test_stats_are_plain_records():
    stats = simulate(scenario(slots=5_000, warmup_slots=100))
    assert isinstance(stats, SimStats)
    assert 0.0 <= stats.frac_both_empty <= stats.frac_primary_empty <= 1.0


def _outcome(pool, sc: Scenario, replications: int):
    try:
        return pool(sc, replications)
    except QueueOverflowError as exc:
        return str(exc)


@st.composite
def reference_cases(draw):
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    f_pd = draw(st.floats(0.0, 0.9))
    channel = ChannelProfile(f_pd, draw(st.floats(f_pd, 1.0, exclude_min=True)), draw(prob))
    rate = st.just(0.0) | st.floats(0.0, 0.7)  # reaches well past the stable region
    slots = draw(st.integers(2, 3 * _BLOCK))
    warmup = draw(
        st.just(0) | st.integers(0, slots - 1) | st.integers(min(_BLOCK, slots - 1), slots - 1)
    )
    sc = Scenario(
        channel, OperatingPoint(draw(rate), draw(rate)), Policy(draw(prob), draw(prob)),
        policy_kind=draw(st.sampled_from(POLICY_KINDS)), slots=slots, warmup_slots=warmup,
        seed=draw(st.integers(0, 2**32)),
        queue_cap=draw(st.just(10_000_000) | st.integers(1, 300)),
    )
    return sc, draw(st.integers(1, 3))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(reference_cases())
# with seed 1, a packet arriving in the first measured slot is relayed
@example((scenario(policy_kind="strict_priority_relay", point=OperatingPoint(0.1, 0.05),
                   slots=2 * _BLOCK + 5, warmup_slots=_BLOCK + 7, seed=1), 2))
@example((scenario(policy_kind="no_cooperation", slots=_BLOCK + 1, warmup_slots=0), 1))
# probabilities of 0 and 1, whose policy draws are skipped: the pick at p_q = 0
# and 1, the admission at p_a = 0 and 1, the decode at f_ps = 0 and 1 and
# wherever nothing is admitted
@example((scenario(policy=Policy(0.0, 1.0), channel=ChannelProfile(0.3, 0.8, 1.0),
                   slots=_BLOCK + 3, warmup_slots=0), 1))
@example((scenario(policy=Policy(1.0, 0.0), point=OperatingPoint(0.2, 0.3), slots=_BLOCK + 3,
                   warmup_slots=17), 2))
@example((scenario(policy=Policy(0.0, 0.0), channel=ChannelProfile(0.3, 0.8, 0.0), slots=5_000,
                   warmup_slots=0), 1))
# partial admission reads every decode
@example((scenario(policy=Policy(0.5, 0.5), slots=_BLOCK + 3, warmup_slots=0), 1))
@example((scenario(policy_kind="strict_priority_relay", channel=ChannelProfile(0.3, 0.8, 0.0),
                   slots=5_000, warmup_slots=0), 1))
@example((scenario(slots=3 * _BLOCK, warmup_slots=_BLOCK // 2), 3))
@example((scenario(point=OperatingPoint(0.5, 0.5), slots=3 * _BLOCK, queue_cap=40), 1))
def test_matches_slot_by_slot_reference(case):
    sc, replications = case
    assert _outcome(replicate, sc, replications) == _outcome(reference.replicate, sc, replications)


def _with_cpus(monkeypatch, cpus: int) -> None:
    # pool even the short batches of these tests
    monkeypatch.setattr(simulator, "_cpus", lambda: cpus)
    monkeypatch.setattr(simulator, "_POOL_MIN_SLOTS", 0)


def _assert_no_child() -> None:
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("replications", [1, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_replicate_many_equals_replicate_per_scenario(monkeypatch, cpus, replications):
    scenarios = [
        scenario(policy_kind=kind, slots=_BLOCK + 9_000, warmup_slots=_BLOCK + 1, seed=seed)
        for seed, kind in enumerate(POLICY_KINDS)
    ]
    _with_cpus(monkeypatch, 1)
    expected = [replicate(sc, replications) for sc in scenarios]
    _with_cpus(monkeypatch, cpus)
    assert replicate_many(scenarios, replications) == expected
    _assert_no_child()


def test_short_batch_runs_inline(monkeypatch):
    monkeypatch.setattr(simulator, "_cpus", lambda: 2)

    def no_fork():
        raise AssertionError("a batch below _POOL_MIN_SLOTS must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    batch = [scenario(seed=seed) for seed in (42, 43)]
    assert sum(sc.slots for sc in batch) * 2 < simulator._POOL_MIN_SLOTS
    assert replicate_many(batch, 2) == [replicate(sc, 2) for sc in batch]


def test_replicate_many_rejects_no_replications():
    with pytest.raises(ValueError, match="replications"):
        replicate_many([scenario()], 0)
    assert replicate_many([], 2) == []


def _overflowing_batch() -> list[Scenario]:
    """Four scenarios; the second one overflows its queue cap."""
    heavy = scenario(point=OperatingPoint(0.9, 0.9), slots=200_000, queue_cap=1_000)
    return [scenario(), heavy, scenario(seed=43), scenario(seed=44)]


def test_failing_batch_raises_what_the_inline_run_raises(monkeypatch):
    _with_cpus(monkeypatch, 1)
    with pytest.raises(QueueOverflowError) as inline:
        replicate_many(_overflowing_batch(), 2)
    for cpus in (2, 3):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(QueueOverflowError) as pooled:
            replicate_many(_overflowing_batch(), 2)
        assert type(pooled.value) is QueueOverflowError
        assert str(pooled.value) == str(inline.value)
        _assert_no_child()


def _interrupted_run(sc: Scenario, replication: int) -> SimStats:
    if sc.seed == 43:
        raise KeyboardInterrupt
    return _run(sc, replication)


def test_interrupted_batch_leaves_no_worker(monkeypatch):
    _with_cpus(monkeypatch, 2)
    monkeypatch.setattr(simulator, "_run", _interrupted_run)
    batch = [scenario(seed=seed) for seed in (42, 43, 44, 45)]
    with pytest.raises(KeyboardInterrupt):
        replicate_many(batch, 1)
    _assert_no_child()


def _dying_run(sc: Scenario, replication: int) -> SimStats:
    if sc.seed == 43:
        os._exit(3)
    return _run(sc, replication)


def test_worker_that_dies_without_reporting_fails_the_batch(monkeypatch):
    _with_cpus(monkeypatch, 2)
    monkeypatch.setattr(simulator, "_run", _dying_run)
    batch = [scenario(seed=seed) for seed in (42, 43, 44, 45)]
    with pytest.raises(RuntimeError, match="exit status 3"):
        replicate_many(batch, 1)
    _assert_no_child()


def _square_unless_listed(i: int, failing: frozenset) -> int:
    if i in failing:
        raise ValueError(i)
    return i * i


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_fork_map_returns_in_task_order_and_raises_the_first_failure(workers):
    tasks = [(i, frozenset()) for i in range(7)]
    assert simulator._fork_map(_square_unless_listed, tasks, workers) == [i * i for i in range(7)]
    _assert_no_child()
    # with two workers the second one stops at task 3, before the first one stops at 6
    tasks = [(i, frozenset({3, 6})) for i in range(7)]
    with pytest.raises(ValueError) as failed:
        simulator._fork_map(_square_unless_listed, tasks, workers)
    assert failed.value.args == (3,)
    assert "in _square_unless_listed" in str(failed.value.__cause__)  # the worker's traceback
    _assert_no_child()


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def test_ctrl_c_while_waiting_kills_every_worker():
    # the workers would sleep for a minute; Ctrl-C reaches the waiting process only
    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            simulator._fork_map(time.sleep, [(60,), (60,)], 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    _assert_no_child()
