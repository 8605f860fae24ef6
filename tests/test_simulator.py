import math
import os
import statistics
import signal
import time
from dataclasses import astuple, fields
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simulator as reference
from points import at

from cogrelay import oracle, simulator
from cogrelay.model import NO_COOPERATION, STRICT_PRIORITY, ChannelProfile, OperatingPoint, Policy
from cogrelay.oracle import CHAIN_PAIRS, ChainSpec
from cogrelay.simulator import (
    _BLOCK,
    POLICY_KINDS,
    QUEUE_CAP,
    QueueOverflowError,
    Scenario,
    SimStats,
    _lindley,
    _run,
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


def _replicate(sc: Scenario, replications: int) -> SimStats:
    """The pooled replications of one scenario."""
    return replicate_many([sc], replications)[0]


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(policy_kind="round_robin")
    with pytest.raises(ValueError):
        scenario(slots=100, warmup_slots=100)
    with pytest.raises(ValueError):
        scenario(warmup_slots=-1)
    # refused when built: numpy would refuse it only once the run starts, in a forked worker
    # for a pooled batch, with a message that does not name the seed
    with pytest.raises(ValueError, match=r"^need seed >= 0, got seed=-1$"):
        scenario(seed=-1)


def test_determinism():
    assert simulate(scenario()) == simulate(scenario())
    assert _replicate(scenario(), 3) == _replicate(scenario(), 3)


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
    assert _replicate(scenario(), 1) == simulate(scenario())


def test_replication_confidence_halfwidth():
    stats = _replicate(scenario(slots=100_000, warmup_slots=5_000), 20)
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


#: The SimStats fields of the SU's own queue: the only ones that strict priority's fallback moves.
OWN_QUEUE_FIELDS = {"throughput_s", "mean_delay_s", "mean_len_s", "frac_both_empty", "delivered_s",
                    "wasted_slots", "backlog_s", "final_len_s"}


@pytest.mark.parametrize("policy", [Policy(0.3, 0.6), NO_COOPERATION, STRICT_PRIORITY])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strict_priority_is_its_policy_plus_the_own_queue_fallback(policy, seed):
    # strict priority runs STRICT_PRIORITY whatever its scenario's policy, and the randomized run at that
    # policy never serves its own queue: 10^5 slots at lambda_s = 0.05 leave about 5000 packets there
    point = OperatingPoint(0.15, 0.05)
    strict = simulate(Scenario(CH, point, policy, policy_kind="strict_priority_relay", slots=100_000, seed=seed))
    randomized = simulate(Scenario(CH, point, STRICT_PRIORITY, slots=100_000, seed=seed))
    differ = {f.name for f in fields(SimStats) if getattr(strict, f.name) != getattr(randomized, f.name)}
    assert differ == OWN_QUEUE_FIELDS
    assert strict.wasted_slots == 0 and randomized.delivered_s == 0


def test_a_queue_never_served_after_warmup_delivers_nothing():
    # the randomized run at STRICT_PRIORITY never serves the own queue, which holds about 500 packets
    # at warmup and never empties after it: no packet leaves, and the FIFO backlog is every packet
    # that arrived after warmup, fewer than the queue holds
    stats = simulate(Scenario(CH, OperatingPoint(0.15, 0.05), STRICT_PRIORITY, slots=100_000, seed=1))
    assert stats.delivered_s == 0 and stats.throughput_s == 0.0
    assert stats.backlog_s == stats.arrivals_s < stats.final_len_s
    # an origin that delivers nothing reads delay 0, while the PU's window is unaffected
    assert stats.mean_delay_s == 0.0 and stats.mean_delay_p >= 1.0


@pytest.mark.parametrize("warmup", [5_000, 59_000])
def test_a_primary_that_never_empties_after_warmup_keeps_its_counts(warmup):
    # at (0.45, 0.3) the relay queue drifts up from the start, so the PU's queues are never empty
    # together after warmup: its delay is nan, as no packet crossed a complete cycle, while every
    # count is the packets' own; at the late warmup most of the packets left at the horizon
    # arrived before it, and some of those that arrived after it left
    sc = scenario(point=OperatingPoint(0.45, 0.3), slots=60_000, warmup_slots=warmup, seed=3)
    stats, packets = simulate(sc), reference.run(sc, 0)
    assert stats.final_len_sp > 1_000 and stats.delivered_p > 0
    assert math.isnan(stats.mean_delay_p)
    counts = [f.name for f in fields(SimStats) if f.type == "int"]
    assert [getattr(stats, name) for name in counts] == [getattr(packets, name) for name in counts]


def test_a_replication_without_a_window_leaves_its_pooled_delay_unmeasured():
    # lambda_p = 0.35 is just past the primary's bound, 0.341: with seed 4, replication 0 of this
    # short run sees the PU's queues empty after warmup and replication 1 does not, though both
    # deliver. The pooled PU delay and its half-width are nan, neither a mean that leaves the
    # unmeasured run out nor one that counts it as 0, and the counts still sum
    sc = scenario(point=OperatingPoint(0.35, 0.1), slots=5_000, warmup_slots=1_000, seed=4)
    runs = [_run(sc, r) for r in range(2)]
    assert runs[1].delivered_p > 0 and not math.isnan(runs[0].mean_delay_p) and math.isnan(runs[1].mean_delay_p)
    pooled = _replicate(sc, 2)
    assert math.isnan(pooled.mean_delay_p) and math.isnan(pooled.ci_halfwidth_delay_p)
    assert pooled.mean_delay_s == statistics.fmean(run.mean_delay_s for run in runs)
    assert pooled.delivered_p == runs[0].delivered_p + runs[1].delivered_p


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


def test_queue_cap_aborts_unstable_runs(monkeypatch):
    monkeypatch.setattr(simulator, "QUEUE_CAP", 1_000)
    with pytest.raises(QueueOverflowError):
        simulate(scenario(point=OperatingPoint(0.9, 0.9), slots=200_000))


def test_delay_floor_is_one_slot():
    stats = simulate(scenario())
    assert stats.mean_delay_p >= 1.0
    assert stats.mean_delay_s >= 1.0


def test_stats_are_plain_records():
    stats = simulate(scenario(slots=5_000, warmup_slots=100))
    assert isinstance(stats, SimStats)
    assert 0.0 <= stats.frac_both_empty <= stats.frac_primary_empty <= 1.0


def _outcome(pool, sc: Scenario, replications: int):
    """The pooled stats by field, a delay no packet measured as "nan" so that it compares equal, or
    the overflow message."""
    try:
        stats = pool(sc, replications)
    except QueueOverflowError as exc:
        return str(exc)
    return {f.name: "nan" if value != value else value
            for f, value in zip(fields(SimStats), astuple(stats))}


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
    )
    cap = draw(st.just(QUEUE_CAP) | st.integers(1, 300))
    return sc, draw(st.integers(1, 3)), cap


@settings(max_examples=25, deadline=None, derandomize=True)
@given(reference_cases())
# with seed 1, a packet arriving in the first measured slot is relayed
@example((scenario(policy_kind="strict_priority_relay", point=OperatingPoint(0.1, 0.05),
                   slots=2 * _BLOCK + 5, warmup_slots=_BLOCK + 7, seed=1), 2, QUEUE_CAP))
@example((scenario(policy_kind="no_cooperation", slots=_BLOCK + 1, warmup_slots=0), 1, QUEUE_CAP))
# probabilities of 0 and 1, whose policy draws are skipped: the pick at p_q = 0
# and 1, the admission at p_a = 0 and 1, the decode at f_ps = 0 and 1 and
# wherever nothing is admitted
@example((scenario(policy=Policy(0.0, 1.0), channel=ChannelProfile(0.3, 0.8, 1.0),
                   slots=_BLOCK + 3, warmup_slots=0), 1, QUEUE_CAP))
@example((scenario(policy=Policy(1.0, 0.0), point=OperatingPoint(0.2, 0.3), slots=_BLOCK + 3,
                   warmup_slots=17), 2, QUEUE_CAP))
@example((scenario(policy=Policy(0.0, 0.0), channel=ChannelProfile(0.3, 0.8, 0.0), slots=5_000,
                   warmup_slots=0), 1, QUEUE_CAP))
# partial admission reads every decode
@example((scenario(policy=Policy(0.5, 0.5), slots=_BLOCK + 3, warmup_slots=0), 1, QUEUE_CAP))
@example((scenario(policy_kind="strict_priority_relay", channel=ChannelProfile(0.3, 0.8, 0.0),
                   slots=5_000, warmup_slots=0), 1, QUEUE_CAP))
@example((scenario(slots=3 * _BLOCK, warmup_slots=_BLOCK // 2), 3, QUEUE_CAP))
# with seed 1 the relay queue serves packets from before and after a warmup inside the
# second block, and the last block is one slot long
@example((scenario(policy=Policy(0.7, 1.0), point=OperatingPoint(0.2, 0.1), slots=2 * _BLOCK + 1,
                   warmup_slots=_BLOCK + 30_000, seed=1), 2, QUEUE_CAP))
@example((scenario(point=OperatingPoint(0.5, 0.5), slots=3 * _BLOCK), 1, 40))
# the PU's queues never empty together after warmup, and at the late warmup packets from before
# it, still queued, hide some from after it that left
@example((scenario(point=OperatingPoint(0.45, 0.3), slots=60_000, warmup_slots=5_000, seed=3), 1, QUEUE_CAP))
@example((scenario(point=OperatingPoint(0.45, 0.3), slots=60_000, warmup_slots=59_000, seed=3), 1, QUEUE_CAP))
# the primary queue holds about 10^4 packets at warmup and serves them over parts of three blocks
@example((scenario(channel=ChannelProfile(0.05, 0.8, 0.1), point=OperatingPoint(0.3, 0.05), slots=3 * _BLOCK,
                   warmup_slots=65_000, seed=9), 1, QUEUE_CAP))
def test_matches_slot_by_slot_reference(case):
    sc, replications, cap = case
    with pytest.MonkeyPatch.context() as patch:  # both sides read the simulator's cap
        patch.setattr(simulator, "QUEUE_CAP", cap)
        assert _outcome(_replicate, sc, replications) == _outcome(reference.replicate, sc, replications)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, _BLOCK) | st.integers(1, 40),
    st.integers(0, QUEUE_CAP) | st.integers(0, 5),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
def test_lindley_solves_the_recursion_slot_by_slot(n, q0, p_arrive, p_serve, seed):
    rng = np.random.default_rng(seed)
    arrive, serve = rng.random(n) < p_arrive, rng.random(n) < p_serve
    lengths = np.full(n + 1, -7, dtype=np.int32)  # written over, like the work buffer
    work = np.full(n, 7, dtype=np.int32)
    expected = list(accumulate(zip(arrive.tolist(), serve.tolist()),
                               lambda q, step: max(q - step[1], 0) + step[0], initial=q0))
    assert _lindley(q0, arrive, serve, lengths, work) == expected[-1]
    assert lengths.tolist() == expected


def _paths(sc: Scenario, relay_fault: bool = False) -> dict[str, np.ndarray]:
    """The Q_p, Q_sp and Q_s paths of a run, at the start of every slot and after the last, from its
    ``_lindley`` calls: each block solves Q_p, then Q_sp, then Q_s. ``relay_fault`` plants a fault in the
    simulator: the relay queue also departs in the slots where the primary queue is busy."""
    lindley, blocks = simulator._lindley, []

    def spy(q0, arrive, serve, lengths, work):
        if relay_fault and len(blocks) % 3 == 1:
            serve = serve | (blocks[-1][:-1] != 0)
        q = lindley(q0, arrive, serve, lengths, work)
        blocks.append(lengths.copy())
        return q

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_lindley", spy)
        simulate(sc)
    paths = {}
    for k, name in enumerate(("Q_p", "Q_sp", "Q_s")):
        own = blocks[k::3]
        paths[name] = np.concatenate([block[:-1] for block in own] + [own[-1][-1:]])
    return paths


def _forbidden(spec: ChainSpec, phase: np.ndarray, level: np.ndarray) -> set[tuple[int, int, int, int]]:
    """The one-slot transitions of a (phase, level) path to which the oracle's kernel for ``spec`` gives
    probability 0, each as (phase, level class: 0 or above, phase step, level step)."""
    T = int(phase.max()) + 2  # no visited phase is the edge, where up-moves stay put
    L0, Up0, D, L, Up = oracle._blocks(spec, T)
    # by level class, level step + 1, phase step + 1 and phase; level 0 has no step down
    kernel = np.stack([[np.zeros((3, T)), L0, Up0], [D, L, Up]])
    i, above = phase[:-1], (level[:-1] > 0).astype(int)
    di, dj = np.diff(phase), np.diff(level)
    moves = (np.abs(di) <= 1) & (np.abs(dj) <= 1)
    prob = np.zeros(i.size)
    prob[moves] = kernel[above[moves], dj[moves] + 1, di[moves] + 1, i[moves]]
    bad = prob <= 0.0
    return set(zip(i[bad].tolist(), above[bad].tolist(), di[bad].tolist(), dj[bad].tolist()))


#: The pairs whose chain each policy kind runs: strict priority's primary and relay queues are those of its
#: policy, and no cooperation is its policy.
KERNEL_CASES = [
    ("randomized", Policy(0.3, 0.6), CHAIN_PAIRS),
    ("randomized", Policy(0.5, 1.0), CHAIN_PAIRS),
    ("no_cooperation", NO_COOPERATION, CHAIN_PAIRS),
    ("strict_priority_relay", STRICT_PRIORITY, ("primary_relay",)),
]


@pytest.mark.parametrize("point", [OperatingPoint(0.15, 0.05), OperatingPoint(0.1, 0.1)])
@pytest.mark.parametrize("kind,policy,pairs", KERNEL_CASES)
def test_every_simulated_transition_has_positive_kernel_probability(kind, policy, pairs, point):
    paths = _paths(Scenario(CH, point, policy, policy_kind=kind, slots=100_000, seed=1))
    for pair in pairs:
        partner = paths["Q_s" if pair == "primary_secondary" else "Q_sp"]
        # levels above 0 are visited too, except by a relay queue that admits nothing
        assert partner.max() > 0 or (pair == "primary_relay" and policy.p_a == 0.0)
        assert _forbidden(ChainSpec(CH, policy, point, pair=pair), paths["Q_p"], partner) == set(), pair


def test_kernel_support_catches_a_relay_departure_while_the_primary_is_busy():
    # D is 0 off phase 0: the relay queue only departs in slots where the primary queue is empty
    point, policy = OperatingPoint(0.15, 0.05), Policy(0.3, 0.6)
    paths = _paths(Scenario(CH, point, policy, slots=100_000, seed=1), relay_fault=True)
    forbidden = _forbidden(ChainSpec(CH, policy, point, pair="primary_relay"), paths["Q_p"], paths["Q_sp"])
    assert forbidden and all(phase > 0 and step == -1 for phase, _, _, step in forbidden), forbidden


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
    expected = [_replicate(sc, replications) for sc in scenarios]
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
    assert replicate_many(batch, 2) == [_replicate(sc, 2) for sc in batch]


def test_replicate_many_rejects_no_replications():
    with pytest.raises(ValueError, match="replications"):
        replicate_many([scenario()], 0)
    assert replicate_many([], 2) == []


def _overflowing_batch() -> list[Scenario]:
    """Four scenarios; the second one overflows a queue cap of 1000."""
    heavy = scenario(point=OperatingPoint(0.9, 0.9), slots=200_000)
    return [scenario(), heavy, scenario(seed=43), scenario(seed=44)]


def test_failing_batch_raises_what_the_inline_run_raises(monkeypatch):
    monkeypatch.setattr(simulator, "QUEUE_CAP", 1_000)  # forked workers inherit it
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


def test_fork_map_runs_worker_k_on_cpu_k_of_the_affinity_mask():
    cpus = sorted(os.sched_getaffinity(0))
    placed = simulator._fork_map(os.sched_getaffinity, [(0,)] * 3, 3)
    assert placed == [{cpus[k % len(cpus)]} for k in range(3)]
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
