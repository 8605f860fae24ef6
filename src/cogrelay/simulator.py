"""Slot-level stochastic execution of the cooperation protocol.

Per slot, in order:

1. If the primary queue is non-empty the PU transmits its head packet. The
   destination decodes with probability f_pd and the SU independently decodes
   with probability f_ps. Destination success removes the packet from the
   system; otherwise, if the SU decoded it and the admission draw (p_a)
   succeeds, the packet moves to the tail of the relay queue, keeping its
   identity (its original arrival slot); otherwise it stays at the head of the
   primary queue.
2. If the primary queue is empty the SU acts. Under the ``randomized`` policy
   it serves its own queue with probability p_q, else the relay queue; if the
   selected queue is empty the slot is wasted even when the other queue has
   packets (the policy is not work-conserving). Under
   ``strict_priority_relay`` it serves the relay queue whenever non-empty
   (admission forced to 1), else its own queue. ``no_cooperation`` is the
   randomized policy at (p_q, p_a) = (1, 0). A selected head packet reaches
   the destination with probability f_sd.
3. Bernoulli arrivals are appended at the end of the slot and are first
   eligible for service in the next slot. A packet delivered at its first
   opportunity therefore has delay 1 (delivery slot minus arrival slot), which
   reproduces the 1/mu limit of the closed-form delay as the load vanishes.

Each of the seven random draws per slot (destination outcome, SU decode,
admission, queue pick, SU-destination outcome, two arrivals) comes from its
own substream of the seeded generator and is indexed by slot number, so
changing the policy or a single parameter does not perturb unrelated draws
(common random numbers across comparisons). A draw is skipped where
``random() < p`` is constant (p = 0 or 1) or never read (the decode without
admission, the pick under strict priority); every other draw is unchanged.

Slots are evaluated ``_BLOCK`` at a time. Each FIFO queue gets at most one
arrival a[t] and one service chance s[t] per slot, so its start-of-slot
lengths obey the Lindley recursion Q[t+1] = max(Q[t] - s[t], 0) + a[t], which
a running sum and a running minimum solve per block. The primary queue does
not depend on the SU: it fixes the idle slots and the relay queue's arrivals.
The k-th departure of a queue is its k-th packet in arrival order, which gives
every delay. Results equal those of the slot-by-slot loop kept in the tests.

Queue lengths and emptiness are sampled at the start of each post-warmup
slot; per-packet statistics cover packets arriving after warmup. Replications
derive per-replication substreams deterministically from the scenario seed,
independent of execution order.

:func:`replicate_many` runs a batch of scenarios as one list of (scenario,
replication) runs. On Linux, with at least two runs, at least two CPUs in the
process's affinity mask and at least ``_POOL_MIN_SLOTS`` slots in all, the
runs go to forked workers, one per CPU up to one per run, while the calling
process only waits for their results; otherwise they run inline, one after
another. A worker inherits the imported modules and imports ``numpy.random``
itself, so a pooled batch costs about 35 ms more than its runs rather than an
interpreter start per worker. Since a run's draws depend only on its (seed,
replication), the results are the same at any worker count and in any
completion order; ``taskset -c 0`` gives an inline run.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import statistics
import sys
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Any, BinaryIO, NoReturn

import numpy as np

from .model import NO_COOPERATION, ChannelProfile, OperatingPoint, Policy

__all__ = [
    "POLICY_KINDS",
    "QueueOverflowError",
    "Scenario",
    "SimStats",
    "simulate",
    "replicate",
    "replicate_many",
]

POLICY_KINDS = ("randomized", "strict_priority_relay", "no_cooperation")

_BLOCK = 1 << 16
_N_STREAMS = 7
#: Total slots below which a batch runs inline. A pooled batch costs about
#: 35 ms beyond its runs: the fork, each worker's ~25 ms ``numpy.random``
#: import (in parallel), pickling and reaping. That is about 4e5 slots at
#: ~1.2e7 slots/s, and two workers save at most half the batch's time, so a
#: shorter batch is slower pooled.
_POOL_MIN_SLOTS = 800_000


class QueueOverflowError(RuntimeError):
    """A queue grew past the configured cap; the scenario is far outside its stable region."""


def _pooled(rule: str, source: str | None = None) -> Any:
    """A :class:`SimStats` field that :func:`replicate_many` pools by ``rule``: the
    "mean" or the "sum" of the per-replication values, or the "ci" half-width
    of the per-replication values of the ``source`` field."""
    return field(metadata={"pool": rule, "source": source})


@dataclass(frozen=True)
class Scenario:
    """One simulation run specification. The cap only exists to fail fast on unstable setups."""

    channel: ChannelProfile
    point: OperatingPoint
    policy: Policy
    policy_kind: str = "randomized"
    slots: int = 1_000_000
    warmup_slots: int = 10_000
    seed: int = 0
    queue_cap: int = 10_000_000

    def __post_init__(self) -> None:
        if self.policy_kind not in POLICY_KINDS:
            raise ValueError(f"policy_kind must be one of {POLICY_KINDS}, got {self.policy_kind!r}")
        if not (self.slots > self.warmup_slots >= 0):
            raise ValueError(
                f"need slots > warmup_slots >= 0, got slots={self.slots}, warmup={self.warmup_slots}"
            )
        if self.queue_cap <= 0:
            raise ValueError("queue_cap must be positive")


@dataclass(frozen=True)
class SimStats:
    """Empirical run statistics.

    Per-packet fields (throughputs, delays, delivered/arrival counts, backlog)
    cover packets arriving after warmup; time averages (queue lengths,
    emptiness fractions, wasted slots) cover post-warmup slots. ``backlog_*``
    counts tracked packets still enqueued at the horizon, so per origin
    arrivals == delivered + backlog exactly. ``wasted_slots`` counts PU-idle
    slots where the selected queue was empty while the other was not.
    Confidence half-widths are zero for a single run and 95% normal-approximation
    half-widths across replications for pooled stats.
    """

    throughput_p: float = _pooled("mean")
    throughput_s: float = _pooled("mean")
    mean_delay_p: float = _pooled("mean")
    mean_delay_s: float = _pooled("mean")
    mean_len_p: float = _pooled("mean")
    mean_len_sp: float = _pooled("mean")
    mean_len_s: float = _pooled("mean")
    frac_both_empty: float = _pooled("mean")
    frac_primary_empty: float = _pooled("mean")
    delivered_p: int = _pooled("sum")
    delivered_s: int = _pooled("sum")
    relayed_count: int = _pooled("sum")
    ci_halfwidth_delay_p: float = _pooled("ci", "mean_delay_p")
    ci_halfwidth_delay_s: float = _pooled("ci", "mean_delay_s")
    arrivals_p: int = _pooled("sum")
    arrivals_s: int = _pooled("sum")
    wasted_slots: int = _pooled("sum")
    backlog_p: int = _pooled("sum")
    backlog_s: int = _pooled("sum")
    final_len_p: float = _pooled("mean")
    final_len_sp: float = _pooled("mean")
    final_len_s: float = _pooled("mean")
    observed_slots: int = _pooled("sum")


def _stream_rngs(seed: int, replication: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return [np.random.default_rng(child) for child in root.spawn(_N_STREAMS)]


def _lindley(q0: int, arrive: np.ndarray, serve: np.ndarray, lengths: np.ndarray,
             work: np.ndarray) -> int:
    """Solve Q[t+1] = max(Q[t] - serve[t], 0) + arrive[t] from Q[0] = q0 over one block.

    With R the running sum of arrive - serve and M the running minimum of
    R - arrive, Q[t+1] = R[t] + max(q0, -M[t]). Writes Q[0..n-1] into the
    int32 ``lengths``, overwrites the int32 ``work`` and returns Q[n].
    """
    lengths[:] = arrive
    lengths -= serve
    np.cumsum(lengths, dtype=np.int32, out=lengths)
    np.subtract(lengths, arrive, out=work)
    np.minimum.accumulate(work, out=work)
    np.negative(work, out=work)
    np.maximum(work, q0, out=work)
    work += lengths
    lengths[0] = q0
    lengths[1:] = work[:-1]
    return int(work[-1])


def _fifo(queued: np.ndarray, arrivals: np.ndarray, leave: np.ndarray,
          start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serve a queue holding ``queued`` then ``arrivals`` (arrival slots, head first) in the
    ``leave`` slots of the block at ``start``: (departed arrival slots, departure slots, rest)."""
    left_at = np.flatnonzero(leave) + start
    queue = np.concatenate((queued, arrivals))
    return queue[:left_at.size], left_at, queue[left_at.size:]


def _deliver(arrived: np.ndarray, left_at: np.ndarray, warmup: int, totals: list[int]) -> None:
    """Add the count and total delay of the delivered packets that arrived after warmup."""
    keep = arrived >= warmup
    totals[0] += int(np.count_nonzero(keep))
    totals[1] += int((left_at[keep] - arrived[keep]).sum())


def _draw(rng: np.random.Generator, n: int, p: float) -> np.ndarray | np.bool_:
    """n Bernoulli(p) outcomes, or their constant value at p = 0 or 1 without a draw."""
    return rng.random(n) < p if 0.0 < p < 1.0 else np.bool_(p == 1.0)


def _run(sc: Scenario, replication: int) -> SimStats:
    ch, pt = sc.channel, sc.point
    pol = NO_COOPERATION if sc.policy_kind == "no_cooperation" else sc.policy
    strict = sc.policy_kind == "strict_priority_relay"
    p_admit = 1.0 if strict else pol.p_a  # strict priority admits every decoded packet

    rng_dest, rng_decode, rng_admit, rng_pick, rng_su, rng_ap, rng_as = _stream_rngs(
        sc.seed, replication
    )
    warmup, slots, cap = sc.warmup_slots, sc.slots, sc.queue_cap

    # per queue, the length and the arrival slots of the packets carried across
    # blocks; relayed packets keep their primary arrival slot
    len_p = len_sp = len_s = 0
    queued_p = queued_sp = queued_s = np.empty(0, dtype=np.int64)
    buf_p, buf_sp, buf_s, buf_tmp = (np.empty(_BLOCK, dtype=np.int32) for _ in range(4))

    sum_lp = sum_lsp = sum_ls = 0
    n_empty_p = n_empty_both = wasted = 0
    arrivals_p = arrivals_s = relayed = 0
    done_p, done_s = [0, 0], [0, 0]  # delivered packets and their total delay

    for start in range(0, slots, _BLOCK):
        n = min(_BLOCK, slots - start)
        dest = rng_dest.random(n) < ch.f_pd
        decode = _draw(rng_decode, n, ch.f_ps if p_admit else 0.0)
        admit = _draw(rng_admit, n, p_admit)
        pick = np.True_ if strict else _draw(rng_pick, n, pol.p_q)
        su = rng_su.random(n) < ch.f_sd
        arr_p = rng_ap.random(n) < pt.lambda_p
        arr_s = rng_as.random(n) < pt.lambda_s
        lp, lsp, ls, tmp = buf_p[:n], buf_sp[:n], buf_s[:n], buf_tmp[:n]

        # the primary head leaves on destination success or on relay admission
        leave_p = dest | (decode & admit)
        len_p = _lindley(len_p, arr_p, leave_p, lp, tmp)
        idle = lp == 0
        leave_p &= ~idle
        left, left_at, queued_p = _fifo(queued_p, np.flatnonzero(arr_p) + start, leave_p, start)
        direct = dest[leave_p]
        _deliver(left[direct], left_at[direct], warmup, done_p)
        into_relay = left[~direct]
        relayed += int(np.count_nonzero(into_relay >= warmup))

        # in idle slots the SU serves the queue it selects
        leave_p &= ~dest
        transmit = idle & su
        leave_sp = transmit if strict else transmit & ~pick
        len_sp = _lindley(len_sp, leave_p, leave_sp, lsp, tmp)
        empty_sp = lsp == 0
        own = empty_sp if strict else pick
        leave_s = transmit & own
        len_s = _lindley(len_s, arr_s, leave_s, ls, tmp)
        empty_s = ls == 0

        leave_sp &= ~empty_sp
        left, left_at, queued_sp = _fifo(queued_sp, into_relay, leave_sp, start)
        _deliver(left, left_at, warmup, done_p)
        leave_s &= ~empty_s
        left, left_at, queued_s = _fifo(queued_s, np.flatnonzero(arr_s) + start, leave_s, start)
        _deliver(left, left_at, warmup, done_s)

        # a wasted slot selects the empty one of an empty and a non-empty queue
        wasted_now = idle & (own == empty_s) & (empty_s != empty_sp)
        first = min(max(warmup - start, 0), n)  # first measured slot
        sum_lp += int(lp[first:].sum())
        sum_lsp += int(lsp[first:].sum())
        sum_ls += int(ls[first:].sum())
        n_empty_p += int(np.count_nonzero(idle[first:]))
        n_empty_both += int(np.count_nonzero((idle & empty_s)[first:]))
        wasted += int(np.count_nonzero(wasted_now[first:]))
        arrivals_p += int(np.count_nonzero(arr_p[first:]))
        arrivals_s += int(np.count_nonzero(arr_s[first:]))

        if len_p > cap or len_sp > cap or len_s > cap:
            raise QueueOverflowError(
                f"queue exceeded cap {cap} at slot {start + n}; the configuration is unstable "
                f"(len_p={len_p}, len_sp={len_sp}, len_s={len_s})"
            )

    observed = slots - warmup
    (delivered_p, delay_sum_p), (delivered_s, delay_sum_s) = done_p, done_s
    backlog_p = int(np.count_nonzero(queued_p >= warmup) + np.count_nonzero(queued_sp >= warmup))
    backlog_s = int(np.count_nonzero(queued_s >= warmup))
    return SimStats(
        throughput_p=delivered_p / observed,
        throughput_s=delivered_s / observed,
        mean_delay_p=delay_sum_p / delivered_p if delivered_p else 0.0,
        mean_delay_s=delay_sum_s / delivered_s if delivered_s else 0.0,
        mean_len_p=sum_lp / observed,
        mean_len_sp=sum_lsp / observed,
        mean_len_s=sum_ls / observed,
        frac_both_empty=n_empty_both / observed,
        frac_primary_empty=n_empty_p / observed,
        delivered_p=delivered_p,
        delivered_s=delivered_s,
        relayed_count=relayed,
        ci_halfwidth_delay_p=0.0,
        ci_halfwidth_delay_s=0.0,
        arrivals_p=arrivals_p,
        arrivals_s=arrivals_s,
        wasted_slots=wasted,
        backlog_p=backlog_p,
        backlog_s=backlog_s,
        final_len_p=float(len_p),
        final_len_sp=float(len_sp),
        final_len_s=float(len_s),
        observed_slots=observed,
    )


def simulate(sc: Scenario) -> SimStats:
    """Run one deterministic simulation of the scenario."""
    return _run(sc, 0)


def replicate(sc: Scenario, replications: int) -> SimStats:
    """Pool independent replications of the scenario: :func:`replicate_many` of one."""
    return replicate_many([sc], replications)[0]


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 off Linux, where the pool is not used."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _fork_map(fn: Callable[..., Any], tasks: Sequence[tuple], workers: int) -> list[Any]:
    """``[fn(*task) for task in tasks]``, computed by ``workers`` forked children.

    Child k runs tasks k, k + workers, ... in order until one raises, and
    sends its results and that exception back through its own pipe. This
    process only waits: it raises the exception of the first failing task in
    task order, as a loop would, with the child's traceback as its cause, or a
    RuntimeError naming the exit status of a child that ended without
    reporting. On any exception, Ctrl-C included, it kills and reaps every
    child it has not reaped.
    """
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe) until reaped
    with ExitStack() as pipes:
        try:
            for k in range(workers):
                read, write = os.pipe()
                reader = pipes.enter_context(open(read, "rb"))
                with open(write, "wb") as writer:
                    # SIGINT stays blocked over the fork: this process takes it once the
                    # child is on the list to kill, and the child drops it
                    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _fork_child(fn, tasks[k::workers], writer, mask)
                        children.append((pid, reader))
                    finally:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            reports = []
            while children:
                pid, reader = children[0]
                report = reader.read()  # drained before the child is reaped
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                if status:
                    code = os.waitstatus_to_exitcode(status)
                    how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                    raise RuntimeError(f"a batch worker ended with {how} without reporting its runs")
                reports.append(pickle.loads(report))
        except BaseException:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
    # child k stopped at task k + len(results) * workers
    failures = [(k + len(results) * workers, error)
                for k, (results, error) in enumerate(reports) if error is not None]
    if failures:
        error, trace = min(failures)[1]
        raise error from RuntimeError(f"raised in a batch worker:\n{trace}")
    outputs: list[Any] = [None] * len(tasks)
    for k, (results, _) in enumerate(reports):
        outputs[k::workers] = results
    return outputs


def _fork_child(fn: Callable[..., Any], tasks: Sequence[tuple], writer: BinaryIO,
                mask: set[signal.Signals]) -> NoReturn:
    """Run ``tasks`` in a forked child, write (results, None or the exception that
    stopped them with its traceback) to ``writer`` and leave by ``os._exit``, so that
    the child never runs its parent's cleanup or flushes its parent's buffers. The
    child ignores SIGINT: its parent takes Ctrl-C."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results, error = [], None
        try:
            for task in tasks:
                results.append(fn(*task))
        except BaseException as exc:  # the parent raises it
            import traceback

            error = exc, traceback.format_exc()
        pickle.dump((results, error), writer)
        writer.flush()
        status = 0
    finally:
        os._exit(status)


def replicate_many(scenarios: Sequence[Scenario], replications: int) -> list[SimStats]:
    """Pool independent replications of each scenario, in the order given.

    Replication i uses substreams derived from (seed, i); replication 0 is
    exactly :func:`simulate`. Means are averaged with equal weights, counts
    are summed, and delay confidence half-widths are 1.96 * stderr of the
    per-replication delay means. The runs are spread over the CPUs (see the
    module docstring); a failing batch raises what its first failing run
    raises, as a run-by-run loop would.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    tasks = [(sc, r) for sc in scenarios for r in range(replications)]
    workers = min(len(tasks), _cpus())
    if workers < 2 or sum(sc.slots for sc, _ in tasks) < _POOL_MIN_SLOTS:
        runs = [_run(sc, r) for sc, r in tasks]
    else:
        runs = _fork_map(_run, tasks, workers)
    return [_pool_replications(runs[i:i + replications]) for i in range(0, len(runs), replications)]


def _pool_replications(runs: list[SimStats]) -> SimStats:
    if len(runs) == 1:
        return runs[0]
    pooled: dict[str, float | int] = {}
    for f in fields(SimStats):
        rule = f.metadata["pool"]
        values = [getattr(r, f.metadata["source"] if rule == "ci" else f.name) for r in runs]
        if rule == "ci":
            pooled[f.name] = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
        elif rule == "mean":
            pooled[f.name] = statistics.fmean(values)
        else:
            pooled[f.name] = sum(values)
    return SimStats(**pooled)
