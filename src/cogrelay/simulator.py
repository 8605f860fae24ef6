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
   packets (the policy is not work-conserving). ``no_cooperation`` runs the
   policy (p_q, p_a) = (1, 0) and ``strict_priority_relay`` the policy (0, 1)
   plus one fallback rule: a slot whose relay queue is empty serves the own
   queue. A selected head packet reaches the destination with probability
   f_sd.
3. Bernoulli arrivals are appended at the end of the slot and are first
   eligible for service in the next slot. A packet delivered at its first
   opportunity therefore has delay 1 (delivery slot minus arrival slot), which
   reproduces the 1/mu limit of the closed-form delay as the load vanishes.

Each of the seven random draws per slot (destination outcome, SU decode,
admission, queue pick, SU-destination outcome, two arrivals) comes from its
own substream of the seeded generator and is indexed by slot number, so
changing the policy or a single parameter does not perturb unrelated draws
(common random numbers across comparisons). A draw is skipped where
``random() < p`` is constant (p = 0 or 1, as the pick under strict priority
is) or never read (the decode without admission); every other draw is
unchanged.

Slots are evaluated ``_BLOCK`` at a time. Each FIFO queue gets at most one
arrival a[t] and one service chance s[t] per slot, so its start-of-slot
lengths obey the Lindley recursion Q[t+1] = max(Q[t] - s[t], 0) + a[t], which
a running sum and a running minimum solve per block. The primary queue does
not depend on the SU: it fixes the idle slots and the relay queue's arrivals.
No packet is followed: a packet is in its origin's queues at the start of
each slot after its arrival up to its delivery, so where an origin's queues
start and end a stretch of slots empty, the delays of its packets arriving
in it sum to its lengths over it (Little's law on a sample path; Stidham,
Oper. Res. 22(2), 1974). Results equal those of the per-packet loop kept in
the tests. :class:`SimStats` gives the slots and packets each field covers.
Replication i draws from substreams of (seed, i), whatever the run order.

:func:`replicate_many` runs a batch of scenarios as one list of (scenario,
replication) runs. On Linux, with at least two runs, at least two CPUs in the
process's affinity mask and at least ``_POOL_MIN_SLOTS`` slots in all, the
runs go to forked workers, one on each CPU up to one per run, while the
calling process only waits for their results; otherwise they run inline, one
after another. A worker inherits the imported modules, so it costs no
interpreter start. Since a run's draws depend only on its (seed, replication),
the results are the same at any worker count and in any completion order;
``taskset -c 0`` gives an inline run.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from typing import Any, BinaryIO, NoReturn

import numpy as np

from .model import NO_COOPERATION, STRICT_PRIORITY, ChannelProfile, OperatingPoint, Policy

__all__ = [
    "POLICY_KINDS",
    "QUEUE_CAP",
    "QueueOverflowError",
    "Scenario",
    "SimStats",
    "simulate",
    "replicate_many",
]

POLICY_KINDS = ("randomized", "strict_priority_relay", "no_cooperation")

#: The policy each kind runs; a randomized run reads its scenario's.
_KIND_POLICY = {"strict_priority_relay": STRICT_PRIORITY, "no_cooperation": NO_COOPERATION}

_BLOCK = 1 << 16
_N_STREAMS = 7
#: Total slots below which a batch runs inline. Pooled, a batch pays 20-30 ms beyond its runs
#: (the fork, each worker's 13-21 ms ``numpy.random`` import in parallel, pickling and reaping),
#: and two workers save at most half of its runs' 33-38 ms per 10^6 slots; inline, the calling
#: process pays the import. Fresh ``simulate`` processes break even at 6e5-1e6 slots.
_POOL_MIN_SLOTS = 800_000

#: Queue length past which a run stops with :class:`QueueOverflowError`. The cap
#: only exists to fail fast on unstable setups.
QUEUE_CAP = 10_000_000


class QueueOverflowError(RuntimeError):
    """A queue grew past ``QUEUE_CAP``; the scenario is far outside its stable region."""


@dataclass(frozen=True)
class Scenario:
    """One simulation run specification.

    ``policy_kind`` names the policy that runs: ``policy`` (``randomized``), ``NO_COOPERATION`` or
    ``STRICT_PRIORITY`` plus its fallback to the own queue. ``seed`` >= 0 is the SeedSequence entropy
    of the run's streams. A CLI sweep runs row i at ``base << 32 | i``, the entropy of ``[i, base]``:
    numpy's idiom for per-worker streams."""

    channel: ChannelProfile
    point: OperatingPoint
    policy: Policy
    policy_kind: str = "randomized"
    slots: int = 1_000_000
    warmup_slots: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy_kind not in POLICY_KINDS:
            raise ValueError(f"policy_kind must be one of {POLICY_KINDS}, got {self.policy_kind!r}")
        if not (self.slots > self.warmup_slots >= 0):
            raise ValueError(
                f"need slots > warmup_slots >= 0, got slots={self.slots}, warmup={self.warmup_slots}"
            )
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got seed={self.seed}")


@dataclass(frozen=True)
class SimStats:
    """Empirical run statistics.

    Time averages (queue lengths and emptiness at the start of each slot, and
    wasted slots) cover the post-warmup slots, and the counts the packets that
    arrive after warmup: ``backlog_*`` those left at the horizon, the last ones
    in as every queue is FIFO, ``delivered_*`` the rest and ``relayed_count``
    those admitted to the relay queue. ``wasted_slots`` counts PU-idle slots
    where the selected queue was empty while the other was not. A delay covers
    the packets that arrive in its origin's window: from the first to the last
    slot from warmup to the horizon that starts with the origin's queues
    (primary and relay, or own) empty. An origin that delivers nothing reads 0,
    and one that delivers but never empties after warmup reads nan.

    :func:`replicate_many` pools replications by field type: ``int`` counts are
    summed and ``float`` averages averaged with equal weights, except the
    ``ci_halfwidth_*`` fields: 0 for one run, else the 95% normal-approximation
    half-width (1.96 * stderr) of the per-replication values of their ``source``.
    A nan delay pools to nan, and so does its half-width.
    """

    throughput_p: float
    throughput_s: float
    mean_delay_p: float
    mean_delay_s: float
    mean_len_p: float
    mean_len_sp: float
    mean_len_s: float
    frac_both_empty: float
    frac_primary_empty: float
    delivered_p: int
    delivered_s: int
    relayed_count: int
    ci_halfwidth_delay_p: float = field(metadata={"source": "mean_delay_p"})
    ci_halfwidth_delay_s: float = field(metadata={"source": "mean_delay_s"})
    arrivals_p: int
    arrivals_s: int
    wasted_slots: int
    backlog_p: int
    backlog_s: int
    final_len_p: float
    final_len_sp: float
    final_len_s: float
    observed_slots: int


def _stream_rngs(seed: int, replication: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return [np.random.default_rng(child) for child in root.spawn(_N_STREAMS)]


def _lindley(q0: int, arrive: np.ndarray, serve: np.ndarray, lengths: np.ndarray,
             work: np.ndarray) -> int:
    """Solve Q[t+1] = max(Q[t] - serve[t], 0) + arrive[t] from Q[0] = q0 over n slots.

    With R the running sum of arrive - serve and M the running minimum of
    R - arrive, Q[t+1] = R[t] - min(M[t], -q0): clamping the first term of
    R - arrive to -q0 folds q0 into the minimum. ``arrive`` and ``serve`` are
    bool. Writes Q[0..n] into the int32 ``lengths`` (n + 1 long), overwrites
    the int32 ``work`` (n long) and returns Q[n].
    """
    rest = lengths[1:]
    np.subtract(arrive.view(np.int8), serve.view(np.int8), out=rest)
    np.cumsum(rest, dtype=np.int32, out=rest)
    np.subtract(rest, arrive, out=work)
    work[0] = min(work[0], -q0)
    np.minimum.accumulate(work, out=work)
    rest -= work
    lengths[0] = q0
    return int(lengths[-1])


def _cycle_marks(marks: tuple | None, empty: np.ndarray, first: int, totals: tuple[int, ...],
                 counted: tuple[np.ndarray, ...]) -> tuple | None:
    """An origin's ``marks`` after a block: its ``totals`` at its first and its last empty slot so
    far, or None before the first. ``empty`` marks the block's slots 0..n (n: the next block's
    first, or the horizon) that start with its queues empty, from ``first``, the first measured
    one. A total sums a ``counted`` array over the measured slots up to the block's end."""
    found = empty[first:].tobytes()  # a bool is one byte, 0 or 1
    last = found.rfind(1)
    if last < 0:
        return marks

    def at(k: int) -> tuple[int, ...]:
        return tuple(total - int(a[first + k:].sum()) for total, a in zip(totals, counted))

    return marks[0] if marks else at(found.find(1)), at(last)


def _run(sc: Scenario, replication: int) -> SimStats:
    ch, pt = sc.channel, sc.point
    pol = _KIND_POLICY.get(sc.policy_kind, sc.policy)
    strict = sc.policy_kind == "strict_priority_relay"
    # each event's probability, in stream order; a decode is only read where it may be admitted
    probs = (ch.f_pd, ch.f_ps if pol.p_a else 0.0, pol.p_a, pol.p_q, ch.f_sd, pt.lambda_p, pt.lambda_s)
    rngs = _stream_rngs(sc.seed, replication)
    warmup, slots, cap = sc.warmup_slots, sc.slots, QUEUE_CAP

    len_p = len_sp = len_s = 0
    uniform = np.empty(_BLOCK)
    buf_p, buf_sp, buf_s = (np.empty(_BLOCK + 1, dtype=np.int32) for _ in range(3))
    work = np.empty(_BLOCK, dtype=np.int32)
    masks = np.empty((len(probs), _BLOCK), dtype=bool)

    sum_lp = sum_lsp = sum_ls = 0
    n_empty_p = n_empty_both = wasted = 0
    arrivals_p = arrivals_s = admitted = 0
    head = early = 0  # packets from before warmup still in the primary queue, and their admissions since
    marks_p = marks_s = None  # the measured totals at each origin's first and last empty slot

    for start in range(0, slots, _BLOCK):
        n = min(_BLOCK, slots - start)
        u, events = uniform[:n], masks[:, :n]
        for rng, p, out in zip(rngs, probs, events):
            if 0.0 < p < 1.0:  # else the outcome is constant and nothing is drawn
                np.less(rng.random(out=u), p, out=out)
            else:
                out.fill(p == 1.0)
        dest, decode, admit, pick, su, arr_p, arr_s = events
        lp, lsp, ls, tmp = buf_p[:n + 1], buf_sp[:n + 1], buf_s[:n + 1], work[:n]

        # the primary head leaves on destination success or on relay admission
        leave_p = np.logical_and(decode, admit, out=decode)  # the decodes are not read again
        leave_p |= dest
        len_p = _lindley(len_p, arr_p, leave_p, lp, tmp)
        empty_p = lp == 0  # at the block's slots 0..n, as are the other queues' masks
        idle = empty_p[:n]
        # a busy head the destination missed leaves into the relay queue
        into_relay = leave_p > (dest | idle)

        # in idle slots the SU serves the queue it selects
        transmit = idle & su
        len_sp = _lindley(len_sp, into_relay, transmit & ~pick, lsp, tmp)
        empty_sp = lsp == 0
        # strict priority's fallback: the own queue when the relay's is empty
        own = empty_sp[:n] if strict else pick
        len_s = _lindley(len_s, arr_s, transmit & own, ls, tmp)
        empty_s = ls == 0

        # a wasted slot selects the empty one of an empty and a non-empty queue
        wasted_now = idle & (own == empty_s[:n]) & (empty_s[:n] != empty_sp[:n])
        first = max(warmup - start, 0)  # first measured slot
        sum_lp += int(lp[first:n].sum())
        sum_lsp += int(lsp[first:n].sum())
        sum_ls += int(ls[first:n].sum())
        n_empty_p += int(np.count_nonzero(idle[first:]))
        n_empty_both += int(np.count_nonzero((idle & empty_s[:n])[first:]))
        wasted += int(np.count_nonzero(wasted_now[first:]))
        arrivals_p += int(np.count_nonzero(arr_p[first:]))
        arrivals_s += int(np.count_nonzero(arr_s[first:]))
        admitted += int(np.count_nonzero(into_relay[first:]))
        if start <= warmup < start + n:
            head = int(lp[first])
        if head:  # the primary queue is FIFO: its first departures from warmup on are these packets
            left = np.cumsum(leave_p[first:] > idle[first:], dtype=np.int32)
            end = int(np.argmax(left >= head)) + 1 if left[-1] >= head else left.size
            early += int(np.count_nonzero(into_relay[first:first + end]))
            head -= int(left[end - 1])
        marks_p = _cycle_marks(marks_p, empty_p & empty_sp, first, (sum_lp, sum_lsp, arrivals_p),
                               (lp[:n], lsp[:n], arr_p))
        marks_s = _cycle_marks(marks_s, empty_s, first, (sum_ls, arrivals_s), (ls[:n], arr_s))

        if len_p > cap or len_sp > cap or len_s > cap:
            raise QueueOverflowError(
                f"queue exceeded cap {cap} at slot {start + n}; the configuration is unstable "
                f"(len_p={len_p}, len_sp={len_sp}, len_s={len_s})"
            )

    observed = slots - warmup
    # each origin's window, from its first to its last empty slot, as SimStats says
    sum_p, sum_sp, cycled_p = (b - a for a, b in zip(*marks_p)) if marks_p else (0, 0, 0)
    sum_s, cycled_s = (b - a for a, b in zip(*marks_s)) if marks_s else (0, 0)
    # each FIFO queue holds its last arrivals, and the relay queue's arrive in the primary's order
    relayed = admitted - early
    backlog_p, backlog_s = min(len_p, arrivals_p) + min(len_sp, relayed), min(len_s, arrivals_s)
    delivered_p, delivered_s = arrivals_p - backlog_p, arrivals_s - backlog_s
    return SimStats(
        throughput_p=delivered_p / observed,
        throughput_s=delivered_s / observed,
        mean_delay_p=(sum_p + sum_sp) / cycled_p if cycled_p else math.nan if delivered_p else 0.0,
        mean_delay_s=sum_s / cycled_s if cycled_s else math.nan if delivered_s else 0.0,
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


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 off Linux, where the pool is not used."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _fork_map(fn: Callable[..., Any], tasks: Sequence[tuple], workers: int) -> list[Any]:
    """``[fn(*task) for task in tasks]``, computed by ``workers`` forked children.

    Child k runs on CPU k mod n of the n in this process's affinity mask, so
    the scheduler cannot leave two children on one CPU for a whole batch. It
    runs tasks k, k + workers, ... in order until one raises, and sends its
    results and that exception back through its own pipe. This process only
    waits: it raises the exception of the first failing task in task order,
    as a loop would, with the child's traceback as its cause, or a
    RuntimeError naming the exit status of a child that ended without
    reporting. On any exception, Ctrl-C included, it kills and reaps every
    child it has not reaped.
    """
    cpus = sorted(os.sched_getaffinity(0))
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
                            _fork_child(fn, tasks[k::workers], writer, mask, cpus[k % len(cpus)])
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
                mask: set[signal.Signals], cpu: int) -> NoReturn:
    """Run ``tasks`` in a forked child on ``cpu``, write (results, None or the exception
    that stopped them with its traceback) to ``writer`` and leave by ``os._exit``, so
    that the child never runs its parent's cleanup or flushes its parent's buffers. The
    child ignores SIGINT: its parent takes Ctrl-C."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.sched_setaffinity(0, {cpu})
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
    exactly :func:`simulate`. Replications are pooled as :class:`SimStats`
    says. The runs are spread over the CPUs (see the module docstring); a
    failing batch raises what its first failing run raises, as a run-by-run
    loop would.
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
    import statistics

    pooled: dict[str, float | int] = {}
    for f in fields(SimStats):
        values = [getattr(r, f.metadata.get("source", f.name)) for r in runs]
        if "source" in f.metadata:
            nan = any(math.isnan(value) for value in values)  # a run measured no delay
            pooled[f.name] = math.nan if nan else 1.96 * statistics.stdev(values) / math.sqrt(len(values))
        elif f.type == "int":
            pooled[f.name] = sum(values)
        else:
            pooled[f.name] = statistics.fmean(values)
    return SimStats(**pooled)
