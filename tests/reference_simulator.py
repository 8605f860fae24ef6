"""Slot-by-slot reference for :mod:`cogrelay.simulator`.

``run`` executes the protocol one slot at a time with Python deques, and
``replicate`` pools its replications field by field; both are the
simulator's original implementation, kept unchanged but for reading the
queue cap from ``cogrelay.simulator.QUEUE_CAP`` at each run (as the
simulator does, so a test may patch it), so the block-wise evaluation in
``cogrelay.simulator`` can be checked against them for equality (same
draws, same integer arithmetic, same float divisions).
"""

from __future__ import annotations

import math
import statistics
from collections import deque

from cogrelay import simulator
from cogrelay.simulator import _BLOCK, QueueOverflowError, Scenario, SimStats, _stream_rngs


def run(sc: Scenario, replication: int) -> SimStats:
    ch, pt, pol = sc.channel, sc.point, sc.policy
    randomized = sc.policy_kind == "randomized"
    strict = sc.policy_kind == "strict_priority_relay"
    admit_prob = 1.0 if strict else (0.0 if sc.policy_kind == "no_cooperation" else pol.p_a)

    rng_dest, rng_decode, rng_admit, rng_pick, rng_su, rng_ap, rng_as = _stream_rngs(
        sc.seed, replication
    )

    warmup = sc.warmup_slots
    slots = sc.slots
    cap = simulator.QUEUE_CAP

    qp: deque[int] = deque()
    qsp: deque[int] = deque()
    qs: deque[int] = deque()

    sum_lp = sum_lsp = sum_ls = 0
    n_empty_p = n_empty_both = 0
    delivered_p = delivered_s = relayed = 0
    delay_sum_p = delay_sum_s = 0
    arrivals_p = arrivals_s = 0
    wasted = 0

    t = 0
    for start in range(0, slots, _BLOCK):
        n = min(_BLOCK, slots - start)
        dest = (rng_dest.random(n) < ch.f_pd).tolist()
        decode = (rng_decode.random(n) < ch.f_ps).tolist()
        admit = (rng_admit.random(n) < admit_prob).tolist()
        pick = (rng_pick.random(n) < pol.p_q).tolist()
        su = (rng_su.random(n) < ch.f_sd).tolist()
        arr_p = (rng_ap.random(n) < pt.lambda_p).tolist()
        arr_s = (rng_as.random(n) < pt.lambda_s).tolist()

        for dest_ok, dec_ok, adm_ok, pick_own, su_ok, xp, xs in zip(
            dest, decode, admit, pick, su, arr_p, arr_s
        ):
            measured = t >= warmup
            if measured:
                lp = len(qp)
                sum_lp += lp
                sum_lsp += len(qsp)
                ls = len(qs)
                sum_ls += ls
                if lp == 0:
                    n_empty_p += 1
                    if ls == 0:
                        n_empty_both += 1

            if qp:
                if dest_ok:
                    a = qp.popleft()
                    if a >= warmup:
                        delivered_p += 1
                        delay_sum_p += t - a
                elif dec_ok and adm_ok:
                    a = qp.popleft()
                    qsp.append(a)
                    if a >= warmup:
                        relayed += 1
            else:
                if randomized:
                    serve_own = pick_own
                elif strict:
                    serve_own = not qsp
                else:
                    serve_own = True
                if serve_own:
                    if qs:
                        if su_ok:
                            a = qs.popleft()
                            if a >= warmup:
                                delivered_s += 1
                                delay_sum_s += t - a
                    elif qsp and measured:
                        wasted += 1
                else:
                    if qsp:
                        if su_ok:
                            a = qsp.popleft()
                            if a >= warmup:
                                delivered_p += 1
                                delay_sum_p += t - a
                    elif qs and measured:
                        wasted += 1

            if xp:
                qp.append(t)
                if measured:
                    arrivals_p += 1
            if xs:
                qs.append(t)
                if measured:
                    arrivals_s += 1
            t += 1

        if len(qp) > cap or len(qsp) > cap or len(qs) > cap:
            raise QueueOverflowError(
                f"queue exceeded cap {cap} at slot {t}; the configuration is unstable "
                f"(len_p={len(qp)}, len_sp={len(qsp)}, len_s={len(qs)})"
            )

    observed = slots - warmup
    backlog_p = sum(1 for a in qp if a >= warmup) + sum(1 for a in qsp if a >= warmup)
    backlog_s = sum(1 for a in qs if a >= warmup)
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
        final_len_p=float(len(qp)),
        final_len_sp=float(len(qsp)),
        final_len_s=float(len(qs)),
        observed_slots=observed,
    )


def replicate(sc: Scenario, replications: int) -> SimStats:
    """Pool independent replications of the scenario.

    Replication i uses substreams derived from (seed, i); replication 0 is
    exactly :func:`simulate`. Means are averaged with equal weights, counts
    are summed, and delay confidence half-widths are 1.96 * stderr of the
    per-replication delay means.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    runs = [run(sc, r) for r in range(replications)]
    if replications == 1:
        return runs[0]

    def mean_of(field: str) -> float:
        return statistics.fmean(getattr(r, field) for r in runs)

    def total_of(field: str) -> int:
        return sum(getattr(r, field) for r in runs)

    def halfwidth(field: str) -> float:
        values = [getattr(r, field) for r in runs]
        return 1.96 * statistics.stdev(values) / math.sqrt(len(values))

    return SimStats(
        throughput_p=mean_of("throughput_p"),
        throughput_s=mean_of("throughput_s"),
        mean_delay_p=mean_of("mean_delay_p"),
        mean_delay_s=mean_of("mean_delay_s"),
        mean_len_p=mean_of("mean_len_p"),
        mean_len_sp=mean_of("mean_len_sp"),
        mean_len_s=mean_of("mean_len_s"),
        frac_both_empty=mean_of("frac_both_empty"),
        frac_primary_empty=mean_of("frac_primary_empty"),
        delivered_p=total_of("delivered_p"),
        delivered_s=total_of("delivered_s"),
        relayed_count=total_of("relayed_count"),
        ci_halfwidth_delay_p=halfwidth("mean_delay_p"),
        ci_halfwidth_delay_s=halfwidth("mean_delay_s"),
        arrivals_p=total_of("arrivals_p"),
        arrivals_s=total_of("arrivals_s"),
        wasted_slots=total_of("wasted_slots"),
        backlog_p=total_of("backlog_p"),
        backlog_s=total_of("backlog_s"),
        final_len_p=mean_of("final_len_p"),
        final_len_sp=mean_of("final_len_sp"),
        final_len_s=mean_of("final_len_s"),
        observed_slots=total_of("observed_slots"),
    )
