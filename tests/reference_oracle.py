"""Full-kernel reference for :mod:`cogrelay.oracle`.

``build_transitions`` assembles the whole T^2 x T^2 one-slot kernel of a
chain pair as a sparse matrix. It is the oracle's original statement of the
transition law, kept unchanged so the six blocks ``cogrelay.oracle`` builds
can be checked against it entry for entry, and so kernel-level properties
(stochastic rows, the primary marginal, the relay coupling) and a dense
direct solve can be tested on the whole lattice.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from cogrelay.analytics import service_rate_primary
from cogrelay.oracle import ChainSpec


def build_transitions(spec: ChainSpec) -> sp.csr_matrix:
    """Row-stochastic one-slot kernel of the selected bivariate chain.

    State (i, j) is flattened to i * truncation + j. Departures happen before
    arrivals within a slot (arrivals are first served the next slot), and
    transitions that would leave the lattice stay at the edge.
    """
    ch, pol, pt = spec.channel, spec.policy, spec.point
    T = spec.truncation
    idx = np.arange(T * T, dtype=np.int64)
    i = idx // T
    j = idx % T

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def emit(weight: np.ndarray, di: np.ndarray | int, dj: np.ndarray | int, xp: int, xs: int) -> None:
        mask = weight > 0.0
        if not mask.any():
            return
        ni = np.minimum(i[mask] + di + xp, T - 1)
        nj = np.minimum(j[mask] + dj + xs, T - 1)
        rows.append(idx[mask])
        cols.append(ni * T + nj)
        vals.append(weight[mask])

    lp = pt.lambda_p
    arr_p = (1.0 - lp, lp)
    if spec.pair == "primary_secondary":
        mu = service_rate_primary(ch, pol.p_a)
        dep_p = np.where(i > 0, mu, 0.0)
        dep_s = np.where((i == 0) & (j > 0), pol.p_q * ch.f_sd, 0.0)
        ls = pt.lambda_s
        arr_s = (1.0 - ls, ls)
        for yp in (0, 1):
            wp = dep_p if yp else 1.0 - dep_p
            for ys in (0, 1):
                ws = dep_s if ys else 1.0 - dep_s
                for xp in (0, 1):
                    for xs in (0, 1):
                        w = wp * ws * (arr_p[xp] * arr_s[xs])
                        emit(w, -yp, -ys, xp, xs)
    else:
        # Relay pair: a relayed packet is simultaneously a Q_p departure and a
        # Q_sp arrival, so the kernel carries the joint event explicitly; the
        # relay queue has no exogenous arrival stream.
        relay = pol.p_a * ch.f_ps * (1.0 - ch.f_pd)
        p_dest = np.where(i > 0, ch.f_pd, 0.0)
        p_relay = np.where(i > 0, relay, 0.0)
        p_spdep = np.where((i == 0) & (j > 0), (1.0 - pol.p_q) * ch.f_sd, 0.0)
        p_none = 1.0 - p_dest - p_relay - p_spdep
        events = ((p_none, 0, 0), (p_dest, -1, 0), (p_relay, -1, 1), (p_spdep, 0, -1))
        for prob, di, dj in events:
            for xp in (0, 1):
                emit(prob * arr_p[xp], di, dj, xp, 0)

    kernel = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(T * T, T * T),
    ).tocsr()
    kernel.sum_duplicates()
    return kernel
