"""Brute-force policy-grid optimizers used as independent checks of the analytic solutions."""

import numpy as np

from cogrelay.analytics import closed_forms


def _grid_minimum(ch, pt, objective, n):
    # one evaluation of the closed forms over the whole (p_q, p_a) grid
    values = np.linspace(0.0, 1.0, n)
    cf = closed_forms(ch.f_pd, ch.f_sd, ch.f_ps, values[:, None], values[None, :],
                      pt.lambda_p, pt.lambda_s)
    # where stable B > 0, and n_s_den = B * C != 0 implies C != 0
    evaluable = {"d_p": cf.relay_ok, "d_s": cf.n_s_den != 0.0}[objective]
    assert not (cf.stable & ~evaluable).any(), "a stable grid point has no closed-form delay"
    table = np.where(cf.stable, getattr(cf, objective), np.inf)
    best_flat = int(np.argmin(table))
    iq, ia = divmod(best_flat, n)
    best = table[iq, ia]
    if not np.isfinite(best):
        return None
    neighbors = [
        table[q, a]
        for q, a in ((iq - 1, ia), (iq + 1, ia), (iq, ia - 1), (iq, ia + 1))
        if 0 <= q < n and 0 <= a < n and np.isfinite(table[q, a])
    ]
    cell_variation = max((abs(v - best) for v in neighbors), default=0.0)
    return {
        "objective": float(best),
        "p_q": float(values[iq]),
        "p_a": float(values[ia]),
        "cell_variation": float(cell_variation),
    }


def primary_delay_grid(ch, pt, n=101):
    """Exhaustive (p_q, p_a) search minimizing the primary delay; None if nothing is feasible."""
    return _grid_minimum(ch, pt, "d_p", n)


def secondary_delay_grid(ch, pt, n=101):
    """Exhaustive (p_q, p_a) search minimizing the secondary delay; None if nothing is feasible."""
    return _grid_minimum(ch, pt, "d_s", n)
