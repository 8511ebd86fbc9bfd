"""Discrete agent models: velocity alignment with the strict cut-off
interaction |x_j - x_i| < r.

Every model relaxes each agent's velocity v_i toward the mean velocity
ubar_i of its neighbourhood, which always includes i itself, so it is
never empty.  Agents take one step, `phase.exact_step(x, v, ubar, rate,
dt)`: the exact solution of dv_i/dt = rate_i*(ubar_i - v_i) with ubar
frozen over the step, so every new velocity is a convex combination of
the old ones and no speed grows, at any dt.  The locally normalized `mt`
and `cutoff_cs` models relax at rate lam, the `cs` model, normalized by
the number of agents N, at rate lam*N_i/N for the neighbour count N_i.
"""

from __future__ import annotations

import numpy as np

from .spatial import neighborhood_sums


def alignment_field(x, v, lam, r, model):
    """(ubar, rate) of the model at agents with positions x and velocities
    v, both (N, d): the mean velocity over each strict radius-r ball,
    (N, d), and the relaxation rate toward it, lam for `cutoff_cs` and
    `mt`, and lam*N_i/N, (N, 1), for `cs`.  rate*(ubar_i - v_i) is the
    model's acceleration (lam/N_i or lam/N) sum_{|x_j-x_i|<r} (v_j - v_i);
    one `neighborhood_sums` call gives both N_i and the velocity sums."""
    sums = neighborhood_sums(x, x, r, np.column_stack([np.ones(len(x)), v]))
    count = sums[:, :1]
    rate = lam * count / len(x) if model == "cs" else lam
    return sums[:, 1:] / count, rate
