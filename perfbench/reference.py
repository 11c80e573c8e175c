"""Reference figures quoted in README.md, measured with ``run.py --reference``.

- bare OMWU against A2L-OMWU, µs per round, on a 3-player zero-sum game with
  5 actions at T = 10^4 (median of three runs each);
- the bandit-monitor adversary run split into its epoch work and the
  per-epoch rebuild of the whole epoch history (``iw_radius`` over
  ``B_hist``/``eps_hist`` and ``np.sum(B_hist)``), timed by replaying the
  rebuild calls at every history length the run reached.

The verify suite wall times are measured by run.py, one suite per process.
"""

from __future__ import annotations

import statistics
import warnings
from time import perf_counter

import numpy as np

from a2l import bandit as bd
from a2l import dynamics as dyn
from a2l import games

import workloads


def omwu_per_round(T=10_000, repeats=3):
    game = games.generate_game("random_zs", n=3, d=5, seed=0)
    out = {}
    for algo in ("omwu", "a2l-omwu"):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            dyn.run_full_feedback(game, dyn.LearnerSpec(algo=algo), T)
            times.append(perf_counter() - start)
        out[algo] = statistics.median(times) / T * 1e6
    return {"game": "random_zs n=3 d=5 seed=0", "T": T, "us_per_round": out}


def adversary_split(seed=1):
    sched = bd.EpochSchedule.custom(coeff=4000, power=0.0, eps_coeff=0.5, eps_power=0.0)
    start = perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bd.run_bandit_vs_environment(2, workloads.bait, sched, eta=1.0 / 12,
                                           seed=seed, delta=0.05, epochs=6000)
    total = perf_counter() - start

    epochs = len(res["t"])
    B_vals = [sched.epoch_length(t, 2) for t in range(1, epochs + 1)]
    eps_vals = [sched.mixing(t) for t in range(1, epochs + 1)]
    B_hist, eps_hist = [], []
    start = perf_counter()
    for t in range(1, epochs + 1):
        B_hist.append(B_vals[t - 1])
        eps_hist.append(eps_vals[t - 1])
        bd.iw_radius(B_hist, eps_hist, 2, t, 0.05)
        float(np.sum(B_hist))
    rebuild = perf_counter() - start
    return {"seed": seed, "switch_epoch": res["switch_epoch"], "epochs": epochs,
            "total_s": total, "history_rebuild_s": rebuild,
            "epoch_work_s": total - rebuild, "rebuild_share": rebuild / total}


def figures():
    return {"omwu_vs_a2l_omwu": omwu_per_round(), "adversary_split": adversary_split()}
