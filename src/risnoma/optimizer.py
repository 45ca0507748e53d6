"""Fairness optimizer for the active-RIS power budget.

Searches the budget (dBm, log domain) for the point where the two users'
outage probabilities meet, which is where the worst-case outage is
smallest when the curves move in opposite directions.  Where they do not
(the passively served user's outage is bath-tub shaped in the budget),
the gap search is confined to budgets whose worst-user outage is already
near the best achievable, so minimizing the difference never trades away
absolute performance.  When one user is unservable everywhere in the
interval the search falls back to minimizing the servable user's outage
alone.

A coarse grid over the whole interval is the global search, its distinct
gains evaluated in one batch (`outage_pairs`); golden-section then refines
inside the one-grid-step bracket around the grid's argmin, its opening pair
in one batch and one budget at a time after that, where the objective is
single-dipped or flat (where the gain cap or floor binds).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import analytic_outages
from .config import SystemConfig
from .montecarlo import estimate_outage_pairs
from .ris import _alpha_at_budget

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GRID_STEP_DB = 1.0   # coarse scan used for mode detection and the golden bracket
METHODS = ("mc", "analytic")
TAU = 0.9            # outage ceiling declaring a user unservable


@dataclass(frozen=True)
class OptimizationOutcome:
    pt_ris_dbm: float
    alpha: float
    op1: float
    op2: float
    gap: float       # |op1 - op2| at the optimum
    delta: float     # max(op1, op2) at the optimum, the fairness ceiling
    mode: str        # balanced | fallback_user1 | fallback_user2
    evaluations: int  # distinct gains evaluated (budgets sharing a gain count once)
    results: tuple   # the two users' OutageResults at the optimum


def outage_pairs(configs, method: str, *, workers: int = 1):
    """Both users' OutageResults at each config by one of METHODS: "mc"
    simulates all configs in one batch (with `workers` processes; configs with
    the same seed, RIS sizes and trials share one draw), "analytic" inverts
    both users at all configs in one batch."""
    if method == "mc":
        return estimate_outage_pairs(configs, workers=workers)
    if method == "analytic":
        n = len(configs)
        both = analytic_outages([*configs, *configs], [1] * n + [2] * n)
        return list(zip(both[:n], both[n:]))
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def outage_pair(config: SystemConfig, method: str, *, workers: int = 1):
    """`outage_pairs` at one config."""
    return outage_pairs([config], method, workers=workers)[0]


def at_budget(config: SystemConfig, pt_ris_dbm: float) -> SystemConfig:
    """The config evaluated at one RIS power budget: the gain follows from
    the budget, and the seed stays, so the mc objective is deterministic."""
    return replace(config, pt_ris_dbm=pt_ris_dbm, alpha_mode="from_power")


def _golden_min(fun, lo: float, hi: float, tol: float, evaluate):
    """Golden-section argmin on [lo, hi]; returns best evaluated point.
    evaluate(xs) prepares fun at several points in one batch: the opening
    pair, always both needed, goes through it together."""
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    evaluate([x1, x2])
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = fun(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def optimize(config: SystemConfig, *, interval_dbm=(-70.0, -10.0), tol_db: float = 0.1,
             evaluator: str = "analytic", workers: int = 1) -> OptimizationOutcome:
    """Choose the RIS power budget in `interval_dbm` minimizing the users'
    outage gap, refined to a bracket `tol_db` wide, with outages from the
    `evaluator` (one of METHODS; "mc" simulates with `workers` processes).

    A coarse grid over the interval decides the mode first: if one user's
    outage stays at or above TAU across the whole grid, the other user's
    outage becomes the objective and the outcome is tagged as a fallback.

    In balanced mode the gap search is restricted to budgets whose
    worst-user outage is within a small margin of the best achievable one.
    Without that guard the plain gap objective can settle on points where
    both users fail equally (the outage of the passively served user is
    not monotone in the budget), which maximizes fairness in the
    difference sense while being strictly worse for everyone.
    """
    lo, hi = interval_dbm
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"search interval must be two finite dBm values lo < hi, "
                         f"got {interval_dbm}")
    if not (math.isfinite(tol_db) and tol_db > 0.0):
        raise ValueError(f"tol_db must be a finite number > 0, got {tol_db}")

    # both evaluators see the budget only through the gain it implies, and
    # the gain clamps at 0 and 30 dB, so many budgets share one evaluation
    cache: dict[float, tuple] = {}

    def evaluate(budgets) -> list[float]:
        """The budgets' gains; those not cached yet are evaluated in one batch."""
        gains = [_alpha_at_budget(config, x) for x in budgets]
        todo: dict[float, float] = {}
        for gain, x in zip(gains, budgets):
            if gain not in cache:
                todo.setdefault(gain, x)
        if todo:
            pairs = outage_pairs([at_budget(config, x) for x in todo.values()], evaluator,
                                 workers=workers)
            cache.update(zip(todo, pairs))
        return gains

    def pair_at(x: float) -> tuple[float, float]:
        r1, r2 = cache[evaluate([x])[0]]
        return r1.op, r2.op

    grid = [float(x) for x in np.arange(lo, hi + GRID_STEP_DB / 2.0, GRID_STEP_DB)]
    grid_pairs = [(r1.op, r2.op) for r1, r2 in map(cache.get, evaluate(grid))]

    if all(p2 >= TAU for _, p2 in grid_pairs):
        mode = "fallback_user1"
        objective = lambda x: pair_at(x)[0]
        candidates = grid
    elif all(p1 >= TAU for p1, _ in grid_pairs):
        mode = "fallback_user2"
        objective = lambda x: pair_at(x)[1]
        candidates = grid
    else:
        mode = "balanced"
        def objective(x):
            op1, op2 = pair_at(x)
            return abs(op1 - op2)
        deltas = [max(p) for p in grid_pairs]
        delta_star = min(deltas)
        slack = max(1e-9, 0.05 * delta_star)
        if evaluator == "mc":
            slack += 3.0 * math.sqrt(max(delta_star * (1.0 - delta_star), 1e-12)
                                     / config.mc_trials)
        candidates = [x for x, d in zip(grid, deltas) if d <= delta_star + slack]

    k = int(np.argmin([objective(x) for x in candidates]))
    best_x, best_f = candidates[k], objective(candidates[k])

    # refine inside a one-grid-step bracket around the coarse argmin
    blo = max(lo, best_x - GRID_STEP_DB)
    bhi = min(hi, best_x + GRID_STEP_DB)
    x, f = _golden_min(objective, blo, bhi, tol_db, evaluate)
    if best_f < f:
        x, f = best_x, best_f
    if mode == "balanced":
        # the refinement must not leave the near-optimal fairness region
        if max(pair_at(x)) > delta_star + slack:
            x = best_x

    op1, op2 = pair_at(x)
    alpha = _alpha_at_budget(config, x)
    return OptimizationOutcome(
        pt_ris_dbm=x,
        alpha=alpha,
        op1=op1,
        op2=op2,
        gap=abs(op1 - op2),
        delta=max(op1, op2),
        mode=mode,
        evaluations=len(cache),
        results=cache[alpha],
    )
