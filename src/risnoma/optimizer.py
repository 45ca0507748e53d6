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
single-dipped or flat (where the gain cap or floor binds).  Searches at
several configs run in lockstep (`optimize_batch`), one `outage_pairs`
batch per step over all of them.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .analytic import analytic_outages
from .channel import _alpha_at_budget, at_budget
from .config import SystemConfig, overflows_watt
from .montecarlo import estimate_outage_pairs

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


def _golden_min(fun, lo: float, hi: float, tol: float, evaluate):
    """Golden-section argmin on [lo, hi]; returns best evaluated point.
    fun and evaluate are search steps (generators, see `_search`):
    evaluate(xs) prepares fun at several points in one request, and the
    opening pair, always both needed, goes through it together."""
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    yield from evaluate([x1, x2])
    f1, f2 = (yield from fun(x1)), (yield from fun(x2))
    while hi - lo > tol and lo < x1 < x2 < hi:  # a bracket a few ulps wide ends it too
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = yield from fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = yield from fun(x2)
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

    `optimize_batch` of one config; an exception of the search is raised.
    """
    outcome, = optimize_batch([config], interval_dbm=interval_dbm, tol_db=tol_db,
                              evaluator=evaluator, workers=workers)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def optimize_batch(configs, *, interval_dbm=(-70.0, -10.0), tol_db: float = 0.1,
                   evaluator: str = "analytic", workers: int = 1) -> list:
    """`optimize` at each config, the searches run in lockstep: every step
    makes one `outage_pairs` call over the requests of all searches still
    running, so the grids are one batch and so is each golden-section step.
    Each search sees the same pairs as on its own, so its outcome is the
    same, bit for bit.  Returns, per config, its OptimizationOutcome or the
    exception its search raised: where a lockstep call fails, each
    request is evaluated again on its own, and only the searches whose own
    request fails get the exception."""
    lo, hi = interval_dbm
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or overflows_watt(hi):
        raise ValueError(f"search interval must be two finite dBm values lo < hi "
                         f"that convert to watts, got {interval_dbm}")
    if not (math.isfinite(tol_db) and tol_db > 0.0):
        raise ValueError(f"tol_db must be a finite number > 0, got {tol_db}")

    searches = [_search(config, interval_dbm, tol_db, evaluator) for config in configs]
    outcomes = [None] * len(searches)
    pending = {}   # search index -> the configs it asked for

    def resume(i, reply):
        """Send search i its pairs (None to start it), or throw it an exception."""
        search = searches[i]
        try:
            pending[i] = search.throw(reply) if isinstance(reply, Exception) else search.send(reply)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:  # this search fails; the others go on
            outcomes[i] = exc

    def alone(request):
        try:
            return outage_pairs(request, evaluator, workers=workers)
        except Exception as exc:
            return exc

    for i in range(len(searches)):
        resume(i, None)
    while pending:
        requests = list(pending.items())
        pending.clear()
        try:
            pairs = outage_pairs([c for _, request in requests for c in request], evaluator,
                                 workers=workers)
        except Exception as exc:
            replies = [exc] if len(requests) == 1 else [alone(r) for _, r in requests]
        else:
            it = iter(pairs)
            replies = [list(islice(it, len(request))) for _, request in requests]
        for (i, _), reply in zip(requests, replies):
            resume(i, reply)
    return outcomes


def _search(config: SystemConfig, interval_dbm, tol_db: float, evaluator: str):
    """`optimize`'s search at one config, as a generator: it yields the
    configs whose pairs it needs, is sent their pairs, and returns the
    OptimizationOutcome.  A search whose gains are all cached yields nothing."""
    lo, hi = interval_dbm

    # both evaluators see the budget only through the gain it implies, and
    # the gain clamps at 0 and 30 dB, so many budgets share one evaluation
    cache: dict[float, tuple] = {}

    def evaluate(budgets):
        """The budgets' gains; those not cached yet are evaluated in one request."""
        gains = [_alpha_at_budget(config, x) for x in budgets]
        todo: dict[float, float] = {}
        for gain, x in zip(gains, budgets):
            if gain not in cache:
                todo.setdefault(gain, x)
        if todo:
            pairs = yield [at_budget(config, x) for x in todo.values()]
            cache.update(zip(todo, pairs))
        return gains

    def pair_at(x: float):
        r1, r2 = cache[(yield from evaluate([x]))[0]]
        return r1.op, r2.op

    grid = [float(x) for x in np.arange(lo, hi + GRID_STEP_DB / 2.0, GRID_STEP_DB)]
    grid_pairs = [(r1.op, r2.op) for r1, r2 in map(cache.get, (yield from evaluate(grid)))]

    candidates = list(zip(grid, grid_pairs))
    if all(p2 >= TAU for _, p2 in grid_pairs):
        mode, pick = "fallback_user1", lambda p: p[0]
    elif all(p1 >= TAU for p1, _ in grid_pairs):
        mode, pick = "fallback_user2", lambda p: p[1]
    else:
        mode, pick = "balanced", lambda p: abs(p[0] - p[1])
        deltas = [max(p) for p in grid_pairs]
        delta_star = min(deltas)
        slack = max(1e-9, 0.05 * delta_star)
        if evaluator == "mc":
            slack += 3.0 * math.sqrt(max(delta_star * (1.0 - delta_star), 1e-12)
                                     / config.mc_trials)
        candidates = [c for c, d in zip(candidates, deltas) if d <= delta_star + slack]

    def objective(x):
        return pick((yield from pair_at(x)))

    k = int(np.argmin([pick(p) for _, p in candidates]))
    best_x, best_f = candidates[k][0], pick(candidates[k][1])

    # refine inside a one-grid-step bracket around the coarse argmin
    blo = max(lo, best_x - GRID_STEP_DB)
    bhi = min(hi, best_x + GRID_STEP_DB)
    x, f = yield from _golden_min(objective, blo, bhi, tol_db, evaluate)
    if best_f < f:
        x, f = best_x, best_f
    if mode == "balanced":
        # the refinement must not leave the near-optimal fairness region
        if max((yield from pair_at(x))) > delta_star + slack:
            x = best_x

    op1, op2 = yield from pair_at(x)
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
