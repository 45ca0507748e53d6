"""In-memory span tracing of risnoma, applied from outside the package.

Every traced function is replaced, at run time, by a wrapper in each
loaded ``risnoma`` module that holds a reference to it (so names bound with
``from .x import y`` are caught too).  A span records its name, start,
end, the enclosing span and one work count (trials, nodes, rows, ...).
Nothing under ``src/`` is edited; ``Tracer.uninstall`` puts every original
back.

Spans recorded inside forked worker processes stay in those processes, so
per-trial MC figures come only from in-process (``workers=1``) calls.
"""

import functools
import importlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor


def _n_trials(args, kwargs, out):
    return out[0].shape[0]


def _draw_bytes(args, kwargs, out):
    return sum(a.nbytes for a in out)


def _mc_trials(args, kwargs, out):
    return out[0].trials


def _block_trials(args, kwargs, out):
    return args[0][2]


def _n_blocks(args, kwargs, out):
    return len(out)


def _n_nodes(args, kwargs, out):
    return out.size if hasattr(out, "size") else 1


def _evaluations(args, kwargs, out):
    return out.evaluations


def _n_rows(args, kwargs, out):
    return len(out[0])


# span name -> (module, attribute, count function or None, second count or None)
TARGETS = {
    "channel.draw": ("risnoma.montecarlo", "_draw_block", _n_trials, _draw_bytes),
    "kernels.reduce": ("risnoma._kernels", "link_terms_block", _n_trials, None),
    "montecarlo.block": ("risnoma.montecarlo", "_outage_counts_worker", _block_trials, None),
    "montecarlo.terms": ("risnoma.montecarlo", "_block_terms", None, None),
    "montecarlo.plan": ("risnoma.montecarlo", "_block_plan", _n_blocks, None),
    "montecarlo.estimate": ("risnoma.montecarlo", "estimate_outage_pair", _mc_trials, None),
    "analytic.outage": ("risnoma.analytic", "analytic_outage", None, None),
    "analytic.gp": ("risnoma.analytic", "gil_pelaez_cdf", None, None),
    "analytic.cf": ("risnoma.analytic", "cf_eval", _n_nodes, None),
    "optimizer.optimize": ("risnoma.optimizer", "optimize", _evaluations, None),
    "sweep.run_point": ("risnoma.sweep", "run_point", None, None),
    "sweep.run_sweep": ("risnoma.sweep", "run_sweep", _n_rows, None),
    "sweep.write_csv": ("risnoma.sweep", "write_csv", None, None),
    "sweep.run_preset": ("risnoma.sweep", "run_preset", None, None),
    "cli.main": ("risnoma.cli", "main", None, None),
}
POOL_TARGET = ("risnoma.montecarlo", "ProcessPoolExecutor")

# per-layer metric -> (unit, spans it needs)
LAYER_METRICS = {
    "channel.draw_us_per_trial": ("us", ("channel.draw",)),
    "channel.bytes_per_trial": ("B", ("channel.draw",)),
    "kernels.reduce_us_per_trial": ("us", ("kernels.reduce",)),
    "montecarlo.us_per_trial": ("us", ("montecarlo.estimate",)),
    # SINRs and threshold tests: the block minus drawing and reducing the
    # channels (and freeing them, which happens as _block_terms returns)
    "montecarlo.threshold_us_per_trial": ("us", ("montecarlo.block", "montecarlo.terms")),
    "montecarlo.trials": ("count", ("montecarlo.estimate",)),
    "montecarlo.blocks": ("count", ("montecarlo.plan",)),
    "montecarlo.pools_started": ("count", ("montecarlo.pool_start",)),
    "montecarlo.pool_start_ms": ("ms", ("montecarlo.pool_start",)),
    "analytic.outage_calls": ("count", ("analytic.outage",)),
    "analytic.ms_per_outage": ("ms", ("analytic.outage",)),
    "analytic.gp_calls": ("count", ("analytic.gp",)),
    "analytic.nodes_per_gp_call": ("count", ("analytic.gp", "analytic.cf")),
    "analytic.cf_nodes": ("count", ("analytic.cf",)),
    "analytic.ns_per_cf_node": ("ns", ("analytic.cf",)),
    "optimizer.calls": ("count", ("optimizer.optimize",)),
    "optimizer.evaluations": ("count", ("optimizer.optimize",)),
    "optimizer.self_ms_per_call": ("ms", ("optimizer.optimize", "analytic.outage")),
    "sweep.rows": ("count", ("sweep.run_sweep",)),
    "sweep.run_point_self_ms": (
        "ms", ("sweep.run_point", "optimizer.optimize", "analytic.outage",
               "montecarlo.estimate")),
    "sweep.write_csv_ms": ("ms", ("sweep.write_csv",)),
    "cli.self_ms": ("ms", ("cli.main", "sweep.run_preset")),
}


def _lookup(module_name, attr):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """Records spans while installed; `install`/`uninstall` may repeat."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, count, count2]
        self._stack = []
        self._patches = []   # (module, attribute, original)
        self.missing = sorted(
            name for name, (mod, attr, _, _) in TARGETS.items()
            if _lookup(mod, attr) is None
        )
        if _lookup(*POOL_TARGET) is None:
            self.missing.append("montecarlo.pool_start")

    def _wrap(self, name, fn, count, count2):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            if count2 is not None:
                rec[5] = count2(args, kwargs, out)
            return out

        # same module and qualified name, so pickle sends a wrapped pool
        # worker function by reference and a forked worker resolves it
        return functools.update_wrapper(traced, fn)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer._timed("montecarlo.pool_start", super().__init__, args, kwargs)

            if hasattr(base, "_start_executor_manager_thread"):
                # forked workers are launched here, on the first submit
                def _start_executor_manager_thread(self):
                    tracer._timed("montecarlo.pool_spawn",
                                  super()._start_executor_manager_thread, (), {})

        return TracedPool

    def _timed(self, name, fn, args, kwargs):
        return self._wrap(name, fn, None, None)(*args, **kwargs)

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "risnoma" or mod_name.startswith("risnoma.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self):
        for name, (mod, attr, count, count2) in TARGETS.items():
            original = _lookup(mod, attr)
            if original is not None:
                self._replace_everywhere(original, self._wrap(name, original, count, count2))
        pool = _lookup(*POOL_TARGET)
        if isinstance(pool, type) and issubclass(pool, ProcessPoolExecutor):
            self._replace_everywhere(pool, self._pool_class(pool))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def summarize(spans, first, last):
    """Totals per span name over spans[first:last]: calls, time, self time, counts."""
    child_time = {}
    for rec in spans[first:last]:
        if rec[3] >= first:
            child_time[rec[3]] = child_time.get(rec[3], 0.0) + rec[2] - rec[1]
    out = {}
    for i in range(first, last):
        name, start, end, _, c1, c2 = spans[i]
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "count2": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time.get(i, 0.0)
        agg["count"] += c1
        agg["count2"] += c2
    return out


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def layer_metrics(rounds, checked, missing):
    """Per-layer metrics from per-round span summaries of identical rounds.

    Counts are per round (taken from the first traced round); times are
    totals over all traced rounds divided by the matching totals of work.
    The pool figures come from `checked`, the summary of the untimed
    checks, since the timed rounds start no pool.
    A metric whose traced function no longer exists is left out and named
    in the returned `absent` list.
    """
    def tot(name, key):
        return sum(r.get(name, {}).get(key, 0) for r in rounds)

    first = rounds[0]

    def once(name, key):
        return first.get(name, {}).get(key, 0)

    def pool(key):
        return checked.get("montecarlo.pool_start", {}).get(key, 0)

    pool_s = pool("s") + checked.get("montecarlo.pool_spawn", {}).get("s", 0.0)
    values = {
        "channel.draw_us_per_trial": _ratio(tot("channel.draw", "s"), tot("channel.draw", "count"), 1e6),
        "channel.bytes_per_trial": _ratio(tot("channel.draw", "count2"), tot("channel.draw", "count"), 1.0),
        "kernels.reduce_us_per_trial": _ratio(tot("kernels.reduce", "s"), tot("kernels.reduce", "count"), 1e6),
        "montecarlo.us_per_trial": _ratio(tot("montecarlo.estimate", "s"), tot("montecarlo.estimate", "count"), 1e6),
        "montecarlo.threshold_us_per_trial": _ratio(
            tot("montecarlo.block", "self_s"), tot("montecarlo.block", "count"), 1e6),
        "montecarlo.trials": once("montecarlo.estimate", "count"),
        "montecarlo.blocks": once("montecarlo.plan", "count"),
        "montecarlo.pools_started": pool("calls"),
        "montecarlo.pool_start_ms": _ratio(pool_s, pool("calls"), 1e3),
        "analytic.outage_calls": once("analytic.outage", "calls"),
        "analytic.ms_per_outage": _ratio(tot("analytic.outage", "s"), tot("analytic.outage", "calls"), 1e3),
        "analytic.gp_calls": once("analytic.gp", "calls"),
        "analytic.nodes_per_gp_call": _ratio(once("analytic.cf", "count"), once("analytic.gp", "calls"), 1.0),
        "analytic.cf_nodes": once("analytic.cf", "count"),
        "analytic.ns_per_cf_node": _ratio(tot("analytic.cf", "s"), tot("analytic.cf", "count"), 1e9),
        "optimizer.calls": once("optimizer.optimize", "calls"),
        "optimizer.evaluations": once("optimizer.optimize", "count"),
        "optimizer.self_ms_per_call": _ratio(
            tot("optimizer.optimize", "self_s"), tot("optimizer.optimize", "calls"), 1e3),
        "sweep.rows": once("sweep.run_sweep", "count"),
        "sweep.run_point_self_ms": _ratio(
            tot("sweep.run_point", "self_s"), tot("sweep.run_point", "calls"), 1e3),
        "sweep.write_csv_ms": tot("sweep.write_csv", "s") * 1e3 / len(rounds),
        "cli.self_ms": tot("cli.main", "self_s") * 1e3 / len(rounds),
    }
    absent = sorted(m for m, (_, needs) in LAYER_METRICS.items()
                    if any(n in missing for n in needs))
    metrics = {m: {"value": values[m], "unit": unit}
               for m, (unit, _) in LAYER_METRICS.items() if m not in absent}
    return metrics, absent


def round_counts(summary):
    """The exact work counts of one round, for comparing rounds."""
    return {name: (agg["calls"], agg["count"], agg["count2"])
            for name, agg in sorted(summary.items())}
