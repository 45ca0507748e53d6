"""One workload in a fresh process: timed rounds, then correctness checks.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
A round is a fixed amount of work; rounds repeat until ``--seconds`` have
passed.  With ``--trace 1`` untraced and traced rounds alternate, and the
per-layer figures come from the traced ones.  The last stdout line is a
JSON object that run.py turns into the benchmark result.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
import scipy

import risnoma
import risnoma.cli
import risnoma.sweep

import checks
import tracing

# the scenario of the MC workloads, passed both to risnoma and to the
# reference computations in checks.py (the paper's default geometry)
SCENARIO = dict(pt_user_dbm=15.0, w0_dbm=-130.0, namp_dbm=-130.0, fc_ghz=5.0,
                d_u1_ris_m=35.51, d_u2_ris_m=35.51, d_ris_bs_m=20.22,
                rate_threshold_bps_hz=2.0, epsilon_sic=0.0)
CSV_COLUMNS = ("sweep_param", "sweep_value", "user", "method", "op", "err",
               "alpha", "mode", "ms")
GRID_DBM = tuple(float(x) for x in range(-70, -9))   # 1 dB budget grid
TAU = 0.9                                             # optimizer default


def config_seed(seed):
    return seed % 2 ** 64


class PointTimer:
    """Times each point and records whether it failed."""

    def __init__(self):
        self.points = []   # (point id, ms, failed)

    def timed(self, point_id, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed point; the round continues
            self.points.append((point_id, (time.perf_counter() - t0) * 1e3, True))
            return exc
        self.points.append((point_id, (time.perf_counter() - t0) * 1e3, False))
        return out

    def wrap_run_point(self):
        """Time every sweep.run_point call; error rows mark the point failed."""
        original = risnoma.sweep.run_point

        def run_point(config, *args, **kwargs):
            t0 = time.perf_counter()
            rows = original(config, *args, **kwargs)
            ms = (time.perf_counter() - t0) * 1e3
            failed = any(r.mode.startswith("error") for r in rows)
            point_id = f"{rows[0].sweep_param}={rows[0].sweep_value:g}" if rows else "?"
            self.points.append((point_id, ms, failed))
            return rows

        risnoma.sweep.run_point = run_point


# ---------------------------------------------------------------------------


class McSizes:
    """Plain MC along the fig4 RIS-size axis at fixed gain, workers=1."""

    SIZES = (64, 128, 192, 256, 320, 384, 448, 512)
    TRIALS = 4000
    ALPHA = 8.5
    REF_SIZE = 192         # both users' outage populated: about 0.02 and 0.97
    REF_TRIALS = 12000

    def __init__(self, seed, out_dir, timer):
        self.seed = seed
        self.timer = timer
        self.configs = [risnoma.validate(risnoma.SystemConfig(
            **SCENARIO, alpha_mode="fixed", alpha_linear=self.ALPHA,
            m_active=m, n_passive=m, mc_trials=self.TRIALS,
            seed=config_seed(seed))) for m in self.SIZES]

    def run_round(self):
        out = {}
        for cfg in self.configs:
            res = self.timer.timed(f"M=N={cfg.m_active}",
                                   risnoma.estimate_outage_pair, cfg, workers=1)
            if not isinstance(res, Exception):
                out[cfg.m_active] = (res[0].op, res[1].op, res[0].trials)
        return out

    def check(self, outputs):
        fails = []
        for i, out in enumerate(outputs[1:], 1):
            fails += checks.check_same(f"round {i} vs round 0", out, outputs[0])
        compared = 0
        for cfg in self.configs:
            m = cfg.m_active
            if m not in outputs[0]:
                continue
            op1, op2, trials = outputs[0][m]
            for user, op in ((1, op1), (2, op2)):
                an = risnoma.analytic_outage(cfg, user).op
                fails += checks.check_mc_vs_analytic(f"M=N={m} user {user}", op, trials, an)
                compared += checks.MODERATE_OP[0] <= an <= checks.MODERATE_OP[1]
        if not compared:
            fails.append("no point with a moderate analytic outage to compare MC against")
        if self.REF_SIZE in outputs[0]:
            op1, op2, trials = outputs[0][self.REF_SIZE]
            k1, k2 = checks.reference_outage_counts(
                SCENARIO, self.REF_SIZE, self.REF_SIZE, self.ALPHA,
                self.REF_TRIALS, seed=[self.seed % 2 ** 63, 7])
            fails += checks.check_reference(f"M=N={self.REF_SIZE} user 1",
                                            round(op1 * trials), trials, k1, self.REF_TRIALS)
            fails += checks.check_reference(f"M=N={self.REF_SIZE} user 2",
                                            round(op2 * trials), trials, k2, self.REF_TRIALS)
        return fails


def _grid_pairs(config):
    """Analytic (OP1, OP2) over the 1 dB budget grid, and at the fixed gain."""
    pairs = []
    for x in GRID_DBM:
        probe = replace(config, pt_ris_dbm=x, alpha_mode="from_power")
        pairs.append((risnoma.analytic_outage(probe, 1).op,
                      risnoma.analytic_outage(probe, 2).op))
    fixed = replace(config, alpha_mode="fixed")
    return pairs, (risnoma.analytic_outage(fixed, 1).op,
                   risnoma.analytic_outage(fixed, 2).op)


class AnalyticOpt:
    """Optimized-gain analytic sweeps of presets fig4, fig5, fig6 and fig8."""

    PRESETS = ("fig4", "fig5", "fig6", "fig8")
    QUAD_SIZES = (256, 320, 384, 448, 512)

    def __init__(self, seed, out_dir, timer):
        self.out_dir = out_dir
        base = risnoma.validate(risnoma.SystemConfig(seed=config_seed(seed)))
        self.variants = [
            (f"{name}_{v.label}", v.spec, replace(base, **v.overrides))
            for name in self.PRESETS for v in risnoma.preset(name)
            if v.spec.alpha_mode == "optimized"
        ]
        timer.wrap_run_point()

    def run_round(self):
        out = {}
        for label, spec, cfg in self.variants:
            path = os.path.join(self.out_dir, f"{label}.csv")
            rows, _ = risnoma.sweep.run_sweep(spec, cfg, path)
            out[label] = [(r.sweep_value, r.user, r.op, r.alpha, r.mode) for r in rows]
        return out

    def _points(self, out):
        """(label, point config, op1, op2, alpha, mode) per optimized point."""
        points = []
        for label, spec, cfg in self.variants:
            base = replace(cfg, alpha_mode=spec.alpha_mode)
            rows = out[label]
            for (value, u1, op1, alpha, mode), (_, u2, op2, _, _) in zip(rows[::2], rows[1::2]):
                if (u1, u2) != (1, 2) or mode.startswith("error"):
                    continue
                point = risnoma.validate(risnoma.sweep.apply_param(base, spec.param, value))
                points.append((f"{label} {spec.param}={value:g}", point, op1, op2, alpha, mode))
        return points

    def check(self, outputs):
        fails = []
        for i, out in enumerate(outputs[1:], 1):
            fails += checks.check_same(f"round {i} vs round 0", out, outputs[0])
        points = self._points(outputs[0])
        # the grid is the costly part: spread it over at most nproc processes
        workers = max(1, min(2, os.cpu_count() or 1))
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            grids = list(pool.map(_grid_pairs, [p[1] for p in points]))
        for (label, _, op1, op2, _, mode), (grid, fixed) in zip(points, grids):
            fails += checks.check_optimum(label, mode, op1, op2, grid, fixed, TAU)

        default = risnoma.validate(risnoma.SystemConfig())
        n_default = n_quad = 0
        for label, point, _, _, alpha, _ in points:
            if replace(point, seed=default.seed, alpha_mode=default.alpha_mode) == default:
                n_default += 1
                fails += checks.check_default_optimum(
                    label, checks.optimum_budget_dbm(SCENARIO, default.m_active, alpha), alpha)
            if label.startswith("fig4_opt") and point.m_active in self.QUAD_SIZES:
                n_quad += 1
                quiet = replace(point, alpha_mode="fixed", alpha_linear=alpha,
                                epsilon_sic=0.0, namp_dbm=-300.0)
                res = risnoma.analytic_outage(quiet, 2)
                p_q, e_q = checks.quad_outage_u2(SCENARIO, point.m_active, point.n_passive, alpha)
                fails += checks.check_quad(f"{label} quad", res.op, res.std_err,
                                           p_q, e_q, quiet.quad_tol)
        # fig4 at M=N=512, fig6 at rate 2 and fig8 at eps 0 are the default config
        fails += checks.check_same("default-config optima checked", n_default, 3)
        fails += checks.check_same("quadrature points checked", n_quad, len(self.QUAD_SIZES))
        return fails


class Fig3Cli:
    """The CLI's fig3 preset, timed with --workers 1, checked against --workers 2.

    The timed rounds stay on one process: on a shared two-vCPU host a load on
    both vCPUs is exposed to the host taking either of them away, which made
    a two-worker round's time spread about twice as wide.  The two-worker
    run, with its process pool per MC point, is made once per invocation as
    a check, and the traced run takes its pool figures from it.
    """

    TRIALS = 1300          # four full 325-trial blocks at M=N=512
    M = 512                # fig3's surface size, M = N
    EXPECTED_ROWS = 84     # 21 budgets x 2 users x 2 methods
    POOL_WORKERS = 2

    def __init__(self, seed, out_dir, timer):
        self.seed = config_seed(seed)
        self.out_dir = out_dir
        timer.wrap_run_point()

    def _argv(self, workers, out_dir):
        return ["preset", "fig3", "--workers", str(workers), "--allow-noisy",
                "--trials", str(self.TRIALS), "--seed", str(self.seed),
                "--out-dir", out_dir]

    def _main(self, workers, out_dir):
        with contextlib.redirect_stderr(io.StringIO()):
            return risnoma.cli.main(self._argv(workers, out_dir))

    @staticmethod
    def _read(exit_code, out_dir):
        path = os.path.join(out_dir, "fig3.csv")
        with open(path, encoding="utf-8") as fh:
            body = list(csv.reader(line for line in fh if not line.startswith("#")))
        return (exit_code, tuple(body[0]) if body else (), body[1:],
                risnoma.sweep.determinism_signature(path))

    def run_round(self):
        return self._main(1, self.out_dir)

    def after_round(self, exit_code):
        return self._read(exit_code, self.out_dir)

    def check(self, outputs):
        pooled_dir = os.path.join(self.out_dir, "pooled")
        pooled = self._read(self._main(self.POOL_WORKERS, pooled_dir), pooled_dir)
        labelled = [(f"round {i}", out) for i, out in enumerate(outputs)]
        labelled.append((f"workers={self.POOL_WORKERS}", pooled))
        fails = []
        for label, (code, columns, rows, _) in labelled:
            fails += checks.check_preset_csv(label, code, columns, rows,
                                             CSV_COLUMNS, self.EXPECTED_ROWS)
        for i, out in enumerate(outputs):
            fails += checks.check_same(
                f"round {i} determinism_signature vs workers={self.POOL_WORKERS}",
                out[3], pooled[3])
        return fails + self.check_values(outputs[0][2])

    @classmethod
    def check_values(cls, rows):
        """Each row's gain against its budget; each MC outage against the analytic one."""
        at = {c: i for i, c in enumerate(CSV_COLUMNS)}
        rows = [r for r in rows if len(r) == len(CSV_COLUMNS)
                and not r[at["mode"]].startswith("error")]
        by_key = {(r[at["sweep_value"]], r[at["user"]], r[at["method"]]): r for r in rows}
        fails, compared = [], 0
        for (value, user, method), row in by_key.items():
            label = f"budget {value} dBm user {user}"
            fails += checks.check_gain(f"{label} {method}", float(row[at["alpha"]]),
                                       checks.gain_from_budget(SCENARIO, cls.M, float(value)))
            if method != "mc":
                continue
            an = by_key.get((value, user, "analytic"))
            if an is None:
                fails.append(f"{label}: MC row without an analytic row")
                continue
            op_an = float(an[at["op"]])
            fails += checks.check_mc_vs_analytic(label, float(row[at["op"]]), cls.TRIALS, op_an)
            compared += checks.MODERATE_OP[0] <= op_an <= checks.MODERATE_OP[1]
        if not compared:
            fails.append("no budget with a moderate analytic outage to compare MC against")
        return fails


WORKLOADS = {"mc_sizes": McSizes, "analytic_opt": AnalyticOpt, "fig3_cli": Fig3Cli}


# ---------------------------------------------------------------------------


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # Linux reports KiB


def run(name, seed, seconds, trace, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    timer = PointTimer()
    work = WORKLOADS[name](seed, out_dir, timer)
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}
    cpus = []   # process CPU time of each untraced round: it leaves out steal
    point_ms = []   # per untraced round, the time of each of its points in order
    outputs, counts, summaries = [], [], []
    span_range = None
    t_start = time.perf_counter()
    while True:
        traced = trace and len(outputs) % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.install()
        n_points = len(timer.points)
        c0, t0 = time.process_time(), time.perf_counter()
        out = work.run_round()
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
            summary = tracing.summarize(tracer.spans, first, len(tracer.spans))
            summaries.append(summary)
            counts.append(tracing.round_counts(summary))
            span_range = span_range or (first, len(tracer.spans))
        else:
            cpus.append(time.process_time() - c0)
            point_ms.append([p[1] for p in timer.points[n_points:]])
        if hasattr(work, "after_round"):
            out = work.after_round(out)
        outputs.append(out)
        if len(timer.points) == n_points:
            raise RuntimeError("a round recorded no points")
        # two rounds at least: a median over rounds, and in a traced run one
        # untraced and one traced round
        if time.perf_counter() - t_start >= seconds and len(outputs) >= 2:
            break
    rss = peak_rss_mb()
    points = list(timer.points)   # the checks below may call run_point again

    if trace:   # the pool figures come from fig3_cli's --workers 2 check run
        first = len(tracer.spans)
        tracer.install()
    fails = work.check(outputs)
    if trace:
        tracer.uninstall()
        checked = tracing.summarize(tracer.spans, first, len(tracer.spans))
    for i, c in enumerate(counts[1:], 1):
        fails += checks.check_same(f"traced round {i} work counts", c, counts[0])

    ops = {}
    for point_id, _, failed in points:
        rec = ops.setdefault(point_id, [0, 0])
        rec[0] += 1
        rec[1] += int(failed)
    result = {
        "correct": not fails,
        "failures": fails,
        "attempted": len(points),
        "failed": sum(1 for p in points if p[2]),
        "ops": ops,
        "rounds": len(outputs),
        "wall_s": walls[False],
        "traced_wall_s": walls[True],
        "cpu_s": cpus,
        "point_ms": point_ms,
        "peak_rss_mb": rss,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "risnoma": risnoma.__version__},
    }
    if trace:
        layer, absent = tracing.layer_metrics(summaries, checked, tracer.missing)
        layer["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - statistics.median(walls[False]),
            "unit": "s"}
        result["layer"] = layer
        result["absent"] = absent
        _write_spans(os.path.join(out_dir, "trace_spans.json"), tracer.spans, *span_range)
    return result


def _write_spans(path, spans, first, last):
    """The first traced round's spans: [name, start s, end s, parent, count, count2]."""
    t0 = spans[first][1]
    rows = [[s[0], s[1] - t0, s[2] - t0, s[3] - first if s[3] >= first else -1, s[4], s[5]]
            for s in spans[first:last]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "count", "count2"],
                   "spans": rows}, fh, separators=(",", ":"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
