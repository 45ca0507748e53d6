"""Parameter sweeps, figure-style presets, and CSV artifacts.

A sweep varies one configuration key over a value list and evaluates the
requested methods for both users at every point.  Output is CSV with a
commented JSON header echoing the full base configuration; a re-run with
the same seed is identical apart from the commented timestamp line and
the wall-time column.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import at_budget, resolve_alpha
from .config import FIELD_TYPES, ConfigError, SystemConfig, read_bool, read_int, validate
from .optimizer import METHODS, optimize_batch, outage_pairs

CSV_COLUMNS = ("sweep_param", "sweep_value", "user", "method", "op", "err",
               "alpha", "mode", "ms")

# sets both partition sizes at once (the default experiments keep M = N)
VIRTUAL_PARAMS = {"ris_size": ("m_active", "n_passive")}

INT_PARAMS = {k for k, kind in FIELD_TYPES.items() if kind is int} | set(VIRTUAL_PARAMS)
BOOL_PARAMS = {k for k, kind in FIELD_TYPES.items() if kind is bool}

NOISY_REL_STD_ERR = 0.2    # MC rows noisier than this need --allow-noisy
FLOOR_EVENTS = 1000        # events below which an MC tail point is floor-limited
PRESET_TRIALS = 20_000     # desk-scale MC trial count of the CLI presets


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple
    methods: tuple = METHODS
    alpha_mode: str | None = None  # override the base config's mode per point
    label: str = ""

    def check(self):
        if len(self.values) < 2:
            raise ConfigError([f"sweep needs at least 2 values, got {len(self.values)}"])
        if self.param not in FIELD_TYPES and self.param not in VIRTUAL_PARAMS:
            raise ConfigError([f"unknown sweep parameter {self.param!r}"])
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError([f"unknown methods {bad}; choose from {METHODS}"])


@dataclass(frozen=True)
class ResultRow:
    sweep_param: str
    sweep_value: float     # an int for an integer parameter
    user: int
    method: str
    op: float
    err: float
    alpha: float
    mode: str
    ms: float
    config_digest: str = ""
    trials: int = 0        # MC trials behind op; 0 for analytic and error rows
    error: str = ""        # why an error row failed (not a CSV column)

    def csv_fields(self):
        return (
            self.sweep_param, fmt_value(self.sweep_value), str(self.user), self.method,
            fmt_value(self.op), fmt_value(self.err), fmt_value(self.alpha), self.mode,
            f"{self.ms:.1f}",
        )


def fmt_value(x) -> str:
    """A CSV cell: integers exact, floats to 10 significant digits."""
    if isinstance(x, int):
        return str(x)  # an integer parameter's value, exact however large
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.10g}"


def parse_values(text: str, as_int: bool = False):
    """Value lists: 'a,b,c', 'start:stop:step', or 'log:start:stop:npoints'.

    With `as_int`, a comma list or a start:stop:step range is read with
    config.read_int, so large integers (seeds) keep every digit and a
    fractional value is refused; log-spaced values round to the nearest
    integer.
    """
    text = text.strip()
    if text.startswith("log:"):
        parts = text[4:].split(":")
        if len(parts) != 3:
            raise ValueError(f"log spec needs log:start:stop:n, got {text!r}")
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
        if start <= 0 or stop <= 0:
            raise ValueError("log-spaced values must be positive")
        vals = np.geomspace(start, stop, n)
    elif ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range spec needs start:stop:step, got {text!r}")
        start, stop, step = (read_int(p) if as_int else float(p) for p in parts)
        if step <= 0:
            raise ValueError("step must be positive")
        if as_int:
            # the float rule below, values < stop + step/2, in exact integers
            return tuple(range(start, stop + (step + 1) // 2, step))
        vals = np.arange(start, stop + step / 2.0, step)
    else:
        parts = [p for p in text.split(",") if p.strip() != ""]
        if as_int:
            return tuple(read_int(p) for p in parts)
        vals = np.array([float(p) for p in parts])
    if as_int:
        return tuple(int(round(v)) for v in vals)
    return tuple(float(v) for v in vals)


def apply_param(config: SystemConfig, param: str, value) -> SystemConfig:
    """The config with one sweep parameter set; a fractional value for an
    integer parameter raises ConfigError, and so does a value for a bool
    parameter that the config file's rule does not read as true (1) or
    false (0)."""
    try:
        if param in INT_PARAMS:
            value = read_int(value)
        elif param in BOOL_PARAMS:
            value = read_bool(fmt_value(value))
    except ValueError as exc:
        raise ConfigError([f"{param}: {exc}"]) from None
    keys = VIRTUAL_PARAMS.get(param, (param,))
    return replace(config, **dict.fromkeys(keys, value))


def _error_rows(param, value, methods, exc, alpha, ms, digest=""):
    """NaN rows for a failed point or method, (method, user) ordered like result rows."""
    return [ResultRow(
        sweep_param=param, sweep_value=value, user=user, method=method,
        op=float("nan"), err=float("nan"), alpha=alpha,
        mode=f"error:{type(exc).__name__}", ms=ms, config_digest=digest,
        error=str(exc),
    ) for method in methods for user in (1, 2)]


def run_point(config: SystemConfig, methods=METHODS, *, workers: int = 1,
              sweep_param: str = "point", sweep_value: float = 0.0, searched=None):
    """Evaluate one configuration; one row per (user, method).

    An optimized gain is searched for here, unless `searched` brings the
    search's result from elsewhere (`run_sweep` searches its points in one
    `optimize_batch`): the OptimizationOutcome, or the exception the search
    raised, and the ms it is charged."""
    rows = []
    digest = config.digest()
    mode = config.alpha_mode
    eval_config = config
    known = {}   # method -> its pair at the optimum, as the search evaluated it

    if config.alpha_mode == "optimized":
        if searched is None:
            t0 = time.perf_counter()
            outcome, = optimize_batch([config], evaluator="analytic")
            searched = outcome, (time.perf_counter() - t0) * 1e3
        outcome, opt_ms = searched
        if isinstance(outcome, Exception):  # the point fails; the run continues
            return _error_rows(sweep_param, sweep_value, methods, outcome,
                               float("nan"), opt_ms, digest)
        eval_config = at_budget(config, outcome.pt_ris_dbm)
        mode = outcome.mode
        known["analytic"] = outcome.results
    else:
        opt_ms = 0.0
    alpha = resolve_alpha(eval_config)

    for method in methods:
        t0 = time.perf_counter()
        try:
            pair = known.get(method) or outage_pairs([eval_config], method, workers=workers)[0]
            ms = (time.perf_counter() - t0) * 1e3 + opt_ms
            for res in pair:
                rows.append(ResultRow(
                    sweep_param=sweep_param, sweep_value=sweep_value,
                    user=res.user, method=method, op=res.op, err=res.std_err,
                    alpha=alpha, mode=mode, ms=ms, config_digest=digest,
                    trials=res.trials,
                ))
        except Exception as exc:  # per-row failure; the run continues
            ms = (time.perf_counter() - t0) * 1e3 + opt_ms
            rows.extend(_error_rows(sweep_param, sweep_value, (method,), exc,
                                    alpha, ms, digest))
    return rows


def noisy_reason(row: ResultRow) -> str:
    """Why an MC estimate is not yet a result, or "" when it is one: no
    outage event in its trials, or a standard error above NOISY_REL_STD_ERR
    of the estimate."""
    if row.method != "mc" or row.trials <= 0:
        return ""
    if row.op == 0.0:
        return f"no outage event in {row.trials} trials"
    if row.err > NOISY_REL_STD_ERR * row.op:
        return f"std_err {row.err:.3g} > {NOISY_REL_STD_ERR:.0%} of op {row.op:.3g}"
    return ""


def is_noisy(row: ResultRow) -> bool:
    return bool(noisy_reason(row))


def _floor_limited(row: ResultRow) -> bool:
    return (row.method == "mc" and math.isfinite(row.op)
            and row.op < FLOOR_EVENTS / row.trials)


def run_sweep(spec: SweepSpec, base: SystemConfig, out_path=None, *,
              workers: int = 1):
    """Run a sweep; returns (rows, noisy_rows) and optionally writes CSV.

    Each distinct point is evaluated once: a point whose config differs
    from an earlier one only in how the gain is set (pt_ris_dbm,
    alpha_mode, alpha_linear; say two budgets past the 30 dB cap) and that
    implies the same gain, not an optimized one, takes that point's rows
    with its own sweep_value and config_digest, and ms 0.  The optimized
    points' gains are searched in lockstep (`optimize_batch`), and each
    such point is charged an even share of that batch's time.
    """
    spec.check()
    if spec.alpha_mode is not None:
        base = replace(base, alpha_mode=spec.alpha_mode)
    base = validate(base)

    points = []
    for value in spec.values:
        try:
            points.append((value, validate(apply_param(base, spec.param, value))))
        except ConfigError as exc:
            points.append((value, exc))
    optimized = [p for _, p in points
                 if isinstance(p, SystemConfig) and p.alpha_mode == "optimized"]
    t0 = time.perf_counter()
    outcomes = iter(optimize_batch(optimized, evaluator="analytic"))
    share = (time.perf_counter() - t0) * 1e3 / max(1, len(optimized))

    rows = []
    evaluated = {}   # the gain-free config of each point evaluated -> its rows
    for value, point in points:
        if isinstance(point, ConfigError):
            rows.extend(_error_rows(spec.param, value, spec.methods, point,
                                    float("nan"), 0.0))
            continue
        key = None
        if point.alpha_mode != "optimized":
            key = replace(point, pt_ris_dbm=base.pt_ris_dbm, alpha_mode="fixed",
                          alpha_linear=resolve_alpha(point))
        if key in evaluated:
            rows.extend(replace(r, sweep_value=value, config_digest=point.digest(), ms=0.0)
                        for r in evaluated[key])
            continue
        point_rows = run_point(point, spec.methods, workers=workers,
                               sweep_param=spec.param, sweep_value=value,
                               searched=(next(outcomes), share) if key is None else None)
        if key is not None:
            evaluated[key] = point_rows
        rows.extend(point_rows)

    noisy = [r for r in rows if is_noisy(r)]
    if out_path is not None:
        write_csv(out_path, rows, base, spec)
    return rows, noisy


def write_csv(path, rows, base: SystemConfig, spec: SweepSpec):
    header = {
        "config": {f.name: getattr(base, f.name) for f in fields(base)},
        "config_digest": base.digest(),
        "sweep": {
            "param": spec.param, "values": list(spec.values),
            "methods": list(spec.methods), "alpha_mode": spec.alpha_mode,
            "label": spec.label,
        },
    }
    lines = [
        "# " + json.dumps(header, sort_keys=True),
        "# generated: " + time.strftime("%Y-%m-%dT%H:%M:%S"),
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(r.csv_fields()) for r in rows]
    floor = sorted(
        f"{fmt_value(r.sweep_value)}/u{r.user}" for r in rows if _floor_limited(r)
    )
    if floor:
        lines.append(f"# floor-limited (fewer than {FLOOR_EVENTS} events): "
                     + " ".join(floor))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def determinism_signature(path) -> str:
    """Digest of the reproducible CSV body.

    Comment lines and the wall-time column are excluded; everything else
    must be byte-identical across re-runs with the same seed, whatever the
    worker count.
    """
    kept = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            kept.append(",".join(line.rstrip("\n").split(",")[:-1]))
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


# ---------------------------------------------------------------------------
# presets reproducing the default experiment axes


@dataclass(frozen=True)
class PresetVariant:
    label: str        # output file suffix
    overrides: dict   # applied to the base config before sweeping
    spec: SweepSpec


def _variant(fig: str, label: str, param: str, values: tuple, alpha_mode: str,
             **overrides) -> PresetVariant:
    """One preset sweep: analytic only for an optimized gain, MC and
    analytic otherwise; the spec label is fig or fig_label."""
    return PresetVariant(label, overrides, SweepSpec(
        param=param, values=values,
        methods=METHODS if alpha_mode != "optimized" else ("analytic",),
        alpha_mode=alpha_mode, label=f"{fig}_{label}" if label else fig))


_GAIN_MODES = (("fixed", "fixed"), ("opt", "optimized"))   # (label, alpha_mode)


def preset(name: str):
    """The sweep(s) behind one canned experiment."""
    ris_budget = tuple(float(x) for x in range(-70, -9, 3))
    if name == "fig3":
        return [_variant("fig3", "", "pt_ris_dbm", ris_budget, "from_power")]
    if name == "fig4":
        sizes = tuple(range(64, 513, 64))
        return [_variant("fig4", label, "ris_size", sizes, mode)
                for label, mode in _GAIN_MODES]
    if name == "fig5":
        powers = tuple(float(x) for x in range(0, 24, 2))
        return [_variant("fig5", f"m{size}_{label}", "pt_user_dbm", powers, mode,
                         m_active=size, n_passive=size)
                for size in (128, 512) for label, mode in _GAIN_MODES]
    if name == "fig6":
        rates = tuple(float(x) for x in range(0, 10))
        return [_variant("fig6", label, "rate_threshold_bps_hz", rates, mode)
                for label, mode in _GAIN_MODES]
    if name == "fig7":
        return [_variant("fig7", f"eps{label}", "pt_ris_dbm", ris_budget, "from_power",
                         epsilon_sic=eps)
                for label, eps in (("0", 0.0), ("001", 0.01), ("01", 0.1))]
    if name == "fig8":
        eps_values = (0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.5)
        return [_variant("fig8", f"m{size}_{label}", "epsilon_sic", eps_values, mode,
                         m_active=size, n_passive=size)
                for size, label, mode in ((256, "fixed", "fixed"),
                                          (512, "fixed", "fixed"),
                                          (512, "opt", "optimized"))]
    raise ValueError(f"unknown preset {name!r}; choose fig3..fig8")


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def run_preset(name: str, base: SystemConfig, out_dir, *, workers: int = 1):
    """Run every variant of a preset at base.mc_trials trials (the CLI's
    base has PRESET_TRIALS); returns [(csv_path, rows, noisy)]."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    results = []
    for variant in preset(name):
        cfg = replace(base, **variant.overrides)
        suffix = f"_{variant.label}" if variant.label else ""
        path = os.path.join(out_dir, f"{name}{suffix}.csv")
        rows, noisy = run_sweep(variant.spec, cfg, path, workers=workers)
        results.append((path, rows, noisy))
    return results
