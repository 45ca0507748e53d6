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

from .analytic import analytic_outage
from .config import ConfigError, SystemConfig, validate
from .montecarlo import estimate_outage_pair
from .optimizer import OptimizerSettings, optimize
from .ris import resolve_alpha

CSV_COLUMNS = ("sweep_param", "sweep_value", "user", "method", "op", "err",
               "alpha", "mode", "ms")

# sets both partition sizes at once (the default experiments keep M = N)
VIRTUAL_PARAMS = {"ris_size": ("m_active", "n_passive")}

_CONFIG_KEYS = {f.name for f in fields(SystemConfig)}
INT_PARAMS = {"m_active", "n_passive", "ris_size", "active_user", "mc_trials", "seed"}

NOISY_REL_STD_ERR = 0.2    # MC rows noisier than this need --allow-noisy
FLOOR_EVENTS = 1000        # events below which an MC tail point is floor-limited


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple
    methods: tuple = ("mc", "analytic")
    alpha_mode: str | None = None  # override the base config's mode per point
    label: str = ""
    trials: int | None = None      # preset default trial count; CLI --trials wins

    def check(self):
        if len(self.values) < 2:
            raise ConfigError([f"sweep needs at least 2 values, got {len(self.values)}"])
        if self.param not in _CONFIG_KEYS and self.param not in VIRTUAL_PARAMS:
            raise ConfigError([f"unknown sweep parameter {self.param!r}"])
        bad = [m for m in self.methods if m not in ("mc", "analytic")]
        if bad:
            raise ConfigError([f"unknown methods {bad}"])


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
            self.sweep_param, _fmt(self.sweep_value), str(self.user), self.method,
            _fmt(self.op), _fmt(self.err), _fmt(self.alpha), self.mode,
            f"{self.ms:.1f}",
        )


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)  # an integer parameter's value, exact however large
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.10g}"


def parse_values(text: str, as_int: bool = False):
    """Value lists: 'a,b,c', 'start:stop:step', or 'log:start:stop:npoints'.

    With `as_int`, a comma list or a start:stop:step range is read with
    int(), so large integers (seeds) keep every digit.
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
        start, stop, step = (int(p) if as_int else float(p) for p in parts)
        if step <= 0:
            raise ValueError("step must be positive")
        if as_int:
            # the float rule below, values < stop + step/2, in exact integers
            return tuple(range(start, stop + (step + 1) // 2, step))
        vals = np.arange(start, stop + step / 2.0, step)
    else:
        parts = [p for p in text.split(",") if p.strip() != ""]
        if as_int:
            return tuple(int(p) for p in parts)
        vals = np.array([float(p) for p in parts])
    if as_int:
        return tuple(int(round(v)) for v in vals)
    return tuple(float(v) for v in vals)


def apply_param(config: SystemConfig, param: str, value) -> SystemConfig:
    if param in VIRTUAL_PARAMS:
        updates = {k: int(round(value)) for k in VIRTUAL_PARAMS[param]}
        return replace(config, **updates)
    if param in INT_PARAMS:
        value = int(round(value))
    return replace(config, **{param: value})


def run_point(config: SystemConfig, methods=("mc", "analytic"), *,
              workers: int = 1,
              optimizer_settings: OptimizerSettings | None = None,
              sweep_param: str = "point", sweep_value: float = 0.0):
    """Evaluate one configuration; one row per (user, method)."""
    rows = []
    digest = config.digest()
    mode = config.alpha_mode
    eval_config = config

    def error_rows(method, exc, alpha, ms):
        return [ResultRow(
            sweep_param=sweep_param, sweep_value=sweep_value,
            user=user, method=method, op=float("nan"), err=float("nan"),
            alpha=alpha, mode=f"error:{type(exc).__name__}", ms=ms,
            config_digest=digest, error=str(exc),
        ) for user in (1, 2)]

    if config.alpha_mode == "optimized":
        t0 = time.perf_counter()
        try:
            outcome = optimize(config, optimizer_settings or OptimizerSettings())
        except Exception as exc:  # the point fails; the run continues
            ms = (time.perf_counter() - t0) * 1e3
            return [row for method in methods
                    for row in error_rows(method, exc, float("nan"), ms)]
        opt_ms = (time.perf_counter() - t0) * 1e3
        eval_config = replace(config, pt_ris_dbm=outcome.pt_ris_dbm,
                              alpha_mode="from_power")
        mode = outcome.mode
        alpha = outcome.alpha
    else:
        opt_ms = 0.0
        alpha = resolve_alpha(config)

    for method in methods:
        t0 = time.perf_counter()
        try:
            if method == "mc":
                r1, r2 = estimate_outage_pair(eval_config, workers=workers)
            elif method == "analytic":
                r1, r2 = analytic_outage(eval_config, 1), analytic_outage(eval_config, 2)
            else:
                raise ValueError(f"unknown method {method!r}")
            ms = (time.perf_counter() - t0) * 1e3 + opt_ms
            for res in (r1, r2):
                rows.append(ResultRow(
                    sweep_param=sweep_param, sweep_value=sweep_value,
                    user=res.user, method=method, op=res.op, err=res.std_err,
                    alpha=alpha, mode=mode, ms=ms, config_digest=digest,
                    trials=res.trials,
                ))
        except Exception as exc:  # per-row failure; the run continues
            ms = (time.perf_counter() - t0) * 1e3 + opt_ms
            rows.extend(error_rows(method, exc, alpha, ms))
    return rows


def is_noisy(row: ResultRow) -> bool:
    """An MC estimate that is not yet a result: no outage event in its
    trials, or a standard error above NOISY_REL_STD_ERR of the estimate."""
    return (row.method == "mc" and row.trials > 0
            and (row.op == 0.0 or row.err > NOISY_REL_STD_ERR * row.op))


def _floor_limited(row: ResultRow) -> bool:
    return (row.method == "mc" and math.isfinite(row.op)
            and row.op < FLOOR_EVENTS / row.trials)


def run_sweep(spec: SweepSpec, base: SystemConfig, out_path=None, *,
              workers: int = 1,
              optimizer_settings: OptimizerSettings | None = None):
    """Run a sweep; returns (rows, noisy_rows) and optionally writes CSV."""
    spec.check()
    if spec.alpha_mode is not None:
        base = replace(base, alpha_mode=spec.alpha_mode)
    if spec.trials is not None:
        base = replace(base, mc_trials=spec.trials)
    base = validate(base)

    rows = []
    for value in spec.values:
        try:
            point = validate(apply_param(base, spec.param, value))
        except ConfigError as exc:
            for user in (1, 2):
                for method in spec.methods:
                    rows.append(ResultRow(
                        sweep_param=spec.param, sweep_value=value,
                        user=user, method=method, op=float("nan"),
                        err=float("nan"), alpha=float("nan"),
                        mode="error:ConfigError", ms=0.0, error=str(exc),
                    ))
            continue
        rows.extend(run_point(
            point, spec.methods, workers=workers,
            optimizer_settings=optimizer_settings,
            sweep_param=spec.param, sweep_value=value,
        ))

    noisy = [r for r in rows if is_noisy(r)]
    if out_path is not None:
        write_csv(out_path, rows, base, spec)
    return rows, noisy


def write_csv(path, rows, base: SystemConfig, spec: SweepSpec | None = None):
    header = {
        "config": {f.name: getattr(base, f.name) for f in fields(base)},
        "config_digest": base.digest(),
    }
    if spec is not None:
        header["sweep"] = {
            "param": spec.param, "values": list(spec.values),
            "methods": list(spec.methods), "alpha_mode": spec.alpha_mode,
            "label": spec.label,
        }
    lines = [
        "# " + json.dumps(header, sort_keys=True),
        "# generated: " + time.strftime("%Y-%m-%dT%H:%M:%S"),
        ",".join(CSV_COLUMNS),
    ]
    lines += [",".join(r.csv_fields()) for r in rows]
    floor = sorted(
        f"{_fmt(r.sweep_value)}/u{r.user}" for r in rows if _floor_limited(r)
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


def preset(name: str):
    """The sweep(s) behind one canned experiment, at desk-scale trial counts."""
    ris_budget = tuple(float(x) for x in range(-70, -9, 3))
    if name == "fig3":
        return [PresetVariant("", {}, SweepSpec(
            param="pt_ris_dbm", values=ris_budget, methods=("mc", "analytic"),
            alpha_mode="from_power", label="fig3", trials=20_000))]
    if name == "fig4":
        sizes = (64, 128, 192, 256, 320, 384, 448, 512)
        return [
            PresetVariant("fixed", {}, SweepSpec(
                param="ris_size", values=sizes, methods=("mc", "analytic"),
                alpha_mode="fixed", label="fig4_fixed", trials=20_000)),
            PresetVariant("opt", {}, SweepSpec(
                param="ris_size", values=sizes, methods=("analytic",),
                alpha_mode="optimized", label="fig4_opt")),
        ]
    if name == "fig5":
        powers = tuple(float(x) for x in range(0, 24, 2))
        out = []
        for size in (128, 512):
            out.append(PresetVariant(f"m{size}_fixed", {"m_active": size, "n_passive": size},
                                     SweepSpec(param="pt_user_dbm", values=powers,
                                               methods=("mc", "analytic"),
                                               alpha_mode="fixed",
                                               label=f"fig5_m{size}_fixed",
                                               trials=20_000)))
            out.append(PresetVariant(f"m{size}_opt", {"m_active": size, "n_passive": size},
                                     SweepSpec(param="pt_user_dbm", values=powers,
                                               methods=("analytic",),
                                               alpha_mode="optimized",
                                               label=f"fig5_m{size}_opt")))
        return out
    if name == "fig6":
        rates = tuple(float(x) for x in range(0, 10))
        return [
            PresetVariant("fixed", {}, SweepSpec(
                param="rate_threshold_bps_hz", values=rates,
                methods=("mc", "analytic"), alpha_mode="fixed",
                label="fig6_fixed", trials=20_000)),
            PresetVariant("opt", {}, SweepSpec(
                param="rate_threshold_bps_hz", values=rates,
                methods=("analytic",), alpha_mode="optimized", label="fig6_opt")),
        ]
    if name == "fig7":
        return [
            PresetVariant(f"eps{label}", {"epsilon_sic": eps}, SweepSpec(
                param="pt_ris_dbm", values=ris_budget, methods=("mc", "analytic"),
                alpha_mode="from_power", label=f"fig7_eps{label}", trials=20_000))
            for label, eps in (("0", 0.0), ("001", 0.01), ("01", 0.1))
        ]
    if name == "fig8":
        eps_values = (0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.5)
        out = [
            PresetVariant(f"m{size}_fixed", {"m_active": size, "n_passive": size},
                          SweepSpec(param="epsilon_sic", values=eps_values,
                                    methods=("mc", "analytic"), alpha_mode="fixed",
                                    label=f"fig8_m{size}_fixed", trials=20_000))
            for size in (256, 512)
        ]
        out.append(PresetVariant("m512_opt", {"m_active": 512, "n_passive": 512},
                                 SweepSpec(param="epsilon_sic", values=eps_values,
                                           methods=("analytic",),
                                           alpha_mode="optimized",
                                           label="fig8_m512_opt")))
        return out
    raise ValueError(f"unknown preset {name!r}; choose fig3..fig8")


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def run_preset(name: str, base: SystemConfig, out_dir, *, workers: int = 1,
               trials: int | None = None,
               optimizer_settings: OptimizerSettings | None = None):
    """Run every variant of a preset; returns [(csv_path, rows, noisy)]."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    results = []
    for variant in preset(name):
        cfg = replace(base, **variant.overrides)
        spec = variant.spec
        if trials is not None:
            spec = replace(spec, trials=trials)
        suffix = f"_{variant.label}" if variant.label else ""
        path = os.path.join(out_dir, f"{name}{suffix}.csv")
        rows, noisy = run_sweep(spec, cfg, path, workers=workers,
                                optimizer_settings=optimizer_settings)
        results.append((path, rows, noisy))
    return results
