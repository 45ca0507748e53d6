"""Command-line front end.

Subcommands: validate, point, sweep, optimize, preset.  Exit code 0 only
if every produced row succeeded (and, for MC rows, met the noise bar or
--allow-noisy was given).
"""

import argparse
import json
import math
import sys
from dataclasses import fields, replace

from . import __version__
from .config import SystemConfig, apply_overrides, load_config, read_int, validate
from .optimizer import METHODS, optimize
from .sweep import (INT_PARAMS, PRESET_NAMES, PRESET_TRIALS, SweepSpec, fmt_value,
                    is_noisy, noisy_reason, parse_values, run_point, run_preset,
                    run_sweep)

# --method: one of METHODS, or "both" for every one of them
METHOD_CHOICES = {**{m: (m,) for m in METHODS}, "both": METHODS}


def _workers(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(p):
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (repeatable)")
    p.add_argument("--seed", type=read_int, help="override the RNG seed")
    p.add_argument("--trials", type=read_int, help="override the MC trial count")
    p.add_argument("--workers", type=_workers, default=1,
                   help="worker processes for MC blocks, at most one per block (default 1)")


def _build_config(args, base: SystemConfig = SystemConfig()) -> SystemConfig:
    """`base` overridden by --config, then --set, then --seed and --trials."""
    cfg = load_config(args.config, base) if args.config else base
    cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, mc_trials=args.trials)
    return validate(cfg)


def _cmd_validate(args) -> int:
    cfg = _build_config(args)
    print(json.dumps({f.name: getattr(cfg, f.name) for f in fields(cfg)},
                     indent=2, sort_keys=True))
    print(f"# ok, digest={cfg.digest()}", file=sys.stderr)
    return 0


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def _exit_status(rows, allow_noisy: bool) -> int:
    """Print each failure's message and each noisy row's reason to stderr.

    Returns 1 if a row failed, or is noisy without --allow-noisy, else 0.
    """
    failures = dict.fromkeys(
        f"error: {r.sweep_param}={fmt_value(r.sweep_value)} {r.method}: "
        f"{r.mode.removeprefix('error:')}: {r.error}"
        for r in rows if r.mode.startswith("error"))
    noisy = [f"noisy: {r.sweep_param}={fmt_value(r.sweep_value)} {r.method} "
             f"user {r.user}: {why}" for r in rows if (why := noisy_reason(r))]
    for line in [*failures, *noisy]:
        print(line, file=sys.stderr)
    if noisy and not allow_noisy:
        print("error: noisy MC rows; raise --trials or pass --allow-noisy",
              file=sys.stderr)
    return int(bool(failures) or (bool(noisy) and not allow_noisy))


def _cmd_point(args) -> int:
    cfg = _build_config(args)
    rows = run_point(cfg, METHOD_CHOICES[args.method], workers=args.workers)
    if args.json:
        print(json.dumps([{
            "user": r.user, "method": r.method, "op": _finite_or_none(r.op),
            "err": _finite_or_none(r.err), "trials": r.trials,
            "noisy": is_noisy(r), "alpha": _finite_or_none(r.alpha),
            "mode": r.mode, "error": r.error or None,
            "config_digest": r.config_digest,
        } for r in rows], indent=2, allow_nan=False))
    else:
        for r in rows:
            flag = "  [noisy]" if is_noisy(r) else ""
            if r.mode.startswith("error"):
                flag = f"  [{r.mode}] {r.error}"
            print(f"user {r.user}  {r.method:>8}  op={r.op:.6g}  "
                  f"err={r.err:.3g}{flag}")
    return _exit_status(rows, args.allow_noisy)


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    values = parse_values(args.values, as_int=args.param in INT_PARAMS)
    spec = SweepSpec(param=args.param, values=values, methods=METHOD_CHOICES[args.method])
    rows, _ = run_sweep(spec, cfg, args.out, workers=args.workers)
    print(f"wrote {args.out}: {len(rows)} rows", file=sys.stderr)
    return _exit_status(rows, args.allow_noisy)


def _cmd_optimize(args) -> int:
    cfg = _build_config(args)
    outcome = optimize(cfg, interval_dbm=tuple(args.interval), tol_db=args.tol_db,
                       evaluator=args.evaluator, workers=args.workers)
    payload = {
        "pt_ris_dbm": outcome.pt_ris_dbm, "alpha": outcome.alpha,
        "op1": outcome.op1, "op2": outcome.op2, "gap": outcome.gap,
        "delta_max_op": outcome.delta, "mode": outcome.mode,
        "evaluations": outcome.evaluations,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_preset(args) -> int:
    cfg = _build_config(args, SystemConfig(mc_trials=PRESET_TRIALS))
    status = 0
    for path, rows, _ in run_preset(args.name, cfg, args.out_dir, workers=args.workers):
        print(f"wrote {path}: {len(rows)} rows", file=sys.stderr)
        status |= _exit_status(rows, args.allow_noisy)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risnoma",
        description=f"Hybrid-RIS uplink NOMA outage simulator (v{__version__})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration and echo it")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("point", help="evaluate one configuration")
    _add_common(p)
    p.add_argument("--method", choices=METHOD_CHOICES, default="both")
    p.add_argument("--allow-noisy", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_point)

    p = sub.add_parser("sweep", help="sweep one parameter, write CSV")
    _add_common(p)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True,
                   help="'a,b,c', 'start:stop:step', or 'log:a:b:n'; a list that "
                        "starts with '-' goes as --values=-70:-10:3, since argparse "
                        "reads a separate '-70:-10:3' as an option")
    p.add_argument("--method", choices=METHOD_CHOICES, default="both")
    p.add_argument("--out", required=True)
    p.add_argument("--allow-noisy", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("optimize", help="solve the power-budget fairness problem")
    _add_common(p)
    p.add_argument("--interval", type=float, nargs=2, default=(-70.0, -10.0),
                   metavar=("LO_DBM", "HI_DBM"))
    p.add_argument("--tol-db", type=float, default=0.1)
    p.add_argument("--evaluator", choices=METHODS, default="analytic")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("preset", help="run a canned experiment sweep")
    _add_common(p)
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--allow-noisy", action="store_true")
    p.set_defaults(fn=_cmd_preset)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
