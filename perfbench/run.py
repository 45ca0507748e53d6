#!/usr/bin/env python3
"""risnoma benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Run from the root of a risnoma checkout:

    python3 perfbench/run.py --workload mc_sizes --seed 1 --seconds 20 --trace 0

The set-up time comes from fresh interpreters that import risnoma; the
workload runs in one more fresh process (workload.py) for --seconds of
whole rounds, then checks its outputs.  The last stdout line is the JSON
result; a record of the run (environment, points attempted and failed,
check failures) goes to .perfbench_out/<workload>/.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES = 3                # fresh interpreters timed per probe kind
CHILD_TIMEOUT_S = 150.0
OUT_ROOT = ".perfbench_out"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, timeout):
    # a session of its own, so a timeout also ends the child's pool workers
    proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(args)} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def probe(kind, env, src):
    out = run_child([os.path.join(HERE, "probe.py"), kind], env, 60.0)
    if kind == "import" and not os.path.abspath(out["file"]).startswith(src + os.sep):
        fail(f"imported risnoma from {out['file']}, not from {src}")
    return out


def src_lines(src):
    total = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "risnoma", "__init__.py")):
        fail(f"no risnoma sources under {src}; run from the root of a risnoma checkout")
    compileall.compile_dir(src, quiet=1)   # byte-compile once, outside any timing
    env = child_env(root)
    out_dir = os.path.join(root, OUT_ROOT, args.workload)   # workload.py checks the name

    t0 = time.perf_counter()
    imports = [probe("import", env, src) for _ in range(PROBES)]
    stats = [probe("scipy_stats", env, src) for _ in range(PROBES)] if args.trace else []
    setup_wall = time.perf_counter() - t0

    res = run_child([os.path.join(HERE, "workload.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out-dir", out_dir],
                    env, CHILD_TIMEOUT_S)

    if args.trace:
        metrics = dict(res["layer"])
        metrics["setup.import_ms"] = {
            "value": statistics.median(p["import_s"] for p in imports) * 1e3, "unit": "ms"}
        loads = all(p["loads_scipy_stats"] for p in imports)
        metrics["setup.scipy_stats_import_ms"] = {
            "value": statistics.median(p["s"] for p in stats) * 1e3 if loads else 0.0,
            "unit": "ms"}
        if res["absent"]:
            print(f"perfbench: absent (traced function gone): {', '.join(res['absent'])}",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in imports), "unit": "s"},
            "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
            # rounds repeat the same points in the same order: each point's
            # median over the rounds, then the median over the points
            "point_ms_p50": {"value": statistics.median(
                statistics.median(p) for p in zip(*res["point_ms"])), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "versions": res["versions"], "src_lines": src_lines(src),
        "setup_probe_s": [p["setup_s"] for p in imports], "setup_wall_s": setup_wall,
        "rounds": res["rounds"], "wall_s": res["wall_s"],
        "traced_wall_s": res["traced_wall_s"], "cpu_s": res["cpu_s"],
        "point_ms": res["point_ms"], "ops": res["ops"],
        "check_failures": res["failures"], "absent": res.get("absent", []),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"run-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in res["failures"]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
