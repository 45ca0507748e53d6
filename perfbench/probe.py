"""Set-up probe, run in a fresh interpreter by run.py; prints one JSON line.

    probe.py import       time `import risnoma` plus validate() of the base config
    probe.py scipy_stats  time `import scipy.stats` after numpy, as risnoma pulls it in
"""

import json
import sys
import time


def main(kind):
    if kind == "import":
        t0 = time.perf_counter()
        import risnoma
        t1 = time.perf_counter()
        risnoma.validate(risnoma.SystemConfig())
        t2 = time.perf_counter()
        return {"import_s": t1 - t0, "setup_s": t2 - t0, "file": risnoma.__file__,
                "loads_scipy_stats": "scipy.stats" in sys.modules}
    if kind == "scipy_stats":
        import numpy  # noqa: F401  (risnoma's first dependency; not timed)
        t0 = time.perf_counter()
        import scipy.stats  # noqa: F401
        return {"s": time.perf_counter() - t0}
    raise SystemExit(f"unknown probe {kind!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
