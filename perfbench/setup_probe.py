"""Time a cold start in this fresh interpreter; print the seconds.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Times ``import repro``, plugin discovery and ``SweepSpec.validate()`` of
the workload's specs: the set-up a user pays before the first cell runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.sim import experiments

    experiments.ensure_discovered()
    for spec in WORKLOADS[args.workload].specs(args.seed, store_dir="."):
        spec.validate()
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
