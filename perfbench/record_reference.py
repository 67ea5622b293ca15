"""Record the reference row digest and work counters for the default seed.

    python3 perfbench/record_reference.py

Runs one untraced and one traced pass (``run.measure`` in trace mode) of every workload at
``run.DEFAULT_SEED`` and writes ``reference.json``.  Re-record only in a
change that is meant to alter the rows or the work the simulator does;
``run.py`` fails any run of the default seed that disagrees with it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    run.SCRATCH.mkdir(exist_ok=True)
    for name in WORKLOADS:
        run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.SCRATCH)
        try:
            raw = run.measure(name, run.DEFAULT_SEED, 0, True, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        problems = run.verify(name, run.DEFAULT_SEED, raw, {})
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        metrics = run.layer_report(raw)
        reference[name] = {
            "digest": raw["traced"]["digest"],
            "counters": {k: v for k, v in metrics.items() if run.unit_of(k) == "count"},
        }
        print(f"{name}: {reference[name]['digest']}", file=sys.stderr)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
