#!/usr/bin/env python3
"""Record the output hash of every input any workload seed can draw.

    python3 perfbench/record_golden.py

Run once, at the commit whose outputs define correct behaviour; the
benchmark then counts an item whose output hash differs as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, Measurement, load_program


def main() -> int:
    tracer, workloads = load_program()
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = OUT / f"golden_{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            measurement = Measurement(tracer, cls(cls.pool(), workdir), None)
            measurement.setup(trace=False)
            measurement.run(0, trace=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if measurement.failed or measurement.problems:
            print("\n".join(measurement.problems), file=sys.stderr)
            return 1
        golden[name] = dict(sorted(measurement.digests.items()))
        print(f"{name}: {len(golden[name])} inputs")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
