"""Record ``reference.json``: the outputs every later run is checked against.

Run once, from the root of a checkout of the commit whose outputs define
correct (the reference was recorded at the commit that added the
benchmark):

    python3 bench/record_reference.py

For every workload, size and input variant it runs one untraced pass and
keeps the aggregate accuracy and F1 columns and the SGD stability values.
A pass that raises or fails the reference-free gates aborts the recording.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import Run


def main() -> int:
    root = Path.cwd()
    reference: dict = {}
    for size in ("full", "quick"):
        quick = size == "quick"
        for workload in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                run = Run(root, workload, variant, 0, False, quick)
                try:
                    if run.setup() is None:
                        return 2
                    result = run.child(workload, False, "record")
                    if not result["ok"]:
                        print(result["error"], file=sys.stderr)
                        return 1
                    errors = checks.check_outputs(workload, quick, result["out_dir"])
                    if errors:
                        print("\n".join(errors), file=sys.stderr)
                        return 1
                    figures = checks.extract(workload, result["out_dir"])
                finally:
                    shutil.rmtree(run.work, ignore_errors=True)
                reference.setdefault(size, {}).setdefault(workload, {})[str(variant)] = figures
                print(f"{size} {workload} variant {variant}: {result['wall_s']:.2f} s",
                      flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
