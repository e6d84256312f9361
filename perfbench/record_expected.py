"""Record the stdout of every answered `reconstruct` op as the expected
output that later runs must reproduce byte for byte.

Usage, from the repository root: python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import shutil

import run
import workloads


def main() -> None:
    run.WORKDIR.mkdir(exist_ok=True)
    try:
        runner = run.Runner()
        expected = {}
        for name in workloads.CL_SPECS:
            work = workloads.build(name, 0, run.WORKDIR)
            answered = (runner.run_op(op) for op in work.ops)
            expected[name] = {r.label: r.stdout for r in answered if r.outcome == "answered"}
            print(name, sorted(expected[name]))
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
