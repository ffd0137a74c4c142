"""Quick mode: every workload on tiny corpora, untraced and traced, all checks.

    python3 bench/quick.py

Takes a few seconds and exits 1 if any command fails or any check finds a
problem, so the harness cannot rot unnoticed between benchmark runs.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    if not run.use_source_tree():
        return 2
    ok = True
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0, trace=trace, quick=True)
            notes = result["notes"]
            good = result["correct"] and result["failed"] == 0
            ok = ok and good and len(result["metrics"]) > 0
            print(f"{'ok  ' if good else 'FAIL'} {name:<10} trace={int(trace)} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"digest {notes['digest'][:16]}")
            for problem in notes["problems"]:
                print(f"     {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
