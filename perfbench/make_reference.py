"""Record the digests the correctness gate holds every later commit to.

    python3 perfbench/make_reference.py

Runs every call of every workload twice for each seed in
``gate.REFERENCE_SEEDS``, checks the invariants and that both runs agree,
and writes the sha256 of the artifacts to ``reference_digests.json``. Run
it only on a commit whose outputs are known good: the recorded digests
are the definition of correct output for those seeds.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
from run import HERE, SRC, child_env, run_worker
from workloads import WORKLOADS, write_inputs


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = child_env()
    digests: dict = {}
    for workload in WORKLOADS.values():
        calls = {c.name: c for c in workload.calls}
        for seed in gate.REFERENCE_SEEDS:
            work = HERE / "out" / f"reference-{workload.name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            write_inputs(workload, seed, work)
            ops, _, _, _ = run_worker(calls, work, workload.in_process,
                                      "reference", env, min_rounds=2)
            problems = gate.check(ops, calls,
                                  {name: work / "out" / name for name in calls},
                                  dict.fromkeys(calls, workload.days), None)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            digests.setdefault(workload.name, {})[str(seed)] = {
                op["call"]: op["digests"] for op in ops}
            print(f"{workload.name} seed {seed}: {len(ops)} operations agree")
    gate.REFERENCE_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
