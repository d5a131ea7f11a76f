"""Correctness gate: every operation's artifacts are checked, byte for byte.

An operation fails when the CLI exits non-zero or raises, or when its
deterministic artifacts are wrong:

- for the seeds in ``reference_digests.json`` (the default seed and one
  held-out seed), their sha256 must equal the digests recorded from the
  program before any optimisation;
- for every seed, the artifacts must satisfy the invariants below, and all
  operations of one call in a run must produce identical bytes.

A speed-up that changes any output does not count, so a mismatch is a
failed operation, not a warning.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from workloads import STEPS_PER_PERIOD, Call

ARTIFACTS = ("representatives.csv", "mapping.csv", "metrics.json",
             "pathway.csv", "selected.json")
_EXPECTED = {
    "aggregate": ARTIFACTS[:3],
    "pathway": ARTIFACTS,
    "metrics": ("metrics.json",),
}
REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")
REFERENCE_SEEDS = (0, 1)  # the default seed and one held out from tuning


def digest_dir(out_dir: Path) -> dict[str, str]:
    """sha256 of each deterministic artifact present in ``out_dir``."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS if (out_dir / name).is_file()}


def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded digests per call for this workload and seed, if any."""
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


def _flag(argv, flag: str):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else None


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def invariants(call: Call, out_dir: Path, n_periods: int) -> list[str]:
    """Problems with the artifacts of one call; empty when they hold."""
    command = call.argv[0]
    missing = [n for n in _EXPECTED[command] if not (out_dir / n).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    rmse = metrics.get("rmse_tot")
    if not (isinstance(rmse, (int, float)) and math.isfinite(rmse) and rmse >= 0):
        return [f"metrics.json rmse_tot is {rmse!r}"]
    if command == "metrics":
        return []

    problems = []
    if command == "pathway":
        selected = json.loads((out_dir / "selected.json").read_text(encoding="utf-8"))
        k, s = selected["typical_periods"], selected["segments"]
        if selected["rmse_tot"] != rmse:
            problems.append(f"selected.json rmse_tot {selected['rmse_tot']} != "
                            f"metrics.json rmse_tot {rmse}")
        budget = _flag(call.argv, "--budget")
        if budget is not None and selected["total_steps"] > int(budget):
            problems.append(f"selected {selected['total_steps']} steps > budget {budget}")
        trace = _rows(out_dir / "pathway.csv")
        if (trace[0]["p"], trace[0]["s"]) != ("1", "1"):
            problems.append("pathway.csv does not start at (1, 1)")
        if not any(r["p"] == str(k) and r["s"] == str(s) for r in trace):
            problems.append(f"selected ({k}, {s}) is not on pathway.csv")
    else:
        k = int(_flag(call.argv, "--typical-periods"))
        s = int(_flag(call.argv, "--segments") or STEPS_PER_PERIOD)
    if metrics["total_steps"] != k * s:
        problems.append(f"total_steps {metrics['total_steps']} != {k} x {s}")

    weights: dict[int, int] = {}
    durations: dict[int, list[int]] = {}
    for row in _rows(out_dir / "representatives.csv"):
        c = int(row["cluster_id"])
        if weights.setdefault(c, int(row["weight"])) != int(row["weight"]):
            problems.append(f"cluster {c} has more than one weight")
        if int(row["segment_id"]) != len(durations.setdefault(c, [])):
            problems.append(f"cluster {c} segment ids are not 0, 1, ...")
        durations[c].append(int(row["duration_steps"]))
    if sorted(weights) != list(range(k)):
        problems.append(f"clusters {sorted(weights)} are not 0..{k - 1}")
    if sum(weights.values()) != n_periods:
        problems.append(f"weights sum to {sum(weights.values())}, not {n_periods}")
    for c, runs in durations.items():
        if len(runs) != s or min(runs) < 1 or sum(runs) != STEPS_PER_PERIOD:
            problems.append(f"cluster {c} segments {runs} do not tile "
                            f"{STEPS_PER_PERIOD} steps in {s} segments")

    mapping = _rows(out_dir / "mapping.csv")
    if [int(r["period_index"]) for r in mapping] != list(range(n_periods)):
        problems.append("mapping.csv does not list every period once, in order")
    sizes = Counter(int(r["cluster_id"]) for r in mapping)
    if dict(sizes) != weights:
        problems.append("mapping.csv cluster sizes differ from the weights")
    return problems


def check(ops: list[dict], calls: dict[str, Call], out_dirs: dict[str, Path],
          periods: dict[str, int], reference: dict | None) -> list[str]:
    """Set ``op["ok"]`` on every operation; return the problems found.

    Invariants are checked on the files the last operation of each call
    left behind; the rerun check makes every other operation of that call
    byte-identical to them.
    """
    problems = []
    broken = {}
    for name, call in calls.items():
        try:
            found = invariants(call, out_dirs[name], periods[name])
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            found = [f"unreadable artifacts: {exc!r}"]
        broken[name] = bool(found)
        problems += [f"{name}: {p}" for p in found]
        if reference is not None and name not in reference:
            problems.append(f"{name}: no reference digests")
            broken[name] = True
    first: dict[str, dict] = {}
    for i, op in enumerate(ops):
        name = op["call"]
        reason = None
        if op["exit"] != 0:
            reason = f"exit {op['exit']}: {op['error']}"
        elif broken[name]:
            reason = "invariants do not hold"
        elif reference is not None and op["digests"] != reference[name]:
            reason = "artifacts differ from the reference digests"
        elif op["digests"] != first.setdefault(name, op["digests"]):
            reason = "artifacts differ from the first run of this call"
        op["ok"] = reason is None
        if reason and reason != "invariants do not hold":
            problems.append(f"op {i} ({name}): {reason}")
    return problems
