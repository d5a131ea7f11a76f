"""tsagg benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload pathway-year --seed 0 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit. The full record, with an environment header
and every operation, goes to ``perfbench/out/<workload>-seed<n>-trace<t>/``.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``op_p50_s``: median wall seconds per operation (the count is
  ``attempted``; no tail percentile, since no run has ten samples beyond
  one);
- ``ops_per_s``: correct operations per second of summed operation time;
- ``setup_s``: median seconds for a fresh interpreter to ``import
  tsagg.cli`` (``cli-batch`` pays it again on every operation);
- ``peak_rss_mb``: peak resident memory of the process that runs the
  program (the loop process in-process, its children for ``cli-batch``);
- ``success_rate``: correct operations over attempted ones. It stands for
  the error rate, which is 0 when all is well and so cannot be bounded as a
  share of its median.

``--trace 1`` runs the same loop with every call made untraced and traced
in turn, and reports per-operation calls and self seconds of each layer
from the outside tracer (``tracer.py``), the start-up import breakdown, a
scaling probe of the period linkage and the tracing overhead (traced over
untraced median time of each call).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import gate
import tracer
from worker import wait_exact
from workloads import WORKLOADS, Call, argv_for, series, write_csv, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 5
MIN_ROUNDS = 2  # every call runs at least twice, for the rerun check
WORKER_TIMEOUT_S = 170
# Scaling probe of the period linkage in periods, including every
# workload's period count. 8,760 periods (an hourly year with
# --period-length 1) is left out: today's dense linkage needs three (2n)^2
# float matrices there, about 5 GB, on an 8 GB machine.
PROBE_DAYS = (365, 730, 1095, 1460)
PROBE_NOTE = ("8,760 periods left out: the dense period linkage needs about "
              "5 GB there, on an 8 GB machine")

UNITS = {"op_p50_s": "s", "ops_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", "success_rate": "ratio"}


def child_env() -> dict[str, str]:
    """Environment of every child: program on the path, one BLAS thread."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int, env: dict[str, str]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "tsagg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "threads": {v: env[v] for v in THREAD_VARS},
    }


def _run(cmd: list[str], env: dict[str, str], **kwargs):
    return subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                          timeout=WORKER_TIMEOUT_S, **kwargs)


def measure_setup(env: dict[str, str]) -> float:
    """Median wall seconds of ``python -c 'import tsagg.cli'``."""
    cmd = [sys.executable, "-c", "import tsagg.cli"]
    _run(cmd, env)  # compiles bytecode on a fresh checkout
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        code, stderr = wait_exact(cmd, env=env, cwd=ROOT)
        times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import tsagg.cli failed: {stderr}")
    return median(times)


def parse_importtime(text: str) -> tuple[float, float]:
    """(all imports, scipy imports) in seconds from ``-X importtime``.

    Lines come children first; read backwards, each entry's ancestors are
    the entries above it at smaller depth. scipy is counted where an
    import outside scipy first reaches it, so nested scipy modules are not
    counted twice.
    """
    total = scipy = 0
    path: list[str] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        del path[depth:]
        if depth == 0:
            total += int(cumulative)
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in path):
            scipy += int(cumulative)
        path.append(name)
    return total / 1e6, scipy / 1e6


def measure_importtime(env: dict[str, str]) -> tuple[float, float]:
    cmd = [sys.executable, "-X", "importtime", "-c", "import tsagg.cli"]
    runs = [parse_importtime(_run(cmd, env, capture_output=True, text=True).stderr)
            for _ in range(IMPORTTIME_REPEATS)]
    return median(r[0] for r in runs), median(r[1] for r in runs)


def run_worker(calls: dict[str, Call], work: Path, in_process: bool, label: str,
               env: dict[str, str], seconds: float = 0.0, min_rounds: int = 1,
               trace: str = "off", track_alloc: bool = False):
    """Run one loop in a child process; (ops, peak RSS KiB, spans, absent).

    ``trace`` is "off", "on" or "alternate" (see worker.py).
    """
    spec = {
        "in_process": in_process,
        "work": str(work),
        "calls": [{"name": name, "argv": argv_for(call, work, work / "out" / name),
                   "out_dir": str(work / "out" / name)}
                  for name, call in calls.items()],
        "seconds": seconds,
        "min_rounds": min_rounds,
        "trace": trace,
        "track_alloc": track_alloc,
    }
    spec_path = work / f"spec-{label}.json"
    result_path = work / f"result-{label}.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    _run([sys.executable, str(HERE / "worker.py"), "loop", str(spec_path),
          str(result_path)], env, stdout=subprocess.DEVNULL)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ops"], result["peak_rss_kb"], result["spans"], result["absent"]


def end_to_end(ops: list[dict], peak_rss_kb: int, setup_s: float) -> dict:
    walls = [op["wall_s"] for op in ops]
    ok = sum(op["ok"] for op in ops)
    return {
        "op_p50_s": median(walls),
        "ops_per_s": ok / sum(walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
        "success_rate": ok / len(ops),
    }


def scaling_probe(seed: int, work: Path, env: dict[str, str]):
    """Period linkage self seconds and peak allocation at PROBE_DAYS periods.

    Each size is one traced ``aggregate --typical-periods 1 --segments 1``,
    so the period linkage is nearly all of the call. It runs twice, each
    time in a fresh process: once for the time and once under tracemalloc
    for the peak, since tracemalloc slows the linkage up to twofold.
    """
    metrics, ops, problems = {}, [], []
    for days in PROBE_DAYS:
        name = f"probe-{days}"
        probe_dir = work / name
        probe_dir.mkdir()
        write_csv(probe_dir / "input.csv", series(days, seed))
        calls = {name: Call(name, ("aggregate", "--period-length", "24",
                                   "--typical-periods", "1", "--segments", "1",
                                   "--representation", "centroid"))}
        for track_alloc in (False, True):
            got, _, spans, _ = run_worker(calls, probe_dir, True,
                                          f"{name}-alloc{int(track_alloc)}", env,
                                          trace="on", track_alloc=track_alloc)
            problems += gate.check(got, calls, {name: probe_dir / "out" / name},
                                   {name: days}, None)
            ops += got
            # an absent layer reads 0, like any layer the tracer cannot find
            linkage = [s for s in spans if s[0] == "hierarchy.period_linkage"]
            if track_alloc:
                metrics[f"hierarchy.period_linkage.n{days}.peak_alloc_mb"] = (
                    linkage[0][5] / 1e6 if linkage else 0.0)
            else:
                metrics[f"hierarchy.period_linkage.n{days}.self_s"] = (
                    linkage[0][4] - linkage[0][3] if linkage else 0.0)
    times = [metrics[f"hierarchy.period_linkage.n{d}.self_s"] for d in PROBE_DAYS]
    metrics["hierarchy.period_linkage.scaling_exp"] = (
        _slope([math.log(d) for d in PROBE_DAYS], [math.log(t) for t in times])
        if all(times) else 0.0)
    return metrics, ops, problems


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys over xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), ("_mb", "MB"),
                         ("_ratio", "ratio"), ("_share", "ratio"),
                         (".segments_built", "count"),
                         ("_exp", "exponent"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tsagg" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'tsagg'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = HERE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    header = environment(args.seed, env)
    write_inputs(workload, args.seed, work)
    calls = {c.name: c for c in workload.calls}
    out_dirs = {name: work / "out" / name for name in calls}
    periods = dict.fromkeys(calls, workload.days)
    reference = gate.load_reference(workload.name, args.seed)

    def loop(label: str, trace: str):
        return run_worker(calls, work, workload.in_process, label, env,
                          args.seconds, MIN_ROUNDS, trace)

    record = {"environment": header, "workload": workload.name,
              "why": workload.why, "seconds": args.seconds, "trace": args.trace,
              "reference_checked": reference is not None}
    if args.trace == 0:
        setup_s = measure_setup(env)
        ops, peak_rss_kb, _, _ = loop("timed", "off")
        problems = gate.check(ops, calls, out_dirs, periods, reference)
        metrics = end_to_end(ops, peak_rss_kb, setup_s)
        units = UNITS
        record["ops"] = ops
    else:
        import_s, scipy_import_s = measure_importtime(env)
        ops, _, spans, absent = loop("traced", "alternate")
        plain = [op for op in ops if not op["traced"]]
        traced = [op for op in ops if op["traced"]]
        problems = gate.check(ops, calls, out_dirs, periods, reference)
        probe, probe_ops, probe_problems = scaling_probe(args.seed, work, env)
        ops += probe_ops
        problems += probe_problems
        plain_p50 = median(op["wall_s"] for op in plain)
        # per call, so that a mix of call kinds cannot move the median
        plain_s = sum(median(op["wall_s"] for op in plain if op["call"] == c)
                      for c in calls)
        traced_s = sum(median(op["wall_s"] for op in traced if op["call"] == c)
                       for c in calls)
        metrics = tracer.summarize(spans, len(traced))
        metrics.update(probe)
        # the probe ran this workload's period count under tracemalloc
        metrics["hierarchy.period_linkage.peak_alloc_mb"] = probe[
            f"hierarchy.period_linkage.n{workload.days}.peak_alloc_mb"]
        metrics["startup.import_s"] = import_s
        metrics["startup.scipy_import_s"] = scipy_import_s
        metrics["startup.op_share"] = import_s / plain_p50
        metrics["tracing.overhead_frac"] = traced_s / plain_s - 1
        units = {name: _layer_unit(name) for name in metrics}
        record.update(ops=ops, absent_layers=absent, probe_note=PROBE_NOTE)

    failed = sum(not op["ok"] for op in ops)
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(problems=problems, result=result)
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<50} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
