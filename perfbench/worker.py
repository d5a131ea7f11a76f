"""Child process that runs one closed loop of CLI operations.

    python perfbench/worker.py loop SPEC.json RESULT.json
    python perfbench/worker.py cli SPANS.json ARG...

``loop`` reads a spec written by ``run.py``: the calls, whether they run
in this process through ``tsagg.cli.main`` or one ``python -m tsagg.cli``
process each, how long to loop, and whether to trace. Rounds of all calls
start while the run is shorter than ``seconds`` (at least ``min_rounds``).
Each operation gets an empty output directory; its wall time covers the
call alone, and its artifacts are hashed after the clock stops. Spans of
traced operations are kept in memory and written with the result.

``cli`` is the traced form of ``python -m tsagg.cli ARG...``: it installs
the tracer, calls ``tsagg.cli.main`` and writes the spans.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from gate import digest_dir
from tracer import Tracer

CALL_TIMEOUT_S = 120


def wait_exact(cmd: list[str], **kwargs) -> tuple[int, str]:
    """Run ``cmd`` to the end; (exit code, stderr).

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which rounds the measured wall time; here the wait blocks and a
    timer thread enforces the timeout.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, **kwargs)
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, stderr = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, stderr


def _in_process(tracer: Tracer):
    import tsagg.cli

    def run(op: int, argv: list[str], traced: bool):
        try:
            if not traced:
                return tsagg.cli.main(argv), ""
            tracer.install()
            try:
                return tracer.run_op(op, tsagg.cli.main, argv), ""
            finally:
                tracer.uninstall()
        except Exception as exc:  # an operation failure, counted by the gate
            return None, f"{type(exc).__name__}: {exc}"

    return run


def _subprocess(spans_dir: Path, tracer: Tracer):
    here = Path(__file__).resolve()

    def run(op: int, argv: list[str], traced: bool):
        spans_file = spans_dir / f"op{op}.json"
        cmd = ([sys.executable, str(here), "cli", str(spans_file), *argv] if traced
               else [sys.executable, "-m", "tsagg.cli", *argv])
        code, stderr = wait_exact(cmd)
        if traced and code == 0:
            got = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.absent[:] = got["absent"]
            offset = len(tracer.spans)
            for name, _, parent, start, end, extra in got["spans"]:
                tracer.spans.append([name, op, parent + offset if parent >= 0 else -1,
                                     start, end, extra])
        return code, stderr.strip()[-500:]

    return run


def loop(spec_path: Path, result_path: Path) -> None:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = Path(spec["work"])
    # "off": plain operations; "on": traced ones; "alternate": each call
    # plain and traced in turn, so that both sample the same stretch of time
    modes = {"off": [(False,)], "on": [(True,)],
             "alternate": [(False, True), (True, False)]}[spec["trace"]]
    tracer = Tracer(spec["track_alloc"])
    if spec["in_process"]:
        run = _in_process(tracer)
    else:
        (work / "spans").mkdir(exist_ok=True)
        run = _subprocess(work / "spans", tracer)

    ops = []
    rounds = 0
    start = perf_counter()
    while rounds < spec["min_rounds"] or perf_counter() - start < spec["seconds"]:
        for call in spec["calls"]:
            for traced in modes[rounds % len(modes)]:
                out_dir = Path(call["out_dir"])
                shutil.rmtree(out_dir, ignore_errors=True)
                t0 = perf_counter()
                code, error = run(len(ops), call["argv"], traced)
                wall = perf_counter() - t0
                ops.append({"call": call["name"], "traced": traced, "wall_s": wall,
                            "exit": code, "error": error,
                            "digests": digest_dir(out_dir)})
        rounds += 1

    who = resource.RUSAGE_SELF if spec["in_process"] else resource.RUSAGE_CHILDREN
    result = {"ops": ops, "peak_rss_kb": resource.getrusage(who).ru_maxrss,
              "absent": tracer.absent, "spans": tracer.spans}
    result_path.write_text(json.dumps(result), encoding="utf-8")


def traced_cli(spans_path: Path, argv: list[str]) -> int:
    import tsagg.cli

    tracer = Tracer()
    tracer.install()
    code = tracer.run_op(0, tsagg.cli.main, argv)
    spans_path.write_text(json.dumps({"spans": tracer.spans, "absent": tracer.absent}),
                          encoding="utf-8")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "loop":
        loop(Path(sys.argv[2]), Path(sys.argv[3]))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(Path(sys.argv[2]), sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
