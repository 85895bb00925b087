"""One pass of a workload in a fresh interpreter; run.py starts one per pass.

    python3 perfbench/worker.py WORKLOAD SEED RUN_ID MODE SRC_DIR

MODE is ``plain`` or ``traced``.

1. Import hypercut from SRC_DIR (and, when traced, wrap its module
   boundaries), then warm the lazy tables the workload uses.
2. Print ``ready``: the parent's clock for setup_s stops when it reads it.
3. Run the workload's operations once.  Each operation is timed alone and
   its verdict is checked after its timer stops, so checking costs nothing
   in verdict_s.  A chunk of the reference kernel (``calibrate.py``) runs
   before each operation and after the last; ``speed`` is their time over
   the reference time, greater than 1 when the host is slow.
4. Print one JSON report line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# reference-kernel units per pass, spread over chunks before, between and after the operations
CAL_UNITS = 150


def main(argv: list[str]) -> int:
    workload, seed, run_id, mode, src = argv[1], int(argv[2]), argv[3], argv[4], Path(argv[5])
    sys.path.insert(0, str(src))
    import hypercut

    if not Path(hypercut.__file__).resolve().is_relative_to(src.resolve()):
        print(f"hypercut was imported from {hypercut.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(run_id)
        tracer.install()
    wl = workloads.WORKLOADS[workload]
    wl.warm()
    print("ready", flush=True)
    import calibrate

    ops = wl.operations(seed)
    units = max(1, CAL_UNITS // (len(ops) + 1))
    cal_s = 0.0
    verdict_s = 0.0
    stdout_bytes = 0
    failures = []
    for op in ops:
        cal_s += calibrate.chunk(units)
        start = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # an unexpected exception is a wrong verdict, reported below
            verdict_s += time.perf_counter() - start
            failures.append(f"{op}: {type(exc).__name__}: {exc}")
            continue
        verdict_s += time.perf_counter() - start
        reason = wl.check(op, result)
        if reason:
            failures.append(f"{op}: {reason}")
        stdout_bytes += wl.stdout_bytes(result)
        del result
    cal_s += calibrate.chunk(units)

    report = {
        "verdict_s": verdict_s,
        "speed": cal_s / (units * (len(ops) + 1) * calibrate.UNIT_REF_S),
        "attempted": len(ops),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.probe_enumerate(hypercut.oracle.enumerate_copies)
        report["layers"] = tracer.layer_metrics(stdout_bytes)
        report["self_s"] = tracer.layer_self_times()
        report["spans"] = tracer.export()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
