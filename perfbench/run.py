"""The hypercut benchmark: time to a verdict, set-up time and memory per workload.

    python3 perfbench/run.py --workload {verify,oracle-sweep,construct} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program measured is ``src/hypercut`` of the checkout
that holds this file.  Workloads, and why each was chosen, are described in
``workloads.py``.

Each pass is a fresh single-threaded interpreter (``worker.py``) that
imports hypercut, warms the lazy tables the workload uses, and runs the
workload's operations once, closed-loop.  Passes repeat until ``--seconds``
have gone by.  With ``--trace 0`` the last stdout line reports, as medians
over the passes:

    verdict_s    time of one pass over the operations, after set-up
    setup_s      interpreter start until hypercut is imported and warm
    peak_rss_mb  ru_maxrss of the pass interpreter

verdict_s and setup_s are seconds at a reference host speed: each pass's
wall times divided by the speed a reference kernel (``calibrate.py``) saw
in chunks run between that pass's operations.  The host's speed drifts by
20-50% over minutes; hypercut's code does not run in the kernel, so a
change to it moves these figures as it moves wall time.  The wall times
and the speeds are printed, and kept in the run's record.

``attempted`` and ``failed`` count operations; their ratio is failed_frac,
printed on the lines above.  A wrong verdict (value, status, exit code,
stdout hash or certificate), or an unexpected exception, makes ``correct``
false and the exit code 1.  ``construct`` also runs one unbounded-input
probe per run, ``hypercut construct --n 64 --kind path --k 129`` under a
128 MB address-space limit: it must answer with a certified family or
refuse cleanly (exit 2 or 3).  Today it dies with MemoryError in
``gray_sequence(63)``, a known defect: the run prints it, the traced run
reports it as ``probe.known_defects``, and it is not counted in
``failed``.  Any other death, or a timeout, counts as one failed
operation, and a wrong answer makes ``correct`` false.  Its time is kept
out of verdict_s.

With ``--trace 1`` untraced and traced passes alternate.  Traced passes
wrap hypercut's module boundaries (``tracing.py``); the report gives the
per-layer metrics as medians over traced passes, ``trace.overhead_frac``
(the median over adjacent pairs of traced over untraced verdict_s, minus 1)
and a table of self time per layer.  Spans go to ``.perfbench/traces/``.
Every run's record, with each pass's figures, wall times and speed, goes
to ``.perfbench/results/``, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from certificate import certify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify", "oracle-sweep", "construct")
PASS_TIMEOUT_S = 90
PROBE_ARGV = ["construct", "--n", "64", "--kind", "path", "--k", "129"]
PROBE_CAP_BYTES = 128 << 20
PROBE_TIMEOUT_S = 60


class HarnessError(RuntimeError):
    """A pass could not be run or did not follow the worker protocol."""


def run_worker(workload: str, seed: int, run_id: str, traced: bool) -> dict:
    """One pass in a fresh interpreter; adds setup_s, measured from this side."""
    mode = "traced" if traced else "plain"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, str(seed), run_id, mode, str(SRC)]
    with open(OUT / "worker-stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            if not select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]:
                raise HarnessError("no ready line within the pass timeout")
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except (HarnessError, subprocess.TimeoutExpired) as exc:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"pass {run_id}: {exc}") from exc
        err.seek(0)
        if ready != "ready\n" or proc.returncode != 0:
            raise HarnessError(f"pass {run_id} exited {proc.returncode}:\n{ready}{err.read()[-3000:]}")
    report = json.loads(out)
    report["verdict_wall_s"], report["setup_wall_s"] = report["verdict_s"], setup_s
    report["verdict_s"] /= report["speed"]
    report["setup_s"] = setup_s / report["speed"]
    return report


def run_probe() -> tuple[str, str]:
    """The unbounded-input probe: ("ok" | "known-defect" | "failed" | "wrong", detail).

    "known-defect" is the MemoryError that ``gray_sequence(63)`` raises
    today; any other death or a timeout is "failed".
    """

    def cap_address_space() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_CAP_BYTES, PROBE_CAP_BYTES))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-m", "hypercut", *PROBE_ARGV], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, preexec_fn=cap_address_space)
    except subprocess.TimeoutExpired:
        return "failed", f"no answer within {PROBE_TIMEOUT_S} s"
    last_err = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode in (2, 3) and "Traceback" not in proc.stderr:
        return "ok", f"refused with exit {proc.returncode}: {last_err}"
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        status = "known-defect" if last_err.startswith("MemoryError") else "failed"
        return status, f"exit {proc.returncode}: {last_err}"
    elements = [(el["type"] == "cycle", tuple(int(v[::-1], 2) for v in el["vertices"]))
                for el in payload["family"]["elements"]]
    reason = certify(64, "path", 129, elements)
    if proc.returncode != 0 or payload["verdict"] != "valid-cut" or reason:
        return "wrong", f"exit {proc.returncode}, verdict {payload['verdict']}, certificate: {reason}"
    return "ok", "certified family"


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, nearest-rank."""
    n = len(values)
    if n < 11:
        return f"none ({n} samples)"
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return f"p{pct} {sorted(values)[rank - 1]:.4f} ({n} samples)"


def measure(workload: str, seed: int, seconds: float, trace: bool, stamp: int):
    """Passes until the deadline: (untraced reports, traced reports).

    Traced runs alternate untraced and traced passes, untraced first, and
    end after a traced one with at least two of each.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        with_trace = trace and len(plain) > len(traced)
        run_id = f"{workload}-{seed}-{stamp}-{len(plain) + len(traced)}"
        (traced if with_trace else plain).append(run_worker(workload, seed, run_id, with_trace))
        if time.perf_counter() >= deadline and (not trace or len(traced) == len(plain) >= 2):
            return plain, traced


def layer_metrics(plain: list[dict], traced: list[dict], spans_path: Path) -> dict[str, float]:
    """Medians over traced passes, the tracing overhead, a self-time table, and the spans file.

    The overhead is the median, over each untraced pass and the traced pass
    that follows it, of traced over untraced verdict_s, minus 1: adjacent
    passes share the host's speed phase better than two medians do.
    """
    traced_wall_s = [p["verdict_wall_s"] for p in traced]
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = statistics.median(
        t["verdict_s"] / p["verdict_s"] for p, t in zip(plain, traced)) - 1
    print(f"{'layer':<12}{'self s':>10}   median per traced pass, wall clock")
    for layer in traced[0]["self_s"]:
        print(f"{layer:<12}{statistics.median(p['self_s'][layer] for p in traced):>10.4f}")
    print(f"{'whole pass':<12}{statistics.median(traced_wall_s):>10.4f}   (core is the set-up warm-up)")
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for p in traced:
            fh.writelines(json.dumps(span) + "\n" for span in p["spans"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypercut" / "__init__.py").is_file():
        print(f"error: no hypercut sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stamp = time.time_ns()
    name = f"{args.workload}-seed{args.seed}"
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), stamp)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in plain + traced)
    failures = [f for p in plain + traced for f in p["failures"]]
    failed = len(failures)
    known_defects = 0
    if args.workload == "construct":
        status, detail = run_probe()
        print(f"probe hypercut {' '.join(PROBE_ARGV)}: {status} ({detail})")
        attempted += 1
        failed += status in ("failed", "wrong")
        known_defects = int(status == "known-defect")
        if status == "wrong":
            failures.append(f"probe: {detail}")
    for f in failures[:20]:
        print(f"WRONG VERDICT {f}")

    keys = ("verdict_s", "setup_s", "peak_rss_mb", "verdict_wall_s", "setup_wall_s", "speed")
    passes = {key: [p[key] for p in plain] for key in keys}
    plain_s = passes["verdict_s"]
    print(f"{name}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed, failed_frac {failed / attempted:.4f}")
    print(f"verdict_s median {statistics.median(plain_s):.4f} s; {tail(plain_s)}")
    print(f"wall clock: verdict {statistics.median(passes['verdict_wall_s']):.4f} s, "
          f"set-up {statistics.median(passes['setup_wall_s']):.4f} s, "
          f"host speed {statistics.median(passes['speed']):.4f} of the reference")
    if args.trace:
        metrics = layer_metrics(plain, traced, OUT / "traces" / f"{name}-{stamp}.jsonl")
        metrics["probe.known_defects"] = known_defects
    else:
        metrics = {key: statistics.median(values) for key, values in passes.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "stamp": stamp, "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "passes": passes, "result": result,
    }
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{name}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1

if __name__ == "__main__":
    sys.exit(main())
