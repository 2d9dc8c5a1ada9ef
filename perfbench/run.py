"""Benchmark of the ``mpet`` solver on three workloads.

    python3 perfbench/run.py --workload manufactured|brain|sweep --seed N
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``mpet`` from
``src/``.  Every workload runs in fresh worker processes
(``perfbench/worker.py``), single-threaded in Python and in BLAS.

``--trace 0`` measures the end-to-end metrics: one worker measures ops for
``--seconds`` seconds, and two more stop at the first op so that
``setup_s`` is a median of three set-ups.  ``--trace 1`` runs one pass
untraced and one pass with per-layer spans, each in its own worker, and
reports the per-layer metrics with the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment, the op latency tail and the observed output values, goes to
``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("manufactured", "brain", "sweep")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    """Worker environment: mpet from src/, one BLAS thread, fixed hashing.

    Two BLAS threads on a two-core machine made the dense Cholesky of the
    preconditioner's SPD check up to twice as slow whenever the second
    core was busy, so the workloads run single-threaded throughout.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode, out, deadline, seconds=0.0, trace=0):
    """Run one worker process to completion and return its result record."""
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", repr(float(seconds)), "--trace", str(trace), "--out", str(out),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {args.workload} exceeded the time limit")
    if code != 0:
        raise BenchError(f"{mode} worker for {args.workload} exited with {code}")
    return json.loads((out / "result.json").read_text())


def ops_per_s(result):
    ops = result["op_seconds"]
    if not ops:
        raise BenchError("no op completed")
    return len(ops) / sum(ops)


def latency_tail(op_seconds):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(op_seconds)
    k = len(ordered) - 11
    if k < 0:
        return None
    return {"ms": 1e3 * ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}


def measure(args, out, deadline):
    main = run_worker(args, "measure", out / "measure", deadline, seconds=args.seconds)
    setups = [main["setup_s"]]
    for k in range(SETUP_PROBES):
        setups.append(run_worker(args, "setup", out / f"setup{k}", deadline)["setup_s"])
    ops = main["op_seconds"]
    metrics = {
        "ops_per_s": (ops_per_s(main), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(ops), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {
        "op_ms_tail": latency_tail(ops),
        "ops": len(ops),
        "passes": main["passes"],
        "iterations_per_pass": main["iterations"],
        "setup_samples_s": setups,
        "observed": main["observed"],
        "env": main["env"],
    }
    return main["attempted"], main["failed"], metrics, details


def traced(args, out, deadline):
    plain = run_worker(args, "measure", out / "untraced", deadline)
    spans = run_worker(args, "measure", out / "traced", deadline, trace=1)
    failed = plain["failed"] + spans["failed"]
    if args.workload == "sweep":
        first = (out / "untraced" / "sweep0" / "sweep.csv").read_bytes()
        if first != (out / "traced" / "sweep0" / "sweep.csv").read_bytes():
            print("perfbench: two sweeps with the same seed wrote different CSVs", file=sys.stderr)
            failed += 1
    layer = spans["per_layer"]
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(spans)
    layer["trace.ops_per_s"] = traced_rate
    layer["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    metrics = {name: (layer[name], unit) for name, unit in tracing.per_layer_names()}
    details = {"iterations_per_pass": spans["iterations"], "observed": spans["observed"],
               "env": spans["env"], "op_breakdown": spans["op_breakdown"],
               "spans": str(out / "traced" / "spans.json")}
    return plain["attempted"] + spans["attempted"], failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mpet" / "__init__.py").is_file():
        print(f"perfbench: no mpet sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        run = traced if args.trace else measure
        attempted, failed, metrics, details = run(args, out, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), **details,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({key: record[key] for key in ("seed", "git_commit", "env", "op_ms_tail")
                      if key in record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
