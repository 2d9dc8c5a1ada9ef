"""Runs one benchmark workload in a fresh process and writes its result.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure
        --seconds S --trace 0|1 --t0 MONOTONIC --out DIR

``--mode setup`` stops when the first timed op is about to start (for
``brain``: when the first step has ended) and records only the set-up
time, counted from ``--t0``, the parent's ``time.monotonic()`` just before
it started this process.  ``--mode measure`` repeats whole passes of the
workload until the timed ops add up to ``--seconds`` (``0``: exactly one
pass), checks every op's output, and with
``--trace 1`` records per-layer spans.  The result is written to
``DIR/result.json``; stdout is left to the program under test.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
CONSERVATION_TOL = 1e-8
SWEEP_MAX_ITERATIONS = 60
# fixed problems with recorded errors; the seed does not change them
MANUFACTURED_SIZES = [(16, 2), (32, 1), (16, 3)]
SWEEP_POINTS = 15  # (i, lambda) points per order: 5 i values x 3 lambda values
SWEEP_PRESET = """\
[run]
i_list = {i_list}
lambda_list = {lambda_list}
orders = 1, 2
n_per_side = 8
variants = schur_reduced
mixed = false

[parameters]
mode = scaled
lambda = 1.0
R = 1.0, 1.0
alpha_p = 1.0, 1.0

[solver]
tol = 1e-8
maxit = 500
workers = 1
"""


class SetupDone(Exception):
    """Raised in setup mode once the set-up phase has ended."""


class Ops:
    """Op timing, failure counts and (with a tracer) op ids for spans.

    An op can be timed in several pieces under one id: a sweep op is one
    (i, lambda) point, whose cells at orders 1 and 2 are not consecutive.
    """

    def __init__(self, setup_only, t0, tracer):
        self.setup_only = setup_only
        self.t0 = t0
        self.tracer = tracer
        self.setup_s = None
        self.seconds = {}          # op id -> wall time of its timed pieces
        self.attempted = set()
        self.failed = set()
        self.last = 0              # id of the last op ended
        self._id = 0
        self.next_id = 1           # id of the next new op
        self._start = None

    @property
    def timed(self):
        return sum(self.seconds.values())

    def setup_done(self):
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.t0
            if self.setup_only:
                raise SetupDone

    def start(self, op_id=None):
        """Start timing a piece of op ``op_id`` (default: a new op)."""
        self._id = self.next_id if op_id is None else op_id
        self.next_id = max(self.next_id, self._id + 1)
        if self.tracer is not None:
            self.tracer.op = self._id
        self._start = perf_counter()

    def end(self, ok, timed=True):
        """Close the piece in progress; an untimed op counts only as attempted."""
        now = perf_counter()
        self.attempted.add(self._id)
        if not ok:
            self.failed.add(self._id)
        if timed:
            self.seconds[self._id] = self.seconds.get(self._id, 0.0) + now - self._start
        self.last = self._id

    def fail(self, op_id=None):
        """Mark an op (default: the last one ended) failed by a later check."""
        op_id = self.last if op_id is None else op_id
        self.attempted.add(op_id)
        self.failed.add(op_id)


def rel_close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def log_failure(message):
    print(f"perfbench: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# workloads: each runs one pass and returns (MinRes iterations, details)
# ----------------------------------------------------------------------


def manufactured_pass(ctx, ops, state):
    import numpy as np
    import mpet.cli
    from mpet.params import scaled_from_direct

    # the [parameters] of presets/convergence.cfg
    scaled = scaled_from_direct(1.0, [1.0, 1.0], [1.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    iterations = 0
    errors = {}
    for n_side, ell in MANUFACTURED_SIZES:
        ops.setup_done()
        ops.start()
        ok = False
        try:
            report, err, _ = mpet.cli.manufactured_solve(
                n_side, ell, scaled, 1e-8, 500, "schur_reduced", eta=10.0, with_errors=True
            )
            ref = REFERENCE["manufactured_errors"][f"{n_side},{ell}"]
            ok = (
                report.converged
                and report.conservation is not None
                and report.conservation <= CONSERVATION_TOL
                and all(rel_close(err[k], ref[k], 1e-6) for k in ref)
            )
            if not ok:
                log_failure(f"manufactured ({n_side},{ell}) failed its check: "
                            f"converged={report.converged} conservation={report.conservation} "
                            f"errors={err}")
            iterations += report.iterations
            errors[f"{n_side},{ell}"] = err
        except Exception:
            traceback.print_exc()
        ops.end(ok)
    return iterations, {"errors": errors}


def brain_probes(seed):
    import numpy as np

    r_probe = 30.0 + 0.1 * 40.0
    if seed == 0:
        angles = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
    else:
        angles = list(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3))
    return [(r_probe * np.cos(a), r_probe * np.sin(a)) for a in angles]


def brain_pass(ctx, ops, state):
    from mpet.timeloop import TimeStepper, brain_analog_scenario

    if "stepper" not in state:
        # presets/brain.cfg: 4x32 annulus, ell=1, tau=0.0125 s, t_end=3 s
        scenario = brain_analog_scenario()
        scenario.probes = brain_probes(ctx.seed)
        state["stepper"] = TimeStepper(scenario)
    stepper = state["stepper"]
    steps = []

    def collect(_, report):
        first = state.setdefault("first_iterations", report.iterations)
        ok = (
            report.converged
            and report.conservation is not None
            and report.conservation <= CONSERVATION_TOL
            and report.iterations <= 2 * first
        )
        if not ok:
            log_failure(f"brain step {len(steps) + 1} failed its check: iterations="
                        f"{report.iterations} conservation={report.conservation}")
        steps.append(report.iterations)
        if ops.setup_s is None:
            ops.setup_done()
            ops.end(ok, timed=False)
        else:
            ops.end(ok)
        ops.start()

    ops.start()
    try:
        _, series = stepper.run(collect=collect)
    except RuntimeError:
        # TimeStepper.step raises when a step does not converge
        traceback.print_exc()
        ops.end(False, timed=False)
        return sum(steps), {}
    final = {name: series.samples[name][-1] for name in sorted(series.samples)}
    if ctx.seed == 0:
        ref = REFERENCE["brain_seed0_final_probes"]
        if not all(rel_close(v, r, 1e-9) for k in ref for v, r in zip(final[k], ref[k])):
            log_failure(f"brain final probe pressures {final} differ from the recorded values")
            ops.fail()
    return sum(steps), {"final_probes": final}


def sweep_config(seed):
    import numpy as np

    if seed == 0:
        i_list, lambdas = [0, 2, 4, 6, 8], ["1e0", "1e4", "1e8"]
    else:
        # mpet sweep runs the product i_list x lambda_list at every order,
        # with integer i, so the seed draws the two axes of the grid
        rng = np.random.default_rng(seed)
        i_list = [int(i) for i in rng.integers(0, 9, 5)]
        lambdas = [repr(float(10.0 ** e)) for e in rng.uniform(0.0, 8.0, 3)]
    return SWEEP_PRESET.format(
        i_list=", ".join(str(i) for i in i_list), lambda_list=", ".join(lambdas)
    )


def sweep_pass(ctx, ops, state):
    import mpet.cli

    out = ctx.out / f"sweep{state.setdefault('passes', 0)}"
    state["passes"] += 1
    out.mkdir(parents=True, exist_ok=True)
    config = out / "sweep.cfg"
    config.write_text(sweep_config(ctx.seed))
    solve = mpet.cli.manufactured_solve
    reports = []
    # cells run order by order over the same (i, lambda) points; one op is
    # one point, so cell c belongs to op first + c % SWEEP_POINTS
    first = ops.next_id

    def timed_cell(*args, **kwargs):
        ops.setup_done()
        ops.start(first + len(reports) % SWEEP_POINTS)
        try:
            report = solve(*args, **kwargs)[0]
        except Exception:
            ops.end(False)
            raise
        reports.append(report)
        ops.end(report.converged and report.iterations <= SWEEP_MAX_ITERATIONS)
        return report, None, None

    mpet.cli.manufactured_solve = timed_cell
    try:
        rc = mpet.cli.main(["sweep", "--config", str(config), "--out", str(out)])
    except SetupDone:
        raise
    except Exception:
        traceback.print_exc()
        rc = None
    finally:
        mpet.cli.manufactured_solve = solve
    if rc != 0:
        log_failure(f"mpet sweep exited with {rc}")
        ops.fail()
        return sum(r.iterations for r in reports), {}
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    iterations = [int(row[4]) for row in rows]
    if [r.iterations for r in reports] != iterations or any(row[5] != "1" for row in rows):
        log_failure("sweep.csv disagrees with the solver reports or has unconverged cells")
        ops.fail()
    expected = REFERENCE["sweep_seed0_iterations"]
    if ctx.seed == 0 and iterations != expected:
        log_failure(f"seed-0 sweep iterations {iterations} differ from the recorded column")
        for c in range(len(expected)):
            if c >= len(iterations) or iterations[c] != expected[c]:
                ops.fail(first + c % SWEEP_POINTS)
    return sum(iterations), {"csv": str(out / "sweep.csv")}


WORKLOADS = {"manufactured": manufactured_pass, "brain": brain_pass, "sweep": sweep_pass}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def openblas_info():
    """Version string and thread count of every OpenBLAS this process loaded."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line.lower() and line.rstrip().endswith(".so"):
                paths.add(line.split()[-1])
    info = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        info.append(entry)
    return info


def environment():
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "openblas": openblas_info(),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    ctx = parser.parse_args()
    ctx.out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if ctx.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = Ops(ctx.mode == "setup", ctx.t0, tracer)
    run_pass = WORKLOADS[ctx.workload]
    state = {}
    try:
        iterations, details = run_pass(ctx, ops, state)
        # later passes can raise the peak through heap fragmentation, so the
        # peak is taken after one pass and does not depend on the pass count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = 1
        while ops.seconds and not ops.failed and ops.timed < ctx.seconds:
            run_pass(ctx, ops, state)
            passes += 1
    except SetupDone:
        result = {"setup_s": ops.setup_s}
    else:
        result = {
            "setup_s": ops.setup_s,
            "op_seconds": list(ops.seconds.values()),
            "attempted": len(ops.attempted),
            "failed": len(ops.failed),
            "iterations": iterations,
            "passes": passes,
            "peak_rss_mb": peak_rss_mb,
            "observed": details,
            "env": environment(),
        }
        if tracer is not None:
            tracer.dump(ctx.out / "spans.json")
            result["per_layer"] = tracing.layer_metrics(tracer, ctx.workload, ops.seconds)
            result["op_breakdown"] = tracing.op_breakdown(tracer)
    (ctx.out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
