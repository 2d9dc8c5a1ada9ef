"""Per-layer spans recorded from outside the ``mpet`` package.

Each layer is a set of public functions.  :func:`install` replaces every
one of them with a timing wrapper on the attribute that the caller looks
up at call time (for example ``mpet.cli.assemble_kernels`` or the
``SpaceSet.__init__`` method), so no source file changes.  A span holds
its name, start, end, parent span and op id; spans stay in memory until
the run ends.  A layer's self time is its spans' durations minus the
time covered by their child spans.
"""

import functools
import importlib
import json
from time import perf_counter

# span name -> [(module[:Class], attribute), ...] wrapped under that name
LAYERS = {
    "mesh.generate": [("mpet.cli", "generate_unit_square"), ("mpet.timeloop", "generate_annulus")],
    "spaces.build": [("mpet.spaces:SpaceSet", "__init__")],
    "spaces.interpolate": [
        ("mpet.spaces:SpaceSet", name)
        for name in ("interpolate_u", "interpolate_uhat", "interpolate_w",
                     "interpolate_p", "interpolate_phat")
    ],
    "manufactured.build": [("mpet.cli", "default_manufactured")],
    "assembly.kernels": [("mpet.cli", "assemble_kernels"), ("mpet.timeloop", "assemble_kernels")],
    "assembly.compose": [("mpet.cli", "build_block_system"), ("mpet.timeloop", "build_block_system")],
    "assembly.constrain": [
        ("mpet.cli", "apply_boundary_conditions"),
        ("mpet.timeloop", "apply_boundary_conditions"),
    ],
    "assembly.volume_rhs": [("mpet.cli", "assemble_volume_rhs"), ("mpet.timeloop", "assemble_volume_rhs")],
    "assembly.traction_rhs": [("mpet.timeloop", "assemble_traction_rhs")],
    "assembly.bc_update": [("mpet.assembly:ConstrainedSystem", "update_values")],
    "solver.solve": [("mpet.cli", "solve"), ("mpet.timeloop", "solve")],
    "solver.condense": [("mpet.solver", "condense_velocity")],
    "solver.precond": [("mpet.solver", "build_preconditioner")],
    "solver.minres": [("mpet.solver", "minres")],
    # solve() imports conservation_residual from the module at call time
    "diagnostics.conservation": [("mpet.diagnostics", "conservation_residual")],
    "diagnostics.norms": [("mpet.diagnostics:NormAssembler", "__init__"),
                          ("mpet.diagnostics:NormAssembler", "report")],
    "timeloop.init": [("mpet.timeloop:TimeStepper", "__init__")],
    "timeloop.step": [("mpet.timeloop:TimeStepper", "step")],
    "timeloop.step_rhs": [("mpet.timeloop:TimeStepper", "step_rhs")],
    "timeloop.probe": [("mpet.timeloop:TimeStepper", "probe_values")],
    "cli.main": [("mpet.cli", "main")],
}

# self-time metric names that differ from "<span>_s"
SELF_METRIC = {
    "solver.solve": "solver.solve_self_s",
    "timeloop.step": "timeloop.step_self_s",
    "cli.main": "cli.self_s",
}

# layers that must record spans on a workload; zero spans there means a
# wrapped function was renamed or is no longer called
EXPECTED = {
    "manufactured": {
        "mesh.generate", "spaces.build", "spaces.interpolate", "manufactured.build",
        "assembly.kernels", "assembly.compose", "assembly.constrain",
        "assembly.volume_rhs", "solver.solve", "solver.condense", "solver.precond",
        "solver.minres", "diagnostics.conservation", "diagnostics.norms",
    },
    "brain": {
        "mesh.generate", "spaces.build", "spaces.interpolate", "assembly.kernels",
        "assembly.compose", "assembly.constrain", "assembly.traction_rhs",
        "assembly.bc_update", "solver.solve", "solver.condense", "solver.precond",
        "solver.minres", "diagnostics.conservation", "timeloop.init",
        "timeloop.step", "timeloop.step_rhs", "timeloop.probe",
    },
    "sweep": {
        "mesh.generate", "spaces.build", "manufactured.build", "assembly.kernels",
        "assembly.compose", "assembly.constrain", "assembly.volume_rhs",
        "solver.solve", "solver.condense", "solver.precond", "solver.minres",
        "diagnostics.conservation", "cli.main",
    },
}


def time_metric(layer):
    return SELF_METRIC.get(layer, layer + "_s")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for layer in LAYERS:
        names.append((time_metric(layer), "s"))
        names.append((layer + "_calls", "count"))
    names += [
        ("assembly.free_dofs", "count"),
        ("assembly.nnz", "count"),
        ("solver.precond_reuse_ratio", "ratio"),
        ("solver.iterations", "count"),
        ("solver.minres_ms_per_iter", "ms"),
        ("solver.unconverged", "count"),
        ("trace.coverage_pct", "%"),
        ("trace.ops_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
    return names


class Tracer:
    """In-memory span recorder; ``op`` is the id of the op in progress."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.op = 0
        self._stack = []
        self.free_dofs = 0
        self.nnz = 0
        self.minres_iterations = 0
        self.unconverged = 0

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            tracer._count(name, result)
            return result

        return traced

    def _count(self, name, result):
        if name == "assembly.constrain":
            self.free_dofs += len(result.free)
            self.nnz += result.K_ff.nnz
        elif name == "solver.minres":
            self.minres_iterations += result[1].iterations
            self.unconverged += int(not result[1].converged)

    def self_times(self):
        """Per-span self time: duration minus the durations of its children.

        Children are nested calls on one thread, so they never overlap and
        their durations add up to the part of the parent they cover.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def op_breakdown(tracer):
    """Self time of each layer within each op, keyed by op id (0: outside ops)."""
    out = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        per_op = out.setdefault(span[4], {})
        per_op[span[0]] = per_op.get(span[0], 0.0) + own
    return out


def resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(tracer):
    """Wrap every layer's functions; raise if one no longer exists."""
    for layer, targets in LAYERS.items():
        for owner, attr in targets:
            obj = resolve(owner)
            if attr not in vars(obj):
                raise LookupError(f"traced function {owner}.{attr} no longer exists")
            setattr(obj, attr, tracer.wrap(layer, vars(obj)[attr]))


def layer_metrics(tracer, workload, op_seconds):
    """Per-layer metrics of one traced pass; ``op_seconds`` maps op id to wall time.

    The ``trace.ops_per_s`` and ``trace.overhead_pct`` rates compare with an
    untraced pass and are added by the caller.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    covered = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, op = span[0], span[4]
        self_s[name] += own
        calls[name] += 1
        if op in op_seconds:
            covered += own
    missing = sorted(layer for layer in EXPECTED[workload] if calls[layer] == 0)
    if missing:
        raise RuntimeError(f"no spans recorded on {workload} for layers {missing}")
    metrics = {}
    for layer in LAYERS:
        metrics[time_metric(layer)] = self_s[layer]
        metrics[layer + "_calls"] = calls[layer]
    solves = calls["solver.solve"]
    metrics.update({
        "assembly.free_dofs": tracer.free_dofs,
        "assembly.nnz": tracer.nnz,
        "solver.precond_reuse_ratio": (solves - calls["solver.precond"]) / solves,
        "solver.iterations": tracer.minres_iterations,
        "solver.minres_ms_per_iter": 1e3 * self_s["solver.minres"] / max(tracer.minres_iterations, 1),
        "solver.unconverged": tracer.unconverged,
        "trace.coverage_pct": 100.0 * covered / sum(op_seconds.values()),
    })
    return metrics
