"""Command-line harness for the robustness and application studies.

Subcommands: ``convergence``, ``sweep``, ``orderrobust``, ``brain`` and
``eigs``, each driven by a key=value config file (INI sections) and
writing CSV tables into an output directory through :func:`write_csv`.
Every CSV starts with a provenance comment carrying the configuration as
given (keys left at their defaults are not listed), and identical
configs produce bit-identical files when BLAS runs on one thread
(``OPENBLAS_NUM_THREADS=1``) with one OpenBLAS kernel.  Boolean keys
take ``true``/``false``, ``yes``/``no`` or ``1``/``0`` in any case.
Exit codes: 0 on success, 1 when the config cannot be read or parsed,
names a section or key the command does not read (:data:`KNOWN_KEYS`),
or a value is bad (an unknown variant, ``sample_every < 1``,
``[solver] eta <= 0``, a ``tol`` outside (0, 1), ``maxit < 1`` and a
NaN or infinite parameter included), all checked before any solve; 2
when the run fails (an unconverged solve, or an error such
as ``MeshError`` raised while running, reported with its type).
"""

import argparse
import configparser
import functools
import itertools
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sps

from .assembly import (
    BoundaryConditionSet,
    VolumeQuadrature,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_volume_rhs,
    build_block_system,
    homogeneous_bcs,
)
from .diagnostics import (
    NormAssembler,
    conservation_residual,
    estimate_inf_sup,
    spectrum_ends,
)
from .manufactured import default_manufactured
from .mesh import MeshError, generate_unit_square
from .params import (
    PhysicalParameters,
    lame_from_young_poisson,
    scaled_from_direct,
)
from .solver import (
    condense_velocity,
    mean_zero_functionals,
    preconditioner_matrices,
    solve,
)
from .spaces import SpaceSet
from .timeloop import TimeStepper, brain_analog_scenario, windowed_mean

__all__ = ["main"]

MAXIT_SENTINEL_NOTE = "unconverged cells are recorded with converged=0"
FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
ERRORS = ("energy", "p_l2", "w_l2")

# the sections and keys each command reads; configparser lowercases keys
SOLVER_KEYS = {"variant", "tol", "maxit", "eta"}
SCALED_KEYS = {"mode", "lambda", "r", "alpha_p", "xi"}
KNOWN_KEYS = {
    "convergence": {"run": {"orders", "levels"}, "parameters": SCALED_KEYS, "solver": SOLVER_KEYS},
    # [solver] workers is read by nothing, and [parameters] is parsed and checked but its
    # values are not used (the cells' parameters come from [run]); the sweep benchmark's
    # config still sets both
    "sweep": {"run": {"n_per_side", "variants", "orders", "i_list", "lambda_list", "mixed",
                      "zero_coupling"},
              "parameters": SCALED_KEYS, "solver": SOLVER_KEYS | {"workers"}},
    "orderrobust": {"run": {"orders", "n_list"}, "solver": SOLVER_KEYS},
    "brain": {"run": {"n_radial", "n_angular", "tau", "t_end", "sample_every"},
              "parameters": {"mode", "e", "nu", "mu", "lambda", "alpha", "s", "k", "xi", "tau"},
              "solver": SOLVER_KEYS},
    "eigs": {"run": {"n_per_side", "order", "i_list", "lambda", "equivalence_levels",
                     "infsup_levels"},
             "solver": SOLVER_KEYS},
}


class ConfigError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


# ----------------------------------------------------------------------
# config plumbing and tables
# ----------------------------------------------------------------------


@contextmanager
def config_errors():
    """Report a missing key, a bad value or a malformed file as a ConfigError;
    an ``OverflowError`` is an infinity where an integer is needed.

    A ``MeshError`` (a ``ValueError``) stays a run error: a mesh that
    cannot be built fails the run, not the reading of the config.
    """
    try:
        yield
    except (ConfigError, MeshError):
        raise
    except (KeyError, ValueError, OverflowError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def read_config(path):
    cfg = configparser.ConfigParser()
    with config_errors():
        found = cfg.read(path)
    if not found:
        raise ConfigError(f"config file {path} not found")
    return cfg


def check_keys(command, cfg):
    """Reject a section or key of ``cfg`` that ``command`` does not read."""
    known = KNOWN_KEYS[command]
    for section in cfg.sections():
        if section not in known:
            raise ConfigError(f"{command} reads no section [{section}]; "
                              f"its sections: {', '.join(sorted(known))}")
        unknown = sorted(set(cfg[section]) - known[section])
        if unknown:
            raise ConfigError(f"unknown key {', '.join(unknown)} in [{section}] of {command}; "
                              f"its keys: {', '.join(sorted(known[section]))}")


def _floats(text):
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _list(run, key, default, parse=int):
    """The comma-separated ``[run] key``, each value read by ``parse``; never empty."""
    values = [parse(tok.strip()) for tok in run.get(key, default).split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{key} must be non-empty")
    return values


def _order(text):
    ell = int(text)
    if ell not in (1, 2, 3):
        raise ConfigError(f"unsupported order {ell}; supported: 1, 2, 3")
    return ell


def _variant(name):
    if name not in ("schur_reduced", "full_block"):
        raise ConfigError(f"unknown solver variant {name!r}")
    return name


def _flag(run, key):
    """A boolean ``[run] key``, false when absent; any other spelling is an error."""
    text = run.get(key, "false").strip().lower()
    if text not in FLAGS:
        raise ConfigError(f"{key} must be one of {', '.join(FLAGS)}, got {text!r}")
    return FLAGS[text]


def _matrix(text, n):
    rows = [r for r in text.split(";") if r.strip()]
    mat = np.array([[float(v) for v in row.split(",")] for row in rows])
    if mat.shape != (n, n):
        raise ConfigError(f"expected a {n}x{n} matrix, got shape {mat.shape}")
    return mat


def parse_parameters(cfg):
    """The [parameters] section: one mode, physical or scaled."""
    if not cfg.has_section("parameters"):
        raise ConfigError("missing [parameters] section")
    sec = cfg["parameters"]
    mode = sec.get("mode", "").strip()
    if mode == "scaled":
        R = _floats(sec["R"])
        alpha_p = _floats(sec["alpha_p"])
        n = len(R)
        xi = _matrix(sec["xi"], n) if "xi" in sec else np.zeros((n, n))
        return "scaled", scaled_from_direct(float(sec["lambda"]), R, alpha_p, xi)
    if mode == "physical":
        if "E" in sec and "nu" in sec:
            if "mu" in sec:
                raise ConfigError("give either (E, nu) or (mu, lambda), not both")
            mu, lam = lame_from_young_poisson(float(sec["E"]), float(sec["nu"]))
        else:
            mu, lam = float(sec["mu"]), float(sec["lambda"])
        alpha = _floats(sec["alpha"])
        n = len(alpha)
        phys = PhysicalParameters(
            mu=mu,
            lam=lam,
            alpha=alpha,
            s=_floats(sec["s"]),
            K=_floats(sec["K"]),
            xi=_matrix(sec["xi"], n) if "xi" in sec else np.zeros((n, n)),
            tau=float(sec["tau"]),
        )
        return "physical", phys
    raise ConfigError("[parameters] must set mode = physical or mode = scaled")


def resolved_config_comment(command, cfg, extra=None):
    parts = [f"command={command}"]
    for section in sorted(cfg.sections()):
        for key in sorted(cfg[section]):
            value = " ".join(cfg[section][key].split())
            parts.append(f"{section}.{key}={value}")
    for key, value in (extra or {}).items():
        parts.append(f"{key}={value}")
    return "# " + " ".join(parts)


def _solver_options(cfg):
    """``[solver]`` as keyword arguments of :func:`manufactured_solve`."""
    sec = cfg["solver"] if cfg.has_section("solver") else {}
    opts = {
        "variant": _variant(sec.get("variant", "schur_reduced")),
        "tol": float(sec.get("tol", "1e-8")),
        "maxit": int(sec.get("maxit", "500")),
        "eta": float(sec.get("eta", "10.0")),
    }
    # comparisons, so that nan fails them too
    for key, ok, rule in (("eta", 0 < opts["eta"] < np.inf, "positive and finite"),
                          ("tol", 0 < opts["tol"] < 1, "in (0, 1)"),
                          ("maxit", opts["maxit"] >= 1, "at least 1")):
        if not ok:
            raise ConfigError(f"[solver] {key} must be {rule}, got {opts[key]}")
    return opts


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, comment, header, rows, trailer=()):
    """Write the comment line, the header, one line per row and the trailer lines.

    Floats (numpy scalars included) are written with ``repr``, bools as
    0/1, ``None`` as an empty cell and anything else with ``str``.
    Returns ``path``.
    """
    lines = [comment, header, *(",".join(map(_cell, row)) for row in rows), *trailer]
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
    return path


# ----------------------------------------------------------------------
# manufactured single solves
# ----------------------------------------------------------------------


_built = []   # the kernels unit_square_kernels built last


@functools.lru_cache(maxsize=1)
def unit_square_kernels(n_side, ell, n_networks, eta):
    """Form kernels of order ``ell`` on the ``n_side`` x ``n_side`` unit square.

    They do not depend on the MPET parameters, so consecutive calls with
    equal arguments share one mesh, space set and kernels, and the
    sparsity patterns, constrained structures, elasticity factors and
    manufactured load recorded on them; callers must not modify them.
    The Dirichlet values are evaluated per solve.  Building new
    kernels first drops what was recorded on the previous ones, which a
    caller may still hold.
    """
    for kernels in _built:
        kernels.structure.clear()
    _built[:] = [assemble_kernels(SpaceSet(generate_unit_square(n_side), ell, n_networks), eta)]
    return _built[0]


def _load_values(spaces, manu):
    """The volume quadrature of ``spaces`` and the load pieces of ``manu`` at its points."""
    quad = VolumeQuadrature(spaces)
    return quad, manu.load_at(quad.phys)


def _dirichlet_data(manu, exact_of):
    """Dirichlet data all round: zero displacement and the exact pressure
    traces of ``exact_of``."""
    pres = [{"boundary": ("dirichlet", manu.pressure_trace_bc(j))} for j in exact_of]
    return BoundaryConditionSet({"boundary": ("dirichlet", lambda x, t: np.zeros(2))}, pres)


def manufactured_solve(n_side, ell, scaled, tol, maxit, variant, eta=10.0,
                       with_errors=False):
    """Solve the manufactured benchmark, Dirichlet data all round, on the unit square.

    Returns ``(report, errors, (x, system, con))``; ``errors`` is the
    :meth:`~mpet.diagnostics.NormAssembler.report` of the distance from the
    interpolated exact fields, None unless ``with_errors``.
    """
    kernels = unit_square_kernels(n_side, ell, scaled.n, eta)
    spaces = kernels.spaces
    system = build_block_system(kernels, scaled)
    manu = default_manufactured(min(scaled.n, 2))
    exact_of = [min(i, manu.n - 1) for i in range(scaled.n)]   # network -> exact field
    quad, load = kernels.structure.derive("manufactured load", lambda: _load_values(spaces, manu))
    g = load.mass_sources(scaled)
    system.F = assemble_volume_rhs(spaces, f=load.body_force(scaled), g=[g[j] for j in exact_of],
                                   quadrature=quad)
    con = apply_boundary_conditions(system, _dirichlet_data(manu, exact_of))
    x, report, _ = solve(con, variant, tol=tol, maxit=maxit)
    errors = None
    if with_errors:
        layout = system.layout
        exact = np.zeros(layout.total)
        exact[layout.sl("u")] = spaces.interpolate_u(manu.u)
        exact[layout.sl("uhat")] = spaces.interpolate_uhat(manu.u)
        for i, j in enumerate(exact_of):
            exact[layout.sl(f"w{i}")] = spaces.interpolate_w(manu.flux(scaled, j))
            exact[layout.sl(f"p{i}")] = spaces.interpolate_p(manu.p[j])
        errors = NormAssembler(kernels).report(x - exact, scaled)
    return report, errors, (x, system, con)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_convergence(cfg, out_dir):
    with config_errors():
        mode, scaled = parse_parameters(cfg)
        if mode != "scaled":
            raise ConfigError("convergence runs use scaled-parameter mode")
        run = cfg["run"]
        orders = _list(run, "orders", "1, 2", _order)
        levels = _list(run, "levels", "4, 8, 16")
        opts = _solver_options(cfg)
        comment = resolved_config_comment("convergence", cfg)

    rows = []
    for ell, (k, n) in itertools.product(orders, enumerate(levels)):
        report, errors, _ = manufactured_solve(n, ell, scaled, **opts, with_errors=True)
        # observed orders against the previous level of the same order
        rates = [float(np.log2(prev[key] / errors[key])) if k else None for key in ERRORS]
        rows.append((ell, n, 1.0 / n, *(errors[key] for key in ERRORS), *rates,
                     report.iterations))
        prev = errors
        if not report.converged:
            break

    path = write_csv(
        out_dir / "convergence.csv", comment,
        "ell,n,h,err_energy,err_p_l2,err_w_l2,rate_energy,rate_p_l2,rate_w_l2,iterations",
        rows,
    )
    if not report.converged:
        raise SolverFailure("convergence study aborted on an unconverged solve")
    return [path]


def _sweep_parameters(i, lam, mixed, zero_coupling=False):
    val = 10.0 ** (-i)
    if zero_coupling:
        # hardest corner: only the conductivities shrink
        return scaled_from_direct(lam, [val, val], [0.0, 0.0])
    if mixed:
        R = [1e-4, val]
        alpha_p = [1e-4, val]
    else:
        R = [val, val]
        alpha_p = [val, val]
    xi = np.array([[0.0, val], [val, 0.0]])
    return scaled_from_direct(lam, R, alpha_p, xi)


def cmd_sweep(cfg, out_dir):
    with config_errors():
        if cfg.has_section("parameters"):
            mode, _ = parse_parameters(cfg)
            if mode != "scaled":
                raise ConfigError("sweep runs use scaled-parameter mode")
        run = cfg["run"]
        n_side = int(run.get("n_per_side", "8"))
        opts = _solver_options(cfg)
        mixed, zero_coupling = _flag(run, "mixed"), _flag(run, "zero_coupling")
        if mixed and zero_coupling:
            raise ConfigError("mixed and zero_coupling are mutually exclusive")
        cells = [(variant, ell, i, lam, _sweep_parameters(i, lam, mixed, zero_coupling))
                 for variant, ell, i, lam in itertools.product(
                     _list(run, "variants", "schur_reduced", _variant),
                     _list(run, "orders", "1, 2", _order),
                     _list(run, "i_list", "0, 2, 4, 6, 8"),
                     _list(run, "lambda_list", "1e0, 1e4, 1e8", float))]
        comment = resolved_config_comment("sweep", cfg, {"note": MAXIT_SENTINEL_NOTE})

    rows = []
    for variant, ell, i, lam, scaled in cells:
        report = manufactured_solve(n_side, ell, scaled, **dict(opts, variant=variant))[0]
        rows.append((variant, ell, i, lam, report.iterations, report.converged))
    header = "variant,ell,i,lambda,iterations,converged"
    return [write_csv(out_dir / "sweep.csv", comment, header, rows)]


def cmd_orderrobust(cfg, out_dir):
    with config_errors():
        run = cfg["run"]
        orders = _list(run, "orders", "1, 2, 3", _order)
        n_list = _list(run, "n_list", "2, 4, 8, 16")
        opts = _solver_options(cfg)
        comment = resolved_config_comment("orderrobust", cfg)
    scaled = scaled_from_direct(
        1.0, [1e-4, 1e-4], [1e-4, 1e-4], np.array([[0.0, 1e-4], [1e-4, 0.0]])
    )
    rows = []
    for ell, n in itertools.product(orders, n_list):
        report = manufactured_solve(n, ell, scaled, **opts)[0]
        rows.append((ell, n, report.iterations, report.converged))
    # with directly inverted blocks no growth trend in the mesh size is
    # expected; flag material growth over the last refinements
    table = {(ell, n): iterations for ell, n, iterations, _ in rows}
    grown = [ell for ell in orders if len(n_list) >= 3
             and table[(ell, n_list[-1])] > 1.3 * table[(ell, n_list[-3])]]
    verdict = f"growth-trend ell={grown[0]}" if grown else "ok"
    path = write_csv(
        out_dir / "orderrobust.csv", comment, "ell,n,iterations,converged", rows,
        trailer=[f"# mesh_growth_check={verdict}"],
    )
    return [path]


def cmd_brain(cfg, out_dir):
    with config_errors():
        run = cfg["run"] if cfg.has_section("run") else {}
        tau = float(run.get("tau", "0.0125"))
        phys = None
        if cfg.has_section("parameters"):
            mode, phys = parse_parameters(cfg)
            if mode != "physical":
                raise ConfigError("the brain scenario needs physical parameters")
            if phys.tau != tau:
                raise ConfigError("[parameters] tau must match [run] tau")
        comment = resolved_config_comment("brain", cfg)
        scenario = brain_analog_scenario(
            n_radial=int(run.get("n_radial", "4")),
            n_angular=int(run.get("n_angular", "32")),
            tau=tau,
            t_end=float(run.get("t_end", "3.0")),
            phys=phys,
            sample_every=int(run.get("sample_every", "1")),
            **_solver_options(cfg),
        )

    stepper = TimeStepper(scenario)
    try:
        _, series = stepper.run()
    except RuntimeError as exc:
        raise SolverFailure(str(exc)) from exc
    times = series.times
    fields = [f"p{i+1}" for i in range(scenario.n_networks)]
    probes = range(len(scenario.probes))
    extracted = {(name, j): series.series(name, j) for name in fields for j in probes}
    means = [
        (t_k, name, j, windowed_mean(*extracted[(name, j)], t_k))
        for t_k in times
        if t_k + 0.5 <= times[-1] + 1e-12
        for name in fields
        for j in probes
    ]
    return [
        write_csv(out_dir / "probes.csv", comment, "t,field,probe,value", series.rows()),
        write_csv(out_dir / "solver_log.csv", comment, "t,iterations,residual", series.log),
        write_csv(out_dir / "means.csv", comment, "t,field,probe,mean", means),
    ]


def _equivalence_ends(n, ell, eta):
    """Ends of the pencil of the two pressure preconditioner blocks at level ``n``.

    The blocks depend on which DOFs are constrained, not on their values.
    The level's system is freed on return, before the next assembly.
    """
    scaled = scaled_from_direct(1.0, [1.0], [0.0])
    system = build_block_system(unit_square_kernels(n, ell, scaled.n, eta), scaled)
    con = apply_boundary_conditions(system, homogeneous_bcs(1, pressure="dirichlet"))
    _, xp = preconditioner_matrices(con)
    _, xpt = preconditioner_matrices(condense_velocity(con))
    return spectrum_ends(xp, xpt)[1]


def cmd_eigs(cfg, out_dir):
    with config_errors():
        run = cfg["run"] if cfg.has_section("run") else {}
        n_side = int(run.get("n_per_side", "2"))
        ell = _order(run.get("order", "1"))
        lam = float(run.get("lambda", "1.0"))
        cells = [scaled_from_direct(lam, [10.0 ** (-i)] * 2, [0.0, 0.0])
                 for i in _list(run, "i_list", "0, 2, 4, 6, 8")]
        equiv_levels = _list(run, "equivalence_levels", "1, 2, 4")
        infsup_levels = _list(run, "infsup_levels", "2, 4, 8")
        opts = _solver_options(cfg)
        comment = resolved_config_comment("eigs", cfg)
    eta = opts["eta"]
    paths = []

    # spectrum of the reduced operator against the Schur preconditioner,
    # restricted to the mean-zero subspace (all-flux analysis setting)
    rows = []
    for scaled in cells:
        system = build_block_system(unit_square_kernels(n_side, ell, scaled.n, eta), scaled)
        condensed = condense_velocity(apply_boundary_conditions(system, homogeneous_bcs(2)))
        prec_mat = sps.block_diag(preconditioner_matrices(condensed), format="csr")
        neg, pos = spectrum_ends(condensed.K_red, prec_mat, exclude=mean_zero_functionals(condensed))
        rows.append((scaled.R[0], *neg, *pos))
    paths.append(write_csv(out_dir / "eigs.csv", comment, "R,neg_min,neg_max,pos_min,pos_max", rows))

    # spectral equivalence of the two pressure preconditioner blocks
    rows = [(n, *_equivalence_ends(n, ell, eta)) for n in equiv_levels]
    paths.append(write_csv(out_dir / "xp_equivalence.csv", comment, "n,eig_min,eig_max", rows))

    # inf-sup constants over mesh levels, one table per estimator kind; the
    # two estimators of a level read one cached assembly
    betas = [[estimate_inf_sup(unit_square_kernels(n, ell, 1, eta), which)
              for which in ("stokes-like", "darcy-like")] for n in infsup_levels]
    for column, fname in zip(zip(*betas), ("infsup_stokes.csv", "infsup_darcy.csv")):
        rows = zip(infsup_levels, column)
        paths.append(write_csv(out_dir / fname, comment, "mesh_n,beta_h", rows))

    # conservation table from one converged solve
    scaled = scaled_from_direct(1.0, [1.0, 1.0], [1.0, 1.0])
    _, _, (x, system, _) = manufactured_solve(n_side, ell, scaled, **opts)
    _, residual = conservation_residual(x, system)
    rows = [(element, network, value) for (network, element), value in np.ndenumerate(residual)]
    paths.append(write_csv(out_dir / "conservation.csv", comment, "element,network,residual", rows))
    return paths


COMMANDS = {
    "convergence": cmd_convergence,
    "sweep": cmd_sweep,
    "orderrobust": cmd_orderrobust,
    "brain": cmd_brain,
    "eigs": cmd_eigs,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mpet",
        description="Parameter-robust HDG solver studies for multi-network poroelasticity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory for CSV tables")
    args = parser.parse_args(argv)

    try:
        cfg = read_config(args.config)
        check_keys(args.command, cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
