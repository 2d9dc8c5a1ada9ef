"""Command-line harness for the robustness and application studies.

Subcommands: ``convergence``, ``sweep``, ``orderrobust``, ``brain`` and
``eigs``, each driven by a key=value config file (INI sections) and
writing CSV tables into an output directory.  Every CSV starts with a
provenance comment carrying the resolved configuration, and identical
configs produce bit-identical files.  Exit codes: 0 on success, 1 when
the config cannot be read or parsed, 2 when the run fails (an unconverged
solve, or an error such as ``MeshError`` or a dense-size guard raised
while running, reported with its type).
"""

import argparse
import configparser
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sps

from .assembly import (
    BoundaryConditionSet,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_volume_rhs,
    build_block_system,
)
from .diagnostics import (
    NormAssembler,
    conservation_residual,
    estimate_inf_sup,
    preconditioned_spectrum,
    spectrum_intervals,
    write_conservation_csv,
    write_infsup_csv,
)
from .mesh import generate_unit_square
from .params import (
    PhysicalParameters,
    lame_from_young_poisson,
    scaled_from_direct,
)
from .solver import (
    PreconditionerConfig,
    condense_velocity,
    mean_zero_functionals,
    preconditioner_matrices,
    reduced_subspace_vectors,
    solve,
)
from .spaces import SpaceSet
from .timeloop import TimeStepper, brain_analog_scenario, windowed_mean

__all__ = ["main"]

MAXIT_SENTINEL_NOTE = "unconverged cells are recorded with converged=0"


class ConfigError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


@contextmanager
def config_errors():
    """Report a missing key, a bad value or a malformed file as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def read_config(path):
    cfg = configparser.ConfigParser()
    with config_errors():
        found = cfg.read(path)
    if not found:
        raise ConfigError(f"config file {path} not found")
    return cfg


def _floats(text):
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _ints(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


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
        # configparser lowercases option names
        forbidden = {"e", "nu", "mu", "s", "k", "tau"} & set(sec.keys())
        if forbidden:
            raise ConfigError(f"scaled mode must not set physical keys {sorted(forbidden)}")
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
    sec = cfg["solver"] if cfg.has_section("solver") else {}
    variant = sec.get("variant", "schur_reduced")
    if variant not in ("schur_reduced", "full_block"):
        raise ConfigError(f"unknown solver variant {variant!r}")
    return {
        "variant": variant,
        "tol": float(sec.get("tol", "1e-8")),
        "maxit": int(sec.get("maxit", "500")),
        "eta": float(sec.get("eta", "10.0")),
    }


def _workers(cfg):
    requested = 1
    if cfg.has_section("solver") and "workers" in cfg["solver"]:
        requested = int(cfg["solver"]["workers"])
    cap = os.environ.get("MPET_MAX_WORKERS")
    if cap is not None:
        requested = min(requested, max(1, int(cap)))
    return max(1, requested)


# ----------------------------------------------------------------------
# manufactured single solves
# ----------------------------------------------------------------------


def default_manufactured(n_networks=2):
    """The benchmark fields of :mod:`mpet.manufactured`, imported on first use.

    Building them needs sympy, which ``mpet brain`` never loads.
    """
    from .manufactured import default_manufactured as build

    return build(n_networks)


def manufactured_problem(n_side, ell, scaled, eta=10.0):
    mesh = generate_unit_square(n_side)
    spaces = SpaceSet(mesh, ell, scaled.n)
    kernels = assemble_kernels(mesh, spaces, eta=eta)
    system = build_block_system(kernels, scaled)
    manu = default_manufactured(min(scaled.n, 2))
    g = manu.mass_sources(scaled)
    while len(g) < scaled.n:
        g.append(g[-1])
    system.F = assemble_volume_rhs(mesh, spaces, f=manu.body_force(scaled), g=g)
    pres = [
        {"boundary": ("dirichlet", manu.pressure_trace_bc(min(i, manu.n - 1)))}
        for i in range(scaled.n)
    ]
    bcs = BoundaryConditionSet(
        {"boundary": ("dirichlet", lambda x, t: np.zeros(2))}, pres
    )
    con = apply_boundary_conditions(system, bcs)
    return mesh, spaces, system, manu, bcs, con


def manufactured_solve(n_side, ell, scaled, tol, maxit, variant, eta=10.0,
                       with_errors=False):
    mesh, spaces, system, manu, bcs, con = manufactured_problem(n_side, ell, scaled, eta)
    x, report, _ = solve(
        con, scaled, PreconditionerConfig(variant), tol=tol, maxit=maxit, bcs=bcs
    )
    errors = None
    if with_errors:
        layout = system.layout
        exact = np.zeros(layout.total)
        exact[layout.sl("u")] = spaces.interpolate_u(manu.u)
        exact[layout.sl("uhat")] = spaces.interpolate_uhat(manu.u)
        for i in range(scaled.n):
            j = min(i, manu.n - 1)
            exact[layout.sl(f"w{i}")] = spaces.interpolate_w(manu.flux(scaled, j))
            exact[layout.sl(f"p{i}")] = spaces.interpolate_p(manu.p[j])
            exact[layout.sl(f"phat{i}")] = spaces.interpolate_phat(manu.p[j])
        diff = x - exact
        norms = NormAssembler(mesh, spaces, system.kernels)
        rep = norms.report(diff, scaled)
        kernels = system.kernels
        err_p2 = sum(
            float(diff[layout.sl(f"p{i}")] @ (kernels.M_p @ diff[layout.sl(f"p{i}")]))
            for i in range(scaled.n)
        )
        err_w2 = sum(
            float(diff[layout.sl(f"w{i}")] @ (kernels.M_w @ diff[layout.sl(f"w{i}")]))
            for i in range(scaled.n)
        )
        errors = {
            "energy": rep.u_bar,
            "p_l2": float(np.sqrt(err_p2)),
            "w_l2": float(np.sqrt(err_w2)),
        }
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
        orders = _ints(run.get("orders", "1, 2"))
        levels = _ints(run.get("levels", "4, 8, 16"))
        _validate_grid(orders, levels=levels)
        opts = _solver_options(cfg)
        comment = resolved_config_comment("convergence", cfg)

    rows = []
    failed = False
    for ell in orders:
        prev = None
        for n in levels:
            report, errors, _ = manufactured_solve(
                n, ell, scaled, opts["tol"], opts["maxit"], opts["variant"],
                eta=opts["eta"], with_errors=True,
            )
            if not report.converged:
                failed = True
            rates = {}
            if prev is not None:
                for key in ("energy", "p_l2", "w_l2"):
                    rates[key] = float(np.log2(prev[key] / errors[key]))
            rows.append((ell, n, 1.0 / n, errors, rates, report.iterations))
            prev = errors
            if failed:
                break
        if failed:
            break

    path = Path(out_dir) / "convergence.csv"
    with open(path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("ell,n,h,err_energy,err_p_l2,err_w_l2,rate_energy,rate_p_l2,rate_w_l2,iterations\n")
        for ell, n, h, errors, rates, iters in rows:
            rate_cols = ",".join(
                repr(rates[k]) if k in rates else "" for k in ("energy", "p_l2", "w_l2")
            )
            fh.write(
                f"{ell},{n},{h!r},{errors['energy']!r},{errors['p_l2']!r},"
                f"{errors['w_l2']!r},{rate_cols},{iters}\n"
            )
    if failed:
        raise SolverFailure("convergence study aborted on an unconverged solve")
    return [path]


def _validate_grid(orders, **lists):
    for name, values in lists.items():
        if not list(values):
            raise ConfigError(f"{name} must be non-empty")
    if not orders:
        raise ConfigError("orders must be non-empty")
    bad = [ell for ell in orders if ell not in (1, 2, 3)]
    if bad:
        raise ConfigError(f"unsupported orders {bad}; supported: 1, 2, 3")


def _sweep_cells(cfg):
    run = cfg["run"]
    i_list = _ints(run.get("i_list", "0, 2, 4, 6, 8"))
    lambda_list = _floats(run.get("lambda_list", "1e0, 1e4, 1e8"))
    orders = _ints(run.get("orders", "1, 2"))
    _validate_grid(orders, i_list=i_list, lambda_list=lambda_list)
    variants = [v.strip() for v in run.get("variants", "schur_reduced").split(",")]
    truthy = ("true", "1", "yes")
    mixed = run.get("mixed", "false").strip().lower() in truthy
    zero_coupling = run.get("zero_coupling", "false").strip().lower() in truthy
    if mixed and zero_coupling:
        raise ConfigError("mixed and zero_coupling are mutually exclusive")
    cells = []
    for variant in variants:
        for ell in orders:
            for i in i_list:
                for lam in lambda_list:
                    cells.append((variant, ell, i, lam, mixed, zero_coupling))
    return cells


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
        cells = _sweep_cells(cfg)
        comment = resolved_config_comment("sweep", cfg, {"note": MAXIT_SENTINEL_NOTE})
        workers = _workers(cfg)

    def run_cell(cell):
        variant, ell, i, lam, mixed, zero_coupling = cell
        scaled = _sweep_parameters(i, lam, mixed, zero_coupling)
        report, _, _ = manufactured_solve(
            n_side, ell, scaled, opts["tol"], opts["maxit"], variant, eta=opts["eta"]
        )
        return report

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_cell, cells))
    else:
        reports = [run_cell(cell) for cell in cells]

    path = Path(out_dir) / "sweep.csv"
    with open(path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("variant,ell,i,lambda,iterations,converged\n")
        for cell, report in zip(cells, reports):
            variant, ell, i, lam = cell[:4]
            fh.write(
                f"{variant},{ell},{i},{lam!r},{report.iterations},{int(report.converged)}\n"
            )
    return [path]


def cmd_orderrobust(cfg, out_dir):
    with config_errors():
        run = cfg["run"]
        orders = _ints(run.get("orders", "1, 2, 3"))
        n_list = _ints(run.get("n_list", "2, 4, 8, 16"))
        _validate_grid(orders, n_list=n_list)
        opts = _solver_options(cfg)
        comment = resolved_config_comment("orderrobust", cfg)
    scaled = scaled_from_direct(
        1.0, [1e-4, 1e-4], [1e-4, 1e-4], np.array([[0.0, 1e-4], [1e-4, 0.0]])
    )
    path = Path(out_dir) / "orderrobust.csv"
    table = {}
    with open(path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("ell,n,iterations,converged\n")
        for ell in orders:
            for n in n_list:
                report, _, _ = manufactured_solve(
                    n, ell, scaled, opts["tol"], opts["maxit"], opts["variant"],
                    eta=opts["eta"],
                )
                table[(ell, n)] = report.iterations
                fh.write(f"{ell},{n},{report.iterations},{int(report.converged)}\n")
        # with directly inverted blocks no growth trend in the mesh size is
        # expected; flag material growth over the last refinements
        verdict = "ok"
        for ell in orders:
            tail = [table[(ell, n)] for n in n_list[-3:]]
            if len(tail) == 3 and tail[2] > 1.3 * tail[0]:
                verdict = f"growth-trend ell={ell}"
                break
        fh.write(f"# mesh_growth_check={verdict}\n")
    return [path]


def cmd_brain(cfg, out_dir):
    with config_errors():
        run = cfg["run"] if cfg.has_section("run") else {}
        long_run = str(run.get("long", "false")).strip().lower() in ("true", "1", "yes")
        tau = float(run.get("tau", "0.125" if long_run else "0.0125"))
        t_end = float(run.get("t_end", "2500.0" if long_run else "3.0"))
        n_radial = int(run.get("n_radial", "4"))
        n_angular = int(run.get("n_angular", "32"))
        sample_every = int(run.get("sample_every", "1"))
        opts = _solver_options(cfg)

        phys = None
        if cfg.has_section("parameters"):
            mode, parsed = parse_parameters(cfg)
            if mode != "physical":
                raise ConfigError("the brain scenario needs physical parameters")
            phys = parsed
            if phys.tau != tau:
                raise ConfigError("[parameters] tau must match [run] tau")
        comment = resolved_config_comment("brain", cfg)

    scenario = brain_analog_scenario(
        n_radial=n_radial, n_angular=n_angular, tau=tau, t_end=t_end, tol=opts["tol"]
    )
    if phys is not None:
        scenario.phys = phys
    scenario.maxit = opts["maxit"]
    scenario.variant = opts["variant"]
    scenario.sample_every = sample_every
    stepper = TimeStepper(scenario)
    probe_path = Path(out_dir) / "probes.csv"
    log_path = Path(out_dir) / "solver_log.csv"
    means_path = Path(out_dir) / "means.csv"
    try:
        state, series = stepper.run()
    except RuntimeError as exc:
        raise SolverFailure(str(exc)) from exc
    with open(probe_path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("t,field,probe,value\n")
        for t, name, probe, value in series.rows():
            fh.write(f"{t!r},{name},{probe},{value!r}\n")
    with open(log_path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("t,iterations,residual\n")
        for t, iters, res in series.log:
            fh.write(f"{t!r},{iters},{res!r}\n")
    with open(means_path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("t,field,probe,mean\n")
        times = np.array(series.times)
        fields = [f"p{i+1}" for i in range(scenario.n_networks)]
        extracted = {
            (name, j): series.series(name, j)
            for name in fields
            for j in range(len(scenario.probes))
        }
        for t_k in times:
            if t_k + 0.5 > times[-1] + 1e-12:
                continue
            for name in fields:
                for j in range(len(scenario.probes)):
                    ts, vs = extracted[(name, j)]
                    mean = windowed_mean(ts, vs, float(t_k))
                    fh.write(f"{float(t_k)!r},{name},{j},{mean!r}\n")
    return [probe_path, log_path, means_path]


def cmd_eigs(cfg, out_dir):
    with config_errors():
        run = cfg["run"] if cfg.has_section("run") else {}
        n_side = int(run.get("n_per_side", "2"))
        ell = int(run.get("order", "1"))
        i_list = _ints(run.get("i_list", "0, 2, 4, 6, 8"))
        lam = float(run.get("lambda", "1.0"))
        equiv_levels = _ints(run.get("equivalence_levels", "1, 2, 4"))
        infsup_levels = _ints(run.get("infsup_levels", "2, 4, 8"))
        opts = _solver_options(cfg)
        comment = resolved_config_comment("eigs", cfg)
    paths = []

    # spectrum of the reduced operator against the Schur preconditioner,
    # restricted to the mean-zero subspace (all-flux analysis setting)
    spec_path = Path(out_dir) / "eigs.csv"
    with open(spec_path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("R,neg_min,neg_max,pos_min,pos_max\n")
        for i in i_list:
            R = 10.0 ** (-i)
            scaled = scaled_from_direct(lam, [R, R], [0.0, 0.0])
            mesh = generate_unit_square(n_side)
            spaces = SpaceSet(mesh, ell, 2)
            system = build_block_system(assemble_kernels(mesh, spaces, opts["eta"]), scaled)
            manu = default_manufactured(2)
            system.F = assemble_volume_rhs(
                mesh, spaces, f=manu.body_force(scaled), g=manu.mass_sources(scaled)
            )
            bcs = BoundaryConditionSet(
                {"boundary": ("dirichlet", lambda x, t: np.zeros(2))},
                [{"boundary": ("flux", None)} for _ in range(2)],
            )
            con = apply_boundary_conditions(system, bcs)
            condensed = condense_velocity(con)
            x1, x2 = preconditioner_matrices(
                condensed, scaled, PreconditionerConfig("schur_reduced")
            )
            prec_mat = sps.block_diag([x1, x2], format="csr")
            exclude = reduced_subspace_vectors(condensed, mean_zero_functionals(system))
            eigs = preconditioned_spectrum(condensed.K_red, prec_mat, exclude=exclude)
            neg, pos = spectrum_intervals(eigs)
            fh.write(f"{R!r},{neg[0]!r},{neg[1]!r},{pos[0]!r},{pos[1]!r}\n")
    paths.append(spec_path)

    # spectral equivalence of the two pressure preconditioner blocks
    equiv_path = Path(out_dir) / "xp_equivalence.csv"
    with open(equiv_path, "w") as fh:
        fh.write(comment + "\n")
        fh.write("n,eig_min,eig_max\n")
        for n in equiv_levels:
            scaled = scaled_from_direct(1.0, [1.0], [0.0])
            mesh = generate_unit_square(n)
            spaces = SpaceSet(mesh, ell, 1)
            system = build_block_system(assemble_kernels(mesh, spaces, opts["eta"]), scaled)
            manu = default_manufactured(1)
            system.F = assemble_volume_rhs(
                mesh, spaces, f=manu.body_force(scaled), g=manu.mass_sources(scaled)
            )
            bcs = BoundaryConditionSet(
                {"boundary": ("dirichlet", lambda x, t: np.zeros(2))},
                [{"boundary": ("dirichlet", manu.pressure_trace_bc(0))}],
            )
            con = apply_boundary_conditions(system, bcs)
            condensed = condense_velocity(con)
            _, xp = preconditioner_matrices(con, scaled, PreconditionerConfig("full_block"))
            _, xpt = preconditioner_matrices(
                condensed, scaled, PreconditionerConfig("schur_reduced")
            )
            eigs = preconditioned_spectrum(xp, xpt)
            fh.write(f"{n},{float(eigs.min())!r},{float(eigs.max())!r}\n")
    paths.append(equiv_path)

    # inf-sup constants over mesh levels, one table per estimator kind
    for which, fname in (("stokes-like", "infsup_stokes.csv"), ("darcy-like", "infsup_darcy.csv")):
        rows = []
        for n in infsup_levels:
            mesh = generate_unit_square(n)
            spaces = SpaceSet(mesh, ell, 1)
            rows.append((n, estimate_inf_sup(mesh, spaces, which)))
        infsup_path = Path(out_dir) / fname
        write_infsup_csv(infsup_path, rows, header_comment=comment.lstrip("# "))
        paths.append(infsup_path)

    # conservation table from one converged solve
    scaled = scaled_from_direct(1.0, [1.0, 1.0], [1.0, 1.0])
    report, _, (x, system, con) = manufactured_solve(
        n_side, ell, scaled, opts["tol"], opts["maxit"], opts["variant"], eta=opts["eta"]
    )
    _, rows = conservation_residual(x, system)
    cons_path = Path(out_dir) / "conservation.csv"
    write_conservation_csv(cons_path, rows, header_comment=comment.lstrip("# "))
    paths.append(cons_path)
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
