import warnings

import numpy as np
import pytest

from mpet import cli
from mpet.assembly import constraint_data, homogeneous_bcs
from mpet.cli import _flag, main, parse_parameters, read_config, write_csv
from mpet.params import scaled_from_direct


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def test_missing_config_is_config_error(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_parameters_mode_exclusive(tmp_path):
    cfg_path = write_cfg(
        tmp_path / "bad.cfg",
        "[parameters]\nmode = scaled\nlambda = 1\nR = 1\nalpha_p = 0\nE = 5\n",
    )
    with pytest.raises(Exception, match="physical keys"):
        parse_parameters(read_config(cfg_path))


def test_parameters_physical_parse(tmp_path):
    cfg_path = write_cfg(
        tmp_path / "phys.cfg",
        "[parameters]\nmode = physical\nE = 1500.0\nnu = 0.4999\n"
        "alpha = 0.49, 0.25\ns = 3.9e-4, 2.9e-4\nK = 1.57e-5, 3.75e-2\n"
        "xi = 0, 1e-6; 1e-6, 0\ntau = 0.0125\n",
    )
    mode, phys = parse_parameters(read_config(cfg_path))
    assert mode == "physical"
    assert phys.n == 2
    assert np.isclose(phys.mu, 500.0333355557)


def test_sweep_single_cell_and_determinism(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "sweep.cfg",
        "[run]\ni_list = 4\nlambda_list = 1.0\norders = 1\nn_per_side = 2\n"
        "variants = schur_reduced\n\n[solver]\ntol = 1e-8\nmaxit = 300\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    t1 = (out1 / "sweep.csv").read_text()
    assert t1 == (out2 / "sweep.csv").read_text()
    lines = t1.splitlines()
    assert lines[0].startswith("# command=sweep")
    assert lines[1] == "variant,ell,i,lambda,iterations,converged"
    variant, ell, i, lam, iters, conv = lines[2].split(",")
    assert conv == "1"
    assert int(iters) > 0


def test_sweep_maxit_sentinel(tmp_path):
    cfg = write_cfg(
        tmp_path / "sweep.cfg",
        "[run]\ni_list = 4\nlambda_list = 1.0\norders = 1\nn_per_side = 2\n"
        "variants = schur_reduced\n\n[solver]\ntol = 1e-8\nmaxit = 1\n",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    last = (out / "sweep.csv").read_text().splitlines()[-1]
    assert last.endswith(",1,0")  # one iteration recorded, unconverged


def test_convergence_small(tmp_path):
    cfg = write_cfg(
        tmp_path / "conv.cfg",
        "[run]\norders = 1\nlevels = 2, 4\n\n"
        "[parameters]\nmode = scaled\nlambda = 1.0\nR = 1.0, 1.0\n"
        "alpha_p = 1.0, 1.0\nxi = 0.0, 1.0; 1.0, 0.0\n\n"
        "[solver]\ntol = 1e-9\nmaxit = 500\n",
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[:6] == ["ell", "n", "h", "err_energy", "err_p_l2", "err_w_l2"]
    first = lines[2].split(",")
    second = lines[3].split(",")
    assert first[6] == ""                        # no rate on the first level
    assert float(second[6]) > 0.5                # energy error decreases
    assert float(second[3]) < float(first[3])


def test_orderrobust_single_cell(tmp_path):
    cfg = write_cfg(
        tmp_path / "or.cfg",
        "[run]\norders = 1\nn_list = 2\n\n[solver]\ntol = 1e-8\n",
    )
    out = tmp_path / "out"
    assert main(["orderrobust", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "orderrobust.csv").read_text().splitlines()
    assert lines[1] == "ell,n,iterations,converged"
    assert lines[2].startswith("1,2,")


def test_brain_tiny_run(tmp_path):
    cfg = write_cfg(
        tmp_path / "brain.cfg",
        "[run]\nn_radial = 1\nn_angular = 8\ntau = 0.0125\nt_end = 0.05\n\n"
        "[solver]\ntol = 1e-8\n",
    )
    out = tmp_path / "out"
    assert main(["brain", "--config", cfg, "--out", str(out)]) == 0
    probes = (out / "probes.csv").read_text().splitlines()
    assert probes[1] == "t,field,probe,value"
    first_rows = [r for r in probes[2:] if r.startswith("0.0,")]
    p1_vals = [float(r.split(",")[3]) for r in first_rows if r.split(",")[1] == "p1"]
    assert np.allclose(p1_vals, 5.0, atol=1e-9)
    log = (out / "solver_log.csv").read_text().splitlines()
    assert log[1] == "t,iterations,residual"
    assert len(log) == 2 + 4  # four steps


def test_eigs_small(tmp_path):
    cfg = write_cfg(
        tmp_path / "eigs.cfg",
        "[run]\nn_per_side = 1\norder = 1\ni_list = 0, 4\nlambda = 1.0\n"
        "equivalence_levels = 1, 2\ninfsup_levels = 2, 3\n\n[solver]\ntol = 1e-8\n",
    )
    out = tmp_path / "out"
    assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
    eigs = (out / "eigs.csv").read_text().splitlines()
    assert eigs[1] == "R,neg_min,neg_max,pos_min,pos_max"
    for row in eigs[2:]:
        _, nmin, nmax, pmin, pmax = (float(v) for v in row.split(","))
        assert nmax < -1e-2 and pmin > 1e-2
    for fname in ("infsup_stokes.csv", "infsup_darcy.csv"):
        infsup = (out / fname).read_text().splitlines()
        assert infsup[1] == "mesh_n,beta_h"
        assert all(float(r.split(",")[1]) > 0 for r in infsup[2:])
    cons = (out / "conservation.csv").read_text().splitlines()
    assert cons[1] == "element,network,residual"
    assert all(float(r.split(",")[2]) < 1e-8 for r in cons[2:])


def test_eigs_small_penalty_exits_2_without_warning(tmp_path, capsys):
    # the Schur preconditioner has a negative diagonal entry at eta = 0.01;
    # the spectrum rows reject it before taking its square root
    cfg = write_cfg(
        tmp_path / "eigs.cfg",
        "[run]\nn_per_side = 1\norder = 1\n\n[solver]\neta = 0.01\n",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eigs", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "run error: PreconditionerError" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_manufactured_solve_on_cached_kernels_matches_a_cold_build():
    # a cell solved on kernels another cell used first equals a cold solve
    args = (2, 2, cli._sweep_parameters(4, 1e4, False), 1e-8, 500, "schur_reduced")
    cli.unit_square_kernels.cache_clear()
    cli.manufactured_solve(2, 2, cli._sweep_parameters(0, 1.0, False), 1e-8, 500, "full_block")
    hits = cli.unit_square_kernels.cache_info().hits
    warm, _, (x_warm, _, _) = cli.manufactured_solve(*args)
    assert cli.unit_square_kernels.cache_info().hits == hits + 1
    cli.unit_square_kernels.cache_clear()
    cold, _, (x_cold, _, _) = cli.manufactured_solve(*args)
    assert np.array_equal(x_warm, x_cold)
    assert warm.iterations == cold.iterations


@pytest.mark.parametrize("ell", [1, 2])
def test_dirichlet_pressure_constrains_the_manufactured_dofs(ell):
    # cmd_eigs builds its equivalence rows on homogeneous Dirichlet data in
    # place of the manufactured data; both must fix the same DOFs
    scaled = scaled_from_direct(1.0, [1.0], [0.0])
    con = cli.manufactured_solve(2, ell, scaled, 1e-8, 500, "schur_reduced")[2][2]
    spaces = con.base.kernels.spaces
    constrained, _ = constraint_data(
        con.layout, spaces, homogeneous_bcs(1, pressure="dirichlet"), 0.0
    )
    assert np.array_equal(constrained, con.constrained)
    # and the pressure trace is among them
    flux = constraint_data(con.layout, spaces, homogeneous_bcs(1), 0.0)[0]
    assert len(flux) < len(constrained)


def test_sweep_parameter_grids():
    from mpet.cli import _sweep_parameters

    plain = _sweep_parameters(4, 10.0, False)
    assert np.allclose(plain.R, 1e-4) and np.allclose(plain.alpha_p, 1e-4)
    assert np.isclose(plain.zeta[0, 1], -1e-4)

    mixed = _sweep_parameters(6, 1.0, True)
    assert np.allclose(mixed.R, [1e-4, 1e-6])
    assert np.allclose(mixed.alpha_p, [1e-4, 1e-6])
    assert np.isclose(mixed.zeta[0, 1], -1e-6)

    corner = _sweep_parameters(8, 1.0, False, zero_coupling=True)
    assert np.allclose(corner.R, 1e-8)
    assert np.all(corner.alpha_p == 0.0)
    assert np.all(corner.zeta == 0.0)


def test_worker_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("MPET_MAX_WORKERS", "1")
    cfg = write_cfg(
        tmp_path / "sweep.cfg",
        "[run]\ni_list = 0\nlambda_list = 1.0\norders = 1\nn_per_side = 2\n\n"
        "[solver]\ntol = 1e-8\nworkers = 8\n",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "text",
    ["[run]\norders = 1\nn_list = 2\n\n[solver]\ntol = abc\n", "orders = 1\n"],
    ids=["bad-value", "no-section-header"],
)
def test_unparsable_config_exits_1(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path / "bad.cfg", text)
    assert main(["orderrobust", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_mesh_error_during_run_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "brain.cfg", "[run]\nn_radial = 1\nn_angular = 2\n")
    assert main(["brain", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "MeshError" in err and "config error" not in err


def test_large_infsup_level_exits_0(tmp_path):
    # a 24x24 inf-sup level (about 7000 DOFs per estimator) runs like any other
    cfg = write_cfg(
        tmp_path / "eigs.cfg",
        "[run]\nn_per_side = 1\norder = 1\ni_list = 0\nequivalence_levels = 1\n"
        "infsup_levels = 24\n",
    )
    out = tmp_path / "out"
    assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
    for name in ("infsup_stokes.csv", "infsup_darcy.csv"):
        rows = (out / name).read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["24"]
        assert all(float(row.split(",")[1]) > 0 for row in rows)


def test_cli_import_leaves_sympy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mpet

    src = str(Path(mpet.__file__).resolve().parents[1])
    code = (
        "import sys, mpet.cli; assert 'sympy' not in sys.modules; "
        "mpet.cli.default_manufactured(1); assert 'sympy' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_write_csv(tmp_path):
    rows = [(0, "p1", 1.5e-12, True), (1, "p2", np.float64(0.5), None)]
    path = write_csv(tmp_path / "t.csv", "# demo", "n,name,value,flag", rows,
                     trailer=["# check=ok"])
    assert path.read_text().splitlines() == [
        "# demo",
        "n,name,value,flag",
        "0,p1,1.5e-12,1",
        "1,p2,0.5,",
        "# check=ok",
    ]


def test_brain_sample_every_zero_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "brain.cfg", "[run]\nn_radial = 1\nn_angular = 8\nsample_every = 0\n")
    assert main(["brain", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error: sample_every must be at least 1" in capsys.readouterr().err


def test_unknown_sweep_variant_exits_1_before_any_solve(tmp_path, capsys, monkeypatch):
    import mpet.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a cell was solved before the config was checked")

    monkeypatch.setattr(mpet.cli, "manufactured_solve", no_solve)
    cfg = write_cfg(
        tmp_path / "sweep.cfg",
        "[run]\ni_list = 0\nlambda_list = 1.0\norders = 1\nn_per_side = 2\n"
        "variants = full_block, schur_reduce\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error: unknown solver variant 'schur_reduce'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("sweep", "[run]\ni_list = 0\nlambda_list = 1.0\norders = 1\nmixed = maybe\n"),
        ("sweep", "[run]\ni_list = 0\nlambda_list = 1.0\norders = 1\nzero_coupling = on\n"),
        ("brain", "[run]\nn_radial = 1\nn_angular = 8\nlong = maybe\n"),
    ],
    ids=["mixed", "zero_coupling", "long"],
)
def test_bad_boolean_exits_1(tmp_path, capsys, command, text):
    cfg = write_cfg(tmp_path / "bad.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_brain_needs_four_networks(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "brain.cfg",
        "[run]\nn_radial = 1\nn_angular = 8\n\n[parameters]\nmode = physical\n"
        "E = 1.5e-3\nnu = 0.4999\nalpha = 0.49, 0.25\ns = 390.0, 290.0\n"
        "K = 15.7, 3.75e4\ntau = 0.0125\n",
    )
    assert main(["brain", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error: the brain scenario has 4 networks" in capsys.readouterr().err


def test_boolean_spellings():
    for text in ("true", "TRUE", "Yes", "1"):
        assert _flag({"mixed": text}, "mixed") is True
    for text in ("false", "False", "NO", "0"):
        assert _flag({"mixed": text}, "mixed") is False
    assert _flag({}, "mixed") is False
