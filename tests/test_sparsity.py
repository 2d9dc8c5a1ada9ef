"""Recorded sparsity patterns against the scipy compositions they replay.

Every matrix a cell composes (``K``, ``K_ff``, ``K_fc``, ``K_red``, ``C``,
``Mw_inv`` and both preconditioner blocks) must equal the reference
composition of ``oracles.py`` array for array, over a sequence of cells
that composes directly, records, replays and re-keys the patterns on one
mesh.  The kernels store no zeros, so the recorded patterns depend on
which weights are nonzero and never on their values.
"""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sps

import mpet.cli
import mpet.solver
import mpet.sparsity
from mpet.assembly import (
    FormKernels,
    apply_boundary_conditions,
    assemble_kernels,
    build_block_system,
    homogeneous_bcs,
)
from mpet.cli import _sweep_parameters
from mpet.mesh import generate_annulus, generate_unit_square
from mpet.params import scaled_from_direct
from mpet.solver import (
    FIRST_FACTORS,
    PreconditionerError,
    build_preconditioner,
    condense_velocity,
    preconditioner_matrices,
    solve,
)
from mpet.spaces import SpaceSet
from mpet.sparsity import Gather, Structure, Union
from mpet.timeloop import TimeStepper, brain_analog_scenario
from oracles import (
    reference_condensed,
    reference_constrained,
    reference_operator,
    reference_preconditioner,
)


def assert_same(actual, expected, name):
    assert actual.shape == expected.shape, name
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(actual, part), getattr(expected, part)), (name, part)


def _kernels(n_side, ell):
    return assemble_kernels(SpaceSet(generate_unit_square(n_side), ell, 2))


# i = 0 has a diagonal Lambda and i = 2 a full one; zero_coupling has no
# transfer (zeta = 0) and a zero Lambda, mixed has unequal networks
CELLS = [(0, False, False), (2, False, False), (2, False, True), (4, True, False)]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_cells_on_one_mesh_match_the_scipy_composition(ell):
    kernels = _kernels(2, ell)
    for (i, mixed, zero_coupling), lam, pressure in itertools.product(
        CELLS, (0.0, 1.0, 1e4, 1e8), ("dirichlet", "flux")
    ):
        scaled = _sweep_parameters(i, lam, mixed, zero_coupling)
        system = build_block_system(kernels, scaled)
        assert_same(system.K, reference_operator(kernels, scaled), "K")
        con = apply_boundary_conditions(system, homogeneous_bcs(2, pressure=pressure))
        K_ff, K_fc = reference_constrained(system.K, con.constrained)
        assert_same(con.K_ff, K_ff, "K_ff")
        assert_same(con.K_fc, K_fc, "K_fc")
        condensed = condense_velocity(con)
        for name, expected in zip(("K_red", "C", "Mw_inv"), reference_condensed(con)):
            assert_same(getattr(condensed, name), expected, name)
        if pressure == "flux" and zero_coupling:
            assert len(con.structure.kernel) == 2   # a singular pressure block
        for target, reduced in ((condensed, True), (con, False)):
            x_first, x_p = preconditioner_matrices(target)
            ref_first, ref_p = reference_preconditioner(con, scaled, reduced)
            assert_same(x_first, ref_first, f"x_first reduced={reduced}")
            assert_same(x_p, ref_p, f"x_p reduced={reduced}")


def test_brain_system_matches_the_scipy_composition():
    """Four networks on an annulus, with transfer between some pairs only
    (zeta zero at (0, 1), (1, 0), (1, 2) and (2, 1)), a traction boundary
    and mixed pressure conditions."""
    stepper = TimeStepper(brain_analog_scenario(t_end=0.0125))
    system, con, scaled = stepper.system, stepper.constrained, stepper.scaled
    assert list(zip(*np.nonzero(scaled.zeta == 0))) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert_same(system.K, reference_operator(stepper.kernels, scaled), "K")
    K_ff, K_fc = reference_constrained(system.K, con.constrained)
    assert_same(con.K_ff, K_ff, "K_ff")
    assert_same(con.K_fc, K_fc, "K_fc")
    condensed = condense_velocity(con)
    for name, expected in zip(("K_red", "C", "Mw_inv"), reference_condensed(con)):
        assert_same(getattr(condensed, name), expected, name)
    for target, reduced in ((condensed, True), (con, False)):
        x_first, x_p = preconditioner_matrices(target)
        ref_first, ref_p = reference_preconditioner(con, scaled, reduced)
        assert_same(x_first, ref_first, f"x_first reduced={reduced}")
        assert_same(x_p, ref_p, f"x_p reduced={reduced}")


@pytest.mark.parametrize(
    "mesh, ell",
    [(generate_unit_square(2), ell) for ell in (1, 2, 3)]
    + [(generate_annulus(30.0, 70.0, 2, 8), 1)],
    ids=["square-1", "square-2", "square-3", "annulus-1"],
)
def test_kernels_store_no_zeros(mesh, ell):
    kernels = assemble_kernels(SpaceSet(mesh, ell, 2))
    matrices = {f.name: getattr(kernels, f.name) for f in dataclasses.fields(FormKernels)}
    matrices = {name: m for name, m in matrices.items() if sps.issparse(m)}
    assert len(matrices) == 9
    for name, m in {**matrices, "p_hdg": kernels.p_hdg}.items():
        assert m.nnz and np.count_nonzero(m.data == 0) == 0, name


def _recorded(structure):
    """Entries of the ``derived`` dict of every structure in the tree, in tree order."""
    counts = [len(structure.derived)]
    for found in structure.derived.values():
        if isinstance(found, Structure):
            counts += _recorded(found)
    return counts


@pytest.mark.parametrize("ell", [1, 2])
def test_patterns_depend_only_on_which_weights_are_nonzero(ell):
    """Cells with new nonzero lambda, R, alpha_p and xi, but the zero
    pattern of an earlier cell, record no new structure."""
    kernels = _kernels(2, ell)
    rng = np.random.default_rng(ell)

    def cell(has_lam, has_xi, has_alpha_p, pressure):
        draw = lambda size=None: 10.0 ** rng.uniform(-8, 8, size)
        xi = np.array([[0.0, 1.0], [1.0, 0.0]]) * draw() * has_xi
        scaled = scaled_from_direct(draw() * has_lam, draw(2), draw(2) * has_alpha_p, xi)
        bcs = homogeneous_bcs(2, pressure=pressure)
        con = apply_boundary_conditions(build_block_system(kernels, scaled), bcs)
        for target in (condense_velocity(con), con):
            preconditioner_matrices(target)

    # lambda, xi and alpha_p each zero or not, under both pressure conditions
    patterns = list(itertools.product((0, 1), (0, 1), (0, 1), ("dirichlet", "flux")))
    for pattern in patterns * 2:
        cell(*pattern)
    recorded = _recorded(kernels.structure)
    compositions = _compositions(kernels.structure)
    assert all(isinstance(found, (Gather, Union)) for found in compositions)
    for pattern in patterns * 3:
        cell(*pattern)
    assert _recorded(kernels.structure) == recorded
    assert all(a is b for a, b in zip(_compositions(kernels.structure), compositions))


def test_a_later_cell_leaves_an_earlier_cells_matrices_and_factors_unchanged():
    """Cells share recorded patterns and elasticity factors, never data:
    what ``solve(reuse=...)`` and ``TimeStepper`` hold stays as built."""
    kernels = _kernels(2, 2)
    bcs = homogeneous_bcs(2, pressure="dirichlet")

    def cell(i, lam):
        scaled = _sweep_parameters(i, lam, False)
        con = apply_boundary_conditions(build_block_system(kernels, scaled), bcs)
        con.base.F = np.random.default_rng(i).standard_normal(con.layout.total)
        return con, solve(con)[2]

    con, (condensed, prec) = cell(0, 1.0)
    arrays = {name: [m.data.copy(), m.indices.copy(), m.indptr.copy()]
              for name, m in (("K_ff", con.K_ff), ("K_red", condensed.K_red))}
    r = np.random.default_rng(7).standard_normal(condensed.K_red.shape[0])
    applied = prec(r)
    later = [cell(i, lam) for i, lam in ((2, 1.0), (4, 1e4), (0, 1.0))]
    assert later[-1][1][1].f1 is prec.f1   # equal lambda: one elasticity factor
    for name, m in (("K_ff", con.K_ff), ("K_red", condensed.K_red)):
        for saved, now in zip(arrays[name], (m.data, m.indices, m.indptr)):
            assert np.array_equal(saved, now), name
    for other, (other_condensed, _) in later:
        assert not np.shares_memory(other.K_ff.data, con.K_ff.data)
        assert not np.shares_memory(other_condensed.K_red.data, condensed.K_red.data)
    assert np.array_equal(prec(r), applied)


class _Counted(mpet.solver._SPDFactor):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    _Counted.built = 0
    monkeypatch.setattr(mpet.solver, "_SPDFactor", _Counted)
    return _Counted


def test_benchmark_sweep_factors_each_lambdas_elasticity_block_once(tmp_path, counted):
    """The seed-0 ``sweep`` benchmark grid: per order, three elasticity
    factors (one per lambda) and fifteen pressure factors (one per cell)."""
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "[run]\ni_list = 0, 2, 4, 6, 8\nlambda_list = 1e0, 1e4, 1e8\norders = 1, 2\n"
        "n_per_side = 8\n"
    )
    mpet.cli.unit_square_kernels.cache_clear()
    assert mpet.cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert counted.built == 2 * (3 + 15)


def test_elasticity_factors_are_kept_for_the_last_lambdas(counted, monkeypatch):
    """A kept factor is reused, and its block is then not composed at all."""
    kernels = _kernels(2, 1)
    bcs = homogeneous_bcs(2, pressure="dirichlet")
    first_blocks = []
    first_block = mpet.solver._first_block
    monkeypatch.setattr(mpet.solver, "_first_block",
                        lambda *args: first_blocks.append(1) or first_block(*args))

    def precondition(lam):
        scaled = scaled_from_direct(lam, [1.0, 1.0], [1.0, 1.0])
        con = apply_boundary_conditions(build_block_system(kernels, scaled), bcs)
        before, composed = counted.built, len(first_blocks)
        build_preconditioner(condense_velocity(con))
        built = counted.built - before   # 1: the pressure block only, 2: both
        assert len(first_blocks) - composed == built - 1
        return built

    lams = 10.0 ** np.arange(FIRST_FACTORS + 1)
    assert [precondition(lam) for lam in lams] == [2] * len(lams)
    assert precondition(lams[-1]) == 1
    assert precondition(lams[1]) == 1
    assert precondition(lams[0]) == 2   # evicted by the newest lambda


def test_new_kernels_start_without_recorded_patterns():
    first, second = _kernels(1, 1), _kernels(1, 1)
    scaled = scaled_from_direct(1.0, [1.0, 1.0], [1.0, 1.0])
    system = build_block_system(first, scaled)
    apply_boundary_conditions(system, homogeneous_bcs(2))
    assert first.structure.derived and not second.structure.derived
    assert build_block_system(second, scaled).structure is not system.structure


def _compositions(structure):
    """What every structure in the tree keeps per composition, in tree order:
    the recorded ``Gather`` or ``Union``, or the mark of a single use."""
    out = []
    for found in structure.derived.values():
        if isinstance(found, Structure):
            out += _compositions(found)
        elif isinstance(found, (Gather, Union)) or found is mpet.sparsity._SEEN:
            out.append(found)
    return out


def test_a_pattern_is_recorded_on_its_second_use():
    """The first cell composes every matrix directly through scipy and
    records nothing; the second records every composition, the third
    replays them; all three give the same arrays."""
    kernels = _kernels(2, 2)
    bcs = homogeneous_bcs(2, pressure="dirichlet")

    def cell():
        scaled = _sweep_parameters(2, 1e4, True)
        con = apply_boundary_conditions(build_block_system(kernels, scaled), bcs)
        condensed = condense_velocity(con)
        return [con.base.K, con.K_ff, con.K_fc, condensed.K_red, condensed.C, condensed.Mw_inv,
                *preconditioner_matrices(condensed), *preconditioner_matrices(con)]

    first = cell()
    composed = _compositions(kernels.structure)
    # the elasticity sum, K, K_ff, K_fc, K_red, C, Mw_inv and two blocks per variant
    assert len(composed) == 11
    assert all(found is mpet.sparsity._SEEN for found in composed)
    second = cell()
    recorded = _compositions(kernels.structure)
    assert len(recorded) == 11 and all(isinstance(f, (Gather, Union)) for f in recorded)
    assert all(take.dtype == np.intp for f in recorded
               for take in ((f.take,) if isinstance(f, Gather) else (f.a, f.b)))
    third = cell()
    assert all(a is b for a, b in zip(_compositions(kernels.structure), recorded))
    for k, (a, b, c) in enumerate(zip(first, second, third)):
        assert_same(b, a, k)
        assert_same(c, a, k)


def test_schur_reduced_solves_never_compose_K_ff():
    """A cold ``schur_reduced`` solve, a reused one, a ``full_block`` solve
    and a time stepper's construction and first step compose what they
    read straight from the operator's weighted blocks: none forms ``K``,
    and only ``full_block`` composes ``K_ff``.  Read afterwards, ``K`` and
    ``K_ff`` are bitwise the scipy compositions."""
    composed = lambda con: "K_ff" in con.structure.derived or "K_ff" in vars(con)
    formed = lambda system: "K" in system.structure.derived or "K" in vars(system)
    kernels = _kernels(2, 2)
    scaled = _sweep_parameters(2, 1e4, False)
    bcs = homogeneous_bcs(2, pressure="dirichlet")
    con = apply_boundary_conditions(build_block_system(kernels, scaled), bcs)
    con.base.F = np.random.default_rng(3).standard_normal(con.layout.total)
    x, report, reuse = solve(con)
    assert report.converged and not composed(con) and not formed(con.base)
    x_reused, _, _ = solve(con, reuse=reuse)
    assert np.array_equal(x_reused, x) and not composed(con) and not formed(con.base)
    stepper = TimeStepper(brain_analog_scenario(t_end=0.0125))
    stepper.step(stepper.initial_state())
    assert stepper.scenario.variant == "schur_reduced"
    assert not composed(stepper.constrained) and not formed(stepper.system)

    for con in (con, stepper.constrained):
        x_reduced, _, _ = solve(con, tol=1e-11)
        x_full, report, _ = solve(con, "full_block", tol=1e-11)
        assert report.converged and composed(con) and not formed(con.base)
        assert np.abs(x_full - x_reduced).max() <= 1e-6 * np.abs(x_reduced).max()
        system = con.base
        assert_same(system.K, reference_operator(system.kernels, system.scaled), "K")
        assert formed(system) and system.K is system.K
        K_ff, _ = reference_constrained(system.K, con.constrained)
        assert_same(con.K_ff, K_ff, "K_ff")
        assert con.K_ff is con.K_ff


def test_replayed_restrictions_gather_from_one_copy_of_the_operands(monkeypatch):
    """On recorded patterns every matrix restricted from the operator is one
    gather or sum from its weighted blocks' data, concatenated once per
    system, and bitwise the matrix of the cell that composed it directly."""
    kernels = _kernels(2, 2)
    bcs = homogeneous_bcs(2, pressure="dirichlet")
    sources = []
    for cls in (Gather, Union):
        replay = cls.matrix
        monkeypatch.setattr(cls, "matrix", lambda self, source, *rest, _replay=replay:
                            sources.append(source) or _replay(self, source, *rest))

    def cell():
        sources.clear()
        system = build_block_system(kernels, _sweep_parameters(2, 1e4, False))
        con = apply_boundary_conditions(system, bcs)
        condensed = condense_velocity(con)
        return system, [con.K_fc, condensed.K_red, condensed.C, con.K_ff, system.K]

    _, direct = [cell() for _ in range(3)][0]
    system, replayed = cell()
    assert sum(source is system.operands.data for source in sources) == 5
    for k, (a, b) in enumerate(zip(replayed, direct)):
        assert_same(a, b, k)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_recorded_maps_are_plain_indices_into_the_source(dtype):
    """A gather is one ``source[take]``, a sum ``p[a] + q[b]`` on the
    merged entries, with ``intp`` indices (numpy's own, which it
    gathers with without a cast); a difference is the sum with the negated
    operand, and the restriction composes before the sum.  A map is read
    from integer ids (``_numbered``'s) or float ones (``Union`` decodes its
    codes as floats), ``dtype`` here."""
    ids = np.array([5, 6, 7, 0, 1, 9, 3, 4, 5, 6], dtype=dtype) + 1
    gather = Gather(sps.csr_matrix((ids, np.arange(10), [0, 10]), shape=(1, 10)))
    assert gather.take.dtype == np.intp and np.array_equal(gather.take, ids - 1)
    source = np.linspace(0.5, 5.0, 10)
    assert np.array_equal(gather.matrix(source).toarray()[0], source[ids.astype(np.intp) - 1])

    rng = np.random.default_rng(0)
    P = sps.random(6, 6, density=0.5, format="csr", random_state=rng)
    Q = sps.random(6, 6, density=0.5, format="csr", random_state=rng)
    idx = np.array([0, 2, 3, 5])
    structure = Structure()
    sub = lambda p, q: (p[np.ix_(idx, idx)], q[np.ix_(idx, idx)])
    operands = ((P, P.data), (Q, -Q.data))
    expected = P[np.ix_(idx, idx)] - Q[np.ix_(idx, idx)]
    for _ in range(3):
        assert_same(structure.compose("sum", sub, *operands), expected, "sum")
        assert_same(structure.compose("T", lambda p: p.T.tocsr(), (P, P.data)), P.T.tocsr(), "T")
    union, gather = structure.derived["sum"], structure.derived["T"]
    assert union.a.dtype == union.b.dtype == gather.take.dtype == np.intp
    assert np.array_equal(P.data[gather.take], P.T.tocsr().data)
    merged = np.zeros(union.size)
    merged[union.has_a] = P.data[union.a]
    merged[union.has_b] += -Q.data[union.b]
    assert np.array_equal(merged, expected.data)


def test_a_replayed_band_equals_a_fresh_one():
    """The condensation plans kept on the constrained structure (the first
    block's) and on a preconditioner's structure (the pressure block's) fill
    the band of a block composed on the recorded pattern bitwise as a fresh
    plan does, and condenses it alike; the local blocks' Cholesky and
    ``pbtrf`` still certify every factorization on it."""
    kernels = _kernels(2, 2)
    bcs = homogeneous_bcs(2, pressure="dirichlet")
    for lam in (1.0, 1e4, 1e8):   # a new lambda composes the first block too
        scaled = _sweep_parameters(2, lam, False)
        condensed = condense_velocity(apply_boundary_conditions(build_block_system(kernels, scaled), bcs))
        prec = build_preconditioner(condensed)
    assert prec.f1.path == prec.f2.path == "condensed"
    _, structure = mpet.solver._preconditioner_structure(condensed)
    assert isinstance(structure.derived["first"], Gather)   # composed on recorded patterns
    assert isinstance(structure.derived["x_p"], Union)
    for block, plan, local in zip(preconditioner_matrices(condensed),
                                  (condensed.constrained.structure.derived[("first band", True)],
                                   structure.derived["pressure band"]),
                                  structure.local):
        fresh = mpet.solver._BandPlan(block.copy(), local).condense(block.data)
        for a, b in zip(plan.condense(block.data), fresh):
            a, b = (a, b) if isinstance(a, np.ndarray) else (a.data, b.data)
            assert np.array_equal(a, b)
        negated = sps.csr_matrix((-block.data, block.indices, block.indptr), shape=block.shape)
        with pytest.raises(PreconditionerError, match="not SPD"):
            mpet.solver._SPDFactor(negated, plan=plan)