"""Implicit-Euler time stepping, scenario management and postprocessing.

Each step assembles the right-hand side of the scaled single-step system
from the previous state (only div u and the pressures enter the
recurrence), applies the boundary profiles at the new time level, solves
with the Schur-reduced preconditioner by default, and unscales back to
physical pressures and fluxes.  The system matrix and its factorizations
are built once per scenario; time dependence lives entirely in the
right-hand side and the essential values.

Pressures are kept in N/mm^2 internally for the brain-analog scenario;
boundary profiles in mmHg convert at this layer (1 mmHg = 133.322e-6
N/mm^2).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from .assembly import (
    BoundaryConditionSet,
    VolumeQuadrature,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_traction_rhs,
    assemble_volume_rhs,
    build_block_system,
)
from .mesh import build_affine_map, generate_annulus
from .params import PhysicalParameters, lame_from_young_poisson, scale_parameters
from .solver import solve
from .spaces import SpaceSet, piola_map

__all__ = [
    "MMHG",
    "Scenario",
    "State",
    "TimeSeries",
    "TimeStepper",
    "windowed_mean",
    "brain_analog_scenario",
    "save_state",
    "load_state",
]

# 1 mmHg in N/mm^2
MMHG = 133.322e-6


def _whole_steps(span, tau):
    """The number of steps ``tau`` in ``span``, or None unless that number
    is whole to within 1e-9 of it (1e-9 of a step when under one step)."""
    steps = span / tau
    if abs(steps - round(steps)) > 1e-9 * max(abs(steps), 1.0):
        return None
    return int(round(steps))


@dataclass
class Scenario:
    """Everything a time-dependent run needs.

    Boundary profiles are physical-pressure callables ``(x, t)``, called
    with coordinate-first batches of points (see ``BoundaryConditionSet``);
    the stepper wraps them with the similarity scaling.  ``pressure_unit``
    only affects probe output (internal value divided by it).  ``t_end``
    must be a whole number of steps ``tau``, to within rounding.
    """

    mesh: object
    ell: int
    phys: PhysicalParameters
    bcs: BoundaryConditionSet
    initial_pressures: list
    tau: float
    t_end: float
    probes: list = field(default_factory=list)
    body_force: object = None
    mass_sources: list = None
    eta: float = 10.0
    tol: float = 1e-8
    maxit: int = 500
    pressure_unit: float = 1.0
    variant: str = "schur_reduced"
    sample_every: int = 1

    def __post_init__(self):
        if self.tau <= 0.0 or self.t_end < self.tau:
            raise ValueError("need tau > 0 and t_end >= tau")
        if _whole_steps(self.t_end, self.tau) is None:
            raise ValueError(f"t_end = {self.t_end} is not a whole number of steps of tau = {self.tau}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        for name in ("initial_pressures", "mass_sources"):
            values = getattr(self, name)
            if values is not None and len(values) != self.phys.n:
                raise ValueError(f"{name} has {len(values)} entries for {self.phys.n} networks")
        for point in self.probes:
            self.mesh.locate_point(point)   # raises if outside

    @property
    def n_networks(self):
        return self.phys.n


@dataclass
class State:
    """Physical state carried between steps: (u, p) only; fluxes are recovered."""

    t: float
    u: np.ndarray
    p: list


@dataclass
class TimeSeries:
    times: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)    # field name -> list of per-probe lists
    log: list = field(default_factory=list)        # (t, iterations, final residual)

    def add(self, t, values, report=None):
        if self.times and t <= self.times[-1]:
            raise ValueError("time samples must be strictly increasing")
        self.times.append(t)
        for name, per_probe in values.items():
            self.samples.setdefault(name, []).append(list(per_probe))
        if report is not None:
            self.log.append((t, report.iterations, report.final_residual))

    def series(self, name, probe_index):
        return np.array(self.times), np.array(
            [row[probe_index] for row in self.samples[name]]
        )

    def rows(self):
        for k, t in enumerate(self.times):
            for name in sorted(self.samples):
                for j in range(len(self.probes)):
                    yield t, name, j, self.samples[name][k][j]


def windowed_mean(series_t, series_v, t_k):
    """Trapezoidal mean over the unit window centred at ``t_k``.

    The window is truncated at zero for ``t_k < 1/2`` and the integral is
    normalized by the actual window length.  Raises on an empty window or
    when the window leaves the recorded range.
    """
    t = np.asarray(series_t, dtype=float)
    v = np.asarray(series_v, dtype=float)
    lo = max(0.0, t_k - 0.5)
    hi = t_k + 0.5
    if len(t) == 0 or hi > t[-1] + 1e-12 or lo < t[0] - 1e-12:
        raise ValueError("empty window or window outside the recorded range")
    mask = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    tw, vw = t[mask], v[mask]
    if len(tw) < 2:
        raise ValueError("empty window or window outside the recorded range")
    return float(np.trapezoid(vw, tw) / (tw[-1] - tw[0]))


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------


class TimeStepper:
    """Owns the assembled operator, factorizations and scaled BC wrappers.

    A step applies linear maps around MinRes, each recorded once and then
    applied as one sparse product, so that only the boundary and source
    callables are evaluated anew:

    * at construction, the previous state ``[u; p_1..p_n]`` to the
      recurrence rows of the step's right-hand side, and to the probe
      values;
    * on the first load of a traction tag, its point values to the u and
      uhat rows of the load (:attr:`~mpet.spaces.BoundaryFacets.traction_map`);
    * with the constrained structure, each Dirichlet tag's point values to
      its u and uhat values or its phat values
      (:attr:`~mpet.spaces.BoundaryFacets.dirichlet_map`, ``.pressure_map``),
      which the :class:`~mpet.assembly.EssentialMap` kept on the structure
      gathers into the constrained values, bitwise those of a fresh map.

    The reduced right-hand side, the flux recovery and the conservation
    residual are those of a cold solve.  The maps other than the Dirichlet
    values agree with the unrecorded formulas to rounding.
    """

    def __init__(self, scenario):
        sc = scenario
        self.scenario = sc
        self.spaces = SpaceSet(sc.mesh, sc.ell, sc.n_networks)
        self.kernels = assemble_kernels(self.spaces, eta=sc.eta)
        self.scaled = scale_parameters(sc.phys)
        self.system = build_block_system(self.kernels, self.scaled)
        self.layout = self.system.layout
        self.bcs_scaled = self._wrap_bcs(sc.bcs, sc.phys)
        self.constrained = apply_boundary_conditions(self.system, self.bcs_scaled, t=0.0)
        self._reuse = None
        # p_i = 2 mu / alpha_i times the scaled pressure
        self._p_scale = 2.0 * sc.phys.mu / sc.phys.alpha
        self._recurrence = self._recurrence_map()
        self._probe_map = self._probes_map()

    @cached_property
    def _quadrature(self):
        """The volume quadrature of the sources and the body force, formed on their first load."""
        return VolumeQuadrature(self.spaces)

    def _recurrence_map(self):
        """The state ``[u; p_1..p_n]`` to the recurrence rows of the step
        right-hand side: ``-div u - (s_i / alpha_i) M_p p_i`` on network
        i's volume pressures."""
        phys, k = self.scenario.phys, self.kernels
        n = phys.n
        grid = [[-k.D] + [None] * n for _ in range(n)]
        for i in range(n):
            grid[i][1 + i] = -(phys.s[i] / phys.alpha[i]) * k.M_p
        return sps.bmat(grid, format="csr")

    def _probes_map(self):
        """The state ``[u; p_1..p_n]`` to the probe values: network i's
        pressure at each probe (in output units), then the two components
        of u at each probe.

        A probe's element is found by ``Mesh.locate_point``; the values
        are those of the element's pressure basis and signed, Piola-mapped
        BDM basis there.
        """
        sc, s = self.scenario, self.spaces
        n, m = sc.n_networks, len(sc.probes)
        rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
        for j, point in enumerate(sc.probes):
            elem, ref = sc.mesh.locate_point(point)
            ref = np.atleast_2d(ref)
            pvals = s.p.eval(ref)[:, 0] / sc.pressure_unit
            for i in range(n):
                rows.append(np.full(s.n_p, i * m + j))
                cols.append(s.size_u + i * s.size_p + s.p_dofs(elem))
                vals.append(pvals)
            bvals = piola_map(build_affine_map(sc.mesh, elem), s.bdm.eval(ref))[:, 0, :]
            bvals = bvals * s.u_signs[elem][:, None]
            for c in range(2):
                rows.append(np.full(len(bvals), n * m + 2 * j + c))
                cols.append(s.u_dofmap[elem])
                vals.append(bvals[:, c])
        return sps.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                              shape=((n + 2) * m, s.size_u + n * s.size_p))

    def _wrap_bcs(self, bcs, phys):
        """Express physical boundary data in the scaled variables."""
        two_mu = 2.0 * phys.mu
        disp = {}
        for tag, (kind, fn) in bcs.displacement.items():
            if kind == "dirichlet":
                disp[tag] = (kind, fn)
            else:
                disp[tag] = (kind, lambda x, t, n, fn=fn: np.asarray(fn(x, t, n)) / two_mu)
        pres = []
        for i, per_tag in enumerate(bcs.pressure):
            a = phys.alpha[i]
            out = {}
            for tag, (kind, fn) in per_tag.items():
                if kind == "dirichlet":
                    out[tag] = (kind, lambda x, t, fn=fn, a=a: a / two_mu * fn(x, t))
                else:
                    out[tag] = (kind, None)
            pres.append(out)
        return BoundaryConditionSet(disp, pres)

    def initial_state(self):
        sc = self.scenario
        p = []
        for fn in sc.initial_pressures:
            if callable(fn):
                p.append(self.spaces.interpolate_p(fn))
            else:
                p.append(self.spaces.interpolate_p(lambda x, v=fn: float(v)))
        u = np.zeros(self.spaces.size_u)
        return State(t=0.0, u=u, p=p)

    def _state(self, x, t):
        """The physical state of a scaled solution vector, without its fluxes."""
        p = x[self.system.p_block].reshape(self.scenario.n_networks, -1) * self._p_scale[:, None]
        return State(t=t, u=x[self.layout.sl("u")].copy(), p=list(p))

    def unscale_solution(self, x, t):
        """Extract the physical state and fluxes from a scaled solution vector."""
        phys = self.scenario.phys
        w = [
            phys.alpha[i] / phys.tau * x[self.layout.sl(f"w{i}")]
            for i in range(phys.n)
        ]
        return self._state(x, t), w

    def step_rhs(self, state, t_k):
        """Right-hand side of the scaled step system at time ``t_k``, full layout.

        The loads at ``t_k`` (sources, body force, tractions), plus the
        recurrence ``-div u^{k-1} - (s_i / alpha_i) M_p p_i^{k-1}`` on the
        volume pressures, one product of the state with the recorded map.
        """
        sc = self.scenario
        phys = sc.phys
        F = assemble_traction_rhs(self.spaces, self.bcs_scaled, t=t_k)
        # volume loads from prescribed sources
        f_fn = None
        if sc.body_force is not None:
            two_mu = 2.0 * phys.mu
            f_fn = lambda x: np.asarray(sc.body_force(x, t_k)) / two_mu
        g_fns = None
        if sc.mass_sources is not None:
            g_fns = [
                (lambda x, fn=fn, i=i: -phys.tau / phys.alpha[i] * fn(x, t_k))
                if fn is not None
                else None
                for i, fn in enumerate(sc.mass_sources)
            ]
        if f_fn is not None or g_fns is not None:
            F += assemble_volume_rhs(self.spaces, f=f_fn, g=g_fns, quadrature=self._quadrature)
        F[self.system.p_block] += self._recurrence @ np.concatenate([state.u, *state.p])
        return F

    def step(self, state):
        """Advance one implicit-Euler step; returns ``(new_state, report, x)``
        with ``x`` the scaled solution vector of the step."""
        sc = self.scenario
        t_k = state.t + sc.tau
        self.system.F = self.step_rhs(state, t_k)
        self.constrained.update_values(self.bcs_scaled, t_k)
        x, report, self._reuse = solve(
            self.constrained, sc.variant, tol=sc.tol, maxit=sc.maxit, reuse=self._reuse
        )
        if not report.converged:
            raise RuntimeError(
                f"solver did not converge at t = {t_k} "
                f"({report.iterations} iterations, residual {report.final_residual:.3e})"
            )
        return self._state(x, t_k), report, x

    def probe_values(self, state):
        """Sample pressures (in output units) and |u| at the probe points,
        one product of the state with the recorded probe map."""
        n, m = self.scenario.n_networks, len(self.scenario.probes)
        y = self._probe_map @ np.concatenate([state.u, *state.p])
        values = {f"p{i+1}": y[i * m : (i + 1) * m].tolist() for i in range(n)}
        values["u_mag"] = np.hypot(y[n * m :: 2], y[n * m + 1 :: 2]).tolist()
        return values

    def run(self, start_state=None, collect=None):
        """March from ``start_state`` (default: initial conditions) to t_end.

        A start state must lie a whole number of steps before ``t_end``,
        by the rule that ``Scenario`` applies to ``t_end``; any other
        raises ``ValueError``.  Probe values are recorded every
        ``sample_every``-th step (and at the final step); the solver log
        keeps one row per step either way.
        """
        sc = self.scenario
        state = start_state or self.initial_state()
        n_steps = _whole_steps(sc.t_end - state.t, sc.tau)
        if n_steps is None:
            raise ValueError(f"start state at t = {state.t} is not a whole number of steps "
                             f"of tau = {sc.tau} before t_end = {sc.t_end}")
        series = TimeSeries(probes=list(sc.probes))
        series.add(state.t, self.probe_values(state))
        for k in range(1, n_steps + 1):
            state, report, _ = self.step(state)
            if k % sc.sample_every == 0 or k == n_steps:
                series.add(state.t, self.probe_values(state), report)
            else:
                series.log.append((state.t, report.iterations, report.final_residual))
            if collect is not None:
                collect(state, report)
        return state, series


# ----------------------------------------------------------------------
# scenario presets
# ----------------------------------------------------------------------


def brain_analog_scenario(n_radial=4, n_angular=32, tau=0.0125, t_end=3.0,
                          tol=1e-8, ell=1, phys=None, **options):
    """Four-network annulus analog of the brain scenario.

    Units: mm, s, N/mm^2.  The reference parameters (given per N/m^2)
    convert with factors of 1e6; scaled coefficient groups are invariant
    under this choice of pressure unit.  Boundary values in mmHg.
    ``phys`` replaces the reference parameters, and its ``alpha`` weights
    the ventricle load; ``options`` (``maxit``, ``variant``,
    ``sample_every``, ``eta``) go to :class:`Scenario`.
    """
    mesh = generate_annulus(30.0, 70.0, n_radial, n_angular)
    if phys is None:
        mu, lam = lame_from_young_poisson(1500.0e-6, 0.4999)
        xi = np.zeros((4, 4))
        for i, j in ((0, 2), (0, 3), (1, 3), (2, 3)):
            xi[i, j] = xi[j, i] = 1.0
        phys = PhysicalParameters(
            mu=mu,
            lam=lam,
            alpha=[0.49, 0.25, 0.01, 0.25],
            s=[390.0, 290.0, 15.0, 290.0],
            K=[15.7, 3.75e4, 3.75e4, 3.75e4],
            xi=xi,
            tau=tau,
        )
    elif phys.n != 4:
        raise ValueError(f"the brain scenario has 4 networks, the parameters give {phys.n}")

    def profile(base, amp):
        return lambda x, t: MMHG * (base + amp * np.sin(2.0 * np.pi * t))

    p_vent = [profile(5.0, 2.012), profile(70.0, 10.0), profile(6.0, 0.0),
              profile(38.0, 0.0)]
    alpha = phys.alpha

    def traction(x, t, n):
        load = sum(alpha[i] * p_vent[i](x, t) for i in range(4))
        return -load * np.asarray(n)

    bcs = BoundaryConditionSet(
        {
            "skull": ("dirichlet", lambda x, t: np.zeros(2)),
            "ventricle": ("traction", traction),
        },
        [
            {"skull": ("dirichlet", profile(5.0, 2.0)), "ventricle": ("dirichlet", profile(5.0, 2.012))},
            {"skull": ("dirichlet", profile(70.0, 10.0)), "ventricle": ("flux", None)},
            {"skull": ("dirichlet", profile(6.0, 0.0)), "ventricle": ("dirichlet", profile(6.0, 0.0))},
            {"skull": ("flux", None), "ventricle": ("flux", None)},
        ],
    )
    r_probe = 30.0 + 0.1 * 40.0
    probes = [
        (r_probe * np.cos(a), r_probe * np.sin(a))
        for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
    ]
    initial = [5.0 * MMHG, 70.0 * MMHG, 6.0 * MMHG, 38.0 * MMHG]
    return Scenario(
        mesh=mesh,
        ell=ell,
        phys=phys,
        bcs=bcs,
        initial_pressures=initial,
        tau=tau,
        t_end=t_end,
        probes=probes,
        tol=tol,
        pressure_unit=MMHG,
        **options,
    )


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def save_state(path, state):
    np.savez(path, t=state.t, u=state.u, p=np.stack(state.p))


def load_state(path):
    data = np.load(path)
    return State(t=float(data["t"]), u=data["u"], p=[row for row in data["p"]])
