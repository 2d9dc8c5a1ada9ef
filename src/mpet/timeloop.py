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

import numpy as np

from .assembly import (
    BoundaryConditionSet,
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


@dataclass
class Scenario:
    """Everything a time-dependent run needs.

    Boundary profiles are physical-pressure callables ``(x, t)``, called
    with coordinate-first batches of points (see ``BoundaryConditionSet``);
    the stepper wraps them with the similarity scaling.  ``pressure_unit``
    only affects probe output (internal value divided by it).
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
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")
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
    """Owns the assembled operator, factorizations and scaled BC wrappers."""

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
        self._probes = [self._probe_basis(p) for p in sc.probes]

    def _probe_basis(self, point):
        """Dofs and basis values at one probe point, for :meth:`probe_values`.

        Returns the element's pressure dofs and basis values ``(n_p,)``
        and its displacement dofs with the signed, Piola-mapped BDM values
        ``(n_loc, 2)``.
        """
        mesh = self.scenario.mesh
        elem, ref = mesh.locate_point(point)
        ref = np.atleast_2d(ref)
        pvals = self.spaces.p.eval(ref)[:, 0]
        bvals = piola_map(build_affine_map(mesh, elem), self.spaces.bdm.eval(ref))[:, 0, :]
        bvals = bvals * self.spaces.u_signs[elem][:, None]
        return self.spaces.p_dofs(elem), pvals, self.spaces.u_dofmap[elem], bvals

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

    def unscale_solution(self, x, t):
        """Extract the physical state and fluxes from a scaled solution vector."""
        phys = self.scenario.phys
        two_mu = 2.0 * phys.mu
        u = x[self.layout.sl("u")].copy()
        p = [
            two_mu / phys.alpha[i] * x[self.layout.sl(f"p{i}")]
            for i in range(phys.n)
        ]
        w = [
            phys.alpha[i] / phys.tau * x[self.layout.sl(f"w{i}")]
            for i in range(phys.n)
        ]
        return State(t=t, u=u, p=p), w

    def step_rhs(self, state, t_k):
        """Right-hand side of the scaled step system at time ``t_k``."""
        sc = self.scenario
        phys = sc.phys
        F = np.zeros(self.layout.total)
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
            F += assemble_volume_rhs(self.spaces, f=f_fn, g=g_fns)
        F += assemble_traction_rhs(self.spaces, self.bcs_scaled, t=t_k)
        # recurrence: g_i -= div u^{k-1} + (s_i / alpha_i) p_i^{k-1}
        div_u = self.kernels.D @ state.u
        for i in range(phys.n):
            contrib = -div_u - phys.s[i] / phys.alpha[i] * (self.kernels.M_p @ state.p[i])
            F[self.layout.sl(f"p{i}")] += contrib
        return F

    def step(self, state, t_k=None):
        """Advance one implicit-Euler step; returns (new state, report)."""
        sc = self.scenario
        t_k = state.t + sc.tau if t_k is None else t_k
        F = self.step_rhs(state, t_k)
        self.constrained.update_values(self.bcs_scaled, t_k)
        x, report, self._reuse = solve(
            self.constrained,
            self.scaled,
            sc.variant,
            tol=sc.tol,
            maxit=sc.maxit,
            full_rhs=F,
            reuse=self._reuse,
        )
        if not report.converged:
            raise RuntimeError(
                f"solver did not converge at t = {t_k} "
                f"({report.iterations} iterations, residual {report.final_residual:.3e})"
            )
        new_state, _ = self.unscale_solution(x, t_k)
        return new_state, report, x

    def probe_values(self, state, x=None):
        """Sample pressures (in output units) and |u| at the probe points."""
        sc = self.scenario
        values = {f"p{i+1}": [] for i in range(sc.n_networks)}
        values["u_mag"] = []
        for pdofs, pvals, udofs, bvals in self._probes:
            for i in range(sc.n_networks):
                values[f"p{i+1}"].append(float(state.p[i][pdofs] @ pvals) / sc.pressure_unit)
            uvec = state.u[udofs] @ bvals
            values["u_mag"].append(float(np.hypot(*uvec)))
        return values

    def run(self, start_state=None, collect=None):
        """March from ``start_state`` (default: initial conditions) to t_end.

        Probe values are recorded every ``sample_every``-th step (and at the
        final step); the solver log keeps one row per step either way.
        """
        sc = self.scenario
        state = start_state or self.initial_state()
        series = TimeSeries(probes=list(sc.probes))
        series.add(state.t, self.probe_values(state))
        n_steps = int(round((sc.t_end - state.t) / sc.tau))
        for k in range(1, n_steps + 1):
            state, report, x = self.step(state)
            if k % sc.sample_every == 0 or k == n_steps:
                series.add(state.t, self.probe_values(state, x), report)
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
