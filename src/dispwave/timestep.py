"""Method-of-lines integration with adaptive stepping and blow-up termination.

The spatial discretization is spectral, so the semi-discrete system is a
stiff-free first-order ODE in time (the nonlocal form has no third
derivative); classical RK4 with a CFL-style step bound is accurate and keeps
the breaking mechanism undamped. Steps are additionally shortened near
breaking so the Riccati collapse of the slope minimum, which happens on the
timescale 1/|m|, stays temporally resolved. The kernel, `pde.SpectralRhs`,
owns the band state: it projects u0 once onto u's rfft coefficients in the
2/3 band, steps them and returns grid values, so here a state is an opaque
array. Step control, trace rows, checkpoints and the final state all read
the first stage's arrays of the state; `pde.trace_row`, the one row builder,
writes none of them and adds 1 transform.

A run terminates for exactly one of four reasons:

    reached_t_end     - integrated to the requested horizon
    blowup_slope      - m(t) = min gamma*u_x crossed the breaking threshold
    blowup_nonfinite  - a NaN/inf appeared in the state (overflow blow-up)
    dt_underflow      - step control collapsed below dt_min without a
                        threshold crossing (stiff-but-bounded, not breaking)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pde import PdeParams, SpectralRhs, TraceRow, slope_argmin, trace_row
from .spectral import Field, Grid, hs_norm


class BoundaryDecayError(ValueError):
    """Initial data does not decay below tolerance at the box boundary."""


class IncomparableRunsError(RuntimeError):
    """A dependence probe is undefined because one of the runs blew up."""


@dataclass(frozen=True)
class SolverConfig:
    """Run-control knobs for `simulate`.

    dt_init doubles as the step-size ceiling: the CFL and Riccati bounds
    only ever shrink it. decay_tolerance gates the initial data at |x| = L;
    energy_drift_tol is a monitoring level (drift beyond it is recorded as
    a warning, never silently ignored). t_end is finite. The event clock lands
    within 1e-14*max(1, t_end) of an event and adds an interval to reach the
    next, so sample_interval and checkpoint_interval must exceed that.
    """

    t_end: float
    dt_init: float = 1e-2
    dt_min: float = 1e-12
    cfl_fraction: float = 0.3
    blowup_m_threshold: float = 1e6
    energy_drift_tol: float = 1e-5
    sample_interval: float = 0.05
    decay_tolerance: float = 1e-10
    checkpoint_interval: float | None = None

    def __post_init__(self) -> None:
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0 < self.dt_min <= self.dt_init):
            raise ValueError(
                f"need 0 < dt_min <= dt_init, got dt_min={self.dt_min}, dt_init={self.dt_init}"
            )
        if not (0 < self.cfl_fraction <= 1):
            raise ValueError(f"cfl_fraction must lie in (0, 1], got {self.cfl_fraction}")
        for name in ("blowup_m_threshold", "energy_drift_tol", "decay_tolerance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        tick = 1e-14 * max(1.0, self.t_end)
        for name in ("sample_interval", "checkpoint_interval"):
            value = getattr(self, name)
            if not ((value is None and name == "checkpoint_interval") or value > tick):
                raise ValueError(f"{name} must exceed 1e-14*max(1, t_end) = {tick:g}, got {value}")


@dataclass
class SimulationResult:
    samples: list[TraceRow]
    checkpoints: list[tuple[float, Field]]
    stop_reason: str
    t_stop: float
    final_state: Field
    steps: int  # RK4 steps taken, the last one too when it overflowed
    rhs_evaluations: int
    warnings: list[str] = field(default_factory=list)

    @property
    def slope_trace(self) -> list[TraceRow]:  # the samples, under the name perfbench reads
        return self.samples

    @property
    def energy_drift(self) -> float:
        """Max relative deviation of E(t) from E(0) over the recorded trace."""
        e0 = self.samples[0].energy
        if e0 == 0.0:
            return 0.0
        return max(abs(r.energy - e0) / e0 for r in self.samples)


def rk4_step(u: Field, dt: float, params: PdeParams) -> Field:
    """One classical four-stage Runge-Kutta step of the nonlocal form.

    Steps the 2/3-band projection of u, as `simulate` does (18 transforms:
    the projection, the step, the return to grid values).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rhs = SpectralRhs(u.grid, params)
    u_hat = rhs.project(u.values)
    out = np.empty_like(u_hat)
    rhs(u_hat, rhs.k)
    rhs.step(u_hat, dt, out)
    return Field(u.grid, rhs.values(out))


def _controlled_dt(config: SolverConfig, grid: Grid, params: PdeParams,
                   max_u: float, m: float) -> float:
    """Step bound: CFL on the transport speed plus the Riccati 1/|m| cap."""
    speed = abs(params.gamma) * max_u + 2.0 * params.omega
    dt = min(config.dt_init, config.cfl_fraction * grid.spacing / max(speed, 1e-12))
    if m < 0.0:
        dt = min(dt, 0.5 / abs(m))
    return dt


def simulate(u0: Field, params: PdeParams, config: SolverConfig) -> SimulationResult:
    """Integrate u_t = rhs_nonlocal(u) until t_end or termination.

    Records summary rows every sample_interval (plus the initial and final
    instants) and full field snapshots every checkpoint_interval when set.
    Blow-up is a result, not an error; only inadmissible initial data raises.
    """
    grid = u0.grid
    boundary0 = max(abs(float(u0.values[0])), abs(float(u0.values[-1])))
    if boundary0 > config.decay_tolerance:
        raise BoundaryDecayError(
            f"initial data must decay below {config.decay_tolerance:g} at |x| = L, "
            f"found {boundary0:g}"
        )

    rhs = SpectralRhs(grid, params)
    u, ux = rhs.u, rhs.ux  # u_hat's grid values after each rhs(u_hat, rhs.k)
    u_hat = rhs.project(u0.values)  # the one-time projection onto the band
    rhs(u_hat, rhs.k)  # each state's k1, whose transforms its trace row reuses
    new_hat = np.empty_like(u_hat)
    t = 0.0
    steps = 0
    samples: list[TraceRow] = []
    checkpoints: list[tuple[float, Field]] = []
    warnings: list[str] = []
    boundary_warned = False
    stop_reason = None

    next_sample = config.sample_interval
    next_checkpoint = config.checkpoint_interval if config.checkpoint_interval else math.inf
    sample_due, checkpoint_due = True, bool(config.checkpoint_interval)
    while True:
        m = slope_argmin(ux, params.gamma)[1]
        # max |u| taken without the temporary abs(u) would allocate
        max_u = max(float(u.max()), -float(u.min()))
        dt_ctrl = _controlled_dt(config, grid, params, max_u, m)
        if not samples:
            last_dt = dt_ctrl
        if checkpoint_due:
            checkpoints.append((t, Field(grid, u)))

        if m <= -config.blowup_m_threshold:
            stop_reason = "blowup_slope"
        elif t >= config.t_end - 1e-14 * config.t_end:
            t = config.t_end
            stop_reason = "reached_t_end"
        elif dt_ctrl < config.dt_min:
            stop_reason = "dt_underflow"

        # the initial row, every due sample, and the final row
        if sample_due or (stop_reason and samples[-1].t < t):
            samples.append(trace_row(t, last_dt, u, ux, rhs.pair, u_hat, grid, params))
            edge = max(abs(float(u[0])), abs(float(u[-1])))
            if not boundary_warned and edge > 1e-6 * max(max_u, 1e-300):
                warnings.append(
                    f"boundary contamination at t = {t:g}: |u| = {edge:g} at |x| = L"
                )
                boundary_warned = True
        if stop_reason:
            final = Field(grid, u)
            break

        # land exactly on the next event time
        t_event = min(config.t_end, next_sample, next_checkpoint)
        dt = min(dt_ctrl, t_event - t)

        with np.errstate(over="ignore", invalid="ignore"):
            # overflow/NaN here is a detected outcome, not a numerical bug
            rhs.step(u_hat, dt, new_hat)
            rhs(new_hat, rhs.k)
        steps += 1
        t_new = t_event if dt >= t_event - t else t + dt
        if not np.isfinite(new_hat).all():
            stop_reason = "blowup_nonfinite"
            t = t_new
            # the stages overwrote u, so the last finite state needs a transform
            final = Field(grid, rhs.values(u_hat))
            break
        u_hat, new_hat = new_hat, u_hat
        t = t_new
        last_dt = dt

        # a due sample is recorded by the next pass, once its state is on the grid
        sample_due = t >= next_sample - 1e-14
        checkpoint_due = t >= next_checkpoint - 1e-14
        while next_sample <= t + 1e-14:
            next_sample += config.sample_interval
        while next_checkpoint <= t + 1e-14:
            next_checkpoint += config.checkpoint_interval

    result = SimulationResult(
        samples=samples,
        checkpoints=checkpoints,
        stop_reason=stop_reason,
        t_stop=t,
        final_state=final,
        steps=steps,
        rhs_evaluations=rhs.evaluations,
        warnings=warnings,
    )
    if stop_reason == "reached_t_end" and result.energy_drift > config.energy_drift_tol:
        warnings.append(
            f"energy drift {result.energy_drift:g} exceeds tolerance "
            f"{config.energy_drift_tol:g}"
        )
    return result


def continuous_dependence_probe(u0: Field, delta: float, params: PdeParams,
                                config: SolverConfig) -> float:
    """H1 distance at t_end between runs from u0 and u0 + delta * bump.

    The perturbation is a fixed unit Gaussian bump at the origin. Raises
    IncomparableRunsError when either run fails to reach t_end.
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    base = simulate(u0, params, config)
    # delta = 0 is not short-circuited: identical runs must measure exactly 0
    bump = np.exp(-u0.grid.x**2)
    perturbed = simulate(Field(u0.grid, u0.values + delta * bump), params, config)
    for tag, run in (("base", base), ("perturbed", perturbed)):
        if run.stop_reason != "reached_t_end":
            raise IncomparableRunsError(
                f"{tag} run stopped early ({run.stop_reason} at t = {run.t_stop:g}); "
                "distance at t_end is undefined"
            )
    diff = Field(u0.grid, perturbed.final_state.values - base.final_state.values)
    return hs_norm(diff, 1.0)
