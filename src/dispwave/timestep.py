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
takes the slope argmin and max|u| that step control found, writes none of the
arrays and adds 1 transform. Besides the kernel, a step reads u twice, for
max|u| = max(u.max(), -u.min()), and u_x once, for the slope minimum. That
max|u| also finds overflow: the irfft of a non-finite state is non-finite and
both reductions carry NaN and inf, so it is NaN or inf exactly when the step
before it overflowed, and the state that step started from is still in the
loop's other buffer; before the first step it reads u0's projection, whose
overflow is inadmissible data and raises. The loop runs with numpy's overflow
and invalid warnings off, set once per run, and keeps no warning state: the
run's warnings are derived from its samples and stop reason.

A run terminates for exactly one of four reasons:

    reached_t_end     - integrated to the requested horizon
    blowup_slope      - m(t) = min gamma*u_x crossed the breaking threshold
    blowup_nonfinite  - a NaN/inf appeared in the state (overflow blow-up)
    dt_underflow      - step control collapsed below dt_min without a
                        threshold crossing (stiff-but-bounded, not breaking)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pde import PdeParams, SpectralRhs, TraceRow, slope_argmin, trace_row
from .spectral import Field, Grid, NonFiniteFieldError, edge_abs


class BoundaryDecayError(ValueError):
    """Initial data does not decay below tolerance at the box boundary."""


# the CFL bound's share of h/(|gamma|*max|u| + 2*omega) and of the nonlocal term's
# time scale 1/(|3 - gamma|*max|u|/2 + omega), and the energy drift above which a
# run that reached t_end warns
CFL_FRACTION = 0.3
ENERGY_DRIFT_TOL = 1e-5


@dataclass(frozen=True)
class SolverConfig:
    """Run-control knobs for `simulate`.

    dt_init doubles as the step-size ceiling: the CFL and Riccati bounds
    only ever shrink it. decay_tolerance gates the initial data at |x| = L.
    t_end and both intervals are finite. A step that would end within one
    `tick` of t_end or of a sample or checkpoint time, an exact multiple
    k*interval, lands on it; intervals at or below tick stall the clock.
    """

    t_end: float
    dt_init: float = 1e-2
    dt_min: float = 1e-12
    blowup_m_threshold: float = 1e6
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
        for name in ("blowup_m_threshold", "decay_tolerance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("sample_interval", "checkpoint_interval"):
            value = getattr(self, name)
            if not ((value is None and name == "checkpoint_interval")
                    or self.tick < value < math.inf):
                raise ValueError(f"{name} must be finite and exceed the clock's tick "
                                 f"{self.tick:g}, got {value}")

    @property
    def tick(self) -> float:
        """The event clock's resolution: times this close count as equal."""
        return 1e-14 * max(1.0, self.t_end)


@dataclass(frozen=True)
class SimulationResult:
    samples: list[TraceRow]
    checkpoints: list[tuple[float, Field]]
    stop_reason: str
    t_stop: float
    final_state: Field
    dt_limiters: dict[str, int]  # steps per DT_LIMITERS entry that set their dt

    @property
    def slope_trace(self) -> list[TraceRow]:  # the samples, under the name perfbench reads
        return self.samples

    @property
    def steps(self) -> int:
        """RK4 steps taken, the last one too when it overflowed."""
        return sum(self.dt_limiters.values())

    @property
    def rhs_evaluations(self) -> int:
        """Right-hand sides evaluated: u0's k1, then 4 per step, whatever the stop."""
        return 1 + 4 * self.steps

    def _drift(self, name: str) -> float:
        """Max |v(t) - v(0)| of the samples' field name over |v(0)|, or absolute if v(0) = 0."""
        values = [getattr(r, name) for r in self.samples]
        return max(abs(v - values[0]) for v in values) / (abs(values[0]) or 1.0)

    @property
    def energy_drift(self) -> float:
        """Max relative deviation of E(t) from E(0) over the recorded trace."""
        return self._drift("energy")

    @property
    def hamiltonian_drift(self) -> float:
        """Max relative deviation of H(t) from H(0), absolute where H(0) = 0."""
        return self._drift("hamiltonian")

    @property
    def boundary_max(self) -> float:
        """The largest |u| at |x| = L, max(|u[0]|, |u[-1]|), over the recorded trace."""
        return max(r.boundary for r in self.samples)

    @property
    def warnings(self) -> list[str]:
        """The boundary warning from the first row whose edge |u| passes 1e-6*max|u|,
        then the energy drift's, past ENERGY_DRIFT_TOL in a run that reached t_end."""
        crossed = [r for r in self.samples if r.boundary > 1e-6 * max(r.max_u, 1e-300)][:1]
        found = [f"boundary contamination at t = {r.t:g}: |u| = {r.boundary:g} at |x| = L"
                 for r in crossed]
        if self.stop_reason == "reached_t_end" and self.energy_drift > ENERGY_DRIFT_TOL:
            found.append(f"energy drift {self.energy_drift:g} exceeds tolerance "
                         f"{ENERGY_DRIFT_TOL:g}")
        return found


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


# what set a step's dt: the ceiling dt_init, the CFL bound, the Riccati cap or
# landing on the next sample, checkpoint or t_end
DT_LIMITERS = ("ceiling", "cfl", "riccati", "landing")


def _controlled_dt(config: SolverConfig, grid: Grid, params: PdeParams,
                   max_u: float, m: float) -> tuple[float, str]:
    """Step bound, the ceiling cut by CFL on the transport speed and on the nonlocal
    term's rate (|ik/(1 + k^2)| <= 1/2 bounds it, grid-free, by |3 - gamma|*max|u|/2 +
    omega), then by the Riccati 1/|m| cap, and which of the three set it (the first of
    them on a tie)."""
    speed = abs(params.gamma) * max_u + 2.0 * params.omega
    rate = 0.5 * abs(3.0 - params.gamma) * max_u + params.omega
    dt, limiter = config.dt_init, "ceiling"
    cfl = min(CFL_FRACTION * grid.spacing / max(speed, 1e-12),
              CFL_FRACTION / max(rate, 1e-12))
    if cfl < dt:
        dt, limiter = cfl, "cfl"
    if m < 0.0 and 0.5 / abs(m) < dt:
        dt, limiter = 0.5 / abs(m), "riccati"
    return dt, limiter


def _on_clock(t: float, interval: float | None, tick: float) -> bool:
    """Whether t is within tick of a multiple of interval; None has no multiples."""
    return interval is not None and abs(t - round(t / interval) * interval) <= tick


def simulate(u0: Field, params: PdeParams, config: SolverConfig) -> SimulationResult:
    """Integrate u_t = rhs_nonlocal(u) until t_end or termination.

    Records summary rows every sample_interval (plus the initial and final
    instants) and full field snapshots every checkpoint_interval when set.
    Blow-up is a result, not an error; only inadmissible initial data raise: data that
    do not decay at |x| = L (`BoundaryDecayError`) or whose band projection overflows
    (`NonFiniteFieldError`).
    """
    grid = u0.grid
    boundary0 = edge_abs(u0.values)
    if boundary0 > config.decay_tolerance:
        raise BoundaryDecayError(f"initial data must decay below {config.decay_tolerance:g} "
                                 f"at |x| = L, found {boundary0:g}")

    rhs = SpectralRhs(grid, params)
    u, ux = rhs.u, rhs.ux  # u_hat's grid values after each rhs(u_hat, rhs.k)
    t = 0.0
    dt_limiters = dict.fromkeys(DT_LIMITERS, 0)
    samples: list[TraceRow] = []
    checkpoints: list[tuple[float, Field]] = []
    stop_reason = None

    tick = config.tick
    clocks = [d for d in (config.sample_interval, config.checkpoint_interval) if d is not None]
    # overflow/NaN in a step is a detected outcome, not a numerical bug
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat = rhs.project(u0.values)  # the one-time projection onto the band
        new_hat = u_hat.copy()  # after a step, the state before it
        rhs(u_hat, rhs.k)  # each state's k1, whose transforms its trace row reuses
        while True:
            max_u = max(float(u.max()), -float(u.min()))
            if not math.isfinite(max_u):
                if not samples:  # u0's own state: finite data whose mode sums overflow
                    raise NonFiniteFieldError(
                        "the initial data's band projection overflowed: its grid values are "
                        f"not finite, at max|u0| = {float(np.abs(u0.values).max()):g}")
                # the step overflowed; the last finite state is the one it started from
                stop_reason = "blowup_nonfinite"
                final = Field(grid, rhs.values(new_hat))
                break
            slope = slope_argmin(ux, params.gamma)
            m = slope[1]
            dt_ctrl, limiter = _controlled_dt(config, grid, params, max_u, m)
            if not samples:
                last_dt = dt_ctrl
            if _on_clock(t, config.checkpoint_interval, tick):
                checkpoints.append((t, Field(grid, u)))

            if m <= -config.blowup_m_threshold:
                stop_reason = "blowup_slope"
            elif t >= config.t_end - tick:
                t = config.t_end
                stop_reason = "reached_t_end"
            elif dt_ctrl < config.dt_min:
                stop_reason = "dt_underflow"

            # the initial row, every due sample, and the final row
            if _on_clock(t, config.sample_interval, tick) or (stop_reason and samples[-1].t < t):
                samples.append(trace_row(t, last_dt, u, ux, rhs.squares, rhs.pair, u_hat,
                                         slope, max_u, grid, params))
            if stop_reason:
                final = Field(grid, u)
                break

            # the next event is the first multiple of an interval a tick past t; a step
            # that would end within a tick of it lands on it exactly
            t_event = min([config.t_end] + [(math.floor((t + tick) / d) + 1) * d for d in clocks])
            landing = dt_ctrl >= t_event - t - tick
            dt = t_event - t if landing else dt_ctrl

            rhs.step(u_hat, dt, new_hat)
            rhs(new_hat, rhs.k)
            dt_limiters["landing" if landing else limiter] += 1
            t = t_event if landing else t + dt
            u_hat, new_hat = new_hat, u_hat
            last_dt = dt

    return SimulationResult(samples=samples, checkpoints=checkpoints, stop_reason=stop_reason,
                            t_stop=t, final_state=final, dt_limiters=dt_limiters)

