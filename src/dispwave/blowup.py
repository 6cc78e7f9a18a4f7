"""Wave-breaking analysis: sufficient criterion, existence-time bound, sharpness.

Breaking is controlled entirely by the slope minimum m(t) = min_x gamma*u_x:
it blows down to -infinity in finite time or never. Two closed-form
quantities follow from the Riccati inequality |m' + m^2/2| <= K, where K
collects the bounded terms through the conserved energy:

* a sufficient breaking criterion: if gamma*u0'(x0) drops below
  -sqrt(|(gamma-3)*gamma|/2 * E0 + 4*sqrt(2)*omega*|gamma|*sqrt(E0)) at any
  point, the solution breaks in finite time;

* a lower bound on the existence time,
  T = (2/sqrt(K)) * (pi/2 + arctan(m0/sqrt(K))), with a bracket K that
  switches coefficient by gamma regime:

      0 < gamma < 3/2 :  (3-gamma)*gamma/2 * E0 + 4*sqrt(2)*omega*|gamma|*sqrt(E0)
      3/2 <= gamma <= 3:  gamma^2/2       * E0 + 4*sqrt(2)*omega*|gamma|*sqrt(E0)
      gamma > 3 or < 0 :  (2*gamma-3)*gamma/2 * E0 + ... (same linear term)

  The coefficients agree at both regime boundaries, so T is continuous in
  gamma. For m0 < 0 the arctan form above equals -2*arctan(sqrt(K)/m0)/sqrt(K)
  identically and extends continuously to m0 >= 0. gamma = 0 (or zero data)
  means no breaking at all: T = +inf.

The sharpness experiment integrates a steepening family, extrapolates each
observed breaking time from the asymptotically linear tail of -2/m(t), and
tabulates the ratio t*/T, which the theory keeps >= 1 and which approaches 1
as the data steepen.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from .fileio import write_csv
from .pde import PdeParams, TraceRow, energy, slope_argmin
from .spectral import Field
from .timestep import SimulationResult, SolverConfig, simulate

_SQRT8 = 4.0 * math.sqrt(2.0)
_M_CUT = -8.0  # samples at or below this slope enter the -2/m fit
BREAKING_STOPS = ("blowup_slope", "blowup_nonfinite")  # runs whose trace carries a t*
# field names that comparison.csv, summary.json and `dispwave bound` write otherwise
ARTIFACT_NAMES = {"e0": "E0", "bracket": "K", "t_lower": "T_lower"}


def gamma_regime(gamma: float) -> str:
    """Classify gamma into the bound's coefficient regimes."""
    if gamma == 0.0:
        return "zero"
    if 0.0 < gamma < 1.5:
        return "low"
    if 1.5 <= gamma <= 3.0:
        return "mid"
    return "high_or_neg"


def riccati_bracket(e0: float, params: PdeParams) -> tuple[str, float]:
    """The regime tag and the bracket K(E0) entering the time bound."""
    if e0 < 0:
        raise ValueError(f"energy must be nonnegative, got {e0}")
    gamma, omega = params.gamma, params.omega
    regime = gamma_regime(gamma)
    if regime == "zero":
        return regime, 0.0
    if regime == "low":
        coeff = 0.5 * (3.0 - gamma) * gamma
    elif regime == "mid":
        coeff = 0.5 * gamma * gamma
    else:
        coeff = 0.5 * (2.0 * gamma - 3.0) * gamma
    return regime, coeff * e0 + _SQRT8 * omega * abs(gamma) * math.sqrt(e0)


def breaking_threshold(e0: float, params: PdeParams) -> float:
    """Slope level below which breaking is guaranteed (a nonpositive number).

    Note the absolute-value coefficient |(gamma-3)*gamma|/2: the sufficient
    criterion uses a single bracket for all regimes, unlike the time bound.
    """
    if params.gamma == 0.0:
        raise ValueError(
            "gamma = 0: every solution is global, the breaking criterion does not apply"
        )
    if e0 < 0:
        raise ValueError(f"energy must be nonnegative, got {e0}")
    gamma, omega = params.gamma, params.omega
    radicand = (0.5 * abs((gamma - 3.0) * gamma) * e0
                + _SQRT8 * omega * abs(gamma) * math.sqrt(e0))
    return -math.sqrt(radicand)


@dataclass(frozen=True)
class BlowupVerdict:
    """Outcome of the sufficient breaking criterion on initial data."""

    threshold: float
    witness_x0: float | None

    @property
    def triggered(self) -> bool:
        return self.witness_x0 is not None


def slope_minimum(u0: Field, params: PdeParams) -> float:
    """m(0) = min over the grid of gamma * u0'."""
    return slope_argmin(u0.derivative, params.gamma)[1]


def blowup_condition(u0: Field, params: PdeParams) -> BlowupVerdict:
    """Scan gamma*u0' for a point below the guaranteed-breaking threshold."""
    threshold = breaking_threshold(energy(u0), params)
    i, m0 = slope_argmin(u0.derivative, params.gamma)
    return BlowupVerdict(threshold=threshold,
                         witness_x0=float(u0.grid.x[i]) if m0 < threshold else None)


@dataclass(frozen=True)
class ExistenceBound:
    """Closed-form lower bound on the maximal existence time."""

    e0: float
    m0: float
    gamma_case: str
    bracket: float
    t_lower: float


def existence_time_lower_bound(e0: float, m0: float, params: PdeParams) -> ExistenceBound:
    """Evaluate the piecewise bound from the scalars (E0, m0).

    Uses the arctan form that is continuous across m0 = 0; for m0 < 0 it
    coincides exactly with -2*arctan(sqrt(K)/m0)/sqrt(K).
    """
    regime, bracket = riccati_bracket(e0, params)
    t_lower = math.inf
    if regime != "zero" and bracket != 0.0:
        root = math.sqrt(bracket)
        t_lower = (2.0 / root) * (0.5 * math.pi + math.atan(m0 / root))
    return ExistenceBound(e0=e0, m0=m0, gamma_case=regime, bracket=bracket, t_lower=t_lower)


def existence_bound(u0: Field, params: PdeParams) -> ExistenceBound:
    """The time bound evaluated from gridded initial data."""
    return existence_time_lower_bound(energy(u0), slope_minimum(u0, params), params)


@dataclass(frozen=True)
class BlowupFit:
    """Extrapolated breaking time from the linear tail of -2/m(t)."""

    t_star: float
    slope: float
    intercept: float
    n_points: int


def extrapolate_blowup_time(trace: Sequence[TraceRow]) -> BlowupFit:
    """Fit z(t) = -2/m(t) on samples with m <= -8 and return its root.

    Once the Riccati term dominates, z decreases linearly with slope -1 and
    hits zero at the breaking time, so the fitted root extrapolates past the
    last resolved sample. Falls back to one-point extrapolation when fewer
    than four samples qualify.
    """
    pts = [(s.t, -2.0 / s.m) for s in trace if s.m <= _M_CUT]
    if not pts:
        last_neg = [s for s in trace if s.m < 0]
        if not last_neg:
            raise ValueError("trace has no negative slope samples: not a breaking run")
        s = last_neg[-1]
        return BlowupFit(t_star=s.t - 2.0 / s.m, slope=-1.0, intercept=math.nan, n_points=1)
    if len(pts) < 4:
        t, z = pts[-1]
        return BlowupFit(t_star=t + z, slope=-1.0, intercept=math.nan, n_points=len(pts))
    ts = np.array([p[0] for p in pts])
    zs = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(ts, zs, 1)
    if slope >= 0:
        raise ValueError("-2/m(t) is not decreasing; trajectory is not collapsing")
    return BlowupFit(t_star=float(-intercept / slope), slope=float(slope),
                     intercept=float(intercept), n_points=len(pts))


@dataclass(frozen=True)
class SweepRow:
    """One member of the sharpness comparison table, comparison.csv's columns in order;
    left at their defaults, the fields after alpha make a raising member's error row."""

    family_id: int
    alpha: float
    e0: float = math.nan
    m0: float = math.nan
    gamma_case: str = "error"
    bracket: float = math.nan
    t_lower: float = math.nan
    t_star: float = math.nan
    ratio: float = math.nan
    censored: bool = True


def run_member(family_id: int, alpha: float, u0: Field, params: PdeParams,
               config: SolverConfig) -> SweepRow:
    """Simulate one family member and compare its breaking time to the bound."""
    bound = existence_bound(u0, params)
    result: SimulationResult = simulate(u0, params, config)
    row = SweepRow(family_id, alpha, **asdict(bound))
    if result.stop_reason in BREAKING_STOPS:
        t_star = extrapolate_blowup_time(result.samples).t_star
        row = replace(row, t_star=t_star, ratio=t_star / bound.t_lower, censored=False)
    return row


def sharpness_experiment(members: Sequence[tuple[float, Field]], params: PdeParams,
                         config: SolverConfig, workers: int = 1) -> list[SweepRow]:
    """Run every family member and tabulate observed vs guaranteed times.

    Members that reach t_end without breaking are censored rows, not
    failures. A member that raises becomes a gamma_case = "error" row and the
    others still run. Each failure, and each ratio below 0.98, is reported
    with a RuntimeWarning. Rows are merged in member order regardless of
    worker count. workers > 1 runs the members in a process pool of at most
    one process per member.
    """
    if params.gamma == 0.0:
        raise ValueError("sharpness experiment requires gamma != 0")
    if not members:
        raise ValueError("family has no members")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a fork-started pool creates all its processes at the first submit
    workers = min(workers, len(members))
    jobs = [(i, alpha, u0, params, config) for i, (alpha, u0) in enumerate(members)]
    rows = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 20-26 ms to import; only pools need it
        context = ProcessPoolExecutor(max_workers=workers)
    else:
        context = nullcontext()
    with context as pool:
        if pool is None:
            calls = [partial(run_member, *job) for job in jobs]
        else:
            calls = [pool.submit(run_member, *job).result for job in jobs]
        for (i, alpha, *_), call in zip(jobs, calls):
            try:
                row = call()
            except Exception as err:  # per-member failure: record and continue
                warnings.warn(f"member {i} (alpha = {alpha:g}) failed: {err}",
                              RuntimeWarning, stacklevel=2)
                row = SweepRow(i, alpha)
            # censored and error rows have ratio = nan, which never compares below
            if row.ratio < 0.98:
                warnings.warn(f"member {i}: observed breaking time ratio {row.ratio:.4f} "
                              "undercuts the proved bound; solver bug suspected",
                              RuntimeWarning, stacklevel=2)
            rows.append(row)
    return rows


def write_comparison_csv(rows: Sequence[SweepRow], path) -> None:
    """One line per row under SweepRow's field names, renamed by ARTIFACT_NAMES."""
    header = [ARTIFACT_NAMES.get(f.name, f.name) for f in fields(SweepRow)]
    table = [[str(v).lower() if isinstance(v, bool) else v for v in astuple(r)] for r in rows]
    write_csv(path, header, table)
