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

The sharpness experiment tabulates t*/T over a steepening family: the theory
keeps it >= 1, and it approaches 1 as the data steepen. t* is the median over
the last resolved collapsing samples of the Riccati blow-up time with the
forcing m' + m^2/2 frozen (-K/2 gives T); `assess` reports it and the outcome.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext, suppress
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from typing import Sequence

from .config import RunConfig, build_initial_field
from .fileio import write_csv
from .pde import PdeParams, TraceRow, energy, slope_argmin
from .spectral import Field
from .timestep import SimulationResult, simulate

_SQRT8 = 4.0 * math.sqrt(2.0)
_TAIL_MAX = 1e-7  # samples whose band-edge tail exceeds this are under-resolved
_WINDOW = 5  # t* is the median over this many resolved samples nearest breaking
# field names that comparison.csv, summary.json and `dispwave bound` write otherwise
ARTIFACT_NAMES = {"e0": "E0", "bracket": "K", "t_lower": "T_lower"}
GLOBAL_NOTE = "gamma = 0: all solutions are global"


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
    m0 = slope_argmin(u0.derivative, params.gamma)[1]
    return existence_time_lower_bound(energy(u0), m0, params)


@dataclass(frozen=True)
class BreakingTime:
    """Observed breaking time and the spread of its estimates (nan from just one)."""

    t_star: float
    spread: float


def _time_to_breaking(m: float, m_rhs: float) -> float:
    """Time for z = -2/m to reach 0 under z' = -1 + f*z^2/2 with f = m_rhs + m^2/2
    frozen, for m < 0 and m_rhs < 0. For f > 0, artanh(rate*z) is a log1p free of
    cancellation: rate*z itself rounds to 1, outside artanh's domain, at |m_rhs| << m^2."""
    z, f = -2.0 / m, m_rhs + 0.5 * m * m
    if f == 0.0:
        return z
    rate = math.sqrt(0.5 * abs(f))
    if f < 0.0:
        return math.atan(rate * z) / rate
    return math.log1p(2.0 * rate * (2.0 * rate - m) / -m_rhs) / (2.0 * rate)


def extrapolate_blowup_time(trace: Sequence[TraceRow]) -> BreakingTime:
    """Median and spread of t + `_time_to_breaking` over the last `_WINDOW` samples with
    m < 0, m_rhs < 0 and tail <= `_TAIL_MAX`; ValueError if none qualifies."""
    from statistics import median  # numpy's median imports numpy.ma, 1.2 MB resident
    times = [s.t + _time_to_breaking(s.m, s.m_rhs) for s in trace
             if s.m < 0.0 and s.m_rhs < 0.0 and s.tail <= _TAIL_MAX][-_WINDOW:]
    if not times:
        raise ValueError(f"no collapsing sample is resolved (m, m' < 0, tail <= {_TAIL_MAX:g})")
    return BreakingTime(t_star=median(times),
                        spread=max(times) - min(times) if len(times) > 1 else math.nan)


@dataclass(frozen=True)
class RunReport:
    """`assess`'s analysis of u0 and its run: verdict None at gamma = 0; breaking, outcome
    and tail_max None without a run, and breaking None also without a t*."""

    bound: ExistenceBound
    verdict: BlowupVerdict | None
    breaking: BreakingTime | None
    outcome: str | None
    tail_max: float | None


def assess(u0: Field, params: PdeParams, result: SimulationResult | None = None) -> RunReport:
    """Bound and criterion for u0 and, given its run's result, the largest sample tail and
    the one verdict: "broke" on a blowup_slope or blowup_nonfinite stop, "resolved" at t_end
    with every tail <= `_TAIL_MAX`, else "underresolved" (dt_underflow included)."""
    breaking = outcome = tail_max = None
    if result is not None:
        tail_max = max(s.tail for s in result.samples)
        if result.stop_reason in ("blowup_slope", "blowup_nonfinite"):
            outcome = "broke"
            with suppress(ValueError):  # no resolved collapsing sample: censored
                breaking = extrapolate_blowup_time(result.samples)
        else:
            resolved = result.stop_reason == "reached_t_end" and tail_max <= _TAIL_MAX
            outcome = "resolved" if resolved else "underresolved"
    return RunReport(bound=existence_bound(u0, params),
                     verdict=blowup_condition(u0, params) if params.gamma != 0.0 else None,
                     breaking=breaking, outcome=outcome, tail_max=tail_max)


def report_fields(report: RunReport) -> dict:
    """The report's one artifact layout, flat under comparison.csv's names: the bound,
    then breaking_threshold, triggered and witness_x0 (None when untriggered) or, at
    gamma = 0, GLOBAL_NOTE as note, then t_star, t_star_spread, outcome and tail_max."""
    out = {ARTIFACT_NAMES.get(name, name): value for name, value in asdict(report.bound).items()}
    if (verdict := report.verdict) is None:
        out["note"] = GLOBAL_NOTE
    else:
        out.update(breaking_threshold=verdict.threshold, triggered=verdict.triggered,
                   witness_x0=verdict.witness_x0)
    t_star, spread = astuple(report.breaking) if report.breaking else (None, None)
    return {**out, "t_star": t_star, "t_star_spread": spread, "outcome": report.outcome,
            "tail_max": report.tail_max}


@dataclass(frozen=True)
class SweepRow:
    """One sharpness-table member: comparison.csv's columns in order, `assess`'s outcome and
    tail_max last. At their defaults, the fields after alpha make a raising member's error row."""

    family_id: int
    alpha: float
    e0: float = math.nan
    m0: float = math.nan
    gamma_case: str = "error"
    bracket: float = math.nan
    t_lower: float = math.nan
    t_star: float = math.nan
    t_star_spread: float = math.nan
    ratio: float = math.nan
    censored: bool = True
    outcome: str = "error"
    tail_max: float = math.nan


def run_member(family_id: int, alpha: float, rc: RunConfig) -> SweepRow:
    """Build and simulate one member's run config and compare its breaking time to the bound."""
    u0 = build_initial_field(rc)
    report = assess(u0, rc.params, simulate(u0, rc.params, rc.solver))
    row = SweepRow(family_id, alpha, **asdict(report.bound), outcome=report.outcome,
                   tail_max=report.tail_max)
    if (breaking := report.breaking) is not None:
        row = replace(row, t_star=breaking.t_star, t_star_spread=breaking.spread,
                      ratio=breaking.t_star / report.bound.t_lower, censored=False)
    return row


def sharpness_experiment(members: Sequence[tuple[float, RunConfig]],
                         workers: int = 1) -> list[SweepRow]:
    """Run every member's run config and tabulate observed vs guaranteed times.

    Members that reach t_end without breaking, or break with no sample that gives a t*,
    are censored rows, not failures; `assess` gives each row its outcome. A member that
    raises, in building its initial data too, becomes an error row and the others still
    run. Each failure, and each ratio below 0.98, is reported with a RuntimeWarning. Rows
    are merged in member order regardless of worker count. workers > 1 runs the members
    in a process pool of at most one process per member.
    """
    if any(rc.params.gamma == 0.0 for _, rc in members):
        raise ValueError(f"sweep requires gamma != 0 ({GLOBAL_NOTE})")
    if not members:
        raise ValueError("family has no members")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a fork-started pool creates all its processes at the first submit
    workers = min(workers, len(members))
    jobs = [(i, alpha, rc) for i, (alpha, rc) in enumerate(members)]
    rows = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 20-26 ms to import; only pools need it
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        if pool is None:
            calls = [partial(run_member, *job) for job in jobs]
        else:
            calls = [pool.submit(run_member, *job).result for job in jobs]
        for (i, alpha, _), call in zip(jobs, calls):
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
