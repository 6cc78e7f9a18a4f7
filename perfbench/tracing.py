"""Layer spans and the FFT counter for the traced benchmark run.

dispwave is instrumented from the outside only: public functions are replaced
by timing wrappers in the module namespaces that call them, and the FFT entry
points of numpy.fft and scipy.fft are replaced before dispwave is imported, so
modules that bind `np.fft.rfft` at import time (as `pde` and `timestep` do)
bind the counting wrapper. Counting at that boundary keeps working if dispwave
switches FFT backend.

A span's self time is its duration minus the time covered by its child spans,
so the self times of one process add up to the duration of its root span. The
tracer assumes one thread per process, which holds for dispwave.

Sweep members run in forked pool workers. The member wrapper resets the
inherited tracer there and writes the member's totals to a JSON file that the
parent folds into its own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")
FFT_SPAN = "spectral.fft"

# (span name, defining module, function names, modules whose bindings are
# replaced; None replaces every dispwave binding of the function)
LAYER_SPANS = (
    ("cli.main", "dispwave.cli", ("main",), None),
    ("config.load", "dispwave.config",
     ("load_run_config", "load_sweep_config", "parse_run_config", "parse_sweep_config"), None),
    ("config.build_initial", "dispwave.config", ("build_initial_field", "build_family"), None),
    ("solitary.build_profile", "dispwave.solitary", ("build_profile",), None),
    ("timestep.simulate", "dispwave.timestep", ("simulate",), None),
    # only the per-sample diagnostics simulate looks up when it records a sample
    ("pde.record", "dispwave.timestep", ("slope_sample", "energy"), ("dispwave.timestep",)),
    ("blowup.analysis", "dispwave.blowup",
     ("existence_bound", "blowup_condition", "extrapolate_blowup_time"), None),
    ("fileio.write", "dispwave.fileio", ("write_csv", "write_json"), None),
)
MEMBER_SPAN = "blowup.member"

# Forked pool workers find the tracer through this name, because the pool
# pickles the member wrapper by its module path.
_ACTIVE: Tracer | None = None
_RUN_MEMBER = None


class Tracer:
    """Per-process span stack with per-name totals, self times and counts."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.member_dir: Path | None = None
        self.missing: list[str] = []
        # the FFT counters hold references to these two, so reset() clears them in place
        self.stack: list[list] = []
        self.fft: list = [0, 0.0]  # [transforms, seconds]
        self.reset()

    def reset(self) -> None:
        self.stack.clear()
        self.fft[:] = [0, 0.0]
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.member_s: list[float] = []

    def open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child = frame
        self.stack.pop()
        duration = end - start
        self._account(name, duration, child)
        self.spans.append((name, start, end, self.stack[-1][0] if self.stack else None))
        return duration

    def _account(self, name: str, duration: float, child: float) -> None:
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration

    @property
    def transforms(self) -> int:
        return self.fft[0]

    def snapshot(self) -> dict:
        total, self_time, calls = dict(self.total), dict(self.self_time), dict(self.calls)
        if self.fft[0]:
            calls[FFT_SPAN] = self.fft[0]
            total[FFT_SPAN] = self_time[FFT_SPAN] = self.fft[1]
        return {"total": total, "self": self_time, "calls": calls,
                "counts": dict(self.counts), "member_s": list(self.member_s)}


def _fft_counter(tracer: Tracer, fn):
    stack, fft, clock = tracer.stack, tracer.fft, time.perf_counter

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            fft[0] += 1
            fft[1] += duration
            if stack:
                stack[-1][2] += duration
    return counted


def install_fft_counter() -> Tracer:
    """Wrap the numpy.fft and scipy.fft transforms; call before importing dispwave."""
    global _ACTIVE
    if any(name == "dispwave" or name.startswith("dispwave.") for name in sys.modules):
        raise RuntimeError("the FFT counter must be installed before dispwave is imported")
    import numpy.fft

    modules = [numpy.fft]
    try:
        import scipy.fft
        modules.append(scipy.fft)
    except ImportError:
        pass
    tracer = Tracer()
    for module in modules:
        for name in FFT_FUNCTIONS:
            setattr(module, name, _fft_counter(tracer, getattr(module, name)))
    _ACTIVE = tracer
    return tracer


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][0] == name:
            return fn(*args, **kwargs)  # e.g. load_run_config -> parse_run_config
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        _count(tracer, name, args, kwargs, result)
        return result
    return spanned


def _count(tracer: Tracer, name: str, args: tuple, kwargs: dict, result) -> None:
    if name == "timestep.simulate":
        tracer.counts["timestep.samples"] += len(result.samples)
        tracer.counts["timestep.checkpoints"] += len(result.checkpoints)
    elif name == "fileio.write":
        tracer.counts["fileio.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def traced_run_member(*args, **kwargs):
    """Stand-in for blowup.run_member: one sweep member as a root span."""
    tracer = _ACTIVE
    if tracer is None:  # a spawned, not forked, pool process: run untraced
        from dispwave.blowup import run_member
        return run_member(*args, **kwargs)
    forked = os.getpid() != tracer.owner_pid
    if forked:
        tracer.reset()
    frame = tracer.open(MEMBER_SPAN)
    try:
        return _RUN_MEMBER(*args, **kwargs)
    finally:
        tracer.member_s.append(tracer.close(frame))
        if forked:
            path = tracer.member_dir / f"member-{os.getpid()}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps(tracer.snapshot()))


def _rebind(target, wrapper, scope) -> int:
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        in_scope = mod_name in scope if scope else (
            mod_name == "dispwave" or mod_name.startswith("dispwave."))
        if not in_scope:
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def install_layer_spans(tracer: Tracer) -> None:
    """Replace every binding of the layer functions by its span wrapper."""
    global _RUN_MEMBER
    import dispwave.blowup
    import dispwave.cli  # noqa: F401  (binds the names rebound below)

    for span_name, mod_name, functions, scope in LAYER_SPANS:
        module = sys.modules[mod_name]
        for fn_name in functions:
            target = getattr(module, fn_name, None)
            if target is None or not _rebind(target, _span(tracer, span_name, target), scope):
                tracer.missing.append(f"{mod_name}.{fn_name}")
    _RUN_MEMBER = dispwave.blowup.run_member
    if not _rebind(_RUN_MEMBER, traced_run_member, None):
        tracer.missing.append("dispwave.blowup.run_member")


def fold_members(tracer: Tracer) -> dict:
    """This process's snapshot plus every member file written by pool workers."""
    merged = tracer.snapshot()
    paths = sorted(tracer.member_dir.glob("member-*.json")) if tracer.member_dir else []
    for path in paths:
        part = json.loads(path.read_text())
        for key in ("total", "self", "calls", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["member_s"].extend(part["member_s"])
    return merged
