"""In-memory spans around curelet's public functions, and the per-layer split.

The benchmark records spans from its own files: `Tracer.install` replaces
each public function at the place the program looks it up (for example
`curelet.shrinkage.band_divergence_fields`, which shrinkage imported by
name, or the `FilterBank` methods on the class) with a wrapper that times
the call and links it to the enclosing span of the same thread. Nothing in
`src/` changes. Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover; `layer_metrics` sums self times per metric and
divides them by the number of `denoise_mr` calls traced.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from unittest import mock


@dataclass(frozen=True)
class Span:
    """One call: name, start, end, and the span that caused it.

    request is the id of the outermost span of the call tree (one
    `denoise_mr` call, say), shared by every span under it.
    """

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int


def _family_size(family) -> int:
    return len(family.atoms)


# (owner, attribute, tally): owner is a module path or "module:Class"; the
# attribute is replaced where the program looks it up. tally names a counter
# and what one call's result adds to it: joint_let_atoms returns its atoms,
# solve_weights one weight per live atom.
SPAN_SITES = (
    ("curelet.pipeline", "denoise_mr", None),
    ("curelet.pipeline", "rescale_squared", None),
    ("curelet.pipeline", "reconstruct_magnitude", None),
    ("curelet.pipeline", "sample_rician", None),
    ("curelet.pipeline", "psnr", None),
    ("curelet.pipeline", "cipsnr", None),
    ("curelet.pipeline", "ssim_mean", None),
    ("curelet.pipeline", "cycle_spin", None),
    ("curelet.pipeline", "uwt_curelet_denoise", None),
    ("curelet.pipeline", "haar_curelet_denoise", None),
    ("curelet.shrinkage", "haar_uwt_bank", None),
    ("curelet.shrinkage", "bdct8_bank", None),
    ("curelet.shrinkage", "band_divergence_fields", None),
    ("curelet.shrinkage", "band_divergence_scalars", None),
    ("curelet.shrinkage", "combine_evaluations", None),
    ("curelet.shrinkage", "cure_subband", None),
    ("curelet.shrinkage", "let_atom_pointwise", None),
    ("curelet.shrinkage", "pointwise_let_family", ("atoms", _family_size)),
    ("curelet.shrinkage", "joint_let_atoms", ("atoms", len)),
    ("curelet.shrinkage", "solve_weights", ("live_atoms", len)),
    ("curelet.shrinkage", "haar_dwt_analyze", None),
    ("curelet.shrinkage", "haar_dwt_synthesize", None),
    ("curelet.shrinkage", "parent_field", None),
    ("curelet.transforms:FilterBank", "analyze", None),
    ("curelet.transforms:FilterBank", "analyze_variance", None),
    ("curelet.transforms:FilterBank", "correlate_tap_power", None),
    ("curelet.transforms:FilterBank", "synthesize_band", None),
    ("curelet.transforms:FilterBank", "synthesize", None),
)

# Counted, not timed: the FFT time stays inside the FilterBank method spans.
COUNT_SITES = (
    ("numpy.fft", "rfftn", "fft"),
    ("numpy.fft", "irfftn", "fft"),
)

# Self time of these spans, per denoise_mr call, is each time metric. Span
# names are "<defining module>.<qualified name>".
SELF_TIME_METRICS = {
    "transforms.analyze_s": ("transforms.FilterBank.analyze", "transforms.FilterBank.analyze_variance"),
    "transforms.tap_power_s": ("transforms.FilterBank.correlate_tap_power",),
    "transforms.synth_band_s": ("transforms.FilterBank.synthesize_band", "transforms.FilterBank.synthesize"),
    "transforms.dwt_s": ("transforms.haar_dwt_analyze", "transforms.haar_dwt_synthesize",
                         "transforms.parent_field"),
    "risk.div_fields_s": ("risk.band_divergence_fields",),
    "risk.div_scalars_s": ("risk.band_divergence_scalars",),
    "risk.combine_s": ("risk.combine_evaluations",),
    "risk.cure_subband_s": ("risk.cure_subband",),
    "shrinkage.atoms_s": ("shrinkage.let_atom_pointwise", "shrinkage.pointwise_let_family",
                          "shrinkage.joint_let_atoms"),
    "shrinkage.solve_s": ("shrinkage.solve_weights",),
    "shrinkage.uwt_self_s": ("shrinkage.uwt_curelet_denoise",),
    "shrinkage.haar_self_s": ("shrinkage.haar_curelet_denoise",),
    "pipeline.cycle_spin_self_s": ("transforms.cycle_spin",),
    "pipeline.denoise_self_s": ("pipeline.denoise_mr",),
    "pipeline.quality_s": ("pipeline.psnr", "pipeline.cipsnr", "pipeline.ssim_mean"),
    "chi2model.rescale_s": ("chi2model.rescale_squared",),
    "chi2model.reconstruct_s": ("chi2model.reconstruct_magnitude",),
    "chi2model.sample_s": ("chi2model.sample_rician",),
}

# Calls of these spans, per denoise_mr call, is each count metric.
SPAN_COUNT_METRICS = {
    "transforms.bank_builds": ("transforms.haar_uwt_bank", "transforms.bdct8_bank"),
    "risk.div_scalars_calls": ("risk.band_divergence_scalars",),
    "shrinkage.solve_calls": ("shrinkage.solve_weights",),
}

ROOT = "pipeline.denoise_mr"


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Collects spans and counters from every thread of the process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[counter] += amount

    def timed(self, fn, tally=None):
        """fn wrapped to record one span per call (and a tally, if given)."""
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            request = stack[0] if stack else sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, request))
            if tally is not None:
                self.add(tally[0], tally[1](result))
            return result

        return wrapper

    def counted(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(counter)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every site for the duration of the block, then restore.

        A site the program no longer has is skipped: its metrics read 0.
        """
        sites = [(owner, attr, functools.partial(self.timed, tally=tally))
                 for owner, attr, tally in SPAN_SITES]
        sites += [(owner, attr, functools.partial(self.counted, counter=counter))
                  for owner, attr, counter in COUNT_SITES]
        with contextlib.ExitStack() as stack:
            for owner, attr, wrap in sites:
                target = _resolve(owner)
                if hasattr(target, attr):
                    wrapped = wrap(getattr(target, attr))
                    stack.enter_context(mock.patch.object(target, attr, wrapped))
            yield self


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(s.start, s.end, children[s.sid])
            for s in spans}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer self times and counts, each per traced denoise_mr call.

    Also returns the call count itself, the live-atom ratio, and the share
    of denoise_mr wall time that child spans account for.
    """
    calls = sum(1 for s in spans if s.name == ROOT)
    if calls == 0:
        raise ValueError("no denoise_mr span was recorded")
    own = self_times(spans)
    by_name = defaultdict(float)
    n_by_name = Counter()
    for s in spans:
        by_name[s.name] += own[s.sid]
        n_by_name[s.name] += 1
    out = {metric: sum(by_name[n] for n in names) / calls
           for metric, names in SELF_TIME_METRICS.items()}
    out.update({metric: sum(n_by_name[n] for n in names) / calls
                for metric, names in SPAN_COUNT_METRICS.items()})
    out["transforms.fft_calls"] = counts["fft"] / calls
    out["shrinkage.atom_count"] = counts["atoms"] / calls
    out["shrinkage.live_atom_ratio"] = (
        counts["live_atoms"] / counts["atoms"] if counts["atoms"] else 0.0)
    out["pipeline.denoise_calls"] = calls
    wall = sum(s.end - s.start for s in spans if s.name == ROOT)
    out["trace.coverage"] = 100.0 * (1.0 - by_name[ROOT] / wall)
    return out
