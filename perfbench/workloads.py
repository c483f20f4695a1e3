"""Inputs, closed-loop phases and output checks of the curelet workloads.

Every workload has one caller that sends its next request when the last
one returns. Inputs come from the run's seed: the clean image from
`make_phantom`, the noise from `sample_rician`; the program under test
receives only the noisy arrays. Calls into the program go through
`curelet.pipeline` attributes looked up at call time, so a tracer that
replaces them sees every call; the benchmark's own noise draws and PSNR
checks use the functions bound at import and stay out of the trace.
"""
from __future__ import annotations

import functools
import math
import os
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

from curelet import METHODS, ExperimentProtocol, make_phantom, pipeline, psnr, sample_rician

import spans

SIGMAS = (10.0, 30.0)  # alternated call by call; also the sweep's sigma grid
# The per-method quality columns come from one fixed input set, the same in
# every run, so they compare the program's estimates rather than noise draws:
# any change to an estimate moves them, and nothing else does.
QUALITY = ("shepp-logan", 128)  # phantom and size
QUALITY_SEED = 0
JOBS = len(METHODS) * len(SIGMAS)  # denoise_mr calls in one sweep round


@dataclass(frozen=True)
class Workload:
    name: str
    phantom: str
    size: int
    method: str | None  # None: monte_carlo_experiment rounds over every method
    cold_method: str  # method of the first, cold denoise_mr call
    cure_threads: int  # CURE_THREADS, the monte_carlo_experiment pool size


WORKLOADS = {w.name: w for w in (
    Workload("mixed-256", "shepp-logan", 256, "uwt-bdct", "uwt-bdct", 1),
    Workload("spin-256", "piecewise", 256, "haar-cs16", "haar-cs16", 1),
    Workload("sweep-128", "shepp-logan", 128, None, "uwt-bdct", 2),
)}


@dataclass(frozen=True)
class CallRecord:
    """Outcome of one denoise_mr call; cure and xmse are NaN when not ok."""

    method: str
    sigma: float
    ok: bool
    cure: float = math.nan
    xmse: float = math.nan


@dataclass
class Phase:
    """One timed stretch of a workload."""

    unit_s: list  # wall seconds per denoised image, one entry per call or round
    wall_s: float
    pixels: int


def noise_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def check(mu, m, sigma: float, method: str, res) -> CallRecord:
    """A call passes when its output is finite, nonnegative, of the input's
    shape, and raises PSNR above the noisy input's; res None means it raised."""
    if res is None:
        return CallRecord(method, sigma, False)
    est, xhat = np.asarray(res.estimate), np.asarray(res.xhat)
    ok = (est.shape == xhat.shape == m.shape
          and bool(np.isfinite(est).all() and np.isfinite(xhat).all())
          and bool((est >= 0).all()) and math.isfinite(res.cure)
          and psnr(est, mu) > psnr(m, mu))
    if not ok:
        return CallRecord(method, sigma, False)
    xmse = float(((xhat - (mu / sigma) ** 2) ** 2).mean())
    return CallRecord(method, sigma, True, float(res.cure), xmse)


def prepare(wl: Workload, seed: int):
    """The clean image and the noisy input of the first call."""
    mu = make_phantom(wl.phantom, wl.size)
    return mu, sample_rician(mu, SIGMAS[0], noise_seed(seed, 0))


def call(mu, m, sigma: float, method: str, records: list) -> float:
    """One checked denoise_mr call; returns its wall seconds."""
    start = time.perf_counter()
    try:
        res = pipeline.denoise_mr(m, sigma=sigma, method=method)
    except Exception:
        traceback.print_exc()
        res = None
    elapsed = time.perf_counter() - start
    records.append(check(mu, m, sigma, method, res))
    return elapsed


def checking(mu, records: list):
    """Patch pipeline.denoise_mr so that every call made inside
    monte_carlo_experiment is checked and recorded, raising or not."""
    inner = pipeline.denoise_mr

    @functools.wraps(inner)
    def denoise_mr(m, *args, **kwargs):
        res = None
        try:
            res = inner(m, *args, **kwargs)
            return res
        finally:
            records.append(check(mu, m, kwargs["sigma"], kwargs["method"], res))

    return mock.patch.object(pipeline, "denoise_mr", denoise_mr)


def sweep_round(mu, phantom: str, seed: int, records: list):
    """One monte_carlo_experiment over every method and sigma on one seed.

    Returns (rows or None, wall seconds). Jobs that never reached the check
    are recorded as failed, and so is every job of a round that raised or
    returned a non-finite table.
    """
    protocol = ExperimentProtocol(phantom=phantom, size=mu.shape[0], sigmas=SIGMAS,
                                  methods=METHODS, seeds=(seed,))
    before = len(records)
    start = time.perf_counter()
    try:
        with checking(mu, records):
            rows = pipeline.monte_carlo_experiment(protocol)
    except Exception:
        traceback.print_exc()
        rows = None
    elapsed = time.perf_counter() - start
    new = records[before:]
    del records[before:]
    new += [CallRecord("unknown", math.nan, False)] * (JOBS - len(new))
    if rows is None or len(rows) != JOBS or not all(
            math.isfinite(r[k]) for r in rows for k in ("psnr_mean", "mse_mean", "cure_mean")):
        rows = None
        new = [replace(r, ok=False) for r in new]
    records.extend(new)
    return rows, elapsed


def quality_columns(rows) -> dict:
    """method -> (mean output PSNR, mean x-domain MSE) over the sigma grid."""
    cells = defaultdict(list)
    for r in rows:
        cells[r["method"]].append((r["psnr_mean"], r["mse_mean"]))
    return {m: tuple(float(np.mean(v)) for v in zip(*cells[m])) for m in METHODS}


def quality_pass(records: list) -> dict | None:
    """The quality columns every workload reports, from the fixed input set."""
    rows, _ = sweep_round(make_phantom(*QUALITY), QUALITY[0], QUALITY_SEED, records)
    return None if rows is None else quality_columns(rows)


def run_phase(wl: Workload, mu, seed: int, seconds: float, first: int, records: list) -> Phase:
    """Closed loop for `seconds`: calls first, first+1, ... (rounds for the
    sweep), each with a fresh noise seed and sigma alternating 10 / 30."""
    unit_s, index = [], first
    start = time.perf_counter()
    while True:
        if wl.method is None:
            rows, elapsed = sweep_round(mu, wl.phantom, noise_seed(seed, index), records)
            unit_s.append(elapsed / JOBS)
            images = JOBS * len(unit_s)
        else:
            sigma = SIGMAS[index % len(SIGMAS)]
            m = sample_rician(mu, sigma, noise_seed(seed, index))
            unit_s.append(call(mu, m, sigma, wl.method, records))
            images = len(unit_s)
        index += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return Phase(unit_s, wall, images * mu.size)


def serial_round_s(wl: Workload, mu, seed: int, records: list) -> float:
    """Wall seconds of one sweep round with the pool limited to one thread."""
    with mock.patch.dict(os.environ, {"CURE_THREADS": "1"}):
        return sweep_round(mu, wl.phantom, noise_seed(seed, 1), records)[1]


def cure_bias_se(records) -> float:
    """Largest |mean(cure - xmse)| / standard error over (method, sigma) cells."""
    cells = defaultdict(list)
    for r in records:
        if r.ok:
            cells[(r.method, r.sigma)].append(r.cure - r.xmse)
    worst = 0.0
    for diffs in cells.values():
        if len(diffs) < 2:
            continue
        d = np.asarray(diffs)
        se = d.std(ddof=1) / math.sqrt(d.size)
        if se > 0:
            worst = max(worst, abs(float(d.mean())) / se)
    return worst


def end_to_end(setup_s, first_call_s, phase: Phase, peak_rss_mb: float, quality: dict) -> dict:
    """End-to-end values of an untraced run; timings are medians of samples."""
    out = {
        "setup_s": statistics.median(setup_s),
        "first_call_s": statistics.median(first_call_s),
        "denoise_s_p50": statistics.median(phase.unit_s),
        "throughput_mpix_s": phase.pixels / phase.wall_s / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    for method, (psnr_db, xmse) in quality.items():
        out[f"psnr_db.{method}"] = psnr_db
        out[f"xmse.{method}"] = xmse
    return out


def per_layer(tracer: spans.Tracer, plain: Phase, traced: Phase, records,
              serial_round: float | None) -> dict:
    """Per-layer values of a traced run; serial_round is the one-thread sweep
    round's wall seconds, None for a workload without a pool."""
    values = spans.layer_metrics(tracer.spans, tracer.counts)
    plain_s = statistics.median(plain.unit_s)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced.unit_s) / plain_s - 1.0)
    values["risk.cure_bias_se"] = cure_bias_se(records)
    # without a pool the caller's thread does all the work
    values["pipeline.pool_speedup"] = (
        1.0 if serial_round is None else serial_round / (plain_s * JOBS))
    return values
