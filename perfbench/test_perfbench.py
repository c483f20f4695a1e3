"""Tests of the benchmark's own logic: self time, failure counting, metric names."""
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import run
import spans
import workloads as W
from curelet import pipeline

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(sid, name, start, end, parent=None, request=1):
    return spans.Span(sid, name, start, end, parent, request)


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: the union [1, 6] counts once
        span(4, "a.child", 2.0, 3.0, parent=2),
        span(5, "late", 9.0, 12.0, parent=1),  # only [9, 10] lies inside the root
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})


def test_layer_metrics_are_per_denoise_call():
    root = spans.ROOT
    tree = [
        span(1, root, 0.0, 10.0),
        span(2, "shrinkage.uwt_curelet_denoise", 0.5, 9.5, parent=1),
        span(3, "transforms.FilterBank.analyze", 1.0, 3.0, parent=2),
        span(4, "risk.band_divergence_scalars", 3.0, 4.0, parent=2),
        span(5, "risk.band_divergence_scalars", 4.0, 5.0, parent=2),
        span(6, root, 20.0, 30.0, request=6),
        span(7, "shrinkage.uwt_curelet_denoise", 20.0, 30.0, parent=6, request=6),
    ]
    counts = {"fft": 10, "atoms": 8, "live_atoms": 6}
    out = spans.layer_metrics(tree, counts)
    assert out["pipeline.denoise_calls"] == 2
    assert out["transforms.analyze_s"] == pytest.approx(1.0)
    assert out["risk.div_scalars_s"] == pytest.approx(1.0)
    assert out["risk.div_scalars_calls"] == 1
    assert out["shrinkage.uwt_self_s"] == pytest.approx((5.0 + 10.0) / 2)
    assert out["pipeline.denoise_self_s"] == pytest.approx(0.5)
    assert out["transforms.fft_calls"] == 5
    assert out["shrinkage.atom_count"] == 4
    assert out["shrinkage.live_atom_ratio"] == pytest.approx(0.75)
    assert out["trace.coverage"] == pytest.approx(95.0)


def test_tracer_records_a_real_call_and_restores_the_program():
    original = pipeline.denoise_mr
    mu = W.make_phantom("shepp-logan", 32)
    tracer = spans.Tracer()
    with tracer.install():
        pipeline.denoise_mr(W.sample_rician(mu, 10.0, 0), sigma=10.0, method="uwt")
    assert pipeline.denoise_mr is original
    names = {s.name for s in tracer.spans}
    assert spans.ROOT in names and "shrinkage.uwt_curelet_denoise" in names
    assert tracer.counts["fft"] > 0
    roots = [s for s in tracer.spans if s.name == spans.ROOT]
    assert len(roots) == 1 and all(s.request == roots[0].sid for s in tracer.spans)


# ------------------------------------------------------------- failure count


def fake_result(est, xhat=None, cure=1.0):
    return SimpleNamespace(estimate=est, xhat=est ** 2 if xhat is None else xhat, cure=cure)


@pytest.fixture
def images():
    mu = np.full((8, 8), 50.0)
    mu[2:6, 2:6] = 150.0
    m = mu + np.random.default_rng(0).normal(0.0, 10.0, mu.shape)
    return mu, np.abs(m)


def test_check_rejects_every_kind_of_bad_output(images):
    mu, m = images
    assert W.check(mu, m, 10.0, "uwt", fake_result(mu.copy())).ok
    bad = {
        "raised": None,
        "non-finite": fake_result(np.where(mu > 100, np.nan, mu)),
        "negative": fake_result(mu - 60.0),
        "wrong shape": fake_result(mu[:4]),
        "no psnr gain": fake_result(m.copy()),
        "non-finite cure": fake_result(mu.copy(), cure=math.inf),
    }
    for why, res in bad.items():
        rec = W.check(mu, m, 10.0, "uwt", res)
        assert not rec.ok, why
        assert math.isnan(rec.cure) and math.isnan(rec.xmse)


def test_a_raising_call_is_counted_not_dropped(images):
    mu, m = images
    records = []
    with mock.patch.object(pipeline, "denoise_mr", side_effect=RuntimeError("boom")):
        W.call(mu, m, 10.0, "uwt", records)
    with mock.patch.object(pipeline, "denoise_mr", return_value=fake_result(mu.copy())):
        W.call(mu, m, 10.0, "uwt", records)
    assert [r.ok for r in records] == [False, True]
    units = {"x": "s"}
    res = run.result(units, {"x": 1.0}, len(records), sum(not r.ok for r in records))
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)


@pytest.mark.parametrize("raise_after, expect_failed", [(None, 1), (3, W.JOBS)])
def test_sweep_round_counts_every_job(raise_after, expect_failed):
    mu = W.make_phantom("shepp-logan", 32)
    outputs = iter([mu + np.nan] + [mu.copy()] * (W.JOBS - 1))

    def experiment(protocol):
        for k in range(W.JOBS):
            if k == raise_after:
                raise RuntimeError("pool job failed")
            pipeline.denoise_mr(mu + 20.0, sigma=10.0, method="uwt")
        return [{"method": m, "psnr_mean": 30.0, "mse_mean": 1.0, "cure_mean": 1.0}
                for m in W.METHODS for _ in W.SIGMAS]

    records = []
    with mock.patch.object(pipeline, "denoise_mr", lambda m, **kw: fake_result(next(outputs))), \
            mock.patch.object(pipeline, "monte_carlo_experiment", experiment):
        rows, _ = W.sweep_round(mu, "shepp-logan", 0, records)
    assert len(records) == W.JOBS
    assert sum(not r.ok for r in records) == expect_failed
    assert (rows is None) == (raise_after is not None)


# -------------------------------------------------------------- metric names


def spec_names(key):
    return [m["name"] for m in SPEC[key]]


def test_end_to_end_names_match_benchmark_json():
    phase = W.Phase(unit_s=[1.0, 2.0], wall_s=3.0, pixels=2 * 65536)
    quality = {m: (30.0, 50.0) for m in W.METHODS}
    values = W.end_to_end([1.0], [2.0], phase, 100.0, quality)
    assert sorted(values) == sorted(spec_names("end_to_end"))
    res = run.result(run.load_spec()[0], values, 1, 0)
    assert list(res) == ["correct", "attempted", "failed", "metrics"]
    assert all(set(v) == {"value", "unit"} for v in res["metrics"].values())
    with pytest.raises(ValueError):
        run.result(run.load_spec()[0], {**values, "extra": 1.0}, 1, 0)


def test_per_layer_names_match_benchmark_json():
    tracer = spans.Tracer()
    tracer.spans = [span(1, spans.ROOT, 0.0, 1.0)]
    phase = W.Phase(unit_s=[1.0], wall_s=1.0, pixels=1)
    for serial in (None, 2.0):
        values = W.per_layer(tracer, phase, phase, [], serial)
        assert sorted(values) == sorted(spec_names("per_layer"))


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(W.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]] + spec_names("end_to_end") + spec_names("per_layer")
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
