"""Smoke runs of the scripts under scripts/ on small inputs.

The scripts import the package's public names; running each main once
catches an export they rely on going missing.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,argv,header", [
    ("threshold_curve.py", ["--size", "32", "--steps", "5"], "risk_estimate"),
    ("spin_sweep.py", ["--size", "32", "--sigmas", "20", "--seeds", "1", "--levels", "2"],
     "spins=16"),
    ("threshold_curve.py", ["--size", "32", "--steps", "5", "--level", "2"], "risk_estimate"),
    ("walk_crossover.py", ["--sizes", "16", "10x9", "--repeats", "1"], "fft/direct"),
    ("pool_scaling.py", ["--sizes", "32", "--methods", "uwt", "haar-cs1", "--calls", "2",
                         "--repeats", "1"], "speedup"),
])
def test_script_main_runs(script, argv, header, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert header in lines[0]
    assert len(lines) >= 2


def test_bench_pairs_alternates_the_sides_and_counts_wins(tmp_path, capsys):
    # stub checkouts whose run.py logs its side and prints a fixed result:
    # the change is faster in every pair, and the parent's spread is 0
    log = tmp_path / "order.log"
    spec = {"end_to_end": [{"name": "denoise_s_p50", "better": "lower"},
                           {"name": "throughput_mpix_s", "better": "higher"}]}
    for side, seconds in (("parent", 2.0), ("change", 1.0)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
        result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            "denoise_s_p50": {"value": seconds, "unit": "s"},
            "throughput_mpix_s": {"value": 1 / seconds, "unit": "Mpix/s"}}}
        (tmp_path / side / "perfbench" / "run.py").write_text(
            f"open({str(log)!r}, 'a').write({side!r} + ' ')\n"
            f"print('a line before the result')\nprint({json.dumps(result)!r})\n")
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    assert main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "sweep-128",
                 "--seed", "1", "--pairs", "3"]) == 0
    assert log.read_text().split() == ["parent", "change", "change", "parent", "parent", "change"]
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    for name in ("denoise_s_p50", "throughput_mpix_s"):
        assert rows[name][-2:] == ["3/3", "yes"]
    assert rows["failed"] == ["failed", "change", "0/4", "0/4", "0/4"]


def test_risk_bias_writes_every_cell_of_its_protocol(tmp_path, capsys):
    # schema only: item 4 of the roadmap adds the gate on the values
    out = tmp_path / "bias.json"
    main = runpy.run_path(str(SCRIPTS / "risk_bias.py"))["main"]
    assert main(["--size", "64", "--seeds", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"protocol", "env", "cells"}
    assert set(result["env"]) == {"python", "numpy", "commit", "curelet"}
    protocol = result["protocol"]
    assert (protocol["size"], protocol["seeds"]) == (64, 2)
    assert protocol["methods"] == ["haar-cs1", "haar-cs16", "uwt", "uwt-bdct", "cureshrink"]
    keys = [(c["phantom"], c["sigma"], c["method"]) for c in result["cells"]]
    assert keys == [(p, s, m) for p in protocol["phantoms"] for s in protocol["sigmas"]
                    for m in protocol["methods"]]
    assert len(keys) == 2 * 3 * 5
    for c in result["cells"]:
        assert c["seeds"] == 2
        assert set(c) == {"phantom", "sigma", "method", "seeds", "bias", "se", "bias_se",
                          "bias_share", "mse_mean", "psnr_mean"}
        assert all(np.isfinite(c[k]) for k in ("bias", "se", "bias_se", "bias_share",
                                                "mse_mean", "psnr_mean"))
        assert c["bias_se"] == c["bias"] / c["se"]
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(keys)


CELL_KEYS = {"method", "shape", "reps", "seconds", "rss_mb", "minflt", "xmse", "cure"}


def test_method_matrix_writes_every_cell_of_its_protocol(tmp_path, capsys):
    # schema only: two 64^2 cells of one rep, each in a process of its own
    out = tmp_path / "sizes.json"
    main = runpy.run_path(str(SCRIPTS / "method_matrix.py"))["main"]
    assert main(["--methods", "haar-cs1", "uwt", "--shapes", "64x64", "--reps", "1",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"protocol", "env", "cells"}
    assert set(result["env"]) == {"python", "numpy", "commit", "curelet"}
    protocol = result["protocol"]
    assert protocol == {"phantom": "shepp-logan", "sigma": 20.0, "seed": 0, "reps": 1,
                        "levels": 3, "methods": ["haar-cs1", "uwt"], "shapes": [[64, 64]]}
    assert [(c["method"], c["shape"]) for c in result["cells"]] == [("haar-cs1", [64, 64]),
                                                                     ("uwt", [64, 64])]
    for c in result["cells"]:
        assert set(c) == CELL_KEYS and c["reps"] == 1
        assert all(np.isfinite(c[k]) and c[k] > 0
                   for k in ("seconds", "rss_mb", "minflt", "xmse", "cure"))
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2


def test_method_matrix_pairs_two_checkouts(tmp_path, capsys):
    # schema only: this checkout as its own parent, one pair of one 64^2 cell
    # at J = 4; the quality columns of the same code agree
    out = tmp_path / "pairs.json"
    main = runpy.run_path(str(SCRIPTS / "method_matrix.py"))["main"]
    assert main(["--methods", "uwt", "--shapes", "64x64", "--reps", "1", "--pairs", "1",
                 "--levels", "4", "--parent", str(SCRIPTS.parent), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result["env"]) == {"parent", "change"}
    assert (result["protocol"]["pairs"], result["protocol"]["levels"]) == (1, 4)
    (cell,) = result["cells"]
    assert set(cell) == {"method", "shape", "seconds", "rss_mb", "minflt", "parent", "change"}
    for key in ("seconds", "rss_mb", "minflt"):
        assert set(cell[key]) == {"parent", "change", "won", "gap_gt_iqr"}
        assert len(cell[key]["parent"]) == len(cell[key]["change"]) == 3
    (parent,), (change,) = cell["parent"], cell["change"]
    assert set(parent) == set(change) == CELL_KEYS
    assert (parent["xmse"], parent["cure"]) == (change["xmse"], change["cure"])
    assert capsys.readouterr().out.splitlines()[0].split()[:3] == ["method", "shape", "metric"]


def test_ab_pairs_times_two_checkouts_in_one_process(tmp_path, capsys):
    # schema only: this checkout as its own parent, imported under a second
    # package name, one pair of one 64^2 cell; the same code gives equal outputs
    out = tmp_path / "ab.json"
    main = runpy.run_path(str(SCRIPTS / "ab_pairs.py"))["main"]
    assert main([str(SCRIPTS.parent), "--methods", "uwt", "--shapes", "64x64", "--pairs", "1",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"protocol", "env", "cells"}
    assert set(result["env"]) == {"parent", "change"}
    assert all(set(env) == {"python", "numpy", "commit", "curelet"}
               for env in result["env"].values())
    assert result["env"]["parent"]["commit"] == result["env"]["change"]["commit"]
    assert {k: result["protocol"][k] for k in ("levels", "pairs", "methods", "shapes")} == {
        "levels": 3, "pairs": 1, "methods": ["uwt"], "shapes": [[64, 64]]}
    (cell,) = result["cells"]
    assert set(cell) == {"method", "shape", "xhat_difference", "cure_difference", "xmse",
                         "ratio", "interval", "won", "ratios", "seconds"}
    assert (cell["xhat_difference"], cell["cure_difference"]) == (0.0, 0.0)
    assert cell["xmse"]["parent"] == cell["xmse"]["change"]
    assert len(cell["ratio"]) == 3 and len(cell["interval"]) == 2 and len(cell["ratios"]) == 1
    assert cell["won"] in (0, 1)
    assert all(len(v) == 1 and v[0] > 0 for v in cell["seconds"].values())
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1
