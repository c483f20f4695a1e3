"""Command-line contract: file formats, flag validation, exit codes."""

import argparse
import json

import numpy as np
import pytest

from curelet.chi2model import sample_rician
from curelet.cli import build_parser, main, read_pgm, write_pgm
from curelet.pipeline import make_phantom, psnr


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def phantom_files(tmp_path):
    mu = make_phantom("shepp-logan", 64)
    noisy = sample_rician(mu, 20.0, seed=4)
    mask = np.where(mu == 0.0, 255.0, 0.0)
    paths = {}
    for name, img in (("clean", mu), ("noisy", noisy), ("mask", mask)):
        paths[name] = str(tmp_path / f"{name}.pgm")
        write_pgm(paths[name], img)
    return paths


# --------------------------------------------------------------- pgm format


def test_pgm_roundtrip_16bit(tmp_path):
    img = np.array([[0.0, 300.0], [65535.0, 12.7]])
    path = str(tmp_path / "x.pgm")
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), np.rint(img))


def test_pgm_roundtrip_8bit(tmp_path):
    img = np.arange(6.0).reshape(2, 3) * 40.0
    path = str(tmp_path / "x.pgm")
    write_pgm(path, img, maxval=255)
    np.testing.assert_array_equal(read_pgm(path), img)
    assert (tmp_path / "x.pgm").stat().st_size < 2 * 6 + 15


def test_pgm_clips_out_of_range(tmp_path):
    path = str(tmp_path / "x.pgm")
    write_pgm(path, np.array([[-5.0, 1e9]]))
    np.testing.assert_array_equal(read_pgm(path), [[0.0, 65535.0]])


def test_pgm_comment_headers(tmp_path):
    path = tmp_path / "x.pgm"
    body = np.array([1, 2, 3, 4], dtype=">u2").tobytes()
    path.write_bytes(b"P5 # comment\n2 2\n# another\n65535\n" + body)
    np.testing.assert_array_equal(read_pgm(str(path)), [[1.0, 2.0], [3.0, 4.0]])


def test_pgm_rejects_malformed(tmp_path):
    from curelet.cli import DataError
    cases = {
        "magic.pgm": b"P2\n2 2\n255\n" + bytes(4),
        "geom.pgm": b"P5\n0 2\n255\n",
        "depth.pgm": b"P5\n2 2\n70000\n" + bytes(8),
        "short.pgm": b"P5\n2 2\n255\n" + bytes(3),
        "text.pgm": b"P5\n2 two\n255\n" + bytes(4),
        "empty.pgm": b"",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(DataError):
            read_pgm(str(path))


# ----------------------------------------------------------------- commands


def test_denoise_writes_output_and_reports(phantom_files, tmp_path, capsys):
    out = str(tmp_path / "out.pgm")
    code = run("denoise", "--in", phantom_files["noisy"], "--out", out,
               "--sigma", "20", "--method", "uwt")
    assert code == 0
    text = capsys.readouterr().out
    assert "sigma=20" in text
    assert "method=uwt" in text
    assert "cure=" in text
    est = read_pgm(out)
    clean = read_pgm(phantom_files["clean"])
    noisy = read_pgm(phantom_files["noisy"])
    assert psnr(est, clean) > psnr(noisy, clean) + 3.0


def test_denoise_is_deterministic(phantom_files, tmp_path):
    outs = []
    for name in ("a.pgm", "b.pgm"):
        out = str(tmp_path / name)
        assert run("denoise", "--in", phantom_files["noisy"], "--out", out,
                   "--sigma", "20") == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_denoise_auto_sigma_uses_mask(phantom_files, tmp_path, capsys):
    out = str(tmp_path / "out.pgm")
    code = run("denoise", "--in", phantom_files["noisy"], "--out", out,
               "--mask", phantom_files["mask"], "--method", "uwt")
    assert code == 0
    result = capsys.readouterr().out.strip().split("\n")[-1]
    sigma = float(result.split("sigma=")[1].split()[0])
    assert sigma == pytest.approx(20.0, rel=0.1)


def test_denoise_auto_sigma_requires_mask(phantom_files, tmp_path, capsys):
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "out.pgm"))
    assert code == 1
    assert "--mask" in capsys.readouterr().err


def test_denoise_dump_x_sidecar(phantom_files, tmp_path):
    out = str(tmp_path / "out.pgm")
    dump = str(tmp_path / "x.raw")
    assert run("denoise", "--in", phantom_files["noisy"], "--out", out,
               "--sigma", "20", "--dump-x", dump) == 0
    meta = json.loads((tmp_path / "x.raw.json").read_text())
    assert meta == {"width": 64, "height": 64, "semantics": "squared-rescaled"}
    field = np.fromfile(dump, dtype="<f4")
    assert field.size == 64 * 64
    assert np.isfinite(field).all()


def test_simulate_matches_library_sampler(tmp_path):
    out = str(tmp_path / "noisy.pgm")
    assert run("simulate", "--phantom", "shepp-logan", "--size", "64",
               "--sigma", "20", "--seed", "4", "--out", out) == 0
    expected = np.rint(np.clip(
        sample_rician(make_phantom("shepp-logan", 64), 20.0, seed=4),
        0.0, 65535.0))
    np.testing.assert_array_equal(read_pgm(out), expected)


def test_simulate_is_deterministic(tmp_path):
    blobs = []
    for name in ("a.pgm", "b.pgm"):
        assert run("simulate", "--phantom", "piecewise", "--sigma", "30",
                   "--seed", "9", "--out", str(tmp_path / name)) == 0
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_from_reference_file(phantom_files, tmp_path):
    out = str(tmp_path / "noisy.pgm")
    assert run("simulate", "--ref", phantom_files["clean"], "--sigma", "10",
               "--seed", "1", "--out", out) == 0
    assert read_pgm(out).shape == (64, 64)


def test_simulate_rejects_bad_sigma(tmp_path, capsys):
    out = str(tmp_path / "x.pgm")
    for sigma in ("0", "-3", "auto", "inf"):
        code = run("simulate", "--phantom", "constant", "--sigma", sigma,
                   "--out", out)
        assert code == 1
        capsys.readouterr()


def test_evaluate_perfect_estimate(phantom_files, capsys):
    code = run("evaluate", "--est", phantom_files["clean"],
               "--ref", phantom_files["clean"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-2] == "psnr,cipsnr,ssim,affine_a,affine_b"
    psnr_v, cipsnr_v, ssim_v, a, b = (float(v) for v in lines[-1].split(","))
    assert psnr_v == 99.0
    assert cipsnr_v == 99.0
    assert ssim_v == pytest.approx(1.0)
    assert (a, b) == (1.0, 0.0)


def test_evaluate_rejects_images_smaller_than_the_ssim_window(tmp_path, capsys):
    rng = np.random.default_rng(8)
    paths = []
    for name in ("est", "ref"):
        paths.append(str(tmp_path / f"{name}.pgm"))
        write_pgm(paths[-1], rng.uniform(0.0, 255.0, size=(8, 8)))
    assert run("evaluate", "--est", paths[0], "--ref", paths[1]) == 1
    captured = capsys.readouterr()
    assert "11x11" in captured.err
    assert "psnr,cipsnr,ssim" not in captured.out


def test_simulate_then_evaluate_round(tmp_path, capsys):
    clean = str(tmp_path / "clean.pgm")
    write_pgm(clean, make_phantom("shepp-logan", 64))
    noisy = str(tmp_path / "noisy.pgm")
    assert run("simulate", "--ref", clean, "--sigma", "20", "--seed", "2",
               "--out", noisy) == 0
    capsys.readouterr()
    assert run("evaluate", "--est", noisy, "--ref", clean) == 0
    row = capsys.readouterr().out.strip().split("\n")[-1]
    psnr_v = float(row.split(",")[0])
    direct = psnr(read_pgm(noisy), read_pgm(clean))
    assert psnr_v == pytest.approx(direct, abs=0.05)


def test_benchmark_csv_and_summary(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    code = run("benchmark", "--phantom", "shepp-logan", "--size", "64",
               "--sigmas", "10,30", "--methods", "haar-cs1,uwt",
               "--seeds", "2", "--out", out)
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2
    text = capsys.readouterr().out
    assert "method=haar-cs1 mean_runtime_s=" in text
    assert "method=uwt mean_runtime_s=" in text


def test_estimate_sigma_command(phantom_files, capsys):
    code = run("estimate-sigma", "--in", phantom_files["noisy"],
               "--mask", phantom_files["mask"])
    assert code == 0
    sigma = float(capsys.readouterr().out.strip().split("sigma=")[1])
    assert sigma == pytest.approx(20.0, rel=0.1)


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "denoise" in capsys.readouterr().out


# --------------------------------------------------------------- exit codes


def test_exit_code_missing_input(tmp_path, capsys):
    code = run("denoise", "--in", str(tmp_path / "absent.pgm"),
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20")
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_exit_code_garbage_pgm(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pgm at all")
    code = run("denoise", "--in", str(bad), "--out", str(tmp_path / "o.pgm"),
               "--sigma", "20")
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.pgm" in err


def test_exit_code_bad_flag(capsys):
    assert run("denoise", "--wavelets", "3") == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_unknown_command(capsys):
    assert run("sharpen") == 1
    capsys.readouterr()


def test_exit_code_spins_method_mismatch(phantom_files, tmp_path, capsys):
    # the spin count lives in the method name; --spins is an unknown flag
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20",
               "--method", "haar-cs16", "--spins", "16")
    assert code == 1
    capsys.readouterr()
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20",
               "--method", "haar-cs16", "--levels", "2")
    assert code == 0
    capsys.readouterr()


def test_exit_code_more_levels_than_the_image_holds(phantom_files, tmp_path, capsys):
    # 2^7 = 128 exceeds the 64x64 phantom's side
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20",
               "--method", "haar-cs1", "--levels", "7")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "J=7" in err


def test_exit_code_half_lambda_override(phantom_files, tmp_path, capsys):
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20",
               "--lambda1", "2.0")
    assert code == 1
    assert "lambda" in capsys.readouterr().err


def test_exit_code_negative_lambda_override(phantom_files, tmp_path, capsys):
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20",
               "--lambda1", "-1", "--lambda2", "3")
    assert code == 1
    assert "lambda" in capsys.readouterr().err


def test_exit_code_infinite_sigma(phantom_files, tmp_path, capsys):
    # an infinite sigma once ran to an all-NaN estimate and exit code 3
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "inf", "--method", "uwt")
    assert code == 1
    assert "sigma" in capsys.readouterr().err


def test_exit_code_invalid_blend(phantom_files, tmp_path, capsys):
    code = run("denoise", "--in", phantom_files["noisy"],
               "--out", str(tmp_path / "o.pgm"), "--sigma", "20",
               "--lambda", "1.5")
    assert code == 1
    capsys.readouterr()


def test_benchmark_rejects_out_of_grid_sigma(tmp_path, capsys):
    code = run("benchmark", "--sigmas", "3", "--out",
               str(tmp_path / "b.csv"))
    assert code == 1
    capsys.readouterr()


def test_benchmark_maps_a_rejected_protocol_to_a_config_error(tmp_path, capsys):
    # seven Haar levels need a 128x128 support, more than a 64x64 phantom has
    code = run("benchmark", "--size", "64", "--levels", "7", "--methods", "uwt",
               "--seeds", "1", "--sigmas", "10", "--out", str(tmp_path / "b.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "J=7" in err


@pytest.mark.parametrize("flag", ["--sigmas", "--methods"])
def test_benchmark_rejects_an_empty_list(flag, tmp_path, capsys):
    # an explicitly empty list is not the default grid
    values = {"--sigmas": "10", "--methods": "haar-cs1", flag: ""}
    code = run("benchmark", "--size", "32", "--seeds", "1",
               *[tok for item in values.items() for tok in item],
               "--out", str(tmp_path / "b.csv"))
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("cap", ["two", "0", "-1"])
def test_benchmark_rejects_a_bad_thread_cap(tmp_path, capsys, monkeypatch, cap):
    # a cap below one once ran one worker without a word
    monkeypatch.setenv("CURE_THREADS", cap)
    code = run("benchmark", "--size", "64", "--methods", "haar-cs1",
               "--seeds", "1", "--sigmas", "10", "--out", str(tmp_path / "b.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "CURE_THREADS" in err


# -------------------------------------------------------------- flag surface

SUBCOMMAND_OPTIONS = {
    "denoise": {"--in", "--out", "--sigma", "--mask", "--method", "--lambda",
                "--levels", "--lambda1", "--lambda2", "--dump-x"},
    "simulate": {"--ref", "--phantom", "--size", "--sigma", "--seed", "--out"},
    "evaluate": {"--est", "--ref"},
    "benchmark": {"--phantom", "--size", "--sigmas", "--methods", "--seeds",
                  "--lambda", "--levels", "--out"},
    "estimate-sigma": {"--in", "--mask"},
}


def test_each_subcommand_accepts_its_pinned_flags():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    found = {name: {opt for action in parser._actions for opt in action.option_strings}
             - {"-h", "--help"}
             for name, parser in sub.choices.items()}
    assert found == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv, flags", [
    (("denoise", "--in", "in.pgm", "--out", "out.pgm", "--sigma", "20",
      "--levels", "0"), ("--levels",)),
    (("benchmark", "--seeds", "0", "--out", "b.csv"), ("--seeds",)),
    (("simulate", "--phantom", "constant", "--sigma", "20", "--seed", "-1",
      "--out", "out.pgm"), ("--seed",)),
    (("simulate", "--sigma", "20", "--out", "out.pgm"), ("--ref", "--phantom")),
    (("denoise", "--in", "", "--out", "out.pgm", "--sigma", "20"), ("--in",)),
], ids=["levels-0", "seeds-0", "seed-negative", "simulate-without-source", "empty-path"])
def test_out_of_range_flags_are_config_errors_naming_the_flag(argv, flags, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    for flag in flags:
        assert flag in err
