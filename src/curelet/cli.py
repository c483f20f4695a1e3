"""Command-line surface: file formats, flag parsing, and exit codes.

The only module that touches the filesystem. Magnitude images travel as
16-bit big-endian binary PGM (P5), masks as 8-bit PGM where nonzero
marks background, and intermediate float fields as 32-bit little-endian
raw next to a JSON sidecar naming the grid. Exit codes: 0 success,
1 config error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .chi2model import estimate_sigma_background, sample_rician
from .pipeline import (
    METHODS,
    SIGMA_GRID,
    ExperimentProtocol,
    denoise_mr,
    format_csv,
    make_phantom,
    monte_carlo_experiment,
    quality_report,
)

PGM_MAXVAL = 65535


class ConfigError(Exception):
    """Bad flag value or combination; the process exits with 1."""


class DataError(Exception):
    """Unreadable or malformed input file; the process exits with 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 means I/O here
    def error(self, message):
        raise ConfigError(message)


def _header_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    # whitespace-separated tokens; '#' starts a comment running to EOL
    tokens, i = [], 0
    while len(tokens) < count:
        if i >= len(blob):
            raise DataError("truncated PGM header")
        ch = blob[i:i + 1]
        if ch == b"#":
            j = blob.find(b"\n", i)
            i = len(blob) if j < 0 else j + 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace() and blob[j:j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    return tokens, i


def read_pgm(path) -> np.ndarray:
    """Binary PGM to a float image, one or two (big-endian) bytes per pixel."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        tokens, i = _header_tokens(blob, 4)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if tokens[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric PGM header") from exc
    if width <= 0 or height <= 0 or not 0 < maxval <= PGM_MAXVAL:
        raise DataError(f"{path}: bad PGM geometry {width}x{height} maxval {maxval}")
    if i >= len(blob) or not blob[i:i + 1].isspace():
        raise DataError(f"{path}: missing whitespace after the PGM maxval")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    data = blob[i + 1:]
    if len(data) < need:
        raise DataError(f"{path}: PGM pixel data truncated")
    pixels = np.frombuffer(data[:need], dtype=dtype).reshape(height, width)
    return pixels.astype(np.float64)


def write_pgm(path, image, maxval: int = PGM_MAXVAL) -> None:
    """Clip, round, and store an image as binary PGM."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigError("PGM output needs a 2-D image")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    pixels = np.clip(np.rint(image), 0, maxval).astype(dtype)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    try:
        Path(path).write_bytes(header + pixels.tobytes())
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_field(path, data, semantics: str) -> None:
    """Float32 little-endian raw plus a JSON sidecar at path + '.json'."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("field output needs a 2-D array")
    sidecar = {"width": int(data.shape[1]), "height": int(data.shape[0]),
               "semantics": semantics}
    try:
        Path(path).write_bytes(data.astype("<f4").tobytes())
        Path(f"{path}.json").write_text(json.dumps(sidecar) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _lambdas(args: argparse.Namespace) -> tuple[float, float] | None:
    if (args.lambda1 is None) != (args.lambda2 is None):
        raise ConfigError("--lambda1 and --lambda2 must be given together")
    return None if args.lambda1 is None else (args.lambda1, args.lambda2)


def _print_config(args: argparse.Namespace, keys: tuple[str, ...]) -> None:
    parts = [f"command={args.command}"]
    parts += [f"{key}={getattr(args, key)}" for key in keys]
    print("config: " + " ".join(parts))


def cmd_denoise(args: argparse.Namespace) -> int:
    lambdas = _lambdas(args)
    if args.sigma == "auto" and not args.mask_path:
        raise ConfigError("--sigma auto requires --mask to locate background")
    _print_config(args, ("input_path", "output_path", "method", "sigma",
                         "mask_path", "lam", "levels", "lambda1", "lambda2"))
    m = read_pgm(args.input_path)
    mask = read_pgm(args.mask_path) if args.mask_path else None
    start = time.perf_counter()
    try:
        result = denoise_mr(m, sigma=args.sigma, method=args.method,
                            lam=args.lam, J=args.levels, mask=mask,
                            lambdas=lambdas)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not np.isfinite(result.estimate).all():
        raise RuntimeError("denoised image contains non-finite values")
    write_pgm(args.output_path, result.estimate)
    if args.dump_path:
        write_field(args.dump_path, result.xhat, "squared-rescaled")
    wall = time.perf_counter() - start
    print(f"sigma={result.sigma:.6g} method={result.method} "
          f"cure={result.cure:.6g} wall_s={wall:.3f}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _print_config(args, ("ref_path", "phantom", "size", "output_path",
                         "sigma", "seed"))
    if args.ref_path:
        mu = read_pgm(args.ref_path)
    else:
        try:
            mu = make_phantom(args.phantom, args.size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    m = sample_rician(mu, args.sigma, args.seed)
    write_pgm(args.output_path, m)
    print(f"wrote {args.output_path} sigma={args.sigma:.6g} "
          f"seed={args.seed}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _print_config(args, ("input_path", "ref_path"))
    est = read_pgm(args.input_path)
    ref = read_pgm(args.ref_path)
    try:
        report = quality_report(est, ref)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    a, b = report.affine
    print("psnr,cipsnr,ssim,affine_a,affine_b")
    print(f"{report.psnr:.6g},{report.cipsnr:.6g},{report.ssim:.6g},"
          f"{a:.6g},{b:.6g}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    protocol = ExperimentProtocol(
        phantom=args.phantom,
        size=args.size,
        sigmas=SIGMA_GRID if args.sigmas is None else args.sigmas,
        methods=METHODS if args.methods is None else args.methods,
        seeds=tuple(range(args.seeds)),
        lam=args.lam,
        J=args.levels,
    )
    try:
        protocol.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _print_config(args, ("phantom", "size", "sigmas", "methods", "seeds",
                         "lam", "levels", "output_path"))
    try:
        rows = monte_carlo_experiment(protocol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = format_csv(rows)
    try:
        Path(args.output_path).write_text(text)
    except OSError as exc:
        raise DataError(f"cannot write {args.output_path}: {exc}") from exc
    for method in protocol.methods:
        times = [row["runtime_s"] for row in rows if row["method"] == method]
        print(f"method={method} mean_runtime_s={float(np.mean(times)):.3f}")
    return 0


def cmd_estimate_sigma(args: argparse.Namespace) -> int:
    _print_config(args, ("input_path", "mask_path"))
    m = read_pgm(args.input_path)
    mask = read_pgm(args.mask_path) != 0
    try:
        sigma = estimate_sigma_background(m, mask)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"sigma={sigma:.6g}")
    return 0


HANDLERS = {
    "denoise": cmd_denoise,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "estimate-sigma": cmd_estimate_sigma,
}


def _sigma_flag(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'auto', got {text!r}")


def _checked(convert, ok, need: str):
    """argparse type: convert(text), rejected unless ok(value); need says what ok asks."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {need}, got {text!r}")
        return value

    return parse


_BLEND = _checked(float, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "be at least 1")
_PATH = _checked(str, bool, "name a file")


def _float_tuple(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")


def _name_tuple(text: str) -> tuple:
    return tuple(tok for tok in text.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curelet",
                     description="Risk-optimized denoising of magnitude MR "
                                 "images with squared chi-square statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    dn = sub.add_parser("denoise", help="denoise a magnitude PGM image")
    dn.add_argument("--in", dest="input_path", type=_PATH, required=True, metavar="PGM",
                    help="noisy magnitude image, 16-bit binary PGM")
    dn.add_argument("--out", dest="output_path", type=_PATH, required=True,
                    metavar="PGM")
    dn.add_argument("--sigma", type=_sigma_flag, default="auto",
                    help="noise level, or 'auto' to fit it on --mask")
    dn.add_argument("--mask", dest="mask_path", metavar="PGM",
                    help="background mask, nonzero pixels are signal-free")
    dn.add_argument("--method", choices=METHODS, default="uwt-bdct")
    dn.add_argument("--lambda", dest="lam", type=_BLEND, default=0.5,
                    help="negative-estimate blend: 0 clips, 1 reflects")
    dn.add_argument("--levels", type=_AT_LEAST_ONE, default=3,
                    help="decomposition depth")
    dn.add_argument("--lambda1", type=float, help="first atom shape override")
    dn.add_argument("--lambda2", type=float, help="second atom shape override")
    dn.add_argument("--dump-x", dest="dump_path", metavar="RAW",
                    help="also write the chi-square-domain estimate as "
                         "float32 raw with a JSON sidecar")

    sim = sub.add_parser("simulate", help="draw a noisy magnitude image")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--ref", dest="ref_path", type=_PATH, metavar="PGM",
                     help="clean reference image")
    src.add_argument("--phantom", choices=("shepp-logan", "piecewise",
                                           "constant"))
    sim.add_argument("--size", type=int, default=128,
                     help="phantom side length")
    sim.add_argument("--sigma", required=True,
                     type=_checked(float, lambda v: 0 < v < np.inf, "be a finite positive number"))
    sim.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "be nonnegative"),
                     default=0)
    sim.add_argument("--out", dest="output_path", type=_PATH, required=True,
                     metavar="PGM")

    ev = sub.add_parser("evaluate", help="score an estimate against a "
                                         "reference")
    ev.add_argument("--est", dest="input_path", type=_PATH, required=True,
                    metavar="PGM")
    ev.add_argument("--ref", dest="ref_path", type=_PATH, required=True,
                    metavar="PGM")

    bm = sub.add_parser("benchmark", help="phantom sweep over methods and "
                                          "noise levels")
    bm.add_argument("--phantom", choices=("shepp-logan", "piecewise",
                                          "constant"), default="shepp-logan")
    bm.add_argument("--size", type=int, default=128)
    bm.add_argument("--sigmas", type=_float_tuple, default=None,
                    help="comma-separated noise levels")
    bm.add_argument("--methods", type=_name_tuple, default=None,
                    help="comma-separated method names")
    bm.add_argument("--seeds", type=_AT_LEAST_ONE, default=10,
                    help="number of noise realizations per cell")
    bm.add_argument("--lambda", dest="lam", type=_BLEND, default=0.5)
    bm.add_argument("--levels", type=_AT_LEAST_ONE, default=3)
    bm.add_argument("--out", dest="output_path", type=_PATH, required=True,
                    metavar="CSV")

    es = sub.add_parser("estimate-sigma", help="fit the noise level on a "
                                               "background mask")
    es.add_argument("--in", dest="input_path", type=_PATH, required=True,
                    metavar="PGM")
    es.add_argument("--mask", dest="mask_path", type=_PATH, required=True,
                    metavar="PGM")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return HANDLERS[args.command](args)
    except SystemExit as exc:
        # argparse --help lands here; error() no longer raises it
        return exc.code if isinstance(exc.code, int) else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
