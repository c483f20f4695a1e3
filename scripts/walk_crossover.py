"""Time FilterBank.walk under each engine, to place transforms.DIRECT_TAPS.

Walks bdct8 and the 2-D Haar frame at J = 1..6 over a random field of each
given size (every walk yields the powers 1..5 of the taps), once by FFT
and once by direct correlation, and prints the best time of each and their
ratio. A ratio above 1 means the direct walk is the faster one. Banks whose
support exceeds a size are skipped. Run single-threaded for stable figures:

    OMP_NUM_THREADS=1 python scripts/walk_crossover.py --sizes 256 511x383
"""

import argparse
import time

import numpy as np

from curelet import transforms


def parse_size(text):
    sides = tuple(int(n) for n in text.lower().split("x"))
    return sides * 2 if len(sides) == 1 else sides


def walk_ms(bank, y, direct, repeats):
    """Best wall time of one whole walk, with the engine forced by DIRECT_TAPS."""
    saved, transforms.DIRECT_TAPS = transforms.DIRECT_TAPS, (np.inf if direct else 0)
    try:
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in bank.walk(y):
                pass
            best = min(best, time.perf_counter() - start)
    finally:
        transforms.DIRECT_TAPS = saved
    return 1e3 * best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=parse_size, nargs="+", default=[(256, 256)],
                        help="field sizes, N or NxM")
    parser.add_argument("--repeats", type=int, default=3, help="best of this many walks")
    args = parser.parse_args(argv)

    banks = [transforms.bdct8_bank()] + [transforms.haar_uwt_bank(J) for J in range(1, 7)]
    print(f"{'bank':>16s}  {'size':>9s}  {'fft_ms':>9s}  {'direct_ms':>9s}  {'fft/direct':>10s}")
    rng = np.random.default_rng(0)
    for shape in args.sizes:
        y = rng.normal(size=shape)
        for bank in banks:
            if any(n < len(f) for n, f in zip(shape, bank.bands[0].factors)):
                continue
            fft, direct = (walk_ms(bank, y, engine, args.repeats) for engine in (False, True))
            size = "x".join(map(str, shape))
            print(f"{bank.name:>16s}  {size:>9s}  {fft:9.2f}  {direct:9.2f}  {fft / direct:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
