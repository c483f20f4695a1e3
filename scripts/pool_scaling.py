"""Time denoise_mr calls run one after another against the same calls on a thread pool.

For each method and size, --calls denoise_mr calls on one Rician draw of the
Shepp-Logan phantom (sigma 20) run first serially, then spread over a pool of
--threads threads, as monte_carlo_experiment spreads a sweep. Prints the best
wall time of each over --repeats and their ratio; a ratio near the thread
count means the calls overlap, near 1 that they take turns (the GIL). Pin
BLAS to one thread, as perfbench does:

    OMP_NUM_THREADS=1 python scripts/pool_scaling.py --sizes 128 256 512
"""

import argparse
import time
from concurrent.futures import ThreadPoolExecutor

from curelet import METHODS, denoise_mr, make_phantom, sample_rician


def best_s(run, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256])
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    parser.add_argument("--calls", type=int, default=8, help="denoise_mr calls per timing")
    parser.add_argument("--threads", type=int, default=2, help="pool size")
    parser.add_argument("--repeats", type=int, default=3, help="best of this many timings")
    args = parser.parse_args(argv)

    print(f"{'method':>10s}  {'size':>5s}  {'serial_s':>9s}  {'pooled_s':>9s}  {'speedup':>8s}")
    for size in args.sizes:
        m = sample_rician(make_phantom("shepp-logan", size), 20.0, 0)
        for method in args.methods:
            def call(_=None):
                denoise_mr(m, sigma=20.0, method=method)

            def serial():
                for _ in range(args.calls):
                    call()

            def pooled():
                with ThreadPoolExecutor(max_workers=args.threads) as pool:
                    list(pool.map(call, range(args.calls)))

            call()  # warm: imports, first-touch pages
            s, p = best_s(serial, args.repeats), best_s(pooled, args.repeats)
            print(f"{method:>10s}  {size:5d}  {s:9.3f}  {p:9.3f}  {s / p:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
