"""curelet benchmark: one workload per process, every metric by name and unit.

    python3 perfbench/run.py --workload mixed-256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off; --trace 1 prints the per-layer metrics from a traced run. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The program is imported from src/ of the
checkout this file sits in; BLAS threads are pinned to 1 before numpy loads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mixed-256", "spin-256", "sweep-128")
# Fresh processes that repeat set-up and the cold call: half before the timed
# phase and half after it, so that one slow stretch of the machine does not
# hold every sample.
PROBES = 4
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    """BENCHMARK.json metric names -> units, per mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def result(units: dict, values: dict, attempted: int, failed: int) -> dict:
    """The final JSON object; the metric names must be exactly the spec's."""
    if set(values) != set(units):
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}}


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, size = ((index / f).read_text().strip() for f in ("level", "size"))
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"l{level}_cache"] = size

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit or "unknown",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        **caches,
        **{k: os.environ.get(k) for k in (*PINNED, "CURE_THREADS")},
    }


def probe(args, count: int) -> list[dict]:
    """Set-up and cold call, each in a fresh process, count times."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def run_workload(args) -> dict:
    os.environ.update(PINNED)  # before numpy loads: BLAS reads them once
    started = time.perf_counter()
    if not (SRC / "curelet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no curelet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads as W

    if Path(W.pipeline.__file__).resolve().parent != SRC / "curelet":
        raise SystemExit(f"perfbench: curelet imported from {W.pipeline.__file__}, not {SRC}")
    wl = W.WORKLOADS[args.workload]
    os.environ["CURE_THREADS"] = str(wl.cure_threads)
    mu, m0 = W.prepare(wl, args.seed)
    setup_s = time.perf_counter() - started

    records: list = []
    if args.probe:
        first = W.call(mu, m0, W.SIGMAS[0], wl.cold_method, records)
        return {"setup_s": setup_s, "first_call_s": first, "ok": records[0].ok}

    units = load_spec()[args.trace]
    if args.trace == 0:
        probes = probe(args, PROBES // 2)
        first = W.call(mu, m0, W.SIGMAS[0], wl.cold_method, records)
        phase = W.run_phase(wl, mu, args.seed, args.seconds, 1, records)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes += probe(args, PROBES - PROBES // 2)
        quality = W.quality_pass(records)
        if quality is None:
            raise SystemExit("perfbench: the quality round failed; see the traceback above")
        values = W.end_to_end([setup_s] + [p["setup_s"] for p in probes],
                              [first] + [p["first_call_s"] for p in probes],
                              phase, peak_rss_mb, quality)
        failed = sum(not r.ok for r in records) + sum(not p["ok"] for p in probes)
        return result(units, values, len(records) + len(probes), failed)

    W.call(mu, m0, W.SIGMAS[0], wl.cold_method, records)
    half = args.seconds / 2
    plain = W.run_phase(wl, mu, args.seed, half, 1, records)
    tracer = W.spans.Tracer()
    with tracer.install():
        traced = W.run_phase(wl, mu, args.seed, half, 1 + len(plain.unit_s), records)
    serial_s = None if wl.method else W.serial_round_s(wl, mu, args.seed, records)
    values = W.per_layer(tracer, plain, traced, records, serial_s)
    return result(units, values, len(records), sum(not r.ok for r in records))


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"][name] = res["metrics"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args)
    if args.probe:
        print(json.dumps(res))
        return 0
    print("env " + json.dumps(environment(args)))
    for name, m in res["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_rate = {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6g}")
    print(json.dumps(res, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
