"""The charid benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload lib-torus|lib-finite|cli-files \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  A line before it
gives host facts, the ``src/`` line count and run details.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Nominal seconds of one round.  A run makes round(seconds / this) rounds,
#: at least one, so every run with the same --seconds attempts the same
#: requests and the tail percentile always falls on the same request class.
ROUND_SECONDS = {"lib-torus": 2.1, "lib-finite": 3.125, "cli-files": 25.0}

#: Fresh starts per run behind setup_s, which reports their median.  They
#: are spread over the run (see workloads.Runner).
SETUP_STARTS = 15

#: Requests beyond the tail percentile.
TAIL_BEYOND = 10


#: Per-layer metrics in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = (
    ("cli.parse_ms", "ms"),
    ("cli.parse_mb_per_s", "MB/s"),
    ("cli.parse_peak_ratio", "ratio"),
    ("cli.report_ms", "ms"),
    ("cli.generate_ms", "ms"),
    ("cli.generate_mb_per_s", "MB/s"),
    ("cli.process_ms", "ms"),
    ("circle.unit_check_ms", "ms"),
    ("samples.construct_ms", "ms"),
    ("samples.line_reduce_ms", "ms"),
    ("fourier.spectrum_ms", "ms"),
    ("fourier.spectrum_msamples_per_s", "Msamples/s"),
    ("fourier.top_peaks_ms", "ms"),
    ("fourier.dominant_frequency_ms", "ms"),
    ("identify.self_ms", "ms"),
    ("identify.hom_residual_ms", "ms"),
    ("identify.hom_pairs_per_s", "pairs/s"),
    ("finite.small_check_us", "us"),
    ("finite.all_pairs_ms", "ms"),
    ("finite.all_pairs_mpairs_per_s", "Mpairs/s"),
    ("finite.sampled_ms", "ms"),
    ("finite.identify_us", "us"),
    ("finite.enumerate_ms", "ms"),
    ("finite.dft_per_request", "count"),
) + tuple(
    (f"{kind}.{layer}{suffix}", unit)
    for layer in ("cli", "samples", "circle", "fourier", "identify", "finite")
    for kind, suffix, unit in (("self", "_ms", "ms"), ("calls", "", "count"))
)


def fresh_start(workload: str, env: dict, workdir: Path):
    """A callable that times one fresh start of the workload (probe.py)."""
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(workdir)]

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    return probe


def host_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def end_to_end(latencies: list[float], peak_rss_mb: float, setup: list[float]) -> dict:
    lat = sorted(latencies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * lat[-TAIL_BEYOND - 1], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "charid" / "__init__.py").is_file():
        print(f"bench: no charid package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    import workloads
    from spans import Tracer, layer_metrics

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    tracer = Tracer() if args.trace else None
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    probe = None if args.trace else fresh_start(args.workload, env, workdir)
    runner = workloads.Runner(tracer, probe, args.seconds / SETUP_STARTS,
                              0 if args.trace else SETUP_STARTS)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cli-files":
            info = workloads.cli_files(runner, env, rounds, args.seed, workdir, bool(args.trace))
        else:
            api = workloads.library_api(tracer)
            run = workloads.lib_torus if args.workload == "lib-torus" else workloads.lib_finite
            info = run(runner, api, rounds, args.seed)
            info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while probe is not None and len(runner.setup) < SETUP_STARTS:
            runner.setup.append(probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(runner.latencies)
    if n < 4 * TAIL_BEYOND:
        print(f"bench: only {n} requests; the tail needs at least {4 * TAIL_BEYOND}",
              file=sys.stderr)
        return 1
    throughput = n / sum(runner.latencies)
    info.update(workload=args.workload, seed=args.seed, requests=n,
                tail_percentile=100.0 * (n - TAIL_BEYOND) / n, host=host_facts(),
                src_lines=src_lines(), failures=runner.failures[:20])
    if args.trace:
        import charid

        info["traced_throughput_per_s"] = throughput
        values = layer_metrics(tracer.spans, n, charid.finite.ALL_PAIRS_CAP,
                               info.pop("parse_peaks", ()))
        units = {name: unit for name, unit in PER_LAYER_UNITS}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        info["setup_starts_s"] = runner.setup
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in end_to_end(runner.latencies, info["peak_rss_mb"],
                                                  runner.setup).items()}
    result = {
        "correct": not any(kind == "wrong" for kind, _ in runner.failures),
        "attempted": n,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"result": result, "info": info}, indent=1))
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
