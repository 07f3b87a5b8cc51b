"""Benchmark for decohere: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload sieve-grid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

One client issues a fixed, seeded list of independent requests (one pass)
and waits for each before the next, then repeats the pass until
``--seconds`` are spent.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics, including the tracing overhead.  A fixed
calibration kernel runs before every request, and pass times and
latencies are reported in units of its time (``cal``), so that the host's
speed, which drifts by tens of percent over minutes, largely cancels out.
Before the result, one ``report`` line gives quartiles, sample counts,
failures, the raw times in seconds and the run environment.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs each workload in its own process and prints a table.
The package is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sieve-grid", "wide-register", "witness-search")
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_cal": "cal", "op_p90_cal": "cal", "peak_rss_mb": "MB"}
# cli.bytes_written is measured from the written files; the other counts are
# computed from input sizes and planted answers when the requests are built.
COUNT_UNITS = {
    "sieve.candidates": "count",
    "sieve.trajectory_points": "count",
    "circuits.gates": "count",
    "circuits.amplitude_bytes": "B",
    "states.density_bytes": "B",
    "redundancy.flip_assignments": "count",
    "redundancy.patterns": "count",
    "records.symbols": "count",
    "cli.bytes_written": "B",
}


def _blas_threads() -> int:
    """Pin BLAS threads to at most the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _setup(workload: str, seed: int, workdir: str):
    """Import the package from this checkout and generate the workload's requests."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import decohere
    except ImportError as exc:
        sys.exit(f"cannot import decohere from {ROOT / 'src'}: {exc}")
    if Path(decohere.__file__).resolve().parent != ROOT / "src" / "decohere":
        sys.exit(f"decohere was imported from {decohere.__file__}, not from this checkout")
    import numpy as np

    module = _workload_module(workload)
    return module, module.build(np.random.default_rng(seed), workdir)


def _workload_module(workload: str):
    import sieve_grid
    import wide_register
    import witness_search

    return {"sieve-grid": sieve_grid, "wide-register": wide_register, "witness-search": witness_search}[workload]


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _mix(requests) -> Counter:
    return Counter((r.kind, r.size) for r in requests)


def _self_check(module, requests, seed: int, workdir: str) -> None:
    """Another seed must give the same request kinds and sizes, with different inputs."""
    import numpy as np

    other = module.build(np.random.default_rng(seed + 7919), workdir)
    if _mix(other) != _mix(requests):
        sys.exit("self-check failed: the request mix depends on the seed")
    if repr([r.data for r in other]) == repr([r.data for r in requests]):
        sys.exit("self-check failed: the seed does not change the inputs")


class Calibration:
    """A fixed kernel that does not touch decohere, timed before every request.

    The host is shared: its speed drifts by tens of percent over minutes,
    and the kernel, timed in the same moments as the requests, slows with
    it.  A request's latency divided by the mean of the kernel times just
    before and just after it is steady across runs where the raw latency is
    not.  The kernel does, on a small scale, the kind of work its workload
    does: an interpreter loop, ``eigvalsh`` on a stack of 501 2x2 matrices
    and a Python loop of 2x2 products; with ``memory`` (wide-register,
    whose large arrays spend a quarter of its time in page faults) also a
    copy of a 4 MB array and writes to 256 fresh pages, which the kernel
    must fault in and zero.  Memory work does not speed up with the CPU,
    so it is left out for the CPU-bound workloads.  The kernel is
    single-threaded: a multi-threaded BLAS product tracked the host worse,
    slowing out of proportion when a core was taken.
    """

    def __init__(self, memory: bool) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        stack = rng.normal(size=(501, 2, 2))
        self.stack = stack + stack.transpose(0, 2, 1)
        self.unitary = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        self.rho = np.array([[0.6, 0.3 + 0.2j], [0.3 - 0.2j, 0.4]])
        self.memory = memory
        self.source = rng.normal(size=1 << 19)
        self.target = np.empty_like(self.source)
        self.np = np  # numpy loads only after the BLAS thread count is set

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(1500):
            total += (i * 7) % 13
        for _ in range(2):
            self.np.linalg.eigvalsh(self.stack)
        u, rho = self.unitary, self.rho
        for _ in range(75):
            rho = u @ rho @ u.conj().T
        if self.memory:
            self.np.copyto(self.target, self.source)
            pages = mmap.mmap(-1, 256 * mmap.PAGESIZE)
            view = self.np.frombuffer(pages, dtype=self.np.uint8)
            view[::mmap.PAGESIZE] = 1
            del view
            pages.close()
        return time.perf_counter() - start


def _run_pass(requests, caller, tracer, calibration) -> dict:
    latencies, calibrations, failures, measured = [], [], [], {}
    pass_start = time.perf_counter()
    for index, req in enumerate(requests):
        calibrations.append(calibration())
        if tracer is not None:
            tracer.request = index
        error = None
        start = time.perf_counter()
        try:
            result = req.run(caller, req.data)
        except Exception as exc:  # a failing request is counted, not fatal
            error = exc
        end = time.perf_counter()
        latencies.append(end - start)
        if error is None:
            try:
                for name, value in req.check(req.data, result).items():
                    measured[name] = measured.get(name, 0) + value
            except Exception as exc:
                error = exc
        result = None  # free large outputs before the next request starts
        if tracer is not None:
            tracer.request_span(index, req.kind, start, end, error is None)
        if error is not None:
            failures.append(f"{req.kind}{req.size}: {type(error).__name__}: {error}")
    calibrations.append(calibration())
    # Each latency over the mean of the kernel times just before and just after it.
    in_cal = [t / ((a + b) / 2) for t, a, b in zip(latencies, calibrations, calibrations[1:])]
    return {"wall": sum(latencies), "latencies": latencies, "in_cal": in_cal, "cal": statistics.fmean(calibrations),
            "elapsed": time.perf_counter() - pass_start, "failures": failures, "measured": measured}


def _measure(requests, seconds: float, trace: bool, span_path: Path | None, probe, memory_bound: bool):
    """Untraced passes (``trace`` off) or alternating untraced/traced passes until ``seconds`` are spent.

    After each pass, until ``SETUP_SAMPLES - 1`` are taken, ``probe()``
    times one set-up in a fresh process, so the set-up samples spread over
    the run as the passes do.  Returns the passes and the probe times.
    """
    from layers import Tracer, direct

    passes, probes = [], []
    calibration = Calibration(memory_bound)
    calibration()  # first call loads the code paths the kernel uses
    start = time.perf_counter()
    handle = open(span_path, "w") if span_path is not None else None
    try:
        while True:
            tracer = Tracer() if trace and len(passes) % 2 == 1 else None
            result = _run_pass(requests, tracer or direct, tracer, calibration)
            result["traced"] = tracer is not None
            if tracer is not None:
                result["layers"] = tracer.layer_totals()
                tracer.dump(handle, len(passes))
            passes.append(result)
            if len(probes) < SETUP_SAMPLES - 1:
                probes.append(probe())
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["elapsed"] for p in passes)
            if elapsed + typical > seconds and (not trace or len(passes) >= 2):
                probes += [probe() for _ in range(SETUP_SAMPLES - 1 - len(probes))]
                return passes, probes
    finally:
        if handle is not None:
            handle.close()


def _quartiles(values) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def _request_medians(passes, key: str) -> list[float]:
    """Each request's median over the given passes of ``latencies`` (s) or ``in_cal`` (cal)."""
    return [statistics.median(x) for x in zip(*(p[key] for p in passes))]


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _latency_by_kind(requests, latencies) -> dict:
    """Median and largest of the per-request median latencies (ms) of each request kind."""
    by_kind: dict = {}
    for req, latency in zip(requests, latencies):
        by_kind.setdefault(req.kind, []).append(latency * 1e3)
    return {kind: {"p50": statistics.median(v), "max": max(v), "requests": len(v)}
            for kind, v in sorted(by_kind.items())}


def _environment(threads: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _layer_units() -> dict:
    from layers import Tracer

    units = {name: ("s" if name.endswith(".s") else "count") for name in Tracer().layer_totals()}
    units.update(COUNT_UNITS)
    units["trace_overhead_s"] = "s"
    return units


def run_workload(args) -> int:
    threads = _blas_threads()
    workdir = tempfile.mkdtemp(prefix="run-", dir=_work_dir())
    try:
        t0 = time.perf_counter()
        module, requests = _setup(args.workload, args.seed, workdir)
        setup_main = time.perf_counter() - t0
        if args.probe_setup:
            print(repr(setup_main))
            return 0

        declared_e2e, declared_layers = _declared_metrics()
        if declared_e2e != END_TO_END_UNITS or declared_layers != _layer_units():
            sys.exit("BENCHMARK.json metrics differ from the ones this benchmark measures")
        _self_check(module, requests, args.seed, workdir)

        span_path = None
        if args.trace:
            span_path = _work_dir() / f"spans-{args.workload}-seed{args.seed}.jsonl"
        passes, probes = _measure(requests, args.seconds, bool(args.trace), span_path,
                                  lambda: _probe_setup(args.workload, args.seed), module.MEMORY_BOUND)
        setup = [setup_main] + probes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counted = passes if args.trace else untraced
    attempted = sum(len(p["latencies"]) for p in counted)
    failures = [f for p in counted for f in p["failures"]]
    in_cal = _request_medians(untraced, "in_cal")
    wall_cal = sum(in_cal)
    op_p90_cal = _p90(in_cal)
    latencies = _request_medians(untraced, "latencies")
    wall_s = statistics.median(p["wall"] for p in untraced)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_per_pass": len(requests),
        "request_kinds": _latency_by_kind(requests, latencies),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": {"value": len(failures) / attempted, "unit": "fraction"},
        "failures": failures[:5],
        "setup_s": {**_quartiles(setup), "unit": "s"},
        "calibration_ms": {**_quartiles([p["cal"] * 1e3 for p in untraced]), "unit": "ms"},
        "wall_cal": {"value": wall_cal, "passes": len(untraced),
                     "pass_quartiles": _quartiles([sum(p["in_cal"]) for p in untraced]), "unit": "cal"},
        "op_p90_cal": {"value": op_p90_cal, "samples": len(in_cal),
                       "beyond": sum(x > op_p90_cal for x in in_cal), "unit": "cal"},
        "wall_s": {**_quartiles([p["wall"] for p in untraced]), "unit": "s"},
        "op_p90_ms": {"value": _p90(latencies) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "environment": _environment(threads),
    }
    if args.trace:
        metrics = _layer_metrics(traced, requests, wall_s)
        report["traced_wall_s"] = {**_quartiles([p["wall"] for p in traced]), "unit": "s"}
        report["trace_overhead_s"] = metrics["trace_overhead_s"]
        report["spans"] = str(span_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_cal": {"value": wall_cal, "unit": "cal"},
            "op_p90_cal": {"value": op_p90_cal, "unit": "cal"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def _layer_metrics(traced, requests, untraced_wall_s: float) -> dict:
    """Per-layer values: busy seconds from the fastest traced pass, failures from the worst.

    ``trace_overhead_s`` is the median traced pass time minus the median
    untraced one, in seconds as measured.
    """
    units = _layer_units()
    values = {name: (max if name.endswith(".failed") else min)(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    for name in COUNT_UNITS:
        values[name] = sum(r.counts.get(name, 0) for r in requests)
    values["cli.bytes_written"] = traced[0]["measured"].get("cli.bytes_written", 0)
    values["trace_overhead_s"] = statistics.median(p["wall"] for p in traced) - untraced_wall_s
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _work_dir() -> Path:
    path = BENCH_DIR / ".work"
    path.mkdir(exist_ok=True)
    return path


def run_all(args) -> int:
    """Each workload in its own process, so one workload's peak memory does not leak into the next."""
    results = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        lines = out.stdout.strip().splitlines()
        results[workload] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))

    shown = {"trace_overhead_s": "s"} if args.trace else dict(END_TO_END_UNITS)
    # Raw figures from the report line, beside the result's metrics.
    from_report = {"wall_s": ("s", "median"), "op_p90_ms": ("ms", "value"), "failed_frac": ("fraction", "value")}
    shown.update((name, unit) for name, (unit, _) in from_report.items())
    print(f"{'metric':<18}{'unit':<10}" + "".join(f"{w:>18}" for w in WORKLOADS))
    for name, unit in shown.items():
        cells = []
        for workload in WORKLOADS:
            report, final = results[workload]
            if name in from_report:
                value = report[name][from_report[name][1]]
            else:
                value = final["metrics"][name]["value"]
            cells.append(f"{value:>18.6g}")
        print(f"{name:<18}{unit:<10}" + "".join(cells))
    print(json.dumps({
        "correct": all(final["correct"] for _, final in results.values()),
        "attempted": sum(final["attempted"] for _, final in results.values()),
        "failed": sum(final["failed"] for _, final in results.values()),
        "metrics": {f"{w}.{name}": m for w, (_, final) in results.items() for name, m in final["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
