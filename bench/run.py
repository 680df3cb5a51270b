"""ottosim benchmark: one seeded closed-loop workload per run.

    python3 bench/run.py --workload dense_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  The run generates its inputs from the
seed, then starts WORKERS fresh worker processes one after another, each
measuring its share of the seconds: one client in one single-threaded
process sends each request after the previous one completes, as a CLI user
waits for each report.  Several processes average out the speed a single
process gets from its memory layout.  BLAS/OpenMP pools are pinned to one
thread.

Each worker first times its set-up (import of ottosim plus the untimed
warm-up request), then serves whole blocks of requests.  Wall latencies are
also converted to reference time with a calibration loop (yardstick.py), so
that the gated metrics follow the program rather than the machine's load.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same blocks of requests, prints the
per-layer metrics (calls and self time per request at each traced public
function, see tracing.py), the trace overhead and the timings of the
reference cases, and writes the spans of each worker to ``.bench_out/``.
Every request's output is checked; the last stdout line is the JSON result,
and the exit code is 1 when any check failed, 2 when the checkout has no
program to run.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)  # before numpy is first imported

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKERS = 5             # worker processes per run, one after another
MIN_REQUESTS = 100      # per run; p90 then has ten samples beyond it
SEGMENT_S = 0.25        # request time between two calibration passes
PRIMING = 4             # untimed, checked requests per worker before timing starts
OUT_DIR = ROOT / ".bench_out"
GOLDEN_CSV = ROOT / "tests" / "data" / "golden_default.csv"

# requests per block: one of each size stratum and request kind
BLOCKS = {"dense_sweep": gen.DENSE_BLOCK,
          "noisy_report": len(gen.NOISE_SIGMAS) * (gen.NOISY_BLOCK_SWEEPS + gen.NOISY_BLOCK_GOLDEN),
          "circuit_mix": 4 * len(gen.MALFORMED_CLASSES)}


class NoProgram(RuntimeError):
    """The checkout holds no ottosim sources to benchmark."""


def check_checkout():
    src = ROOT / "src" / "ottosim" / "__init__.py"
    for path in (src, GOLDEN_CSV):
        if not path.is_file():
            raise NoProgram(f"no {path.relative_to(ROOT)} in the checkout")


def import_program():
    """Import ottosim from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ottosim

    if Path(ottosim.__file__).resolve().parent != (src / "ottosim").resolve():
        raise NoProgram(f"ottosim imported from {ottosim.__file__}, not from {src}")
    program = workloads.Program()
    # one filter in every run, so warning output costs the same on every commit
    warnings.simplefilter("ignore", program.tomography.UnphysicalStokesWarning)
    return program


class Tally:
    """Requests attempted, wrong outcomes, latencies and cycles of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.latencies = []
        self.ref_latencies = []
        self.passes = []
        self.cycles = 0

    def record(self, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def serve(wl, item, tally):
    """One timed request, then its untimed output check."""
    start = time.perf_counter()
    try:
        out = wl.request(item)
    except Exception as exc:  # any unexpected exception is a wrong outcome
        tally.latencies.append(time.perf_counter() - start)
        tally.record([f"{type(exc).__name__}: {exc}"])
        return
    tally.latencies.append(time.perf_counter() - start)
    tally.cycles += wl.cycles(item, out)
    tally.record(wl.check(item, out))


def closed_loop(wl, pool, start, seconds, block, min_requests):
    """Serve whole blocks of requests for ``seconds``; calibrate after each segment.

    Each request's reference latency scales its wall latency by the mean
    of the calibration passes before and after its segment.
    """
    import yardstick

    tally = Tally()
    tally.passes.append(yardstick.timed_pass())
    began = time.perf_counter()
    deadline, cap = began + seconds, began + 6 * seconds
    i = 0
    while True:
        first = len(tally.latencies)
        busy = 0.0
        while True:  # a segment ends at SEGMENT_S of requests or at a block's end
            serve(wl, pool[(start + i) % len(pool)], tally)
            busy += tally.latencies[-1]
            i += 1
            if busy >= SEGMENT_S or i % block == 0:
                break
        tally.passes.append(yardstick.timed_pass())
        scale = 2 * yardstick.REF_PASS_S / (tally.passes[-2] + tally.passes[-1])
        tally.ref_latencies += [lat * scale for lat in tally.latencies[first:]]
        now = time.perf_counter()
        if i % block == 0 and now >= deadline and (i >= min_requests or now >= cap):
            return tally


def traced_loop(wl, pool, start, seconds, block):
    """Alternate an untraced and a traced pass over each block of requests."""
    import yardstick

    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    i = start
    while time.perf_counter() < deadline:
        items = [pool[(i + k) % len(pool)] for k in range(block)]
        i += block
        for item in items:
            serve(wl, item, plain)
        plain.passes.append(yardstick.timed_pass())
        tracer.install()
        try:
            for item in items:
                tracer.request += 1
                tracer.span(tracing.REQUEST, serve, wl, item, traced)
        finally:
            tracer.remove()
    return plain, traced, tracer


def reference_table(program):
    """Untraced timings of the reference cases later changes cite; median of repeats."""
    runner, circuit, qcore = program.runner, program.circuit, program.qcore
    noise = random.Random(0).randbytes(24)

    def median_time(fn, repeat, inner=1):
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - start) / inner)
        return statistics.median(times)

    def parse_noise():
        try:
            circuit.parse(noise)
        except circuit.CircuitSyntaxError:
            pass

    report = runner.run_sweep()
    matrix = runner.run_cycle(22.5).snapshots["TA"].matrix.copy()
    noisy = runner.SweepConfig(noise_sigma=0.02)
    grid = runner.SweepConfig(theta_list_deg=[45.0 * k / 999 for k in range(1000)])
    return {
        "ref.run_cycle_22_5_ms": (median_time(lambda: runner.run_cycle(22.5), 30) * 1e3, "ms"),
        "ref.default_sweep_ms": (median_time(runner.run_sweep, 15) * 1e3, "ms"),
        "ref.noisy_sweep_0_02_ms": (median_time(lambda: runner.run_sweep(noisy), 15) * 1e3, "ms"),
        "ref.sweep_1000_ms": (median_time(lambda: runner.run_sweep(grid), 1) * 1e3, "ms"),
        "ref.emit_json_ms": (median_time(lambda: runner.emit(report, "json"), 30) * 1e3, "ms"),
        "ref.density_operator_us": (
            median_time(lambda: qcore.DensityOperator(matrix), 7, 500) * 1e6, "us"),
        "ref.parse_random_24_us": (median_time(parse_noise, 7, 500) * 1e6, "us"),
    }


def worker(args):
    """One worker process: set-up, then this worker's share of the requests."""
    pool = json.loads(Path(args.pool).read_text())
    block = BLOCKS[args.workload]
    start = time.perf_counter()
    program = import_program()
    imported = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        wl = workloads.build(args.workload, program, ROOT, Path(scratch))
        warm = wl.warmup()
        done = time.perf_counter()
        offset = args.worker * (len(pool) // WORKERS // block) * block
        out = {"import_s": imported - start, "first_s": done - imported, "warm_problems": warm}
        primed = Tally()
        for k in range(PRIMING):  # the paths the warm-up request skips
            serve(wl, pool[(offset - 1 - k) % len(pool)], primed)
        if args.trace:
            plain, traced, tracer = traced_loop(wl, pool, offset, args.seconds, block)
            tallies = (plain, traced)
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-worker{args.worker}.spans.jsonl.gz"
            tracer.write(spans)
            out.update(layers=tracing.layer_totals(tracer), traced_requests=traced.attempted,
                       traced_cycles=traced.cycles, traced_s=sum(traced.latencies),
                       plain_s=sum(plain.latencies))
            if args.worker == WORKERS - 1:
                out["reference"] = reference_table(program)
        else:
            tally = closed_loop(wl, pool, offset, args.seconds, block,
                                -(-MIN_REQUESTS // WORKERS))
            tallies = (tally,)
            out["ref_latencies"] = tally.ref_latencies
    tallies += (primed,)
    out.update(attempted=sum(t.attempted for t in tallies), failed=sum(t.failed for t in tallies),
               problems=[p for t in tallies for p in t.problems][:20],
               latencies=tallies[0].latencies, passes=tallies[0].passes,
               cycles=tallies[0].cycles,
               maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


def run_workers(args, pool_path):
    results = []
    for index in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--trace", str(args.trace), "--worker", str(index), "--pool", str(pool_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} failed: {proc.stderr.strip()[-2000:]}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def quantile_ms(latencies, percent):
    return statistics.quantiles(latencies, n=100, method="inclusive")[percent - 1] * 1e3


def wall_metrics(latencies, cycles, passes):
    """Wall-clock latency and throughput, as this machine delivered them."""
    busy = sum(latencies)
    return {"requests_per_s": (len(latencies) / busy, "1/s"),
            "request_p50_ms": (quantile_ms(latencies, 50), "ms"),
            "request_p90_ms": (quantile_ms(latencies, 90), "ms"),
            "cycles_per_s": (cycles / busy, "1/s"),
            "calibration_pass_ms": (statistics.median(passes) * 1e3, "ms")}


def end_to_end(results):
    ref = [lat for r in results for lat in r["ref_latencies"]]
    ref_busy = sum(ref)
    cycles = sum(r["cycles"] for r in results)
    return {
        "setup_s": (statistics.median(r["import_s"] + r["first_s"] for r in results), "s"),
        "requests_per_ref_s": (len(ref) / ref_busy, "1/ref_s"),
        "request_p50_ref_ms": (quantile_ms(ref, 50), "ref_ms"),
        "request_p90_ref_ms": (quantile_ms(ref, 90), "ref_ms"),
        "cycles_per_ref_s": (cycles / ref_busy, "1/ref_s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in results), "MB"),
    }


def per_layer(results):
    totals = {}
    for r in results:
        for key, value in r["layers"].items():
            totals[key] = totals.get(key, 0) + value
    requests = sum(r["traced_requests"] for r in results)
    metrics = tracing.layer_metrics(totals, requests, sum(r["traced_cycles"] for r in results))
    metrics["trace.overhead_frac"] = (
        1.0 - sum(r["plain_s"] for r in results) / sum(r["traced_s"] for r in results), "ratio")
    metrics["setup.import_ms"] = (statistics.median(r["import_s"] for r in results) * 1e3, "ms")
    metrics["setup.first_request_ms"] = (
        statistics.median(r["first_s"] for r in results) * 1e3, "ms")
    metrics.update(results[-1]["reference"])
    return metrics


def commit():
    """The checked-out commit, when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": commit(), "threads": PINNED_THREADS, "workers": WORKERS}


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description="ottosim closed-loop benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--pool", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        return worker(args)
    try:
        check_checkout()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    pool = gen.generate(args.workload, args.seed)
    digest = gen.digest(pool)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        pool_path = scratch / "pool.json"
        pool_path.write_text(json.dumps(pool))
        results = run_workers(args, pool_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] + 1 for r in results)  # + each warm-up request
    failed = sum(r["failed"] + bool(r["warm_problems"]) for r in results)
    problems = [p for r in results for p in r["warm_problems"] + r["problems"]]
    latencies = [lat for r in results for lat in r["latencies"]]
    wall = wall_metrics(latencies, sum(r["cycles"] for r in results),
                        [p for r in results for p in r["passes"]])
    if args.trace:
        metrics = per_layer(results)
        metrics.update({f"wall.{k}": v for k, v in wall.items()})
        wall = {}
    else:
        metrics = end_to_end(results)
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_digest": digest, "env": environment(),
              "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "problems": problems[:50], "metrics": as_json(metrics), "wall": as_json(wall)}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# env {json.dumps(record['env'])}")
    print(f"# inputs {args.workload} seed {args.seed} digest {digest}")
    for name, (value, unit) in {**metrics, **wall}.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'failed_frac':36s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    for problem in problems[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
