"""dpcount benchmark: one seeded workload per run, checked, timed, and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and writes only under the checkout (a temporary
``.perfbench-*`` directory, removed at exit, and span dumps in
``.perfbench-out/``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes on the
same inputs and reports the per-layer metrics and the tracing overhead.
Every time in the JSON result is normalised to a reference host speed by a
calibration loop run around and during each pass (see hostspeed.py); the
raw times are printed beside them.
The last line of standard output is one JSON object; the lines before it
repeat the metrics for people, with units, bases and sample counts.
Exit code 1 means a wrong output and 2 means the run could not start;
neither prints a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = {"full": 15, "tiny": 3}
P99_MIN_SAMPLES = 1000  # at least ten samples must lie beyond the 99th percentile

sys.path.insert(0, str(HERE))
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracing import Tracer, installed, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, GateError, Pass  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    return parser.parse_args(argv)


def workload_env() -> dict[str, str]:
    """The environment of every workload process: no user cache, package from src/."""
    env = {key: value for key, value in os.environ.items() if key != "DPCOUNT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(ks: tuple[int, ...]) -> tuple[float, float]:
    """One cold set-up time in a fresh interpreter, as (normalised, raw) seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *map(str, ks)],
        env=workload_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    raw, calibration = map(float, proc.stdout.split())
    return raw * REFERENCE_S / calibration, raw


def import_package():
    os.environ.pop("DPCOUNT_CACHE", None)
    sys.path.insert(0, str(SRC))
    import dpcount
    import dpcount.cli
    import dpcount.verify

    return dpcount


def warm(dp, ks) -> None:
    dp.GWEngine()
    for k in ks:
        dp.minus_one_classes(k)
        dp.lattice.minus_one_class_set(k)
        dp.divisor_pool(k)


def timed_pass(workload, index: int, speed: HostSpeed, sample: bool = True) -> Pass:
    """One pass, calibrated before and after and, if `sample`, from a timer inside."""
    speed.calibrate()
    if sample:
        with speed.sampling():
            result = workload.run_pass(index)
    else:
        result = workload.run_pass(index)
    speed.calibrate()
    result.finish(speed)
    return result


def run_untraced(workload, seconds: float, setups: int, speed: HostSpeed):
    """Passes until `seconds` have gone by, with the set-up probes spread between them."""
    passes: list[Pass] = []
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        index = len(passes) if workload.varies_by_pass else 0
        workload.prepare(index)
        passes.append(timed_pass(workload, index, speed))
        if len(setup) < setups:
            setup.append(measure_setup(workload.ks))
    while len(setup) < setups:
        setup.append(measure_setup(workload.ks))
    return passes, setup


def run_traced(dp, workload, seconds: float, tracer: Tracer, speed: HostSpeed):
    """Rounds of one untraced and one traced pass on the same inputs, order alternating."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        index = len(plain) if workload.varies_by_pass else 0
        workload.prepare(index)
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                with installed(tracer, dp):
                    # the timer's calibrations would land inside spans and inflate self times
                    traced.append(timed_pass(workload, index, speed, sample=False))
            else:
                plain.append(timed_pass(workload, index, speed))
        if plain[-1].digest != traced[-1].digest:
            raise GateError("traced and untraced passes produced different program output")
    return plain, traced


def p99_line(latencies: list[float]) -> str:
    n = len(latencies)
    if n < P99_MIN_SAMPLES:
        return f"item_p99_ms      not reported: {n} item samples, needs {P99_MIN_SAMPLES}"
    return f"item_p99_ms      {statistics.quantiles(latencies, n=100)[98] * 1000:.6g} ms  (n={n} item samples)"


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]], speed: HostSpeed, pooled: bool):
    """The end-to-end metrics and their lines for people.

    Passes on the same inputs give medians over passes.  Passes that each
    draw fresh inputs (`pooled`) are samples of one distribution with a
    heavy tail, so their times are pooled over the run instead.
    """
    total_s = sum(p.seconds for p in passes)
    raw_s = sum(p.raw_seconds for p in passes)
    items = sum(p.items for p in passes)
    skipped = sum(p.skipped for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    n = len(passes)
    if pooled:
        wall = (total_s / n, f"mean of {n} passes; raw {raw_s / n:.6g} s")
        rate = (items / total_s, f"pooled; {items} items in {total_s:.3f} s")
    else:
        wall = (
            statistics.median(p.seconds for p in passes),
            f"median of {n} passes; raw {statistics.median(p.raw_seconds for p in passes):.6g} s",
        )
        rate = (statistics.median(p.items / p.seconds for p in passes), f"median over passes; {items} items in {total_s:.3f} s")
    if passes[0].mean_latency:
        p50 = (1 / rate[0], f"{'pooled' if pooled else 'median'} over {n} passes, mean time per item")
    else:
        p50 = (statistics.median(latencies), f"n={len(latencies)} item samples")
    values = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": wall[0],
        "items_per_s": rate[0],
        "item_p50_ms": p50[0] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    bases = {
        "setup_s": f"median of {len(setup)} cold set-ups; raw {statistics.median(r for _, r in setup):.6g} s",
        "wall_s": wall[1],
        "items_per_s": rate[1],
        "item_p50_ms": p50[1],
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    metrics = as_result(values, "end_to_end")
    lines = [f"{name:<16} {m['value']:.6g} {m['unit']}  ({bases[name]})" for name, m in metrics.items()]
    if passes[0].mean_latency:
        lines.append("item_p99_ms      not reported: items are not timed one by one on this workload")
    else:
        lines.append(p99_line(latencies))
    lines.append(
        f"calibration      median {statistics.median(speed.seconds) * 1000:.4g} ms over {len(speed.seconds)} loops "
        f"(times above are scaled to a {REFERENCE_S * 1000:g} ms loop)"
    )
    lines.append(
        f"failed_frac      {skipped / max(items + skipped, 1):.6g}  ({skipped} of {items + skipped} items skipped or raised)"
    )
    return metrics, lines


def per_layer(tracer: Tracer, plain: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    values = layer_metrics(tracer, len(traced))
    values["cli.rows_out"] = statistics.mean(p.rows_out for p in traced)
    values["cli.bytes_out"] = statistics.mean(p.bytes_out for p in traced)
    # every round runs one untraced and one traced pass on the same inputs
    untraced_s = sum(p.seconds for p in plain)
    traced_s = sum(p.seconds for p in traced)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    items = sum(p.items for p in plain)
    skipped = sum(p.skipped for p in plain)
    values["failed_frac"] = skipped / max(items + skipped, 1)
    metrics = as_result(values, "per_layer")
    lines = [f"{name:<36} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"(per pass, means over {len(traced)} traced passes; overhead is traced passes "
        f"{traced_s:.4g} s over untraced passes {untraced_s:.4g} s, both summed over {len(traced)} rounds)"
    )
    return metrics, lines


def as_result(values: dict[str, float], kind: str) -> dict:
    """Exactly the metrics BENCHMARK.json lists under `kind`, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "dpcount" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dpcount'}; run from a dpcount checkout", file=sys.stderr)
        return 2
    dp = import_package()
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            speed = HostSpeed()
            workload = WORKLOADS[args.workload](dp, args.seed, args.size, workdir, reference)
            warm(dp, workload.ks)
            print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
            if args.trace:
                tracer = Tracer()
                plain, traced = run_traced(dp, workload, args.seconds, tracer, speed)
                passes = plain + traced
                metrics, lines = per_layer(tracer, plain, traced)
                spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.size}.tsv"
                tracer.write(str(spans))
                lines.append(f"spans written to {spans.relative_to(ROOT)} ({len(tracer.names)} spans)")
            else:
                passes, setup = run_untraced(workload, args.seconds, SETUP_PROBES[args.size], speed)
                metrics, lines = end_to_end(passes, setup, speed, workload.varies_by_pass)
            workload.check(passes)
        except GateError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1

    for line in lines:
        print(f"  {line}")
    print(f"  output_sha256    {passes[0].digest}  (first pass, program stdout and stderr)")
    attempted = sum(p.calls for p in passes)
    failed = sum(p.failed_calls for p in passes)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
