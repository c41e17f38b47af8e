"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload airlines_tml --seed 0 --seconds 6 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  A run starts Spark on ``local[4]`` with the
session settings of ``conftest.py`` (64 shuffle partitions, Arrow on,
broadcast joins off), then:

1. sets up ``1 + SETUP_REPS`` times — start the session, generate the
   inputs from ``--seed``, cache and count them — times all but the first,
   which launches the JVM, and keeps the last set-up;
2. runs ``WARMUP_JOBS`` untimed warm-up jobs;
3. with ``--trace 0``, runs jobs for ``--seconds`` (at least one) and prints
   the end-to-end metrics; with ``--trace 1``, alternates untraced and
   traced jobs for ``--seconds``, runs the workload's ``after_jobs`` (the
   Catalyst flag query and once-per-run checks) and prints the per-layer
   metrics.

Every job's output is checked; a job that raises or fails a check counts as
failed and the run goes on.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced
run are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

``--smoke`` runs every workload once at a small ``--scale`` with each trace
setting, and fails unless every metric named in ``BENCHMARK.json`` is
printed with its unit and every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TMP = OUT / "tmp"

#: timed set-ups per run; ``setup_s`` is their median.  An untimed set-up
#: runs first: it launches the JVM (~10 s) and pays first-use costs that
#: make it 2-4x slower than the next one, which would leave the median at
#: the slower of the other two.
SETUP_REPS = 3
#: untimed jobs before measuring: the first runs 1.5-1.8x slower
WARMUP_JOBS = 1
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
#: row-count multiplier for ``--smoke``: every check still passes at it
SMOKE_SCALE = 0.1


def _configure_spark_env() -> None:
    """Point Spark, its JVM and its Python workers at the checkout only."""
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options -Djava.io.tmpdir={TMP} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.ui.showConsoleProgress=false --conf spark.local.dir={TMP} "
        "pyspark-shell"
    )


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM for process {pid}")


def summary(values: list[float]) -> str:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    tail = [p for p in (99.9, 99, 95, 90, 75, 50) if n * (1 - p / 100) >= 10]
    if tail:
        p = tail[0]
        q = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
        hi = f"p{p:g}={q:.6g}"
    else:
        hi = "no percentile has 10 samples beyond it"
    shown = " ".join(f"{v:.4g}" for v in values[:20])
    return f"median={statistics.median(values):.6g} n={n} {hi}; samples: {shown}"


class Run:
    """One benchmark run: set-up, warm-up, measured jobs, failure counts."""

    def __init__(self, workload, seed: int) -> None:
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.spark = None
        self.first_setup_s = 0.0
        self.setup: dict[str, list[float]] = {
            "setup_s": [], "setup.session_s": [], "datasets.gen_s": [], "setup.cache_s": []
        }

    def set_up(self) -> None:
        for _ in range(1 + SETUP_REPS):
            if self.spark is not None:
                self.spark.stop()
            self.wl.rows_of.clear()
            t0 = time.perf_counter()
            self.spark = start_session()
            t1 = time.perf_counter()
            pdfs = self.wl.generate(self.seed)
            t2 = time.perf_counter()
            self.wl.materialize(self.spark, pdfs)
            t3 = time.perf_counter()
            del pdfs
            for key, value in (
                ("setup_s", t3 - t0), ("setup.session_s", t1 - t0),
                ("datasets.gen_s", t2 - t1), ("setup.cache_s", t3 - t2),
            ):
                self.setup[key].append(value)
        self.first_setup_s = self.setup["setup_s"][0]
        for values in self.setup.values():
            del values[0]

    def attempt(self, fn, *args) -> float | None:
        """Seconds ``fn(*args)`` took, or None if it raised (counted as failed)."""
        from workloads import CheckFailed

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            fn(*args)
        except CheckFailed as e:
            self.failed += 1
            print(f"check failed: {e}", file=sys.stderr)
            return None
        except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
            self.failed += 1
            traceback.print_exc()
            return None
        return time.perf_counter() - t0

    def warm_up(self) -> None:
        from workloads import Phases

        secs = [self.attempt(self.wl.job, Phases()) for _ in range(WARMUP_JOBS)]
        reps = " ".join(f"{v:.2f}" for v in self.setup["setup_s"])
        shown = " ".join("failed" if s is None else f"{s:.2f}" for s in secs)
        print(f"first set-up (launches the JVM, untimed): {self.first_setup_s:.2f} s; "
              f"set-ups: {reps} s; warm-up jobs: {shown} s")

    def pids(self) -> list[int]:
        return [os.getpid(), int(self.spark._jvm.java.lang.ProcessHandle.current().pid())]


def measure_untraced(run: Run, seconds: float) -> dict[str, tuple[float, list[float]]]:
    """End-to-end metrics as ``{name: (value, samples)}``; empty if every job failed."""
    from workloads import Phases

    jobs, discover, score, explain = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        ph = Phases()
        secs = run.attempt(run.wl.job, ph)
        if secs is not None:
            jobs.append(secs)
            discover += ph.seconds("discover")
            for name, out in (("score", score), ("explain", explain)):
                rate = ph.rate(name)
                if rate is not None:
                    out.append(rate)
        if time.perf_counter() >= deadline:
            break
    if not jobs:
        return {}
    out = {
        "job_s": (statistics.median(jobs), jobs),
        "discover_s": (statistics.median(discover), discover),
        "setup_s": (statistics.median(run.setup["setup_s"]), run.setup["setup_s"]),
    }
    # printed but not in the JSON: only some workloads run these phases
    for name, values in (("score_rows_per_s", score), ("explain_tuples_per_s", explain)):
        if values:
            out[name] = (statistics.median(values), values)
    return out


def measure_traced(run: Run, seconds: float) -> dict[str, float] | None:
    from spans import JOB, Tracer, layer_metrics
    from workloads import Phases

    tracer = Tracer(run.spark.sparkContext, run.wl.rows_of)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        secs = run.attempt(run.wl.job, Phases())
        if secs is not None:
            untraced.append(secs)
        mark = len(tracer.spans)

        def traced_job():
            with tracer.installed(), tracer.span(JOB):
                run.wl.job(Phases())

        secs = run.attempt(traced_job)
        if secs is None:
            del tracer.spans[mark:]
        else:
            traced.append(secs)
        if time.perf_counter() >= deadline:
            break
    if not (untraced and traced):
        return None
    # wrappers off: only the benchmark's own spans (the Catalyst query) record
    ph = Phases()
    run.attempt(run.wl.after_jobs, ph, tracer)
    for secs in ph.seconds("flag"):
        print(f"flag_s {secs:.6g} s (one TML flag query, n=1)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run.wl.name}-seed{run.seed}.jsonl"
    tracer.write(str(path))
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    for key in ("datasets.gen_s", "setup.cache_s", "setup.session_s"):
        metrics[key] = statistics.median(run.setup[key])
    return metrics


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    """``{metric: unit}`` for a metric section of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def run_workload(args) -> int:
    _configure_spark_env()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.scale)
    run = Run(wl, args.seed)
    print(
        f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={args.scale:g} master={MASTER} sizes={wl.sizes()}"
    )
    try:
        run.set_up()
        run.warm_up()
        if args.trace:
            layer = measure_traced(run, args.seconds)
            if layer is None:
                print("error: no traced and untraced job pair succeeded", file=sys.stderr)
                return 1
            metrics = {k: {"value": layer[k], "unit": u} for k, u in units("per_layer").items()}
            for k, v in metrics.items():
                print(f"{k:40s} {v['value']:.6g} {v['unit']}")
        else:
            e2e = measure_untraced(run, args.seconds)
            if not e2e:
                print("error: every measured job failed", file=sys.stderr)
                return 1
            e2e_units = units("end_to_end")
            for k, (value, values) in e2e.items():
                print(f"{k:22s} {value:.6g} {e2e_units.get(k, '1/s'):4s} {summary(values)}")
            # printed but not in the JSON: the JVM's share follows the garbage
            # collector's heap growth, which varies by a quarter from run to run
            driver, jvm = (peak_rss_mb(pid) for pid in run.pids())
            print(f"{'peak_rss_mb':22s} {driver + jvm:.6g} MiB  driver {driver:.0f} + JVM {jvm:.0f}; "
                  "n=1 (peak over the run)")
            metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in e2e_units.items()}
        print(f"failed_frac {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    finally:
        stop_spark(run.spark)
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def smoke() -> int:
    """Each workload once per trace setting at ``SMOKE_SCALE``; check the output."""
    want = {trace: units(key) for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = 0
    for workload in (w["name"] for w in spec()["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "0", "--seconds", "0", "--trace", str(trace),
                   "--scale", str(SMOKE_SCALE)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
            except (IndexError, ValueError, KeyError, TypeError, AttributeError):
                result, got = {}, {}
            ok = proc.returncode == 0 and result.get("correct") is True and got == want[trace]
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"in {time.perf_counter() - t0:.0f} s")
            if not ok:
                problems += 1
                missing = sorted(set(want[trace].items()) - set(got.items()))
                print(f"  exit {proc.returncode}; missing or wrong metrics: {missing}")
                print("  " + "\n  ".join(proc.stderr.strip().splitlines()[-15:]))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="input seed (>= 0); 0 by default")
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                   help="measuring time per run; BENCHMARK.json's run_seconds by default")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0, help="row-count multiplier")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        p.error("--seed and --seconds must be >= 0 and --scale > 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
