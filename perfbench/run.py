"""Graphsurge benchmark: collection creation + per-view analytics.

Run from the repository root::

    python3 perfbench/run.py --workload slide-wcc-diff --seed 1 --seconds 14 --trace 0

Each run starts one single-process Spark session, sets up the workload's
inputs from ``--seed``, runs untimed warm-up iterations, then runs
iterations (set up → build collection → run the algorithm over every view)
for ``--seconds``, at least the workload's ``min_timed``, and reports
medians over them. Every iteration's outputs go through the oracle gate
(``gate.py``) after timing.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics, the tracing
overhead among them.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record (provenance, every metric, per
iteration values), which is also appended to ``perfbench/out/records.jsonl``.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True  # leave no caches in the checkout
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Session settings. The session comes from the user entrypoint
#: ``jobs/_session.get_spark`` (Arrow on, auto-broadcast off); master, driver
#: memory and shuffle partitions are pinned here so every commit runs alike,
#: and console progress is turned off.
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "8"

#: Untimed warm-up iterations. The first iteration of a run takes about
#: twice a warm one, and the second is still faster or slower with the run;
#: the third is the first whose time spreads little between runs.
WARMUPS = 2

#: Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _layer_metrics(tr, it: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (see NOTES.md)."""
    c = tr.counts
    affected = c["engine.affected"]
    return {
        "session.start_s": it["session_s"],
        "storage.import_s": tr.total("storage.import"),
        "ebm.s": tr.self_time("collection"),
        "ebm.spark_jobs": tr.jobs("collection"),
        "ebm.rows": it["ebm_rows"],
        "ordering.hamming_s": tr.total("ordering.hamming"),
        "ordering.hamming_jobs": tr.jobs("ordering.hamming"),
        "ordering.tsp_s": tr.self_time("ordering"),
        "diffstream.counts_s": tr.total("diffstream.counts"),
        "diffstream.sizes_s": tr.total("diffstream.sizes"),
        "diffstream.spark_jobs": tr.jobs("diffstream.counts") + tr.jobs("diffstream.sizes"),
        "collection.view_edges_s": tr.total("collection.view_edges"),
        "collection.view_edges_rows": c["collection.view_edges.rows"],
        "collection.view_edges_calls": tr.calls("collection.view_edges"),
        "collection.delta_s": tr.total("collection.delta"),
        "collection.delta_rows": c["collection.delta.rows"],
        "collection.delta_calls": tr.calls("collection.delta"),
        "cct.unreported_s": it["cct_s"] - it["cct_reported_s"],
        "engine.view_build_s": tr.total("engine.view_build"),
        "engine.view_build_jobs": tr.jobs("engine.view_build"),
        "engine.run_view_s": tr.total("engine.run_view"),
        "engine.views_s": it["views_s"],
        "engine.spark_rounds": c["engine.spark_rounds"],
        "engine.local_rounds": c["engine.local_rounds"],
        "engine.iters": c["engine.iters"],
        "engine.affected": affected,
        "engine.changed": c["engine.changed"],
        "engine.useful_ratio": c["engine.changed"] / affected if affected else 0.0,
        "engine.spark_jobs": tr.jobs("engine.run_view"),
        "executor.analytics_s": it["analytics_s"],
        "executor.self_s": tr.self_time("executor"),
        "spark.to_jvm_s": c["spark.to_jvm.s"],
        "spark.to_jvm_rows": c["spark.to_jvm.rows"],
        "spark.to_jvm_calls": c["spark.to_jvm.calls"],
        "spark.to_py_s": c["spark.to_py.s"],
        "spark.to_py_rows": c["spark.to_py.rows"],
        "spark.to_py_calls": c["spark.to_py.calls"],
        "spark.jobs": tr.jobs(),
        "spark.jobs_failed": sum(s.jobs_failed for s in tr.spans),
    }


# ------------------------------------------------------------------ session
def start_session():
    """One local Spark session whose scratch files stay under ``OUT``."""
    local = OUT / "spark-local"
    tmp = OUT / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that builds the command
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = SHUFFLE_PARTITIONS
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", MASTER,
        "--driver-memory", DRIVER_MEMORY,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={local}"),
        "--conf", shlex.quote(f"spark.driver.extraJavaOptions={java_opts}"),
        "pyspark-shell",
    ])
    from jobs._session import get_spark

    return get_spark("perfbench")


def jvm_peak_rss_mb(spark) -> float:
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    try:
        with open(f"/proc/{proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except (AttributeError, OSError, ValueError):
        pass
    return 0.0


def stop_session(spark) -> None:
    """Stop Spark and wait for the gateway JVM (and its Python workers)."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------- iteration
def run_iteration(wl, spark, tracer=None) -> tuple[dict, object]:
    """One set-up → collection → analytics pass; returns (timings, handles)."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("iteration"):
        t0 = time.perf_counter()
        with span("setup"):
            inputs = wl.generate()
            state = wl.setup(spark, inputs, span)
        t1 = time.perf_counter()
        with span("collection"):
            coll = wl.create(spark, state)
        t2 = time.perf_counter()
        with span("executor"):
            report = wl.analytics(coll)
        t3 = time.perf_counter()
    it = {
        "setup_s": t1 - t0,
        "cct_s": t2 - t1,
        "analytics_s": t3 - t2,
        "job_s": t3 - t1,
        "cct_reported_s": float(coll.cct.get("total", 0.0)),
        "views_s": report.total_seconds if report is not None else 0.0,
        "n_diffs": int(sum(coll.diff_counts)),
        "k": coll.k,
    }
    return it, (inputs, state, coll, report)


def _median(rows: list[dict], key: str) -> float:
    return float(statistics.median(r[key] for r in rows))


def measure(wl, spark, seconds: float, trace: bool) -> dict:
    """Warm up, then iterate for ``seconds`` (alternating untraced and
    traced with ``trace``). The last iteration's collection stays cached until
    the peak RSS is read, so the gate can fetch its EBM afterwards."""
    from tracing import Tracer

    session_s = time.perf_counter() - T_PROCESS
    iters: list[dict] = []  # every iteration, warm-up first
    outputs = []

    def one(timed: bool, traced: bool):
        tracer = Tracer(spark.sparkContext, tag=f"pb{len(iters)}") if traced else None
        with tracer.instrument(spark) if traced else nullcontext():
            it, h = run_iteration(wl, spark, tracer)
        it.update(timed=timed, traced=traced, session_s=session_s)
        outputs.append(wl.outputs(h[2], h[3]))
        if traced:
            tracer.collect_jobs()
            it["ebm_rows"] = h[2].ebm.count()
            it["layers"] = _layer_metrics(tracer, it)
            it["trace"] = tracer.dump()
        iters.append(it)
        return h

    wl.prepare(spark)
    for _ in range(WARMUPS):
        wl.teardown(*one(timed=False, traced=False)[1:3])
    # Iterations keep getting faster for a while after the warm-up, so a
    # traced run alternates untraced and traced ones in ABBA blocks: both
    # then see the same drift, and the difference of their medians is the
    # tracing overhead.
    pattern = [False, True, True, False] if trace else [False]
    start = time.perf_counter()
    n = 0
    while True:
        h = one(timed=True, traced=pattern[n % len(pattern)])
        n += 1
        if (n % len(pattern) == 0 and n >= wl.min_timed
                and time.perf_counter() - start >= seconds):
            break
        wl.teardown(*h[1:3])
    last = h
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    jvm_rss = jvm_peak_rss_mb(spark)
    wl.fetch_ebm(last[2], outputs[-1])
    wl.teardown(*last[1:3])
    return {"iters": iters, "outputs": outputs, "peak_rss_mb": peak_rss_mb,
            "jvm_peak_rss_mb": jvm_rss, "session_s": session_s}


def gate_outputs(wl, outputs, corrupt_view: int | None) -> list[int]:
    """Number of wrong views per iteration (oracle gate, outside timing)."""
    import gate

    if corrupt_view is not None:  # self-test: the gate must notice this
        for out in outputs:
            if out.results is not None:
                out.results[corrupt_view].iloc[0] += 1.0
            else:
                out.diff_counts[corrupt_view] += 1
    expected = wl.reference(wl.generate())
    return [sum(gate.check(expected, out)) for out in outputs]


def provenance(args, wl) -> dict:
    import numpy
    import pandas
    import pyspark

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "spark_master": MASTER,
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": int(SHUFFLE_PARTITIONS),
        "arrow": True,
        "auto_broadcast": False,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "workload": wl.name,
        "seed": args.seed,
        "scale": args.scale,
        "params": wl.params,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def summarize(args, wl, res: dict, wrong: list[int]) -> tuple[dict, dict]:
    iters = res["iters"]
    timed = [it for it in iters if it["timed"]]
    plain = [it for it in timed if not it["traced"]]
    traced = [it for it in timed if it["traced"]]
    attempted = sum(it["k"] for it in iters)
    failed = sum(wrong)
    e2e = {
        "setup_s": res["session_s"] + _median(plain, "setup_s"),
        "cct_s": _median(plain, "cct_s"),
        "job_s": _median(plain, "job_s"),
        "n_diffs": _median(plain, "n_diffs"),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record_metrics = {
        **e2e,
        "analytics_s": _median(plain, "analytics_s"),
        "views_s": _median(plain, "views_s"),
        "wrong_frac": failed / attempted,
    }
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    if args.trace:
        layers = {
            name: float(statistics.median(it["layers"][name] for it in traced))
            for name in traced[0]["layers"]
        }
        layers["spark.jvm_peak_rss_mb"] = res["jvm_peak_rss_mb"]
        layers["trace.overhead_s"] = _median(traced, "job_s") - _median(plain, "job_s")
        layers["oracle.wrong_frac"] = failed / attempted
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        record_metrics.update(layers)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {
        "provenance": provenance(args, wl),
        "metrics": record_metrics,
        "iterations": [
            {k: v for k, v in it.items() if k != "trace"} for it in iters
        ],
        "wrong_views": wrong,
    }
    return summary, record


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("tiny", "bench", "full"), default="bench")
    ap.add_argument("--corrupt-view", type=int, default=None,
                    help="self-test only: corrupt this view's result before the gate")
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "repro" / "__init__.py", ROOT / "jobs" / "_session.py"):
        if not need.is_file():
            print(f"perfbench: program source not found: {need}", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    wl = workloads.make(args.workload, args.scale, args.seed)
    spark = start_session()
    try:
        res = measure(wl, spark, args.seconds, bool(args.trace))
    except Exception:  # a raised exception fails every view of the run
        traceback.print_exc()
        stop_session(spark)
        k = wl.n_views()
        print(json.dumps({"correct": False, "attempted": k, "failed": k, "metrics": {}}))
        return 1
    stop_session(spark)
    wrong = gate_outputs(wl, res["outputs"], args.corrupt_view)
    summary, record = summarize(args, wl, res, wrong)
    line = json.dumps(record, default=float)
    with open(OUT / "records.jsonl", "a") as f:
        f.write(line + "\n")
    if args.trace:
        spans = [it["trace"] for it in res["iters"] if "trace" in it]
        with open(OUT / f"spans-{wl.name}-{args.seed}.json", "w") as f:
            json.dump(spans, f)
    print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
