"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up (imports, timed in fresh
interpreters, and the categories and rigid structures the workload uses but
does not time) is repeated several times and reported as a median.  Then
the workload's item list is run in passes, each on a fresh set-up, until S
seconds of passes and the workload's minimum number of passes are measured.
Every item's outputs are checked against ``reference.json``.  With
``--trace 1`` one more pass runs with per-layer wrappers installed, and the
per-layer numbers are reported instead of the end-to-end ones.

The last line of standard output is the JSON result; the line before it
holds the provenance.  Per-item records, failures and (traced) spans go to
``.bench_out/``.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5


# times the import of numpy and trimodel inside a fresh interpreter
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, trimodel; "
                "print(time.perf_counter() - t)")


def _import_program() -> None:
    """Make the source tree's trimodel importable and import it."""
    sys.path.insert(0, str(SRC))
    import trimodel  # noqa: F401


def import_seconds() -> float:
    """Median seconds to import numpy and trimodel in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def _timed_setup(workload) -> tuple[float, dict]:
    t0 = perf_counter()
    ctx = workload.setup()
    return perf_counter() - t0, ctx


def run_pass(workload, ctx: dict, tracer=None) -> tuple[float, list]:
    """One pass over the items: (wall seconds, [(item, s, status, fails)])."""
    from tracing import ITEM_SPAN
    from workloads import check, failures

    records = []
    start = perf_counter()
    for name in workload.items:
        t0 = perf_counter()
        if tracer is None:
            steps = workload.compute(ctx, name)
        else:
            with tracer.span(ITEM_SPAN):
                steps = workload.compute(ctx, name)
        status = check(steps, workload.reference[name])
        records.append((name, perf_counter() - t0, status, failures(steps)))
    return perf_counter() - start, records


def measure(workload, seconds: float, trace: bool, import_s: float,
            spans_path=None) -> dict:
    """Set up, run passes, optionally trace one more; all raw numbers."""
    from tracing import Tracer

    setup_times = []

    def fresh() -> dict:
        dt, ctx = _timed_setup(workload)
        setup_times.append(dt)
        return ctx

    ready = [fresh() for _ in range(SETUP_REPS)]
    passes = []
    while (len(passes) < workload.min_passes
           or sum(d for d, _ in passes) < seconds):
        passes.append(run_pass(workload, ready.pop() if ready else fresh()))
    out = {"import_s": import_s, "setup_times": setup_times,
           "passes": passes, "traced": None, "layers": None}
    if trace:
        ctx = ready.pop() if ready else fresh()
        tracer = Tracer()
        tracer.install()
        try:
            out["traced"] = run_pass(workload, ctx, tracer)
        finally:
            tracer.uninstall()
        out["layers"] = tracer.metrics()
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return out


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(raw: dict) -> dict:
    """Every metric the harness can report, by name.  Item times are each
    item's median over the passes."""
    passes = raw["passes"]
    per_item: dict[str, list[float]] = {}
    for _, recs in passes:
        for name, s, _, _ in recs:
            per_item.setdefault(name, []).append(s)
    times = [statistics.median(ts) for ts in per_item.values()]
    statuses = [r[2] for _, recs in passes for r in recs]
    passed = sum(st in ("pass", "resolved") for st in statuses)
    run_s = statistics.median(d for d, _ in passes)
    m = {
        "setup_s": raw["import_s"] + statistics.median(raw["setup_times"]),
        "run_s": run_s,
        "items_per_s": passed / len(passes) / run_s,
        "item_p50_ms": 1000 * statistics.median(times),
        "item_p90_ms": 1000 * _quantile(times, 90),
        "passed_share": passed / len(statuses),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if raw["traced"] is not None:
        traced_s, _ = raw["traced"]
        m.update(raw["layers"])
        m["trace.run_s"] = traced_s
        m["trace.overhead"] = traced_s / run_s
    return m


def select_metrics(spec: dict, values: dict, trace: bool) -> dict:
    """The end-to-end (untraced) or per-layer (traced) metrics of the spec,
    each with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def _all_records(raw: dict) -> list:
    recs = [r for _, rs in raw["passes"] for r in rs]
    if raw["traced"] is not None:
        recs.extend(raw["traced"][1])
    return recs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "trimodel").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, raw: dict) -> dict:
    import numpy

    recs = _all_records(raw)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu": _cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _git_commit(), "source_sha256": _source_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "facts": workload.facts,
        "items_per_pass": len(workload.items),
        "passes": len(raw["passes"]),
        "setup_reps": len(raw["setup_times"]),
        "item_count": len(recs),
        "statuses": {s: sum(r[2] == s for r in recs)
                     for s in ("pass", "resolved", "defect", "mismatch")},
        "failed_share": sum(r[2] not in ("pass", "resolved") for r in recs)
        / len(recs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "trimodel" / "__init__.py").is_file():
        print(f"no trimodel sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    _import_program()
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload](args.seed, load_reference())
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = measure(workload, args.seconds, bool(args.trace), import_s,
                  spans_path=stem.with_suffix(".spans.npz"))
    metrics = select_metrics(spec, summarize(raw), bool(args.trace))
    recs = _all_records(raw)
    prov = provenance(args, workload, raw)
    detail = {
        "provenance": prov,
        "items": [{"item": n, "s": s, "status": st} for n, s, st, _ in recs],
        "failures": [{"workload": args.workload, "item": n, "step": step,
                      "exception": exc}
                     for n, _, _, fails in recs for step, exc in fails],
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))
    mismatched = sum(r[2] == "mismatch" for r in recs)
    print(json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": mismatched == 0, "attempted": len(recs),
                      "failed": mismatched, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
