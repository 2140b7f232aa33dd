#!/usr/bin/env python3
"""One end-to-end, layer-attributed benchmark of the P-Grid reproduction.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--trace] [--out FILE]

Six workloads, each through a different serving path, from a request
entering ``repro.api.Grid`` (or the TCP front door) to the answer leaving
it.  Every answer is checked against ground truth.  ``--trace`` adds a
second, traced pass that attributes the time to layers and writes one
span file per workload under ``benchmarks/e2e/out/``.

Without ``--workload`` the six run one after the other, each in a fresh
subprocess.  With it, that workload runs in this process and the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the form a benchmark driver reads; it calls::

    run.py --workload W --seed N --seconds T --trace 0|1

The benchmark needs the program's source at ``src/`` beside
``benchmarks/`` and exits with code 2, printing no result, without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

#: Timing metrics are read over at least this many repetitions.
MIN_REPETITIONS = 3

now = time.perf_counter_ns


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


# -- one workload, in this process ------------------------------------------------------


def timing(name: str, per_repetition: list[float], n: int) -> dict:
    """Metric *name* of one run: the median of its set-ups, the quiet
    decile (``metrics.quiet``) of its timed repetitions."""
    if name in ("setup_s", "build_s", "snapshot_ready_s"):
        value = metrics.median(per_repetition)
    else:
        value = metrics.quiet(per_repetition, metrics.E2E[name].better)
    return {"value": value, "n": n, "repetitions": per_repetition}


def end_to_end(name, setups, parts, reps, counts, failed, rss) -> dict:
    """Every end-to-end metric that applies to workload *name*."""
    attempted = counts.attempted
    searches = counts.searches
    values: dict[str, dict] = {
        "setup_s": timing("setup_s", setups, len(setups)),
        "ops_s": timing("ops_s", [attempted / (rep.wall_ns / 1e9) for rep in reps], attempted),
        "search_ops_s": timing(
            "search_ops_s",
            [searches / (sum(rep.latency_ns["search"]) / 1e9) for rep in reps],
            searches,
        ),
        "msgs_per_op": {"value": counts.messages / attempted, "n": attempted},
        "found_rate": {"value": counts.found / searches, "n": searches},
        "fail_share": {"value": failed / attempted, "n": attempted},
        "peak_rss_mb": {"value": rss, "n": 1},
    }
    for metric, kind, percent in (
        ("search_p50_us", "search", 50),
        ("search_p99_us", "search", 99),
        ("update_p50_us", "update", 50),
        ("range_p50_us", "range", 50),
    ):
        if name in metrics.E2E[metric].workloads:
            values[metric] = timing(
                metric,
                [metrics.percentile(rep.latency_ns[kind], percent) / 1e3 for rep in reps],
                len(reps[0].latency_ns[kind]),
            )
    for metric in ("build_s", "snapshot_ready_s"):
        if name in metrics.E2E[metric].workloads:
            values[metric] = timing(metric, [part[metric] for part in parts], len(parts))
    out = {}
    for metric in metrics.END_TO_END:
        if name in metric.workloads:
            out[metric.name] = {"unit": metric.unit, **values[metric.name]}
    return out


def per_layer(name, e2e, timed_spans, setup_spans, custom, overhead_pct) -> dict:
    """Every layer metric that applies to workload *name*."""
    values = dict(custom)
    values["bench.trace_overhead_pct"] = overhead_pct
    for metric in metrics.PER_LAYER:
        if metric.span is not None and metric.name not in values:
            span, per, scale, setup = metric.span
            row = (setup_spans if setup else timed_spans).get(span)
            if row:
                per_what = row["calls" if per == "call" else "units"]
                values[metric.name] = row["self_ns"] / per_what / scale
        if metric.name.startswith("e2e."):
            mirrored = e2e.get(metric.name[4:])
            if mirrored:
                values[metric.name] = mirrored["value"]
    return {
        metric.name: {"unit": metric.unit, "value": values[metric.name]}
        for metric in metrics.PER_LAYER
        if name in metric.workloads and metric.name in values
    }


def measure(name: str, seed: int, scale: workloads.Scale, seconds: float, trace: bool) -> dict:
    """Set up (several times), warm up, time, verify — then trace."""
    import paths

    inputs = workloads.generate(name, seed, scale)
    again = workloads.generate(name, seed, scale)
    if inputs.sha256 != again.sha256:
        raise AssertionError(f"{name}: the same seed produced two different op lists")
    cls = paths.PATHS[name]

    path, setups, parts, leaks = None, [], [], []
    for _ in range(scale.setups):
        if path is not None:
            leaks += path.teardown()
            path = None
            gc.collect()
        path = cls(inputs)
        t0 = now()
        path.setup()
        setups.append((now() - t0) / 1e9)
        parts.append(path.setup_parts)
    gc.collect()
    gc.freeze()
    path.warmup()
    reps = []
    deadline = now() + seconds * 1e9
    while len(reps) < MIN_REPETITIONS or now() < deadline:
        reps.append(path.repetition(keep=not reps))
    first = reps[0]
    violations, notes = path.verify(first)
    counts = path.counts(first)
    errors = [error for rep in reps for error in rep.errors]
    leaks += path.teardown()
    rss = peak_rss_mb()
    del path
    failed = len(errors) + len(violations) + len(leaks)
    e2e = end_to_end(name, setups, parts, reps, counts, failed, rss)

    result = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "scale": scale.name,
        "ops_sha256": inputs.sha256,
        "attempted": counts.attempted,
        "failed": failed,
        "repetitions": len(reps),
        "measured_s": sum(rep.wall_ns for rep in reps) / 1e9,
        "end_to_end": e2e,
        "counts": {
            "searches": counts.searches,
            "found": counts.found,
            "messages": counts.messages,
            "search_messages": counts.search_messages,
        },
        "notes": notes,
        "violations": (violations + leaks)[:50],
        "errors": errors[:50],
    }

    if trace:
        import spans

        gc.unfreeze()
        tracer, probe = spans.SpanRecorder(), spans.make_probe()
        with tracer:
            traced = cls(inputs, probe=probe, tracer=tracer)
            traced.setup()
            traced.warmup()
            rep = traced.repetition(keep=False)
            timed_spans = tracer.aggregate()
            tracer.begin_op(spans.WARMUP)  # side sweeps stay out of the timed table
            custom = traced.layer_metrics(rep, timed_spans)
            trace_leaks = traced.teardown()
        if name == "build_snapshot":
            custom["fast.snapshot.shm_residue"] = len(trace_leaks)
        untraced = metrics.median([r.wall_ns for r in reps])
        overhead = (rep.wall_ns / untraced - 1.0) * 100.0
        unmeasured = sorted(key for key, value in custom.items() if value is None)
        measured = {key: value for key, value in custom.items() if value is not None}
        result["per_layer"] = per_layer(
            name, e2e, timed_spans, tracer.aggregate(setup=True), measured, overhead
        )
        if unmeasured:
            result["notes"]["null_layer_metrics"] = {
                key: notes.get("jobs", "not measurable here") for key in unmeasured
            }
        span_file = OUT_DIR / f"trace-{name}.json"
        tracer.write(span_file, workload=name, seed=seed)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["trace"] = {
            "spans_recorded": len(tracer.start),
            "targets_skipped": tracer.skipped,
            "traced_errors": rep.errors[:10] + trace_leaks,
        }
        result["failed"] += len(rep.errors) + len(trace_leaks)
    return result


def contract_line(result: dict, trace: bool) -> str:
    """The driver's result line: every metric of the run's kind, by name.

    A layer metric whose layer is not on this workload's path reads 0
    there (the layer did nothing); the result file omits it instead.
    """
    if trace:
        block = result["per_layer"]
        out = {
            m.name: {"value": block.get(m.name, {}).get("value", 0.0), "unit": m.unit}
            for m in metrics.PER_LAYER
        }
    else:
        block = result["end_to_end"]
        out = {
            m.name: {"value": block[m.name]["value"], "unit": m.unit}
            for m in metrics.END_TO_END
            if m.gated
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    })


def print_result(result: dict) -> None:
    if "skipped" in result:
        print(f"\n== {result['workload']}: skipped ({result['skipped']})")
        return
    print(f"\n== {result['workload']} · seed {result['seed']} · scale {result['scale']} · "
          f"{result['repetitions']} repetitions · ops {result['ops_sha256'][:12]}")
    print(f"   attempted {result['attempted']} · failed {result['failed']}")
    for name, row in result["end_to_end"].items():
        metric = metrics.E2E[name]
        print(f"   {name:<20} {row['value']:>14.4f} {row['unit']:<6} n={row['n']:<7} "
              f"{metric.better} is better, bound {metric.bound:.0%}")
    for name, row in result.get("per_layer", {}).items():
        print(f"     {name:<44} {row['value']:>14.4f} {row['unit']}")
    for line in result["violations"] + result["errors"]:
        print(f"   !! {line}")


# -- all six, each in a fresh subprocess ---------------------------------------------------


def skip_reason(name: str) -> str | None:
    import paths

    if name in workloads.NEEDS_NUMPY and not paths.have_numpy():
        return "numpy is not installed: the array plane and shared-memory snapshots need it"
    return None


def run_child(name: str, args) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_file = OUT_DIR / f"result-{name}-{os.getpid()}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)), "--scale", args.scale, "--out", str(result_file),
    ]
    # Its own process group, so that a child that has to be killed takes
    # its pool workers with it.
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            try:
                stdout, stderr = child.communicate(timeout=900)
            except subprocess.TimeoutExpired:
                stdout, stderr = "", "timed out after 900 s"
            if not result_file.exists():
                return {"workload": name, "crashed": stderr.strip()[-2000:] or stdout[-2000:],
                        "attempted": 1, "failed": 1, "violations": [], "errors": []}
            return json.loads(result_file.read_text(encoding="utf-8"))["workloads"][0]
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            result_file.unlink(missing_ok=True)


def cross_checks(results: dict[str, dict]) -> list[str]:
    """What only two workloads' files together can show: engine_mixed and
    node_mixed were asked the same ops and counted the same answers."""
    engine, node = results.get("engine_mixed"), results.get("node_mixed")
    if not (engine and node and "counts" in engine and "counts" in node):
        return []
    problems = []
    if engine["ops_sha256"] != node["ops_sha256"]:
        problems.append("engine_mixed and node_mixed were given different op lists")
    if engine["counts"] != node["counts"]:
        problems.append(
            f"engine ≡ node: counts differ, engine {engine['counts']} node {node['counts']}"
        )
    return problems


def stop_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    ``build_snapshot`` starts pool workers and — through the first shared-
    memory segment — multiprocessing's resource tracker, which otherwise
    only ends *after* this process has exited.  Runs on every path out of
    :func:`main`.
    """
    import multiprocessing

    parallel = sys.modules.get("repro.perf.parallel")
    if parallel is not None:
        try:
            parallel.shutdown_pool()
        except Exception:  # a broken pool: its workers are terminated below
            pass
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    pid, fd = getattr(tracker, "_pid", None), getattr(tracker, "_fd", None)
    if pid is not None and fd is not None:
        # The tracker ends when the last writer closes its pipe; the pool
        # workers, the only other holders, are gone by now.
        os.close(fd)
        tracker._fd = None
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        tracker._pid = None


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    finally:
        stop_processes()


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for at least this long "
                             f"(and at least {MIN_REPETITIONS} repetitions)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="default")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(metrics.RUN_SECONDS) if args.scale == "default" else 0.2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: the program's source is not at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scale = workloads.SCALES[args.scale]

    if args.workload:
        reason = skip_reason(args.workload)
        if reason:
            results = [{"workload": args.workload, "skipped": reason}]
        else:
            results = [measure(args.workload, args.seed, scale, args.seconds, bool(args.trace))]
        problems: list[str] = []
    else:
        results = []
        for name in workloads.WORKLOADS:
            reason = skip_reason(name)
            results.append({"workload": name, "skipped": reason} if reason
                           else run_child(name, args))
        problems = cross_checks({r["workload"]: r for r in results})

    for result in results:
        if "crashed" in result:
            print(f"\n== {result['workload']}: crashed\n{result['crashed']}")
        else:
            print_result(result)
    for problem in problems:
        print(f"!! {problem}")
    document = {
        "benchmark": "benchmarks/e2e",
        "claim": None,
        "trace_command": metrics.TRACE_COMMAND,
        "command": " ".join(["python3", "benchmarks/e2e/run.py"] + (argv or sys.argv[1:])),
        "environment": environment(),
        "load_model": "closed loop, 1 client, 1 request in flight, generated in the "
                      "benchmark's process; TCP over loopback",
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "cross_checks": problems,
        "workloads": results,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    ran = [r for r in results if "skipped" not in r]
    failed = sum(r["failed"] for r in ran) + len(problems)
    if args.workload and ran:
        print(contract_line(ran[0], bool(args.trace)))
    else:
        print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in ran),
                          "failed": failed, "skipped": len(results) - len(ran)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
