#!/usr/bin/env python3
"""Seeded benchmark for mcexit.

One workload in this process (prints one JSON result as its last
stdout line):

    python3 bench/run.py --workload mlp_mcd --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the result holds every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` every per-layer metric. Every
workload, all in one report (each workload in its own process):

    python3 bench/run.py                       # end-to-end table
    python3 bench/run.py --trace 1             # per-layer table
    python3 bench/run.py --seeds 1,2,3 --report bench/results/x.json

See bench/README.md for the workloads, metrics and oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5  # set-up is timed in this many fresh processes; the median is reported
MIN_CYCLES = 5  # repeats of every timed unit; see end_to_end()
# A unit's time is this percentile of its times over a run's cycles. The
# shared hosts this runs on switch between a fast and a slow state; the
# slow state is there in every run, fast spells are not, so a high
# percentile repeats from run to run where the best time does not.
UNIT_QUANTILE = 90
MIN_INPUTS = 200  # predict calls per cycle, so that at least 10 of them lie beyond their 95th percentile
WORKER_TIMEOUT_S = 900


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    if not SPEC_FILE.is_file():
        die(f"{SPEC_FILE.name} not found at the checkout root")
    return json.loads(SPEC_FILE.read_text())


def load_program() -> None:
    """Put this checkout's src first on sys.path and make sure the mcexit
    imported is that one, never an installed copy."""
    package = SRC / "mcexit"
    if not (package / "__init__.py").is_file():
        die(f"no mcexit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mcexit

    if Path(mcexit.__file__).resolve().parent != package.resolve():
        die(f"imported mcexit from {mcexit.__file__}, not from {package}")


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"value": median, "median": median, "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------------
# one workload in this process


def probe_setup(workload: str, seed: int) -> list[float]:
    """Time set-up from process start to the first timed operation, in
    fresh processes: interpreter start, imports, spec build, training,
    input generation and the warm-up operation."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=WORKER_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def timed_cycles(wl, tally, seconds: float) -> list[dict]:
    cycles = []
    start = time.perf_counter()
    while True:
        a = time.perf_counter()
        cycle = wl.cycle(tally, len(cycles))
        cycle["wall_s"] = time.perf_counter() - a
        cycles.append(cycle)
        if len(cycle["predict_latency_s"]) < MIN_INPUTS:
            raise ValueError(f"a cycle needs at least {MIN_INPUTS} predict inputs")
        # stop when one more typical cycle would run past the measured time
        typical = statistics.median(c["wall_s"] for c in cycles)
        if time.perf_counter() - start + typical > seconds and len(cycles) >= MIN_CYCLES:
            return cycles


def end_to_end(cycles: list[dict], setup: list[float]) -> dict[str, dict]:
    """Every timed unit (a chunk of a scoring phase, an early-exit or
    predict call, a CLI verb) does the same work in every cycle. A unit's
    time is the UNIT_QUANTILE-th percentile of its times over the run's
    cycles, and the throughput, pipeline and p50 metrics are computed from
    those unit times. `predict_p95_ms` is the tail of the calls
    themselves, the 95th percentile over every call of the run. The
    per-cycle values of every metric are kept too, as its median,
    quartiles and count."""
    import numpy as np

    units = ("ensemble_s", "ensemble_q8_s", "early_exit_s", "predict_latency_s", "pipeline_units_s", "points_units_s")
    unit_times = dict(
        cycles[0], **{k: np.percentile([c[k] for c in cycles], UNIT_QUANTILE, axis=0) for k in units}
    )

    def metric(of_cycle) -> dict:
        return dict(summary([float(of_cycle(c)) for c in cycles]), value=float(of_cycle(unit_times)))

    calls = np.concatenate([c["predict_latency_s"] for c in cycles])
    p50 = metric(lambda c: 1e3 * np.percentile(c["predict_latency_s"], 50))
    p50.update(inputs=len(calls) // len(cycles), calls=len(calls), calls_ms=1e3 * float(np.percentile(calls, 50)))
    p95 = summary([1e3 * float(np.percentile(c["predict_latency_s"], 95)) for c in cycles])
    p95.update(value=1e3 * float(np.percentile(calls, 95)), calls=len(calls))

    out = {
        "setup_s": summary(setup),
        "ensemble_inputs_per_s": metric(lambda c: c["inputs"] / np.sum(c["ensemble_s"])),
        "ensemble_q8_inputs_per_s": metric(lambda c: c["inputs"] / np.sum(c["ensemble_q8_s"])),
        "early_exit_inputs_per_s": metric(lambda c: c["inputs"] / np.sum(c["early_exit_s"])),
        "predict_p50_ms": p50,
        "predict_p95_ms": p95,
        "pipeline_s": metric(lambda c: np.sum(c["pipeline_units_s"])),
        "explore_points_per_s": metric(lambda c: c["points"] / np.sum(c["points_units_s"])),
        "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
    }
    return out


def per_layer(names, tracer, setup_stats, traced, untraced, wl, costs) -> dict[str, dict]:
    cycle_stats = [c["stats"] for c in traced]
    last = traced[-1]
    untraced_s = min(c["wall_s"] for c in untraced)
    traced_s = min(c["wall_s"] for c in traced)
    extra = dict(costs)
    extra.update(
        {
            "inference.heads_run": int(last["exits_taken"].sum()),
            "inference.mean_exit_taken": float(last["exits_taken"].mean()),
            "explorer.points_failed": wl.points_failed,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        }
    )
    out = {}
    for name in names:
        if name in extra:
            out[name] = {"value": extra[name]}
            continue
        if name == "dropout.rng_streams":
            span, field = "dropout.RngStream", 0
        elif name.endswith(".calls"):
            span, field = name[: -len(".calls")], 0
        elif name.endswith(".self_s"):
            span, field = name[: -len(".self_s")], 2
        elif name.startswith("cli.") and name.endswith("_s"):
            span, field = "cli.cmd_" + name[len("cli.") : -len("_s")], 1
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        if span not in tracer.stats:
            raise KeyError(f"per-layer metric {name!r}: no traced function {span!r}")
        per_cycle = [s.get(span, (0, 0, 0))[field] for s in cycle_stats]
        value = setup_stats.get(span, (0, 0, 0))[field] + min(per_cycle)
        out[name] = {"value": int(value) if field == 0 else value / 1e9}
    return out


def worker(args: argparse.Namespace, spec: dict) -> None:
    import hostinfo
    import workloads

    os.environ.pop("MCEXIT_HARDWARE", None)  # always the built-in hardware model
    workdir = HERE / "out" / f"run-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_probe:
        try:
            wl.setup()
            print("ready", flush=True)
        finally:
            wl.cleanup()
        return

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    detail["host"] = hostinfo.fingerprint(SRC / "mcexit")
    detail["reference_loop_ms_start"] = hostinfo.reference_loop_ms()
    tally = workloads.Tally()
    metrics: dict[str, dict] = {}
    try:
        if args.trace:
            metrics = traced_run(args, spec, wl, tally, detail)
        else:
            setup = probe_setup(args.workload, args.seed)
            wl.setup()
            cycles = timed_cycles(wl, tally, args.seconds)
            metrics = end_to_end(cycles, setup)
            detail["cycles"] = len(cycles)
            detail["digest"] = cycles[0]["digest"]
            if "verbs_s" in cycles[0]:
                detail["verbs_s"] = {
                    v: statistics.median(c["verbs_s"][v] for c in cycles) for v in cycles[0]["verbs_s"]
                }
            detail["exits_taken"] = [
                int((cycles[0]["exits_taken"] == k).sum()) for k in range(1, wl.model.me.n_exit + 1)
            ]
    except Exception as err:  # reported as a failed operation, never a traceback-only exit
        import traceback

        traceback.print_exc()
        tally.fail("run", f"{type(err).__name__}: {err}")
    finally:
        wl.cleanup()
    detail["reference_loop_ms_end"] = hostinfo.reference_loop_ms()
    detail["phases"] = {k: {"attempted": a, "failed": f} for k, (a, f) in tally.phases.items()}
    detail["failures"] = tally.messages

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    detail["metrics"] = {name: dict(m, unit=units[name]) for name, m in metrics.items()}
    complete = set(metrics) == set(units)
    result = {
        "correct": tally.failed == 0 and complete,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]} for name in units if name in metrics},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def traced_run(args, spec, wl, tally, detail) -> dict[str, dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    setup_stats = tracer.snapshot()
    # Untraced and traced cycles alternate, so both see the same spells of
    # a noisy host and their best times give the tracing overhead.
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        on = len(traced) < len(untraced)
        if on:
            tracer.install()
            wl.quiet = tracer.paused
        try:
            before = tracer.snapshot()
            a = time.perf_counter()
            cycle = wl.cycle(tally, len(untraced) + len(traced))
            cycle["wall_s"] = time.perf_counter() - a
        finally:
            if on:
                tracer.uninstall()
                wl.quiet = contextlib.nullcontext
        if on:
            cycle["stats"] = tracer.diff(tracer.snapshot(), before)
        (traced if on else untraced).append(cycle)
        typical = statistics.median(c["wall_s"] for c in untraced + traced)
        if traced and time.perf_counter() - start + typical > args.seconds:
            break
    costs = workloads.model_costs(wl.model)
    spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file)
    detail.update(
        cycles_untraced=len(untraced),
        cycles_traced=len(traced),
        spans_kept=len(tracer.spans),
        spans_dropped=tracer.spans_dropped,
        spans_file=str(spans_file.relative_to(ROOT)),
    )
    names = [m["name"] for m in spec["per_layer"]]
    return per_layer(names, tracer, setup_stats, traced, untraced, wl, costs)


# --------------------------------------------------------------------------
# every workload, one report


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "correct": False, "metrics": {}, "detail": {}}
    result = json.loads(lines[-1])
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    return {"workload": workload, "seed": seed, **result, "detail": detail}


def report(args: argparse.Namespace, spec: dict) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    runs = []
    ok = True
    for workload in names:
        rows = [run_one(workload, seed, seconds, args.trace) for seed in seeds]
        runs += rows
        print(f"\n== {workload}  (closed loop, one caller; {seconds} s per run; seeds {args.seeds})")
        for r in rows:
            ok &= bool(r["correct"])
            d = r["detail"]
            print(
                f"seed {r['seed']}: correct={r['correct']} attempted={r.get('attempted')}"
                f" failed={r.get('failed')} digest={d.get('digest', '-')[:16]}"
                f" host_ref_ms={d.get('reference_loop_ms_start', 0):.1f}->{d.get('reference_loop_ms_end', 0):.1f}"
            )
            for msg in d.get("failures", []):
                print(f"  FAILED {msg}")
        print(f"{'metric':44s} {'unit':9s} {'value':>11s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'n':>5s}")
        for m in metric_specs:
            per_run = [r["detail"].get("metrics", {}).get(m["name"]) for r in rows]
            per_run = [x for x in per_run if x is not None]
            if not per_run:
                print(f"{m['name']:44s} {m['unit']:9s} {'missing':>11s}")
                continue
            if len(per_run) == 1:
                s = per_run[0]  # the run's value, with its per-cycle spread
            else:
                s = summary([x["value"] for x in per_run])  # across runs, n = runs
            cells = [s.get(k, s["value"]) for k in ("value", "median", "q1", "q3")]
            line = f"{m['name']:44s} {m['unit']:9s} " + " ".join(f"{c:11.5g}" for c in cells) + f" {s.get('n', 1):5d}"
            if "inputs" in per_run[0]:  # p50: n counts cycles; the samples are the inputs
                calls_ms = statistics.median(x["calls_ms"] for x in per_run)
                line += f"  ({per_run[0]['inputs']} inputs; over all calls {calls_ms:.5g})"
            elif "calls" in per_run[0]:  # p95: the samples are the calls
                line += f"  ({per_run[0]['calls']} calls)"
            print(line)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(json.dumps({"seconds": seconds, "trace": args.trace, "runs": runs}, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seeds", default="1", help="report mode: comma-separated seeds, one run each")
    parser.add_argument("--report", default=None, help="report mode: also write every run as JSON")
    args = parser.parse_args()

    spec = load_spec()
    import hostinfo

    hostinfo.fix_blas_threads()  # before numpy loads; this process and its children only
    load_program()
    if args.workload is None:
        return report(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        die("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    worker(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
