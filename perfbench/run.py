"""Benchmark of the evmeshflow toolkit: end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload events-dense --seed 7 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seconds 34

--seconds is required; BENCHMARK.json's run_seconds is the value the
benchmark is meant to be run with.

Workloads (see workloads.py and BENCHMARK.json):
  events-dense   CLI gen -> simulate -> select -> meshflow -> eval, 256x256
  events-guided  CLI simulate, then spatial and temporal subsample, 64x64
  flow-ops       library scene, meshflow, correlation, fusion and metrics

Load model: one client in one process, closed loop.  Passes run back to
back until --seconds have passed (at least three passes).  Pass 0 warms
the process up (the allocator's first large allocations fault in fresh
pages and make it about 30% slower on events-dense); it is checked but
left out of every timing metric.  Pass k's inputs
derive from (seed, k // 2), so each pair of passes has equal inputs, and
the package's memo caches are cleared before every pass.  Outputs are
checked after each pass, outside the timed region; the second pass of a
pair must reproduce the first one's artifact digest.

--trace 0 reports the end-to-end metrics:
  setup_s       median of 7 set-ups, each a fresh interpreter that imports
                the package and builds the first pass's inputs
  pipeline_s    median wall seconds per pass
  items_per_s   median rate of the workload's main stage: simulated events
                per second of `simulate` (events-dense), input events per
                second of the two `subsample` commands (events-guided),
                adaptive frames per second of the per-frame stages:
                sampling, rendering, GT flow, meshflow, warp (flow-ops)
  peak_rss_mb   peak resident set size of this process after pass 0 has
                run and before any output check runs, so that it measures
                import, inputs and the pipeline, not the checks
--trace 1 alternates untraced and traced passes (each pair: untraced,
then traced on equal inputs) and reports the per-layer metrics: times and
rates as the median over traced passes of a per-pass total, work counts
from the first traced pass, the known-defect counts, and the tracing
overhead (median traced minus median untraced pass time).
Spans are written to .perfbench_work/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1 when an
output check fails and 2 when ./src/evmeshflow is missing.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS/OpenMP thread: the benchmark measures one client on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
WORK = Path(".perfbench_work")
SETUP_REPEATS = 7
WARMUP_PASSES = 1
MIN_PASSES = 3
# Known defects, reported as counts and never as failures.
DEFECTS = ("io.evt1_span_drift", "mesh.border_epe")
# Work counts of the inputs, read from the first traced pass so that they
# repeat exactly for a seed however many passes fit in the run.
COUNTS = (
    "scene.adaptive_timestamps.frames", "scene.flow_between.calls_per_frame",
    "sampling.bilinear_sample.calls", "events.simulate.events",
    "events.subsample.kept_frac", "events.subsample.trees_built",
    "cmax.two_sided_components.calls_per_candidate", "correlation.correlate.macs",
)
CHILD_TIMEOUT_S = 170


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import evmeshflow

    return evmeshflow


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }, [w["name"] for w in spec["workloads"]]


def _clear_caches(package_modules):
    for mod in package_modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _time_setups(workload, seed):
    """Wall seconds of SETUP_REPEATS fresh interpreters running --setup-only."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--setup-only", "--workload", workload,
             "--seed", str(seed), "--seconds", "0"],
            stdout=subprocess.DEVNULL,
        )
        # A blocking wait returns as soon as the child exits; a wait with a
        # timeout polls in 50 ms steps, which would round every set-up time.
        killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        killer.start()
        code = child.wait()
        killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return times


def _setup_only(name, seed):
    _import_package()
    from workloads import WORKLOADS

    work = WORK / f"setup-{name}-{os.getpid()}"
    try:
        WORKLOADS[name](seed, work).prepare(0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class PassRecord:
    def __init__(self, k, traced):
        self.k = k
        self.traced = traced
        self.wall = None
        self.stages = {}
        self.ops = 0
        self.failures = []  # (operation or check name, detail)
        self.counts = {}
        self.defects = {}
        self.digest = None
        self.rss_mb = None  # peak RSS after the timed run, before the checks


def run_pass(workload, k, tracer, package_modules):
    """Prepare, run (timed), check and clean up pass k."""
    from workloads import Clock

    rec = PassRecord(k, tracer is not None)
    clock = Clock(tracer)
    try:
        inputs = workload.prepare(k)
    except Exception as exc:  # a broken input generator fails the pass
        rec.ops, rec.failures = 1, [("prepare", repr(exc))]
        return rec
    try:
        _clear_caches(package_modules)
        recording = tracer.recording(k) if tracer else nullcontext()
        with recording:
            t0 = time.perf_counter()
            outputs = workload.run(inputs, clock)
            wall = time.perf_counter() - t0
    except Exception as exc:  # the program failed: count it and go on
        rec.ops = clock.ops
        rec.failures = [("run", repr(exc))]
        workload.cleanup(inputs)
        return rec
    rec.wall, rec.stages, rec.ops = wall, dict(clock.stages), clock.ops
    rec.rss_mb = _max_rss_mb()
    try:
        verdict = workload.check(inputs, outputs)
        rec.digest = workload.digest(inputs, outputs)
    except Exception as exc:  # a check that cannot run is a failed check
        rec.ops += 1
        rec.failures.append(("check", repr(exc)))
    else:
        rec.ops += len(verdict.checks)
        rec.failures += [(name, detail) for name, ok, detail in verdict.checks if not ok]
        rec.counts, rec.defects = verdict.counts, verdict.defects
    workload.cleanup(inputs)
    return rec


def _rate(items, seconds):
    return items / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, rec):
    """Per-layer metrics of one traced pass."""
    tot = tracer.pass_totals(rec.k)

    def get(name, key="s"):
        return tot[name][key] if name in tot else 0

    m = {}
    for cmd in ("gen", "simulate", "select", "subsample", "meshflow", "eval"):
        m[f"cli.{cmd}.s"] = get(f"cli.{cmd}")
        m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}", "self_s")
    for cmd in ("simulate", "select", "subsample"):
        m[f"cli.{cmd}.events_per_s"] = _rate(rec.counts.get(cmd, 0), get(f"cli.{cmd}"))

    frames = get("scene.adaptive_timestamps", "items")
    steps = frames - get("scene.adaptive_timestamps", "calls")
    audits = tracer.calls_under(rec.k, "scene.flow_between", "scene.adaptive_timestamps")
    m["scene.adaptive_timestamps.s"] = get("scene.adaptive_timestamps")
    m["scene.adaptive_timestamps.frames"] = frames
    m["scene.render_frame.s"] = get("scene.render_frame")
    m["scene.flow_between.s"] = get("scene.flow_between")
    m["scene.flow_between.calls_per_frame"] = audits / steps if steps else 0.0

    m["sampling.bilinear_sample.s"] = get("sampling.bilinear_sample")
    m["sampling.bilinear_sample.calls"] = get("sampling.bilinear_sample", "calls")
    m["sampling.bilinear_sample_wrapped.s"] = get("sampling.bilinear_sample_wrapped")

    m["events.simulate.s"] = get("events.simulate")
    m["events.simulate.events"] = get("events.simulate", "items")
    m["events.simulate.events_per_s"] = _rate(m["events.simulate.events"], m["events.simulate.s"])
    sub_in = sub_kept = 0
    for name in ("events.spatial_guided_subsample", "events.temporal_guided_subsample"):
        m[f"{name}.s"] = get(name)
        sub_in += get(name, "items")
        sub_kept += get(name, "kept")
    m["events.subsample.kept_frac"] = sub_kept / sub_in if sub_in else 0.0
    m["events.subsample.trees_built"] = tracer.trees_built.get(rec.k, 0)

    m["voxel.voxelize.s"] = get("voxel.voxelize")
    m["voxel.voxelize.events_per_s"] = _rate(get("voxel.voxelize", "items"), m["voxel.voxelize.s"])
    m["voxel.density.s"] = get("voxel.density")

    m["cmax.warp_events.s"] = get("cmax.warp_events")
    m["cmax.accumulate_iwe.s"] = get("cmax.accumulate_iwe")
    m["cmax.accumulate_iwe.events_per_s"] = _rate(
        get("cmax.accumulate_iwe", "items"), m["cmax.accumulate_iwe.s"]
    )
    m["cmax.two_sided_components.s"] = get("cmax.two_sided_components")
    candidates = get("cmax.select_best", "items")
    m["cmax.two_sided_components.calls_per_candidate"] = (
        get("cmax.two_sided_components", "calls") / candidates if candidates else 0.0
    )

    m["mesh.extract_meshflow.s"] = get("mesh.extract_meshflow")
    m["mesh.upsample_bilinear.s"] = get("mesh.upsample_bilinear")
    m["mesh.backward_warp.s"] = get("mesh.backward_warp")

    m["correlation.correlate.s"] = get("correlation.correlate")
    m["correlation.correlate.macs"] = get("correlation.correlate", "items")
    m["correlation.correlate.gmacs_per_s"] = (
        _rate(m["correlation.correlate.macs"], m["correlation.correlate.s"]) / 1e9
    )
    m["correlation.warp_features.s"] = get("correlation.warp_features")

    m["fusion.cdc_fuse.s"] = get("fusion.cdc_fuse")
    m["fusion.confidence_fuse.s"] = get("fusion.confidence_fuse")
    m["metrics.s"] = tracer.layer_time(rec.k, "metrics")

    # EVT1 bytes from record counts: a 16-byte header and 16 bytes per event.
    evt_bytes = sum(
        16 * get(name, "calls") + 16 * get(name, "items")
        for name in ("io.write_evt1", "io.read_evt1")
    )
    m["io.write_evt1.s"] = get("io.write_evt1")
    m["io.read_evt1.s"] = get("io.read_evt1")
    m["io.evt1_mb_per_s"] = _rate(evt_bytes, m["io.write_evt1.s"] + m["io.read_evt1.s"]) / 1e6
    m["io.write_flo1.s"] = get("io.write_flo1")
    m["io.read_flo1.s"] = get("io.read_flo1")
    m["io.write_pgm.s"] = get("io.write_pgm")
    return m


def measure(name, seed, seconds, trace):
    """One run of one workload; returns (result dict, report lines)."""
    package = _import_package()
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer(package) if trace else None
    package_modules = spans.package_modules(package)
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work, defects=trace)
    records = []
    rss_before_mb = _max_rss_mb()
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 1
        rec = run_pass(workload, k, tracer if traced else None, package_modules)
        if k % 2 == 1 and rec.digest is not None and records[-1].digest is not None:
            rec.ops += 1
            if rec.digest != records[-1].digest:
                rec.failures.append(("digest", f"differs from pass {k - 1}, equal inputs"))
        records.append(rec)
        k += 1
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.ops for r in records)
    failures = [(r.k, f) for r in records for f in r.failures]
    timed = [r for r in records[WARMUP_PASSES:] if r.wall is not None]
    plain = [r for r in timed if not r.traced]
    traced_recs = [r for r in timed if r.traced]
    defects = {}
    for r in records:
        for key, value in r.defects.items():
            defects.setdefault(key, []).append(value)

    metrics, notes = {}, {}
    if not trace:
        setup_times = _time_setups(name, seed)
        metrics["setup_s"] = _median(setup_times)
        notes["setup_s"] = f"median of {len(setup_times)} set-ups"
        metrics["pipeline_s"] = _median([r.wall for r in plain])
        notes["pipeline_s"] = f"median of {len(plain)} passes"
        rates = [
            _rate(r.counts.get("items", 0), sum(r.stages.get(s, 0.0) for s in workload.rate_stages))
            for r in plain
        ]
        metrics["items_per_s"] = _median(rates)
        notes["items_per_s"] = f"median of {len(rates)} passes, stage {'+'.join(workload.rate_stages)}"
        metrics["peak_rss_mb"] = records[0].rss_mb or _max_rss_mb()
        notes["peak_rss_mb"] = (
            f"after pass 0, before its checks; {rss_before_mb:.1f} MB before pass 0 "
            f"(imports), {_max_rss_mb():.1f} MB over the whole run"
        )
    else:
        per_pass = [layer_metrics(tracer, r) for r in traced_recs]
        for key in per_pass[0] if per_pass else ():
            if key in COUNTS:
                metrics[key] = per_pass[0][key]
                notes[key] = f"pass {traced_recs[0].k}, the first traced pass"
            else:
                metrics[key] = _median([p[key] for p in per_pass])
                notes[key] = f"median of {len(per_pass)} traced passes"
        for key in DEFECTS:
            values = defects.get(key, [])
            metrics[key] = _median(values)
            notes[key] = f"median of {len(values)} passes" if values else "not measured here"
        traced_s = _median([r.wall for r in traced_recs])
        untraced_s = _median([r.wall for r in plain])
        metrics["trace.overhead_s"] = traced_s - untraced_s
        notes["trace.overhead_s"] = (
            f"traced {traced_s:.4f} s (n={len(traced_recs)}) - "
            f"untraced {untraced_s:.4f} s (n={len(plain)})"
        )
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{name}-seed{seed}.tsv")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    lines = [
        f"{name}: seed={seed} trace={int(trace)} passes={len(records)} "
        f"(warm-up {WARMUP_PASSES}, untraced {len(plain)}, traced {len(traced_recs)})"
    ]
    lines.append("  pass seconds: " + " ".join(
        f"{r.wall:.3f}{'t' if r.traced else ''}" for r in records if r.wall is not None))
    if plain:
        lines.append("  stage seconds, median of untraced passes: " + ", ".join(
            f"{s}={_median([r.stages[s] for r in plain]):.4f}" for s in plain[0].stages))
    lines.append(
        f"  failed_frac = {len(failures)}/{attempted} = "
        f"{len(failures) / attempted if attempted else 0.0:.4g} (operations and checks)"
    )
    for k_failed, (what, detail) in failures:
        lines.append(f"  FAILED pass {k_failed}: {what}: {detail}")
    return result, notes, lines


def _print_result(result, notes, lines, units):
    for line in lines:
        print(line)
    for key, value in result["metrics"].items():
        print(f"  {key:48s} {value:>16.6g} {units[key]:<16s} {notes.get(key, '')}")
    result["metrics"] = {
        key: {"value": value, "unit": units[key]} for key, value in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)


def _run_all(args, workload_names):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workload_names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                status = proc.returncode or 1
                combined["correct"] = False
                continue
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for key, value in res["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
            status = max(status, proc.returncode)
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evmeshflow" / "__init__.py").is_file():
        print(f"error: no evmeshflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    units, workload_names = _declared()
    if args.workload == "all":
        return _run_all(args, workload_names)
    if args.workload not in workload_names:
        parser.error(f"unknown workload {args.workload!r}; choose from {workload_names} or all")

    result, notes, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = units[args.trace]
    missing = set(declared) ^ set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    _print_result(result, notes, lines, declared)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
