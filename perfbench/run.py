#!/usr/bin/env python3
"""Benchmark of the skygrid planner and simulator.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload open-sky --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Each run is one process with one thread and a closed loop: the next request
starts only when the previous one has finished. Requests are generated from
the seed and issued until --seconds have passed and at least the workload's
minimum number of requests is done. Every request's outputs are checked by an
independent oracle. The last line of standard output is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

--trace 1 runs the minimum number of requests twice, untraced and then
traced, and reports per-layer counts and self times from the traced replay,
the tracing overhead, and the part of the traced wall time no span covers.
--smoke runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import os

# One thread per workload process; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 7


def _bootstrap() -> None:
    """Import skygrid from this checkout's sources, or stop."""
    pkg = SRC / "skygrid"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no skygrid sources under {pkg}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import skygrid

    if Path(skygrid.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported skygrid from {skygrid.__file__}, not from {pkg}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    except OSError:
        pass
    return None


def _context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _setup_s(spec: dict) -> float:
    """Import, scenario and World construction timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        input=json.dumps(spec), capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _pct(values, q: float) -> float:
    return float(numpy.percentile(values, q))


def _run_digests(outcomes) -> dict[str, str]:
    import workloads

    return {
        t: hashlib.sha256("".join(o.digests[t] for o in outcomes).encode()).hexdigest()
        for t in workloads.TABLES
    }


def _timings(outcomes, setups, speed=None) -> dict:
    """Timing figures, scaled to the nominal host speed when `speed` is given.

    Ticks pool every World.step call; plan steps are those in which a UAV
    planned a cell. Their median is not reported: in fleet it falls between
    the cheap empty-cell plans and the expensive ones, so it jumps from run
    to run; the 90th percentile lies well inside the expensive mode.
    """

    def scaled(samples):
        return [v * speed.scale(t) if speed else v for t, v in samples]

    ticks = scaled(t for o in outcomes for t in o.tick_ms)
    plans = scaled(t for o in outcomes for t in o.plan_ms)
    repairs = scaled(t for o in outcomes for t in o.repair_ms)
    walls = [o.wall_s * (speed.scale(*o.wall_span) if speed else 1.0) for o in outcomes]
    setup = [v * (speed.scale(*span) if speed else 1.0) for span, v in setups]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "tick_ms_p50": (_pct(ticks, 50), "ms"),
        "plan_ms_p90": (_pct(plans, 90), "ms"),
        "repair_ms_p50": (_pct(repairs, 50), "ms"),
        "repair_ms_p90": (_pct(repairs, 90), "ms"),
    }


def _end_to_end(outcomes, first, setups, speed) -> dict:
    trips = sum(o.trips for o in first)
    flown = [m for o in first for m in o.flown_m]
    costs = [c for o in first for c in o.plan_costs]
    return {
        **_timings(outcomes, setups, speed),
        "success_frac": (1.0 - sum(o.failed for o in first) / trips, "ratio"),
        "flown_m_mean": (statistics.fmean(flown), "m"),
        "peak_occupancy": (statistics.fmean(o.peak_occupancy for o in first), "uavs"),
        "plan_cost_mean": (statistics.fmean(costs), "cost"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, traced, untraced) -> dict:
    import tracing

    selfs = tracer.self_times()
    calls, failed, stats = tracer.calls, tracer.failed, tracer.stats
    m = {}
    for _, _, name in tracing.SPANS:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    for _, _, name in tracing.COUNTS:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("sampling.rrt_plan", "sampling.birrt_plan", "replan.repair"):
        m[f"{name}.failed"] = (failed[name], "count")
    entries = sum(o.cell_entries for o in traced)
    m.update({
        "pso.optimize.no_feasible": (failed["pso.optimize"], "count"),
        "pso.optimize.iterations": (stats["pso.optimize.iterations"], "count"),
        "pso.build_seed_population.seeds_per_attempt": (
            _ratio(stats["pso.build_seed_population.seeds"], calls["pso.build_seed_population"]), "seeds"),
        "coarse.sliding_window_replan.kept_ratio": (
            _ratio(stats["coarse.sliding_window_replan.kept"], calls["coarse.sliding_window_replan"]), "ratio"),
        "sim.cell_entries": (entries, "count"),
        "sim.fine_plan_failed": (sum(o.fine_plan_failed for o in traced), "count"),
        "sim.exit_draws_per_entry": (_ratio(calls["coarse.select_exit_point"], entries), "ratio"),
        "sim.optimize_per_entry": (_ratio(calls["pso.optimize"], entries), "ratio"),
        "adsb.log_len": (sum(o.bus_messages for o in traced), "count"),
        "output.bytes": (sum(o.bytes_out for o in traced), "B"),
    })
    traced_wall = sum(o.busy_s for o in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - sum(o.busy_s for o in untraced), "s")
    m["trace.uncovered_s"] = (traced_wall - tracer.top_level_time(), "s")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, size: dict, setup_runs: int):
    """One benchmark run; returns (detail, result line)."""
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        n_min = size["min_requests"]
        first_spec = workloads.request_spec(workload, seed, 0, size)
        speed = SpeedProbe()
        setups = []
        for _ in range(0 if trace else setup_runs):
            speed.sample()
            t0 = time.perf_counter()
            value = _setup_s(first_spec)
            setups.append(((t0, time.perf_counter()), value))
        workloads.warm_up(tmp)
        outcomes = []
        t0 = time.perf_counter()
        while len(outcomes) < n_min or (not trace and time.perf_counter() - t0 < seconds):
            speed.maybe_sample()
            outcomes.append(workloads.run_request(workload, seed, len(outcomes), size, tmp, speed=speed))
        speed.sample()
        first = outcomes[:n_min]
        violations = [v for o in outcomes for v in o.violations]
        digests = _run_digests(first)
        correct = not violations
        detail = {
            "requests": len(outcomes),
            "ticks": sum(len(o.tick_ms) for o in outcomes),
            "plan_steps": sum(len(o.plan_ms) for o in outcomes),
            "repairs": sum(len(o.repair_ms) for o in outcomes),
            "failed_frac": sum(o.failed for o in first) / sum(o.trips for o in first),
            "digests": digests,
            "violations": violations[:10],
        }
        if trace:
            tracer = tracing.Tracer()
            traced = []
            with tracing.instrument(tracer):
                for i in range(n_min):
                    tracer.request = i
                    traced.append(workloads.run_request(workload, seed, i, size, tmp, check=False))
            metrics = _per_layer(tracer, traced, first)
            spans_file = OUT / f"spans-{workload}-seed{seed}.csv"
            tracer.write(str(spans_file))
            self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
            closes = abs(self_sum + metrics["trace.uncovered_s"][0] - metrics["trace.wall_s"][0])
            detail["traced_digests_match"] = _run_digests(traced) == digests
            detail["self_time_gap_s"] = closes
            detail["spans"] = len(tracer.spans)
            detail["spans_file"] = str(spans_file.relative_to(ROOT))
            correct = correct and detail["traced_digests_match"] and closes <= 1e-6 * metrics["trace.wall_s"][0]
        else:
            metrics = _end_to_end(outcomes, first, setups, speed)
            detail["speed_samples"] = len(speed.kernel_s)
            detail["speed_kernel_ms_median"] = statistics.median(speed.kernel_s) * 1e3
            detail["unscaled"] = {k: v for k, (v, _) in _timings(outcomes, setups).items()}
        attempted = sum(o.trips for o in outcomes)
        failed = sum(o.failed for o in outcomes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks names and units."""
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            _, result = run(workload, 1, 0.0, bool(trace), workloads.SMOKE_SIZES[workload], 1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            problems += [f"{where}: missing {k}" for k in want[trace].keys() - got.keys()]
            problems += [f"{where}: undeclared {k}" for k in got.keys() - want[trace].keys()]
            problems += [
                f"{where}: {k} in {got[k]}, declared {u}"
                for k, u in want[trace].items() if k in got and got[k] != u
            ]
            if not result["correct"]:
                problems.append(f"{where}: outputs failed the checks")
            print(f"smoke {where}: {len(got)} metrics, correct={result['correct']}", flush=True)
    for p in problems:
        print(f"smoke problem: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fleet", "open-sky", "cell-repair"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    import workloads

    detail, result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.SIZES[args.workload], SETUP_RUNS,
    )
    print(json.dumps({"context": _context(args.workload, args.seed, args.seconds, bool(args.trace)),
                      "detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
