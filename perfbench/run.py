"""The repository benchmark: certified EAS jobs, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cat1_paper --seed 1 --seconds 30 --trace 0

A job takes one CTG in and brings one serialized EAS schedule out (on
``cli_session``, a job is one whole ``python -m repro`` process).  Every
schedule is checked by the independent certificate in ``certify.py``; a
failure counts in ``failed`` and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics, with nothing wrapped.  Its
times are scaled to a reference host speed (``hostspeed.py``); the
unscaled times are kept in the details file.  ``deadline_met_frac`` and
``certified_frac`` are the complements of the deadline misses and of the
failed fraction, which are 0 on a healthy run and are printed as well.
``--trace 1`` runs every job twice, plain and then with the layer
wrappers of ``spans.py`` installed, checks both emit the same schedule,
and reports the per-layer metrics: per-job means of each layer's self
time (unscaled) and of the program's own counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details that do
not fit there (the tail's percentile and sample count, schedule digests,
per-job counters) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))

from certify import CertificateError, certify, certify_schedule, digest  # noqa: E402
from hostspeed import PROCESS_REFERENCE, PROCESS_REFERENCE_SECONDS, HostSpeed  # noqa: E402
from spans import Recorder, install  # noqa: E402
from workloads import (  # noqa: E402
    SAVED_SCHEDULE,
    WORKLOADS,
    GraphWorkload,
    build_ctg,
    build_platforms,
    pass_orders,
    passes,
    session_graph,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "energy_nJ": "nJ",
    "deadline_met_frac": "ratio",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: layer -> per-layer metric of its mean self seconds per job.
LAYER_SECONDS = {
    "import": "import.s",
    "arch": "arch.build_s",
    "ctg": "ctg.build_s",
    "slack": "slack.s",
    "level": "level.s",
    "probe": "probe.s",
    "gap": "gap.s",
    "repair": "repair.s",
    "serialize": "serialize.s",
    "edf": "edf.s",
    "sim": "sim.s",
    "other": "other.s",
}

#: program counters reported as per-job means, under their own names.
PROGRAM_COUNTERS = (
    "slack.budgets_computed",
    "eas.evaluations",
    "eas.cache_hits",
    "eas.commits",
    "eas.rescues",
    "comm.link_probes",
    "comm.merge_intervals",
    "comm.horizon_fast_path",
    "repair.rounds",
    "repair.replayed_tasks",
    "repair.prefix_reused_tasks",
    "repair.incremental_aborts",
    "repair.memo_skips",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SECONDS.values()},
    "import.modules": "count",
    "ctg.tasks": "count",
    "ctg.edges": "count",
    **{name: "count" for name in PROGRAM_COUNTERS},
    "eas.cache_hit_ratio": "ratio",
    "probe.calls": "count",
    "gap.calls": "count",
    "comm.path_cache_hit_ratio": "ratio",
    "repair.candidates": "count",
    "repair.accept_ratio": "ratio",
    "job.s": "s",
    "trace_overhead_frac": "ratio",
}


class GuardError(Exception):
    """A workload no longer exercises what it exists to exercise."""


class Tally:
    """Jobs attempted and failed, and each job's reference outcome."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: walls of the timed jobs as measured, the same scaled to the
        #: reference host speed (untraced runs), and how many were certified.
        self.walls: List[float] = []
        self.scaled_walls: List[float] = []
        self.timed_certified = 0
        self.speed: Optional[HostSpeed] = None
        #: job key -> (digest, energy, misses, constrained, counters) of its first run.
        self.outcomes: Dict[Any, Tuple] = {}

    def settle(self, key: Any, outcome: Optional[Tuple], problem: Optional[str]) -> bool:
        """Record one job; a repeat must match the key's first outcome."""
        self.attempted += 1
        if problem is None and self.outcomes.setdefault(key, outcome) != outcome:
            problem = "output or counters differ from an earlier run of the same job"
        if problem is not None:
            self.failed += 1
            print(f"perfbench: job {key}: FAILED: {problem}", file=sys.stderr)
            return False
        return True

    def timed(self, key: Any, wall: float, outcome: Optional[Tuple], problem: Optional[str]) -> None:
        self.walls.append(wall)
        if self.speed is not None:
            self.scaled_walls.append(self.speed.scale(wall))
        self.timed_certified += self.settle(key, outcome, problem)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # Serial runs only; the session's ledger path is set per run below.
    for variable in ("REPRO_JOBS", "REPRO_HEARTBEAT", "REPRO_LEDGER"):
        os.environ.pop(variable, None)
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - started
    import_modules = len(sys.modules) - before
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    recorder = Recorder() if traced else None
    tally = Tally()
    orders = pass_orders(workload, args.seed, passes(workload, args.seconds, traced))
    started = time.perf_counter()
    platforms = build_platforms(workload)
    arch_s = time.perf_counter() - started
    report: Dict[str, Any] = {}
    try:
        if isinstance(workload, GraphWorkload):
            layers = run_graphs(workload, platforms, orders, tally, recorder)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            layers_extra = {"import.s": import_s, "import.modules": import_modules,
                            "arch.build_s": arch_s}
        else:
            layers, peak_rss_mb = run_session(workload, orders, tally, recorder)
            layers_extra = {}
        if traced:
            metrics = per_layer_metrics(layers, layers_extra)
            units = PER_LAYER_UNITS
            recorder.write(str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))
        else:
            setups, references = [], []
            for _ in range(SETUP_REPEATS):
                setups.append(time_child([sys.executable, str(HERE / "child.py"), "setup",
                                          args.workload]))
                references.append(time_child(PROCESS_REFERENCE))
            metrics = end_to_end_metrics(tally, setups, references, peak_rss_mb, report)
            units = END_TO_END_UNITS
    except GuardError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, tally.attempted),
                          "failed": max(1, tally.failed), "metrics": {}}))
        return 1

    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=len(orders), attempted=tally.attempted, failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        digest=workload_digest(tally), metrics=metrics,
        jobs={str(key): {"digest": o[0], "energy_nJ": o[1], "deadline_misses": o[2],
                         "counters": o[4]} for key, o in sorted(tally.outcomes.items())},
    )
    results = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"{args.workload} seed {args.seed}: {tally.attempted} jobs in {len(orders)} passes, "
          f"{tally.failed} failed; details in {results.relative_to(ROOT)}")
    if "tail" in report:
        print(f"  job_s.tail is p{report['tail']['percentile']:.1f} of "
              f"{report['tail']['samples']} samples")
        print(f"  deadline_misses {report['deadline_misses']}, failed_frac {report['failed_frac']:g}")
    print(f"  schedule digest {report['digest']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


# -- in-process graph workloads ------------------------------------------------------


def graph_job(workload: GraphWorkload, index: int, acg, recorder: Optional[Recorder]):
    """One timed job: CTG build, EAS Steps 1-3, serialization."""
    from repro import obs
    from repro.core.eas import eas_schedule
    from repro.schedule import serialization

    def call(name, fn, *args):
        return recorder.call(name, fn, *args) if recorder is not None else fn(*args)

    def job():
        ctg = call("ctg", build_ctg, workload, index)
        schedule = eas_schedule(ctg, acg)
        return schedule, serialization.schedule_to_json(schedule)

    instrumentation = obs.Instrumentation.disabled()
    with obs.activate(instrumentation):
        started = time.perf_counter()
        schedule, text = call("job", job)
        wall = time.perf_counter() - started
    return wall, schedule, text, instrumentation.metrics.snapshot()["counters"]


def certified_outcome(schedule, text: str, counters: Dict[str, float]):
    energy, misses, constrained = certify_schedule(schedule, text)
    return digest(text), energy, misses, constrained, counters


def _attempt(workload: GraphWorkload, index: int, acg, recorder: Optional[Recorder]):
    """One job and its certificate: ``(wall, outcome, problem, counters)``."""
    started = time.perf_counter()
    try:
        wall, schedule, text, counters = graph_job(workload, index, acg, recorder)
    except Exception:  # a job that raises is a failed job, not a failed benchmark
        return time.perf_counter() - started, None, traceback.format_exc(limit=-4), {}
    try:
        return wall, certified_outcome(schedule, text, counters), None, counters
    except CertificateError as exc:
        return wall, None, f"certificate: {exc}", counters


def run_graphs(workload: GraphWorkload, platforms, orders, tally: Tally,
               recorder: Optional[Recorder]) -> List[Dict[str, float]]:
    """Run whole passes; returns each traced job's layer breakdown."""
    first = orders[0][0]
    # Untimed warm-up: lazy imports inside eas_schedule are not a per-job cost.
    _wall, outcome, problem, _counters = _attempt(workload, first, platforms[first], None)
    tally.settle(first, outcome, problem)
    if recorder is None:
        tally.speed = HostSpeed()
    repaired = False
    layers: List[Dict[str, float]] = []
    for order in orders:
        for index in order:
            wall, outcome, problem, counters = _attempt(workload, index, platforms[index], None)
            tally.timed(index, wall, outcome, problem)
            rounds = counters.get("repair.rounds", 0)
            if rounds and not workload.repair:
                raise GuardError(f"graph {index} entered Step 3 ({rounds:g} repair rounds)")
            repaired = repaired or rounds > 0
            if recorder is None:
                continue
            recorder.job = len(layers)
            uninstall = install(recorder)
            try:
                _wall, traced, problem, counters = _attempt(
                    workload, index, platforms[index], recorder)
            finally:
                uninstall()
            if problem is None and outcome is not None and traced[0] != outcome[0]:
                problem = "the traced run emitted a different schedule"
            tally.settle(index, traced, problem)
            root_wall, self_s, calls = recorder.self_times(recorder.job)
            layers.append(_breakdown(root_wall, wall, self_s, calls, counters,
                                     recorder.notes.get(recorder.job, {})))
    if workload.repair and not repaired:
        raise GuardError("no job reached repair.rounds > 0; the pool no longer needs Step 3")
    return layers


def _breakdown(traced_wall, plain_wall, self_s, calls, counters, notes) -> Dict[str, float]:
    """One traced job's layer seconds, call counts, counters and notes."""
    row = {f"{layer}.self": seconds for layer, seconds in self_s.items()}
    row.update({f"{layer}.calls": count for layer, count in calls.items()})
    row.update(counters)
    row.update(notes)
    row["job.s"] = traced_wall
    row["plain.s"] = plain_wall
    return row


# -- cli_session --------------------------------------------------------------------------


def child_env(ledger: Optional[Path] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    if ledger is not None:
        env["REPRO_LEDGER"] = str(ledger)
    return env


def run_child(argv: List[str], env: Dict[str, str], cwd: Path):
    """Run one process to completion: ``(wall, status, stdout, stderr, peak_rss_mb)``."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_maxrss / 1024)


def time_child(argv: List[str]) -> float:
    """Wall seconds of one short process that must succeed (set-up, reference)."""
    wall, status, _out, err, _rss = run_child(argv, child_env(), ROOT)
    if status != 0:
        raise RuntimeError(f"{argv[1:]} failed: {err.strip()}")
    return wall


_SUMMARY = re.compile(r"energy=([0-9.]+) nJ .*misses=(\d+)")


def _check_session(key, status, stdout, stderr, tmp: Path, graph):
    """The outcome of one CLI process, or the problem with it."""
    if status != 0:
        return None, f"exit status {status}: {stderr.strip()[-300:]}"
    lines = (tmp / "ledger.jsonl").read_text().splitlines()
    record = json.loads(lines[-1]) if lines else {}
    if record.get("type") != "run_finished":
        return None, "the run ledger has no run_finished record for this process"
    counters = record["metrics"]
    if key[0] == "validate":
        if "validate: PASS" not in stdout:
            raise GuardError(f"`validate` did not print PASS: {stdout.strip()[-300:]}")
        return (None, None, None, None, counters), None
    if key[0] != "schedule":
        return (digest_text(stdout), None, None, None, counters), None
    text = (tmp / SAVED_SCHEDULE).read_text()
    try:
        energy, misses, constrained = certify(json.loads(text), *graph)
    except CertificateError as exc:
        return None, f"certificate: {exc}"
    match = _SUMMARY.search(stdout)
    if match is None:
        return None, "`schedule` printed no summary line"
    if abs(float(match.group(1)) - energy) > 0.051 + 1e-9 * energy or int(match.group(2)) != misses:
        return None, f"summary {match.group(0)!r} differs from recomputed {energy:.1f} nJ, {misses}"
    return (digest(text), energy, misses, constrained, counters), None


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_session(workload, orders, tally: Tally, recorder: Optional[Recorder]):
    """Run whole passes of CLI processes in a temp dir inside the checkout."""
    graph = session_graph(workload)
    python = sys.executable
    layers: List[Dict[str, float]] = []
    peak_rss_mb = 0.0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        # The ledger append stays on: every CLI user pays it.
        env = child_env(tmp / "ledger.jsonl")
        first = orders[0][0]
        run_child([python, "-m", "repro", *first], env, tmp)  # untimed warm-up
        if recorder is None:
            tally.speed = HostSpeed()
        for order in orders:
            for key in order:
                wall, status, out, err, rss = run_child([python, "-m", "repro", *key], env, tmp)
                peak_rss_mb = max(peak_rss_mb, rss)
                outcome, problem = _check_session(key, status, out, err, tmp, graph)
                tally.timed(key, wall, outcome, problem)
                if recorder is None:
                    continue
                spans_file = tmp / "spans.json"
                traced_wall, status, out, err, _rss = run_child(
                    [python, str(HERE / "child.py"), "cli", str(spans_file), *key], env, tmp)
                traced_outcome, problem = _check_session(key, status, out, err, tmp, graph)
                if problem is None and outcome is not None and traced_outcome[0] != outcome[0]:
                    problem = "the traced process emitted different output"
                tally.settle(key, traced_outcome, problem)
                layers.append(_session_breakdown(recorder, spans_file, traced_wall, wall,
                                                 traced_outcome[4] if traced_outcome else {}))
    return layers, peak_rss_mb


def _session_breakdown(recorder: Recorder, spans_file: Path, traced_wall: float,
                       plain_wall: float, counters) -> Dict[str, float]:
    """Fold one traced process's spans into the recorder and break it down."""
    data = json.loads(spans_file.read_text())
    job = recorder.job = recorder.job + 1
    base = len(recorder.spans)
    for name, start, end, parent in data["spans"]:
        recorder.spans.append((name, start, end, parent + base if parent >= 0 else -1, job))
    recorder.notes[job] = data["notes"]
    _root, self_s, calls = recorder.self_times(job)
    self_s.pop("other", None)
    self_s["import"] = data["import_s"]
    # The process's wall covers interpreter start and exit too; whatever
    # no layer span covers is reported as `other`.
    self_s["other"] = traced_wall - sum(self_s.values())
    row = _breakdown(traced_wall, plain_wall, self_s, calls, counters, data["notes"])
    row["import.modules"] = data["import_modules"]
    return row


# -- metrics -------------------------------------------------------------------------------


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten samples or fewer
    there is no such percentile and the maximum stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end_metrics(tally: Tally, setups: List[float], references: List[float],
                       peak_rss_mb: float, report: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics; times are scaled to the reference host speed."""
    outcomes = [o for o in tally.outcomes.values() if o[1] is not None]
    # fsum is exact, so the total does not depend on the seeded job order.
    energy = math.fsum(o[1] for o in outcomes)
    misses = sum(o[2] for o in outcomes)
    constrained = sum(o[3] for o in outcomes)
    walls = tally.scaled_walls
    tail_value, percentile, samples = tail(walls)
    report.update(
        tail={"percentile": percentile, "samples": samples},
        deadline_misses=misses,
        unscaled_job_s=tally.walls,
        reference_s=tally.speed.references,
        setup_samples_s=setups,
        process_reference_s=references,
    )
    return {
        "setup_s": statistics.median(setups) * PROCESS_REFERENCE_SECONDS
        / statistics.median(references),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_value,
        "jobs_per_s": tally.timed_certified / sum(walls),
        "energy_nJ": energy,
        "deadline_met_frac": (constrained - misses) / constrained if constrained else 0.0,
        "certified_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(layers: List[Dict[str, float]], extra: Dict[str, float]) -> Dict[str, float]:
    """Per-job means over the traced jobs, plus the ratios built from them."""
    total: Dict[str, float] = {}
    for row in layers:
        for name, value in row.items():
            total[name] = total.get(name, 0.0) + value
    jobs = len(layers)

    def mean(name: str) -> float:
        return total.get(name, 0.0) / jobs

    def ratio(part: str, *whole: str) -> float:
        denominator = sum(total.get(name, 0.0) for name in whole)
        return total.get(part, 0.0) / denominator if denominator else 0.0

    metrics = {metric: mean(f"{layer}.self") for layer, metric in LAYER_SECONDS.items()}
    metrics["import.modules"] = mean("import.modules")
    metrics.update(extra)
    metrics.update({name: mean(name) for name in PROGRAM_COUNTERS + ("ctg.tasks", "ctg.edges",
                                                                      "repair.candidates")})
    metrics["probe.calls"] = mean("probe.calls")
    metrics["gap.calls"] = mean("gap.calls")
    metrics["eas.cache_hit_ratio"] = ratio("eas.cache_hits", "eas.cache_hits", "eas.evaluations")
    metrics["comm.path_cache_hit_ratio"] = ratio(
        "comm.path_cache_hits", "comm.path_cache_hits", "comm.path_cache_misses")
    metrics["repair.accept_ratio"] = ratio("repair.accepted", "repair.candidates")
    metrics["job.s"] = mean("job.s")
    metrics["trace_overhead_frac"] = total["job.s"] / total["plain.s"] - 1
    # The layers' self times plus other.s make up the job; on the
    # in-process workloads import and ACG build happen once, before any job.
    in_job = [m for layer, m in LAYER_SECONDS.items() if f"{layer}.self" in total]
    if abs(sum(metrics[m] for m in in_job) - metrics["job.s"]) > 1e-6 * max(1.0, metrics["job.s"]):
        raise RuntimeError("layer self times do not add up to the job time")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def workload_digest(tally: Tally) -> str:
    """One digest over every job's output digest, in pool order."""
    parts = [f"{key}:{outcome[0]}" for key, outcome in sorted(tally.outcomes.items(), key=str)]
    return digest_text("\n".join(parts))


if __name__ == "__main__":
    sys.exit(main())
