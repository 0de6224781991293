"""repro.obs — zero-dependency instrumentation for the EAS pipeline.

Three primitives, bundled into one :class:`Instrumentation` and
activated per run:

* :class:`Tracer` — nested ``span()`` context managers recording wall
  time, monotonic start and attributes, plus point ``event()``s; the
  default :data:`NULL_TRACER` makes uninstrumented calls ~free.
* :class:`MetricsRegistry` — named counters / gauges / histograms with
  snapshot, in-place reset, and associative merge for cross-run
  aggregation.  The default bundle keeps metrics live (they are cheap).
* :class:`DecisionLog` — structured provenance of every task commit
  (chosen PE, regret δE, losing candidates, rescue flag), attachable to
  a schedule and exported as JSONL via :mod:`repro.obs.export`.

Typical use::

    from repro import obs

    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        schedule = eas_schedule(ctg, acg)
    obs.export.write_trace("run.jsonl", ins)
    print(obs.export.format_profile(ins))
"""

from repro._lazy import lazy_exports

# Nothing is imported until first use: a module that only calls
# ``obs.get()`` loads the context module alone, and each name is cached
# here after its first lookup (``obs.get`` is on the Step-2 hot path).
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.benchstore": ("BenchRun", "BenchStore", "RegressionCheck"),
        "repro.obs.context": ("Instrumentation", "PhaseTiming", "activate", "get", "timed_phase"),
        "repro.obs.decisions": ("Candidate", "DecisionLog", "TaskDecision"),
        "repro.obs.diff": ("ScheduleDiff", "diff_schedules", "format_diff"),
        "repro.obs.explain": ("ExplainReport", "critical_path", "explain_schedule", "format_explain"),
        "repro.obs.heartbeat": ("Heartbeat",),
        "repro.obs.ledger": ("RUN_LEDGER_SCHEMA_VERSION", "RunLedger", "prune_ledger", "read_ledger"),
        "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "repro.obs.report": ("build_report", "format_report"),
        "repro.obs.timeline": ("chrome_trace", "write_chrome_trace"),
        "repro.obs.tracer": ("NULL_TRACER", "Event", "NullTracer", "Span", "Tracer"),
        "repro.obs.utilization": ("UtilizationReport", "analyze_schedule"),
    },
    submodules=(
        "benchstore",
        "diff",
        "explain",
        "export",
        "heartbeat",
        "ledger",
        "report",
        "timeline",
        "utilization",
    ),
)
