"""Persistent benchmark telemetry: the repo's perf trajectory.

Every ``bench_*`` run appends one record to ``BENCH_<name>.json`` in the
repository root (override the directory with ``REPRO_BENCH_DIR``; set
``REPRO_BENCH_DIR=off`` to disable recording).  The file is a single
JSON document::

    {
      "schema_version": 1,
      "benchmark": "fig5_category1",
      "runs": [
        {"wall_seconds": ..., "energy_nJ": ..., "misses": ...,
         "git_rev": "2ac5fba", "timestamp": ..., "extra": {...}},
        ...
      ]
    }

so the perf trajectory of every benchmark survives across sessions and
"measurably faster" claims have a measurement backbone.  The companion
regression gate compares a fresh wall time against the *median* of the
stored runs (median, not mean: a single noisy run must not poison the
baseline) and flags runs more than 10 % slower; the benchmark harness
turns that flag into a nonzero exit under ``--bench-check``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.fileio import LOCK_TIMEOUT_SECONDS, current_git_rev, exclusive_lock

#: bump when the run-record layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: regression threshold: fresh run > (1 + this) * stored median => flagged.
DEFAULT_THRESHOLD = 0.10


@dataclass
class BenchRun:
    """One benchmark execution's telemetry."""

    name: str
    wall_seconds: float
    energy_nJ: Optional[float] = None
    misses: Optional[int] = None
    git_rev: str = "unknown"
    timestamp: float = 0.0
    #: host parallelism the run was measured under.  Trend comparisons
    #: (``--bench-check``, ``repro-noc report``) only consider records
    #: whose ``cpu_count`` matches, so a wall time measured on a 1-CPU
    #: container can never gate or pollute a many-core host's baseline.
    cpu_count: Optional[int] = None
    #: resolved ``--jobs`` worker count the run used (1 = serial).
    jobs: Optional[int] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "wall_seconds": self.wall_seconds,
            "git_rev": self.git_rev,
            "timestamp": self.timestamp,
        }
        if self.energy_nJ is not None:
            record["energy_nJ"] = self.energy_nJ
        if self.misses is not None:
            record["misses"] = self.misses
        if self.cpu_count is not None:
            record["cpu_count"] = self.cpu_count
        if self.jobs is not None:
            record["jobs"] = self.jobs
        if self.extra:
            record["extra"] = dict(self.extra)
        return record


@dataclass(frozen=True)
class RegressionCheck:
    """Outcome of comparing one run against the stored median."""

    name: str
    wall_seconds: float
    median_seconds: Optional[float]
    threshold: float

    @property
    def ratio(self) -> float:
        """Fresh wall time over stored median (1.0 = on par)."""
        if not self.median_seconds:
            return 1.0
        return self.wall_seconds / self.median_seconds

    @property
    def regressed(self) -> bool:
        """True when this run is more than ``threshold`` slower."""
        return self.median_seconds is not None and self.ratio > 1.0 + self.threshold

    def describe(self) -> str:
        if self.median_seconds is None:
            return f"{self.name}: no stored baseline yet ({self.wall_seconds * 1e3:.1f} ms)"
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.name}: {self.wall_seconds * 1e3:.1f} ms vs median "
            f"{self.median_seconds * 1e3:.1f} ms (x{self.ratio:.3f}, "
            f"limit x{1.0 + self.threshold:.2f}) [{verdict}]"
        )


class BenchStore:
    """Append-only per-benchmark run history under one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @classmethod
    def from_env(cls) -> Optional["BenchStore"]:
        """The store named by ``REPRO_BENCH_DIR`` (repo root by default).

        Returns None when recording is disabled (``REPRO_BENCH_DIR=off``).
        """
        configured = os.environ.get("REPRO_BENCH_DIR")
        if configured in ("off", "0"):
            return None
        if configured:
            return cls(configured)
        return cls(Path(__file__).resolve().parents[3])

    def path_for(self, name: str) -> Path:
        return self.root / f"BENCH_{name}.json"

    # -- persistence --------------------------------------------------------

    def load(self, name: str) -> List[Dict[str, Any]]:
        """Stored run records for ``name`` (oldest first; [] when none)."""
        path = self.path_for(name)
        if not path.exists():
            return []
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return []
        runs = document.get("runs", []) if isinstance(document, dict) else []
        return [run for run in runs if isinstance(run, dict)]

    def append(self, run: BenchRun) -> Path:
        """Append ``run`` to its benchmark's history file; returns the path.

        Safe under concurrent writers: the read-modify-write cycle runs
        under an ``O_CREAT | O_EXCL`` lockfile (per benchmark name), so
        pooled benchmark runs appending from several processes at once
        cannot interleave partial documents or drop each other's runs.
        A lock older than :data:`LOCK_TIMEOUT_SECONDS` is treated as
        leaked by a dead process and broken.
        """
        if run.cpu_count is None:
            run = dataclasses.replace(run, cpu_count=os.cpu_count())
        record = run.to_dict()
        if not record["timestamp"]:
            record["timestamp"] = time.time()
        if record["git_rev"] == "unknown":
            record["git_rev"] = current_git_rev(self.root)
        path = self.path_for(run.name)
        self.root.mkdir(parents=True, exist_ok=True)
        with self._locked(path):
            runs = self.load(run.name)
            runs.append(record)
            document = {
                "schema_version": BENCH_SCHEMA_VERSION,
                "benchmark": run.name,
                "runs": runs,
            }
            # Atomic within the lock: readers racing the writer still see
            # either the old or the new complete document, never a torn one.
            tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(document, indent=1) + "\n")
            tmp.replace(path)
        return path

    def _locked(self, path: Path, timeout: float = LOCK_TIMEOUT_SECONDS) -> Iterator[None]:
        """Hold ``path``'s sibling lockfile (see :func:`exclusive_lock`)."""
        return exclusive_lock(path, timeout)

    # -- analytics ----------------------------------------------------------

    def median_wall(self, name: str, cpu_count: Optional[int] = None) -> Optional[float]:
        """Median stored ``wall_seconds``; None when no runs exist.

        With ``cpu_count`` given, only runs measured on a matching host
        enter the baseline — a record carrying a *different*
        ``cpu_count`` is skipped, so a wall time from a 1-CPU container
        cannot gate or pollute a many-core host's trend.  Legacy records
        without a recorded ``cpu_count`` are treated as wildcards and
        stay comparable (excluding them would silently disarm every
        pre-existing gate).
        """
        walls = sorted(
            run["wall_seconds"]
            for run in self.load(name)
            if isinstance(run.get("wall_seconds"), (int, float))
            and math.isfinite(run["wall_seconds"])
            and cpu_comparable(run, cpu_count)
        )
        if not walls:
            return None
        mid = len(walls) // 2
        if len(walls) % 2:
            return walls[mid]
        return 0.5 * (walls[mid - 1] + walls[mid])

    def check(
        self,
        name: str,
        wall_seconds: float,
        threshold: float = DEFAULT_THRESHOLD,
        cpu_count: Optional[int] = None,
    ) -> RegressionCheck:
        """Compare a fresh run against the stored median (before appending).

        ``cpu_count`` restricts the baseline to runs measured on a host
        with a matching CPU count (see :meth:`median_wall`).
        """
        return RegressionCheck(
            name=name,
            wall_seconds=wall_seconds,
            median_seconds=self.median_wall(name, cpu_count=cpu_count),
            threshold=threshold,
        )


def cpu_comparable(run: Dict[str, Any], cpu_count: Optional[int]) -> bool:
    """Whether a stored ``run`` may enter a baseline for a ``cpu_count`` host.

    ``cpu_count=None`` disables the filter; a run without a recorded
    ``cpu_count`` (pre-schema-extension legacy) matches any host.
    """
    if cpu_count is None:
        return True
    recorded = run.get("cpu_count")
    return recorded is None or recorded == cpu_count
