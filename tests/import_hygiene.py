"""What ``import repro.cli`` may load: the CLI's import deny-list.

A ``repro-noc`` command pays for every module the CLI imports before it
parses its arguments, so the module level of ``repro.cli`` loads only
what parsing and ``main`` need, and each handler imports its own
modules.  This check starts a fresh interpreter, subtracts the modules a
bare ``python -c pass`` already loads (``site`` hooks differ between
hosts), and reports each denied module that ``import repro.cli`` still
brings in, and a ``repro`` module count over the budget::

    PYTHONPATH=src python tests/import_hygiene.py

It exits 1 on any violation and needs the standard library only, so it
also runs where pytest is not installed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict, List, Optional, Set

#: modules (and everything below them) ``import repro.cli`` must not load.
DENIED = (
    "multiprocessing",
    "concurrent.futures",
    "html",
    "repro.obs.diff",
    "repro.obs.explain",
    "repro.obs.report",
    "repro.obs.timeline",
    "repro.obs.utilization",
    "repro.obs.benchstore",
    "repro.parallel.spec",
    "repro.faults.recovery",
    "repro.faults.sweep",
    "repro.faults.degraded",
    "repro.sim",
    "repro.baselines.optimal",
    "repro.core.dvs",
    "repro.core.periodic",
    "repro.schedule.svg",
)

#: the most ``repro`` modules ``import repro.cli`` may load.
MAX_REPRO_MODULES = 30


def _modules_after(code: str, env: Optional[Dict[str, str]]) -> Set[str]:
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} failed: {proc.stderr.strip()}")
    return set(json.loads(proc.stdout.splitlines()[-1]))


def modules_loaded_by(code: str, env: Optional[Dict[str, str]] = None) -> Set[str]:
    """Modules a fresh interpreter loads to run ``code``, beyond a bare one."""
    return _modules_after(code, env) - _modules_after("pass", env)


def denied(loaded: Set[str]) -> List[str]:
    """The loaded modules :data:`DENIED` rules out."""
    return sorted(
        module
        for module in loaded
        if any(module == name or module.startswith(name + ".") for name in DENIED)
    )


def repro_modules(loaded: Set[str]) -> List[str]:
    return sorted(m for m in loaded if m == "repro" or m.startswith("repro."))


def main() -> int:
    loaded = modules_loaded_by("import repro.cli")
    problems = [f"denied module loaded: {module}" for module in denied(loaded)]
    count = len(repro_modules(loaded))
    if count > MAX_REPRO_MODULES:
        problems.append(f"{count} repro modules loaded, budget {MAX_REPRO_MODULES}")
    for problem in problems:
        print(f"import repro.cli: {problem}", file=sys.stderr)
    print(f"import repro.cli: {len(loaded)} modules, {count} from repro, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
