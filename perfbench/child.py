"""Fresh-process helpers the benchmark starts.

``python3 perfbench/child.py setup WORKLOAD``
    Import ``repro.cli`` and build the workload's platform ACGs, then
    exit: the parent times this whole process as one set-up.

``python3 perfbench/child.py cli OUT.json ARGS...``
    The traced form of ``python -m repro ARGS...``: time the import of
    ``repro.cli``, wrap the layers (see ``spans.py``), run
    ``repro.cli.main(ARGS)`` and write the import figures and every span
    to ``OUT.json`` at exit.

Both expect ``PYTHONPATH`` to name the checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _setup(workload_name: str) -> int:
    import repro.cli  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS, build_platforms

    build_platforms(WORKLOADS[workload_name])
    return 0


def _cli(out_path: str, argv) -> int:
    before = len(sys.modules)
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    import_modules = len(sys.modules) - before
    from spans import Recorder, install

    recorder = Recorder()
    recorder.job = 0
    install(recorder)
    try:
        status = recorder.call("cli", repro.cli.main, argv)
    finally:
        with open(out_path, "w") as handle:
            json.dump(
                {
                    "import_s": import_s,
                    "import_modules": import_modules,
                    "spans": [list(span[:4]) for span in recorder.spans if span is not None],
                    "notes": recorder.notes.get(0, {}),
                },
                handle,
            )
    return status


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(_setup(sys.argv[2]))
    if mode == "cli":
        sys.exit(_cli(sys.argv[2], sys.argv[3:]))
    sys.exit(f"child.py: unknown mode {mode!r}")
