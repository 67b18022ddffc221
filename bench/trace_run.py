"""One traced CLI run: ``python bench/trace_run.py TRACE.json -- <repro argv>``.

Imports ``repro.cli`` (timed: the import is what every CLI user pays
first), installs the span wrappers of :mod:`tracer`, then calls
``repro.cli.main(argv)`` in this process, so the traced run takes the
same code path as the timed ``python -m repro`` runs.  The merged trace
goes to ``TRACE.json``; forked workers write into ``TRACE.json.spans/``
meanwhile.  Exits with the command's exit code.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import tracer as tracing


def main(argv: list[str]) -> int:
    path = Path(argv[0])
    cli_argv = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    spans_dir = path.with_name(path.name + ".spans")
    tracer = tracing.Tracer(spans_dir)
    tracing.install(tracer)
    tracer.begin("cli.main")
    try:
        code = repro.cli.main(cli_argv)
    finally:
        tracer.end()
        sys.stdout.flush()
        tracer.write(path, import_s=import_s)
        shutil.rmtree(spans_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
