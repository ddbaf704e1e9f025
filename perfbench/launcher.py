"""Run one mgnef command with tracing installed.

    python perfbench/launcher.py TRACE_FILE certify --genus 20 --format json

Imports ``mgnef.cli`` from the checkout's ``src/`` (timing the import),
installs the tracer, calls ``mgnef.cli.main(argv)`` and writes the spans
and counters to TRACE_FILE at exit.  The exit status is the command's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def require_checkout_mgnef():
    """Import mgnef from the checkout's src/, refusing any other copy."""
    if not (SRC / "mgnef" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mgnef sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import mgnef.cli

    import_s = perf_counter() - t0
    if SRC not in Path(mgnef.__file__).resolve().parents:
        sys.exit(f"perfbench: mgnef imported from {mgnef.__file__}, not from {SRC}")
    return mgnef, import_s


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    mgnef, import_s = require_checkout_mgnef()
    from tracer import Tracer

    tracer = Tracer()
    tracer.request = " ".join(argv)
    tracer.install()
    try:
        return mgnef.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main())
