"""Run the heisenfourier command line with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SUMMARY.json CLI-ARGUMENTS...

Writes the tracer's report (per-layer summary, counters, absent names and
spans) to SUMMARY.json and exits with the command line's own exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import install_tracer, traced  # noqa: E402


def main() -> int:
    summary, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = install_tracer()
    import heisenfourier.cli

    try:
        with traced(tracer, ""):
            return heisenfourier.cli.main(argv)
    finally:
        summary.write_text(json.dumps(tracer.report()))


if __name__ == "__main__":
    sys.exit(main())
