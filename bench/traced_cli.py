"""Run one ``kantorovich`` command with the benchmark's tracer installed.

    python3 bench/traced_cli.py SPAN_FILE OP_ID ARG...

The traced run of the analyze-cli workload starts one of these per op in
place of ``python -m kantorovich ARG...``.  The command's spans are written
to SPAN_FILE as JSON, for the workload process to merge.
"""

import json
import sys
from pathlib import Path

import kantorovich.cli
from tracer import Tracer


def main() -> int:
    span_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id)
    try:
        return kantorovich.cli.run(argv)
    finally:
        tracer.end_op()
        Path(span_file).write_text(json.dumps(tracer.dump()),
                                   encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
