"""Traced stand-in for the `residua` command, used by the traced cli-qq run.

    python3 perfbench/cli_child.py PROFILE_OUT verify THEOREM FILE

Imports `residua.cli` (timing the import), installs the tracer, runs the
CLI's `main` on the remaining arguments, writes the trace profile to
PROFILE_OUT and its spans next to it, and exits with the CLI's code.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import residua.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    code = residua.cli.main(sys.argv[2:])
    profile = tracer.profile()
    profile["import_s"] = IMPORT_S
    out.write_text(json.dumps(profile))
    tracer.dump_spans(out.with_suffix(".spans"))
    return code


if __name__ == "__main__":
    sys.exit(main())
