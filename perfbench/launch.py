"""Child process of the benchmark: one `mixbar` invocation.

    python3 launch.py RECORD TRACED -- MIXBAR_ARGS...

Runs `mixbar.cli.main` exactly as the `mixbar` console script does. After
`import mixbar.cli` it notes the monotonic clock, which the parent compares
with its own clock at spawn time to get the set-up time. With TRACED=1 the
layer functions are wrapped first (see bench_trace.py). The clock reading,
the module path and any trace go to the RECORD file as JSON.
"""

import json
import sys
import time


def main() -> int:
    record_path, traced, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py RECORD TRACED -- MIXBAR_ARGS...")
    import mixbar.cli

    imported_at = time.monotonic()
    record = {"imported_at": imported_at, "module": mixbar.cli.__file__}
    if traced == "1":
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
        code = tracer.run(mixbar.cli.main, argv)
        record["trace"] = tracer.report()
    else:
        code = mixbar.cli.main(argv)
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
