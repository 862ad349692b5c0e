"""One workload process, as a user runs ``repro count``.

    python3 perfbench/runner.py [--trace-dir DIR] count ARGS...

Imports ``repro.cli``, prints ``PERFBENCH-READY <monotonic seconds>`` (the
parent's ``setup_s`` marker) and runs ``repro.cli.main``.  With
``--trace-dir`` the layer wrappers of :mod:`spans` are installed first and
the spans are written to DIR when ``main`` returns.
``PERFBENCH_DELAY=row=seconds`` slows one layer on purpose (see
``spans.inject_delay``); only the tests set it.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:1] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    tracer = None
    if trace_dir is None:
        import repro.cli
    else:
        import spans

        tracer = spans.Tracer(trace_dir)
        t0 = time.monotonic()
        import repro.cli

        tracer.record("cli.import_s", t0, time.monotonic())
    print(f"PERFBENCH-READY {time.monotonic()!r}", flush=True)
    delay = os.environ.get("PERFBENCH_DELAY")
    if delay:
        import spans

        spans.inject_delay(delay)
    if tracer is not None:
        spans.install(tracer)
    rc = repro.cli.main(argv)
    if tracer is not None:
        tracer.dump()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
