"""Start one evnets CLI process from this checkout's sources.

Usage: python3 bench/launch.py <evnets arguments...>

The package is not installed and has no ``__main__`` module, so the
benchmark starts every CLI process through this file, which puts ``src`` on
the import path and calls ``evnets.cli.main``. When the environment variable
named by ``SPANS_ENV`` holds a file path, the process also records spans (see
``spans.py``) and writes them to that file when ``main`` returns; the job id
comes from ``JOB_ENV``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SPANS_ENV = "EVNETS_BENCH_SPANS"
JOB_ENV = "EVNETS_BENCH_JOB"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def run() -> int:
    out = os.environ.get(SPANS_ENV)
    if not out:
        from evnets.cli import main
        return main(sys.argv[1:])
    import spans

    recorder = spans.Recorder(os.environ.get(JOB_ENV, ""), START)
    try:
        from evnets import cli

        recorder.imported()
        recorder.install()
        return recorder.call_main(cli.main, sys.argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(run())
