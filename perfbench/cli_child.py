"""``python -m mpccert.cli`` under the span tracer.

Usage: python3 cli_child.py SPANS_FILE ARGS...

Times the import of ``mpccert.cli`` as the span ``cli.import``, traces
``cli.main`` and everything below it, saves the spans to SPANS_FILE and
exits with the CLI's own status.
"""
import sys
import time

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import mpccert.cli

    t1 = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.add_span("cli.import", t0, t1)
    tracing.install(tracer)
    tracer.active = True
    try:
        code = mpccert.cli.main(argv)
    finally:
        tracer.active = False
        tracer.save(spans_file)
    sys.exit(code)
