"""Fresh-process probes started by run.py; not meant to be run by hand.

    child.py setup MODULE AxB [AxB ...]
        Import MODULE and build the rectangle posets, then print the
        seconds that took.
    child.py cli SPANS_PATH ARG [ARG ...]
        Import togglekit.cli, install the tracer, run cli.main(ARGS) with
        its output captured, write the output to stdout, the last op's
        spans to SPANS_PATH, and a JSON trace summary as the last line of
        stderr.  Exits with main's exit code.
"""

import sys
import time


def setup(module_name, shapes):
    t0 = time.perf_counter()
    __import__(module_name)
    from togglekit.posets import rectangle_poset

    for shape in shapes:
        rectangle_poset(*(int(side) for side in shape.split("x")))
    print(repr(time.perf_counter() - t0))


def traced_cli(spans_path, argv):
    import contextlib
    import io
    import json

    from tracer import Tracer

    t0 = time.perf_counter()
    import togglekit.cli as cli

    t1 = time.perf_counter()
    tracer = Tracer()
    unwrapped = tracer.install()
    t2 = time.perf_counter()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code, main_s = tracer.run(cli.main, argv)
    t3 = time.perf_counter()
    summary = tracer.summary()
    tracer.write_spans(spans_path)
    summary.update(
        code=code,
        unwrapped=unwrapped,
        import_s=t1 - t0,
        main_s=main_s,
        tracer_s=(t2 - t1) + (time.perf_counter() - t3),
    )
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    sys.stderr.write(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    else:
        raise SystemExit(traced_cli(sys.argv[2], sys.argv[3:]))
