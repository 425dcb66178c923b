"""Run one acousticfd CLI command in this fresh interpreter and report on it.

Usage: python3 child.py JOB.json RESULT.json

JOB holds {"src": <dir holding the acousticfd package>, "argv": [...],
"trace": bool}. RESULT receives the monotonic time at which the CLI was
imported and its parser built, the in-process time of `cli.main(argv)`,
the time of a fixed reference kernel run just before and just after it,
the exit code, any traceback, the captured stdout, the peak RSS
and, when traced, the spans. With "argv": null the child stops once the
parser is built, which times interpreter set-up alone.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import numpy


def reference_kernel():
    """Seconds taken by a fixed mix of interpreted, exact and array work.

    It uses no acousticfd code, so its time moves only with the speed of the
    machine, which on a shared host drifts by up to 1.5x within tens of
    seconds. Dividing a command's time by the kernel's time around it
    removes that drift; both run in this interpreter, one after the other.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i % 7
    total += sum(Fraction(1, k) for k in range(1, 150))
    a = numpy.linspace(0.0, 1.0, 64 * 64 * 3).reshape(64, 64, 3)
    for _ in range(100):
        a = 0.5 * (numpy.roll(a, 1, axis=0) + numpy.roll(a, -1, axis=1))
    return time.perf_counter() - start


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from acousticfd import cli
    cli.build_parser()
    ready = time.monotonic()
    if job["argv"] is None:
        with open(result_path, "w") as fh:
            json.dump({"ready": ready, "module_file": cli.__file__}, fh)
        return

    ref_before_s = reference_kernel()
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer().install()

    out = io.StringIO()
    tb = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        tb = traceback.format_exc()
    cmd_s = time.perf_counter() - start
    ref_s = 0.5 * (ref_before_s + reference_kernel())

    result = {"ready": ready, "cmd_s": cmd_s, "ref_s": ref_s, "exit": code, "traceback": tb,
              "stdout": out.getvalue(),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "module_file": cli.__file__,
              "spans": tracer.spans if tracer else None}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
