"""Fresh-process side of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``: time ``import kamcrit`` plus, for a warm workload, its untimed
  warm-up operation; report that and the environment.
* ``measure``: the same set-up, then a closed loop of as many operations as
  fit in ``--seconds`` (at least one).  With ``--trace 1`` the loop
  alternates untraced and traced operations, so one process gives both the
  per-layer spans and the tracing overhead.
* ``cli``: run ``kamcrit.cli.main(argv)`` under the tracer, write the spans
  and exit with main's code (the traced form of one cold-CLI operation).

Only the standard library is imported before ``import kamcrit`` is timed.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _write_json(path, record):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, path)


def _timed_setup(workload, seed, workdir):
    """(setup_s, operation object or None) for a fresh process."""
    t0 = time.perf_counter()
    import kamcrit  # noqa: F401  (the import is what is timed)

    if workload == "cli-cold":
        return time.perf_counter() - t0, None
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    ref = workloads.reference_for(workload, seed, inputs)
    runner = workloads.WARM[workload](inputs, workdir, ref)
    runner.check(runner.op())  # the warm-up operation
    return time.perf_counter() - t0, runner


def another_fits(start, done, seconds):
    """Whether one more operation, at the mean time so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def closed_loop(runner, seconds, tracer=None):
    """Run, time and check operations until another would overrun ``seconds``.

    With a tracer, odd-numbered operations run traced and even ones with the
    originals restored.  A raised exception or failed check counts the
    operation as failed; the loop goes on.
    """
    loop = {"durations": [], "traced": [], "untraced": [], "units": 0, "attempted": 0,
            "failed": 0, "errors": []}
    start = time.perf_counter()
    while loop["attempted"] == 0 or another_fits(start, loop["attempted"], seconds):
        trace_this = tracer is not None and loop["attempted"] % 2 == 1
        if tracer is not None:
            tracer.install() if trace_this else tracer.uninstall()
        loop["attempted"] += 1
        t0 = time.perf_counter()
        try:
            result = tracer.root("op", runner.op) if trace_this else runner.op()
            dt = time.perf_counter() - t0
            loop["units"] += runner.check(result)
        except Exception:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            loop["failed"] += 1
            loop["errors"].append(traceback.format_exc(limit=3)[-800:])
        loop["durations"].append(dt)
        loop["traced" if trace_this else "untraced"].append(dt)
    if tracer is not None:
        tracer.uninstall()
    return loop


def _measure(args, tracer):
    setup_s, runner = _timed_setup(args.workload, args.seed, args.workdir)
    warmup_spans = len(tracer.spans) if tracer else 0
    loop = closed_loop(runner, args.seconds, tracer)
    record = {
        "setup_s": setup_s,
        "durations": loop["durations"],
        "units": loop["units"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "ok": loop["attempted"] - loop["failed"],
        "errors": loop["errors"][:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        import tracer as tracing

        record["trace"] = {
            "traced_durations": loop["traced"],
            "untraced_durations": loop["untraced"],
            "totals": tracing.totals(tracer.spans, start=warmup_spans),
            "first_multishoot_s": tracing.first_duration(tracer.spans, "orbits.refine_multishoot"),
        }
        tracer.dump(args.spans)
    return record


def environment():
    """Versions, kernel backend, BLAS build and thread settings of this process."""
    import importlib.util
    import platform

    import numpy
    import scipy

    import kamcrit

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kamcrit": getattr(kamcrit, "__version__", None),
        "kernel_backend": kamcrit.kernel_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    }


def _run_cli(args):
    import tracer as tracing

    tracer = tracing.Tracer()
    import kamcrit.cli

    tracer.install()
    code = 0
    try:
        code = tracer.root("op", kamcrit.cli.main, json.loads(args.argv))
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code or 0
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans)
    return code


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--argv", help="JSON list of CLI arguments (cli mode)")
    args = parser.parse_args()
    if args.mode == "cli":
        return _run_cli(args)
    if args.mode == "setup":
        setup_s, _ = _timed_setup(args.workload, args.seed, args.workdir)
        _write_json(args.result, {"setup_s": setup_s, "env": environment()})
        return 0
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        import kamcrit  # noqa: F401  (the tracer patches loaded modules)

        tracer.install()  # so the warm-up records the first refine_multishoot
    _write_json(args.result, _measure(args, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
