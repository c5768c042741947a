"""kamcrit benchmark: one workload, one run, one JSON result line.

    python3 kcbench/run.py --workload cli-cold|greene-deep|sweep \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is used from ``src`` on
``PYTHONPATH`` (``python -m kamcrit.cli`` for the cold CLI).  Every operation
runs in a closed loop with one client; BLAS threads are left at their
default.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last stdout line is the result object; the full record
(environment, samples, errors) also goes to ``kcbench/.out/``.  The exit
code is 0 only when every operation passed its output checks.
"""

import argparse
import compileall
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import another_fits  # noqa: E402

# fresh-process set-ups per run; an import alone is cheap, so the cold CLI takes more
SETUP_SAMPLES = {"cli-cold": 5, "greene-deep": 3, "sweep": 3}
IMPORTTIME_SAMPLES = 3
CLI_TIMEOUT_S = 60.0


def tail(durations):
    """(value, percentile, n): the sample at the highest percentile that has
    at least ten samples beyond it, or the maximum when there are ten or
    fewer samples."""
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def git_sha():
    """Commit of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Run:
    def __init__(self, args):
        self.args = args
        self.workdir = BENCH / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.spans_dir = BENCH / ".out" / f"spans-{args.workload}-seed{args.seed}"
        self.inputs = workloads.make_inputs(args.workload, args.seed)
        self.errors = []
        self.environment = None
        self.ref = None
        self.attempted = self.failed = self.ok = 0

    # -- child processes ---------------------------------------------------

    def _spawn(self, argv, timeout, tag):
        """Run a child with stdout/stderr in files; (code, stdout, stderr, wall_s)."""
        out, err = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            # a blocking wait returns when the child ends; wait(timeout=...)
            # polls with sleeps of up to 50 ms, which would quantise the wall time
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        if wall >= timeout and code < 0:
            code = "timeout"
        return code, out.read_text(), err.read_text(), wall

    def _worker(self, mode, timeout, **opts):
        result = self.workdir / f"{mode}-{time.monotonic_ns()}.json"
        argv = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--result", str(result)]
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        code, _, err, _ = self._spawn(argv, timeout, f"{mode}-worker")
        if code != 0 or not result.exists():
            raise RuntimeError(f"worker {mode} exit {code}: {err.strip()[-1500:]}")
        return json.loads(result.read_text())

    def setup_samples(self, count):
        samples, env = [], None
        for i in range(count):
            wd = self.workdir / f"setup-{i}"
            wd.mkdir()
            rec = self._worker("setup", 60.0, workdir=wd)
            samples.append(rec["setup_s"])
            env = rec["env"]
        return samples, env

    def import_times(self):
        """Median cumulative import times from ``python -X importtime``."""
        wanted = {"kamcrit": "import.kamcrit_s", "scipy.optimize": "import.scipy_optimize_s",
                  "numpy": "import.numpy_s"}
        got = {v: [] for v in wanted.values()}
        for i in range(IMPORTTIME_SAMPLES):
            code, _, err, _ = self._spawn(
                [sys.executable, "-X", "importtime", "-c", "import kamcrit"], 60.0, f"importtime-{i}")
            if code != 0:
                raise RuntimeError(f"import kamcrit failed: {err.strip()[-800:]}")
            for line in err.splitlines():
                m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
                if m and m.group(2) in wanted:
                    got[wanted[m.group(2)]].append(int(m.group(1)) * 1e-6)
        return {k: {"value": statistics.median(v) if v else 0.0, "unit": "s"} for k, v in got.items()}

    # -- cold CLI ----------------------------------------------------------

    def _cli_op(self, label, argv, traced, spans_out):
        tag = f"op-{self.attempted}"
        if traced:
            spans = self.spans_dir / f"{tag}.jsonl"
            cmd = [sys.executable, str(BENCH / "worker.py"), "cli", "--spans", str(spans),
                   "--argv", json.dumps(argv)]
        else:
            cmd = [sys.executable, "-m", "kamcrit.cli", *argv]
        self.attempted += 1
        code, out, err, wall = self._spawn(cmd, CLI_TIMEOUT_S, tag)
        try:
            if workloads.check_cli(label, argv, code, out, err, self.inputs, self.ref):
                self.ok += 1
        except (workloads.CheckError, ValueError, KeyError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"{label} {argv}: {exc!r}")
        if traced and spans.exists():  # a killed process leaves no spans
            spans_out.append(tracing.load_spans(spans))
        return wall

    def cli_cold(self):
        """As many whole cycles of the mix as fit in ``--seconds`` (at least
        one), so every run sees the same mix; the traced run follows each
        untraced operation with its traced twin."""
        self.ref = workloads.reference_for("cli-cold", self.args.seed, self.inputs)
        mix = workloads.cli_mix(self.inputs, self.workdir)
        untraced, traced, spans = [], [], []
        start, cycles = time.perf_counter(), 0
        while cycles == 0 or another_fits(start, cycles, self.args.seconds):
            for label, argv in mix:
                untraced.append(self._cli_op(label, argv, False, spans))
                if self.args.trace:
                    traced.append(self._cli_op(label, argv, True, spans))
            cycles += 1
        if self.args.trace:
            tot = {}
            for s in spans:
                tracing.totals(s, into=tot)
            firsts = [f for f in (tracing.first_duration(s, "orbits.refine_multishoot")
                                  for s in spans) if f > 0]
            return self.per_layer(tot, len(traced), statistics.median(firsts) if firsts else 0.0,
                                  untraced, traced)
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        setup, self.environment = self.setup_samples(SETUP_SAMPLES["cli-cold"])
        return self.end_to_end(untraced, len(untraced) - self.failed, setup, peak_mb)

    # -- warm workloads ----------------------------------------------------

    def warm(self):
        rec = self._worker("measure", self.args.seconds + 100.0, seconds=self.args.seconds,
                           trace=self.args.trace, workdir=self.workdir,
                           spans=self.spans_dir / "worker.jsonl")
        self.environment = rec["env"]
        self.attempted, self.failed, self.ok = rec["attempted"], rec["failed"], rec["ok"]
        self.errors += rec["errors"]
        if self.args.trace:
            t = rec["trace"]
            return self.per_layer(t["totals"], len(t["traced_durations"]), t["first_multishoot_s"],
                                  t["untraced_durations"], t["traced_durations"])
        setup, _ = self.setup_samples(SETUP_SAMPLES[self.args.workload] - 1)
        return self.end_to_end(rec["durations"], rec["units"], [rec["setup_s"]] + setup,
                               rec["peak_rss_mb"])

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, durations, units, setup, peak_mb):
        value, pct, n = tail(durations)
        self.details = {"op_tail_percentile": pct, "op_samples": n, "setup_samples": setup,
                        "units": units, "durations": durations}
        return {
            "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "op_tail_s": {"value": value, "unit": "s"},
            "work_per_s": {"value": units / sum(durations), "unit": "1/s"},
            "ok_ratio": {"value": self.ok / self.attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    def per_layer(self, tot, n_traced, first_multishoot_s, untraced, traced):
        metrics = self.import_times()
        metrics.update(tracing.layer_metrics(tot, max(n_traced, 1), first_multishoot_s))
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    if traced and untraced else 0.0)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        self.details = {"traced_ops": n_traced, "untraced_durations": untraced,
                        "traced_durations": traced}
        if self.environment is None:
            _, self.environment = self.setup_samples(1)
        return metrics

    def execute(self):
        self.workdir.mkdir(parents=True)
        if self.args.trace:  # spans are kept after the run, one directory per workload and seed
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir(parents=True)
        try:
            if self.args.workload == "cli-cold":
                return self.cli_cold()
            return self.warm()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kamcrit" / "__init__.py").is_file():
        print(f"error: no kamcrit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # the build: byte-compile once so no timed import pays for compilation
    compileall.compile_dir(str(SRC), quiet=1)

    run = Run(args)
    try:
        metrics = run.execute()
    except RuntimeError as exc:  # a worker crashed: no result to report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = dict(run.environment, git_sha=git_sha(),
               numba_path="measured" if run.environment["numba_importable"]
               else "unmeasured: numba does not import here")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": run.inputs, "env": env,
              "details": run.details, "errors": run.errors, "metrics": metrics}
    (BENCH / ".out").mkdir(exist_ok=True)
    (BENCH / ".out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for err in run.errors:
        print("FAILED " + err.replace("\n", " | "))
    if not args.trace:
        d = run.details
        print(f"op_tail_s is p{d['op_tail_percentile']:.1f} of {d['op_samples']} operations; "
              f"setup samples {['%.3f' % s for s in d['setup_samples']]}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
