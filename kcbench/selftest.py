"""Self-test of the benchmark's own machinery (about 10 s):

    python3 kcbench/selftest.py

Shows that a perturbed K_crit, a non-zero exit and a merge conflict are each
counted as failed operations; that nested spans' self times add up to the
root's wall time; that the tracer leaves results unchanged and restores the
originals; and the tail and compare rules.
"""

import sys
import tempfile
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"  # scratch space, ignored by git
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import kamcrit  # noqa: E402
import kamcrit.orbits  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import closed_loop  # noqa: E402


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


class Replay:
    """A runner whose operation returns canned results, checked by ``check``."""

    def __init__(self, results, check):
        self.results = list(results)
        self.check = check

    def op(self):
        return self.results.pop(0)


def test_perturbed_kcrit_is_failed():
    ref = workloads.load_reference()["greene"]
    per_n = [(int(n), k) for n, k in ref["per_n"].items()]
    good = SimpleNamespace(per_n=per_n, k_crit=ref["k_crit"]["13"], diagnostics={"failures": []})
    bad = SimpleNamespace(per_n=per_n, k_crit=good.k_crit + 1e-3, diagnostics={"failures": []})
    check = workloads.GreeneDeep({"depth": 13}, None, ref).check
    expect(closed_loop(Replay([good], check), 0.0)["failed"] == 0, "reference result failed")
    loop = closed_loop(Replay([bad], check), 0.0)
    expect(loop["failed"] == 1 and "K_crit" in loop["errors"][0], "perturbed K_crit not failed")


def test_nonzero_exit_is_failed(tmp):
    bench = run.Run(SimpleNamespace(workload="cli-cold", seed=0, trace=0, seconds=0.0))
    bench.workdir = Path(tmp) / "cli"
    bench.workdir.mkdir()
    bench.ref = None
    bench._cli_op("orbit", ["orbit", "--m", "1", "--n", "2", "--K", "-1"], False, [])
    # exit 2 (usage) is not the documented criterion-7 exit 1
    bench._cli_op("nch7", ["kcrit-nch", "--depth", "7", "--k-grid", "x"], False, [])
    expect((bench.attempted, bench.failed, bench.ok) == (2, 2, 0),
           f"non-zero exits counted {bench.attempted, bench.failed, bench.ok}")


def test_merge_conflict_is_failed(tmp):
    sweep = workloads.Sweep(workloads.make_inputs("sweep", 0), tmp, None)
    expect(closed_loop(sweep, 0.0)["failed"] == 0, "first sweep failed")
    greene_csv = sweep.prev / "greene.csv"
    lines = greene_csv.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1.25"
    greene_csv.write_text("\n".join(lines) + "\n")
    loop = closed_loop(sweep, 0.0)
    expect(loop["failed"] == 1 and "MergeConflictError" in loop["errors"][0],
           f"merge conflict not failed: {loop['errors']}")


def test_self_times_add_up():
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.root("op", kamcrit.greene_kcrit, 5)
    finally:
        tr.uninstall()
    root = tr.spans[0]
    selfs = tracing.self_times(tr.spans)
    expect(len(tr.spans) > 100 and all(s >= -1e-9 for s in selfs), "implausible spans")
    expect(abs(sum(selfs) - (root[2] - root[1])) <= 1e-9 * len(selfs),
           f"self times sum {sum(selfs)} != root {root[2] - root[1]}")
    names = {rec[0] for rec in tr.spans}
    expect({"criteria.greene_kcrit", "stability.find_destabilization", "orbits.brentq",
            "kernels.final_state", "orbits.OrbitBranch.orbit_at"} <= names, f"missing {names}")
    expect(kamcrit.orbits.find_periodic_orbit.__name__ == "find_periodic_orbit"
           and not hasattr(kamcrit.orbits.OrbitBranch.orbit_at, "__wrapped__"),
           "uninstall left wrappers behind")


def test_traced_results_unchanged(tmp):
    ref = workloads.load_reference()["greene"]
    runner = workloads.GreeneDeep({"depth": 8}, None, ref)
    tr = tracing.Tracer()
    loop = closed_loop(Replay([runner.op()], runner.check), 0.0)
    tr.install()
    try:
        traced = tr.root("op", runner.op)
    finally:
        tr.uninstall()
    expect(loop["failed"] == 0, "untraced greene failed its checks")
    runner.check(traced)
    expect(traced.per_n == runner.op().per_n, "tracing changed the Greene thresholds")

    bench = run.Run(SimpleNamespace(workload="cli-cold", seed=0, trace=1, seconds=0.0))
    bench.workdir = bench.spans_dir = Path(tmp) / "cli"
    bench.workdir.mkdir()
    bench.ref = workloads.reference_for("cli-cold", 0, bench.inputs)
    spans = []
    for label, argv in workloads.cli_mix(bench.inputs, bench.workdir)[:3]:
        bench._cli_op(label, argv, True, spans)
    expect(bench.failed == 0 and bench.ok == 3, f"traced CLI failed its checks: {bench.errors}")
    expect(all(s[1][0] == "cli.main" for s in spans), "cli.main span missing")


def test_tail_rule():
    expect(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3), "tail of few samples is the maximum")
    value, pct, n = run.tail([float(i) for i in range(40)])
    expect((value, pct, n) == (29.0, 75.0, 40), f"tail of 40 samples {value, pct, n}")


def test_compare_refuses():
    env = {"kernel_backend": "numpy", "blas_threads": {"OPENBLAS_NUM_THREADS": None}}
    a = {"workload": "sweep", "trace": 0, "env": env}
    expect(compare.refusal(a, a) is None, "identical settings refused")
    for key, value in (("kernel_backend", "numba"), ("blas_threads", {"OPENBLAS_NUM_THREADS": "1"})):
        b = {**a, "env": {**env, key: value}}
        expect(compare.refusal(a, b) is not None, f"{key} difference not refused")


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    WORK.mkdir(exist_ok=True)
    for name, fn in tests:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            try:
                fn(tmp) if fn.__code__.co_argcount else fn()
                print(f"ok   {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
