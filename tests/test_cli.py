import argparse
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kamcrit
from kamcrit import OrbitBranch
from kamcrit._kernels import batch_trajectory
from kamcrit.cli import _parse_seeds, build_parser, main
from kamcrit.mapcore import wrap_angle, wrap_momentum

TWO_PI = 2 * math.pi


def _last_line(capsys):
    out = capsys.readouterr().out.strip().split("\n")
    return out[-1]


def _kv(line):
    return dict(part.split("=", 1) for part in line.split(" "))


def test_orbit_period2(tmp_path, capsys):
    out = tmp_path / "orbit.json"
    code = main(["orbit", "--m", "1", "--n", "2", "--K", "0.5", "--out", str(out)])
    assert code == 0
    fields = _kv(_last_line(capsys))
    assert fields["m"] == "1" and fields["n"] == "2"
    assert abs(float(fields["residue"]) - 0.0625) < 1e-10
    assert fields["classification"] == "elliptic"
    rec = json.loads(out.read_text())
    np.testing.assert_allclose(rec["points"], [[0, math.pi], [math.pi, math.pi]], atol=1e-10)


def test_orbit_period2_at_huge_k_is_immediate(monkeypatch, capsys):
    # the README's 1/2 orbit is closed-form on q=0; walked from K = 0 in
    # steps of 0.25 it took 12 000 steps to K = 3000 and 4e6 to K = 1e6
    def no_step(prev, k):
        raise AssertionError(f"continuation step to K={k}")

    monkeypatch.setattr(kamcrit.orbits, "_continuation_step", no_step)
    start = time.perf_counter()
    assert main(["orbit", "--m", "1", "--n", "2", "--K", "1e6"]) == 0
    assert time.perf_counter() - start < 1.0
    fields = _kv(_last_line(capsys))
    assert float(fields["residue"]) == pytest.approx(1e12 / 4, rel=1e-9)


def test_orbit_csv_output(tmp_path):
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--m", "2", "--n", "3", "--K", "0.4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("m,n,K")
    assert len(lines) == 1 + 3


def test_orbit_integrable_limit(capsys):
    assert main(["orbit", "--m", "1", "--n", "2", "--K", "0"]) == 0
    fields = _kv(_last_line(capsys))
    assert float(fields["residue"]) == 0.0


def test_orbit_alternate_family(capsys):
    assert main(["orbit", "--m", "1", "--n", "2", "--K", "0.5",
                 "--family", "alternate"]) == 0
    fields = _kv(_last_line(capsys))
    assert fields["line"] in ("q=p/2", "q=p/2+pi")
    assert fields["classification"] == "hyperbolic"


def test_kcrit_nch_with_greene_comparison(capsys):
    assert main(["kcrit-nch", "--depth", "1", "--k-grid", "1.0:0.05:1.6",
                 "--greene-depth", "1"]) == 0
    fields = _kv(_last_line(capsys))
    assert "delta" in fields and "K_crit_greene" in fields


def test_orbit_rejects_reducible_fraction(capsys):
    assert main(["orbit", "--m", "2", "--n", "4", "--K", "0.5"]) == 2
    assert "lowest terms" in capsys.readouterr().err


def test_residue_fixed_point(capsys):
    assert main(["residue", "--m", "0", "--n", "1", "--K", "1.0", "--line", "q=pi"]) == 0
    fields = _kv(_last_line(capsys))
    assert abs(float(fields["trace"]) - 1.0) < 1e-12
    assert abs(float(fields["residue"]) - 0.25) < 1e-12


def test_kcrit_greene_depth1_degenerate(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["kcrit-greene", "--depth", "1", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "degenerate" in err
    rec = json.loads(out.read_text())
    assert abs(rec["K_crit"] - 2.0) < 1e-4


def test_kcrit_greene_depth0_usage_error(capsys):
    assert main(["kcrit-greene", "--depth", "0"]) == 2


def test_kcrit_greene_bad_tolerance_usage_error(capsys):
    assert main(["kcrit-greene", "--depth", "2", "--tol-k", "0"]) == 2


def test_kcrit_greene_closure_refusals_are_numeric_failures(monkeypatch, capsys):
    # every order's orbit is refused by the monodromy, so no threshold remains
    real = OrbitBranch.orbit_at
    monkeypatch.setattr(OrbitBranch, "orbit_at",
                        lambda self, k: replace(real(self, k), closure_error=1e-6))
    assert main(["kcrit-greene", "--depth", "2"]) == 1
    assert "no destabilization threshold" in capsys.readouterr().err


def test_kcrit_greene_gap_in_tail_falls_back_to_last_value(tmp_path, monkeypatch, capsys):
    # with order 5 refused, Aitken over 2, 3, 8 goes negative; the estimate
    # must fall back to K*(8), not become a usage error
    real = OrbitBranch.orbit_at

    def refuse_order5(self, k):
        orbit = real(self, k)
        return replace(orbit, closure_error=1e-6) if self.convergent.n == 5 else orbit

    monkeypatch.setattr(OrbitBranch, "orbit_at", refuse_order5)
    out = tmp_path / "greene.json"
    assert main(["kcrit-greene", "--depth", "4", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert [n for n, _ in rec["per_n"]] == [2, 3, 8]
    assert rec["K_crit"] == rec["per_n"][-1][1]
    assert rec["diagnostics"]["extrapolation"].startswith("last value")
    assert [f["n"] for f in rec["diagnostics"]["failures"]] == [5]
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert warnings == [f"warning: n=5 refused: {rec['diagnostics']['failures'][0]['error']}"]


def test_kcrit_greene_depth15(capsys):
    assert main(["kcrit-greene", "--depth", "15"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert sum(ln.startswith("n=") for ln in lines) == 15
    assert abs(float(_kv(lines[-1])["K_crit"]) - 0.971635406) <= 1e-5


def test_kcrit_greene_depth21_keeps_every_order(tmp_path, capsys):
    # the walk stops at its first step past each K*(n), so it never reaches
    # K = 1.0, where the monodromy of 17711/28657 overflows to nan
    out = tmp_path / "greene.json"
    assert main(["kcrit-greene", "--depth", "21", "--out", str(out)]) == 0
    assert "warning:" not in capsys.readouterr().err
    rec = json.loads(out.read_text())
    assert len(rec["per_n"]) == 21 and not rec["diagnostics"]["failures"]
    assert rec["per_n"][-1][0] == 28657
    assert abs(rec["per_n"][-1][1] - 0.9716768) <= 1e-6


def test_kcrit_nch_failure_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "nch.json"
    code = main(["kcrit-nch", "--depth", "1", "--k-grid", "0.02,0.04,0.06,0.08,0.10",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_kcrit_nch_mechanism(tmp_path, capsys):
    out = tmp_path / "nch.json"
    code = main(["kcrit-nch", "--depth", "1", "--k-grid", "1.0:0.05:1.6", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["method"] == "nch"
    assert 1.2 < rec["K_crit"] < 1.45


def test_chirikov_single_k(capsys):
    assert main(["chirikov", "--K", "0.04"]) == 0
    fields = _kv(_last_line(capsys))
    assert abs(float(fields["rho"]) - 0.127) < 0.02


def test_chirikov_escape_is_numeric_failure(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["chirikov", "--K", "5.0", "--out", str(out)]) == 1
    assert not out.exists()


def test_portrait_integrable_constant_p(tmp_path):
    out = tmp_path / "portrait.csv"
    assert main(["portrait", "--K", "0", "--seeds", "5", "--iters", "100",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "seed_id,iter,q,p"
    assert len(lines) == 1 + 5 * 101
    rows = [line.split(",") for line in lines[1:]]
    by_seed = {}
    for sid, _, _, p in rows:
        by_seed.setdefault(sid, set()).add(p)
    assert all(len(ps) == 1 for ps in by_seed.values())


def test_portrait_explicit_seed_pairs(tmp_path):
    out = tmp_path / "portrait.csv"
    assert main(["portrait", "--K", "0.5", "--seeds", "(0.1,3.88) (1.0,2.0)",
                 "--iters", "10", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 11
    # torus-reduced output
    for line in lines[1:]:
        _, _, q, p = line.split(",")
        assert -math.pi <= float(q) < math.pi
        assert 0.0 <= float(p) < TWO_PI


def _portrait_reference(k, seeds, iters):
    """The CSV as first specified: numpy-scalar rows joined whole in memory."""
    qs = np.array([q for q, _ in seeds])
    ps = np.array([p for _, p in seeds])
    paths = batch_trajectory(qs, ps, k, iters)
    lines = ["seed_id,iter,q,p"]
    for sid in range(paths.shape[0]):
        qt = wrap_angle(paths[sid, :, 0])
        pt = wrap_momentum(paths[sid, :, 1])
        for it in range(paths.shape[1]):
            lines.append(f"{sid},{it},{qt[it]:.17g},{pt[it]:.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("K, seeds, iters", [("1.17", "24", "2000"),
                                             ("0.5", "(0.1,3.88) (1.0,2.0)", "50")])
def test_portrait_bytes_file_and_stdout(K, seeds, iters, tmp_path, capsys):
    want = _portrait_reference(float(K), _parse_seeds(seeds), int(iters))
    out = tmp_path / "portrait.csv"
    argv = ["portrait", "--K", K, "--seeds", seeds, "--iters", iters]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == want
    assert [f.name for f in tmp_path.iterdir()] == ["portrait.csv"]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_portrait_streams_one_seed_at_a_time(tmp_path, capsys):
    # the 24 x 2001 x 2 trajectory array (768 kB) is held whole; the
    # 48 024 formatted rows (2.2 MB joined) must not be
    tracemalloc.start()
    try:
        assert main(["portrait", "--K", "1.17", "--seeds", "24", "--iters", "2000",
                     "--out", str(tmp_path / "portrait.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_portrait_bad_seeds_usage_error(capsys):
    assert main(["portrait", "--K", "0.5", "--seeds", "zebra", "--iters", "5"]) == 2


def test_portrait_stdout_body_clean(capsys):
    assert main(["portrait", "--K", "0", "--seeds", "2", "--iters", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "seed_id,iter,q,p"
    assert len(lines) == 1 + 2 * 4          # body only on stdout
    assert "rows=" in captured.err          # summary on stderr


def test_scan_and_merge_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "methods = chirikov\ndepth = 1\nk_grid = 0.04,0.06\n"
        f"output_dir = {out_dir}\n"
    )
    assert main(["scan", "--config", str(cfg)]) == 0
    assert (out_dir / "manifest.json").exists()
    merged = tmp_path / "merged"
    assert main(["scan", "--merge", str(out_dir), "--merge", str(out_dir),
                 "--out-dir", str(merged)]) == 0
    assert (merged / "chirikov.csv").exists()


def test_scan_missing_config_usage_error(capsys):
    assert main(["scan"]) == 2


def test_scan_bad_config_usage_error(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("methods = magic\ndepth = 1\noutput_dir = x\n")
    assert main(["scan", "--config", str(cfg)]) == 2


def test_scan_missing_config_file_usage_error(tmp_path, capsys):
    assert main(["scan", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("K", ["nan", "inf", "-1"])
def test_portrait_rejects_bad_stochasticity(K, tmp_path, capsys):
    out = tmp_path / "portrait.csv"
    assert main(["portrait", "--K", K, "--seeds", "2", "--iters", "2", "--out", str(out)]) == 2
    assert not out.exists()


# exit codes: 1 for numeric failure, 2 for usage; at least one 2 per subcommand
EXIT_CODES = [
    (["orbit", "--m", "1", "--n", "2", "--K", "nan"], 2),
    (["residue", "--m", "0", "--n", "1", "--K", "-1"], 2),
    (["kcrit-greene", "--depth", "0"], 2),
    (["kcrit-nch", "--depth", "1", "--k-grid", "1,2"], 2),
    (["kcrit-nch", "--depth", "1", "--k-grid", "0:1:inf"], 2),
    (["kcrit-nch", "--depth", "1", "--k-grid", "0:inf:1"], 2),
    (["kcrit-nch", "--depth", "1", "--k-grid", "0:1e-9:1"], 2),
    (["chirikov", "--K", "-1"], 2),
    (["chirikov", "--K", "5.0"], 1),
    (["portrait", "--K", "nan", "--seeds", "2", "--iters", "2"], 2),
    (["portrait", "--K", "inf", "--seeds", "2", "--iters", "2"], 2),
    (["portrait", "--K", "0.5", "--seeds", "(nan,1.0)", "--iters", "2"], 2),
    (["portrait", "--K", "0.5", "--seeds", "(1.0,inf)", "--iters", "2"], 2),
    (["scan"], 2),
    (["scan", "--config", "{tmp}/fail.cfg"], 1),
    (["scan", "--config", "{tmp}/tol0.cfg"], 2),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code_table(argv, code, tmp_path, capsys):
    # the scan's only task escapes, so no task succeeds
    (tmp_path / "fail.cfg").write_text(
        f"methods = chirikov\ndepth = 1\nk_grid = 5.0\noutput_dir = {tmp_path / 'run'}\n")
    # a zero tolerance would ask for K* exactly at the R = 1 crossing
    (tmp_path / "tol0.cfg").write_text(
        f"methods = greene\ndepth = 1\ntol.k_star = 0\noutput_dir = {tmp_path / 'run'}\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    if code == 2:
        assert "error:" in capsys.readouterr().err


def test_exit_code_table_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv, _ in EXIT_CODES}


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--help"])
    assert exc.value.code == 0


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _cold_imports(argv):
    """Modules a fresh ``python argv`` process imports, from ``-X importtime``."""
    src = str(Path(kamcrit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-X", "importtime", *argv],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    return [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:")]


@pytest.mark.parametrize("argv", [["-c", "import kamcrit"], ["-m", "kamcrit.cli", "--version"],
                                  ["-c", "import kamcrit; kamcrit.nch_distance(3, 0.5)"]],
                         ids=["import", "cli-version", "match"])
def test_import_and_version_load_no_scipy(argv):
    # numpy is kamcrit's only runtime dependency, matching orbits included
    loaded = _cold_imports(argv)
    assert "kamcrit" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("argv", [["-c", "import kamcrit"], ["-m", "kamcrit.cli", "--version"],
                                  ["-m", "kamcrit.cli", "orbit", "--m", "8", "--n", "13",
                                   "--K", "0.8"]],
                         ids=["import", "cli-version", "orbit"])
def test_cold_process_loads_no_pool_or_openssl(argv):
    # the process pool is for multi-worker scans and hashlib for the scan
    # manifest; a command that runs neither loads neither
    loaded = _cold_imports(argv)
    assert "kamcrit" in loaded
    assert {"multiprocessing", "concurrent.futures.process", "_hashlib"} & set(loaded) == set()
