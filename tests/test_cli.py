import argparse
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kamcrit
from kamcrit import OrbitBranch
from kamcrit.cli import _parse_seeds, build_parser, main
from kamcrit.errors import BracketingError
from kamcrit.mapcore import wrap_angle, wrap_momentum
from kamcrit.scan import parse_scan_config

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


def test_residue_out_json_fields(tmp_path, capsys):
    # the 1/2 orbit on q=0: R = K^2/4, elliptic below K = 2
    out = tmp_path / "residue.json"
    assert main(["residue", "--m", "1", "--n", "2", "--K", "0.5", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert sorted(rec) == ["K", "class", "lyapunov", "m", "n", "residue", "trace"]
    assert (rec["m"], rec["n"], rec["K"], rec["class"], rec["lyapunov"]) == (1, 2, 0.5, "elliptic", 0.0)
    assert rec["residue"] == pytest.approx(0.0625, abs=1e-12)
    assert rec["trace"] == pytest.approx(2.0 - 4.0 * rec["residue"], abs=1e-12)
    assert float(_kv(_last_line(capsys))["residue"]) == pytest.approx(rec["residue"], rel=1e-11)


def test_residue_closure_refusal_is_numeric_failure(monkeypatch, capsys):
    # the monodromy refuses an orbit whose closure exceeds 1e-9: exit 1, not 2
    real = OrbitBranch.orbit_at
    monkeypatch.setattr(OrbitBranch, "orbit_at",
                        lambda self, k: replace(real(self, k), closure_error=1e-6))
    assert main(["residue", "--m", "2", "--n", "3", "--K", "0.5"]) == 1
    assert "orbit closure 1e-06 exceeds 1e-9" in capsys.readouterr().err


def test_kcrit_greene_too_few_thresholds_is_numeric_failure(monkeypatch, capsys):
    # only K*(2) remains of three orders, fewer than Aitken's three
    real = kamcrit.criteria.find_destabilization

    def only_order2(c, **kw):
        if c.n > 2:
            raise BracketingError(f"no crossing for {c}")
        return real(c, **kw)

    monkeypatch.setattr(kamcrit.criteria, "find_destabilization", only_order2)
    assert main(["kcrit-greene", "--depth", "3"]) == 1
    err = capsys.readouterr().err
    assert "error: only 1 of 3 thresholds available" in err
    assert "warning: n=3 refused: no crossing for 2/3" in err


def test_kcrit_greene_depth1_degenerate(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["kcrit-greene", "--depth", "1", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "degenerate" in err
    rec = json.loads(out.read_text())
    assert abs(rec["K_crit"] - 2.0) < 1e-4


def test_kcrit_greene_depth0_usage_error(capsys):
    assert main(["kcrit-greene", "--depth", "0"]) == 2


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


@pytest.mark.parametrize("depth,grid,message", [
    (1, "1,2", "K grid needs at least 5 points"),
    (1, "", "K grid needs at least 5 points"),
    (1, "0.9,0.8,1.0,1.1,1.2", "K grid must be strictly increasing"),
    (0, "0.80:0.02:1.10", "depth must be >= 1, got 0"),
    (1, "0.8,0.9,1.0,1.1,nan", "stochasticity parameter must be finite, got nan"),
])
def test_kcrit_nch_checks_its_grid_before_greene(depth, grid, message, monkeypatch, capsys):
    def no_greene(**kw):
        raise AssertionError("greene_kcrit ran before the grid and depth were checked")

    monkeypatch.setattr(kamcrit.cli, "greene_kcrit", no_greene)
    argv = ["kcrit-nch", "--depth", str(depth), "--k-grid", grid, "--greene-depth", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["residue", "--m", "610", "--n", "987", "--K", "3"],
                                  ["residue", "--m", "377", "--n", "610", "--K", "3"],
                                  ["orbit", "--m", "1597", "--n", "2584", "--K", "2",
                                   "--family", "alternate"]],
                         ids=["nan-987", "inf-610", "orbit-2584"])
def test_overflowed_monodromy_is_a_numeric_failure(argv, capsys):
    # the tangent product overflows to a trace of nan or -inf, which has no class
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: monodromy trace ")
    assert "not finite" in lines[0]


def test_finite_trace_whose_square_overflows_has_a_finite_lyapunov(capsys):
    assert main(["residue", "--m", "233", "--n", "377", "--K", "5"]) == 0
    fields = _kv(_last_line(capsys))
    assert fields["classification"] == "inverse-hyperbolic"
    assert float(fields["trace"]) < -1e281 and math.isfinite(float(fields["residue"]))
    assert float(fields["lyapunov"]) == pytest.approx(1.7224, abs=1e-4)


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


def test_chirikov_threshold_summary(capsys):
    assert main(["chirikov"]) == 0
    fields = _kv(_last_line(capsys))
    assert fields["method"] == "chirikov"
    assert abs(float(fields["K_crit"]) - 2.47) <= 0.25
    assert float(fields["pendulum_crossing"]) == pytest.approx((math.pi / 2) ** 2, rel=1e-11)


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


def _batch_trajectory(qs, ps, k, nsteps):
    """Every seed's lifted path at once, numpy over the seeds."""
    q = np.array(qs, dtype=float)
    p = np.array(ps, dtype=float)
    out = np.empty((q.shape[0], nsteps + 1, 2))
    out[:, 0, 0] = q
    out[:, 0, 1] = p
    for i in range(nsteps):
        p += k * np.sin(q)
        q += p
        out[:, i + 1, 0] = q
        out[:, i + 1, 1] = p
    return out


def _portrait_reference(k, seeds, iters):
    """The CSV as first specified: numpy-scalar rows joined whole in memory."""
    qs = np.array([q for q, _ in seeds])
    ps = np.array([p for _, p in seeds])
    paths = _batch_trajectory(qs, ps, k, iters)
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
    # only one seed's 2001 x 2 path (32 kB) and its rows are held at once:
    # neither the seeds x 2001 x 2 trajectory array (3.2 MB at 100 seeds)
    # nor the formatted rows (9.2 MB joined at 100 seeds) may be
    for seeds in ("24", "100"):
        tracemalloc.start()
        try:
            assert main(["portrait", "--K", "1.17", "--seeds", seeds, "--iters", "2000",
                         "--out", str(tmp_path / "portrait.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, seeds


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
    (["orbit", "--m", "3", "--n", "5", "--K", "0.9", "--family", "alternate", "--line", "q=0"], 2),
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
    (["scan", "--threads", "0", "--config", "{tmp}/fail.cfg"], 2),
    (["scan", "--threads", "-3", "--config", "{tmp}/fail.cfg"], 2),
    (["scan", "--config", "{tmp}/nan.cfg"], 2),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code_table(argv, code, tmp_path, capsys):
    # the scan's only task escapes, so no task succeeds
    (tmp_path / "fail.cfg").write_text(
        f"methods = chirikov\ndepth = 1\nk_grid = 5.0\noutput_dir = {tmp_path / 'run'}\n")
    # K*'s resolution is fixed, so a tol. key is an unknown key
    (tmp_path / "tol0.cfg").write_text(
        f"methods = greene\ndepth = 1\ntol.k_star = 0\noutput_dir = {tmp_path / 'run'}\n")
    # 3 of this scan's 7 tasks would fail on its nan, so it is refused before any runs
    (tmp_path / "nan.cfg").write_text(
        f"methods = chirikov, nch\ndepth = 2\nk_grid = 0.8,0.9,1.0,1.1,nan\noutput_dir = {tmp_path / 'run'}\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    if code == 2:
        assert "error:" in capsys.readouterr().err


def test_exit_code_table_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv, _ in EXIT_CODES}


def test_readme_commands_parse():
    # every `kamcrit ...` line of README's sh blocks is a valid command line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("kamcrit ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a bad flag exits 2 through SystemExit


def test_readme_scan_grammar_parses(tmp_path):
    # README's "Scan config grammar" block is a config the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"^### Scan config grammar\n.*?^```\n(.*?)^```", readme, flags=re.M | re.S)
    cfg = parse_scan_config(block, base_dir=tmp_path)
    assert cfg.methods and cfg.k_grid


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
                                  ["-c", "import kamcrit as kc; "
                                   "kc.nch_distance_curve(kc.Convergent(2, 3), [0.4, 0.5, 0.6])"]],
                         ids=["import", "cli-version", "match"])
def test_import_and_version_load_no_scipy(argv):
    # numpy is kamcrit's only runtime dependency, matching orbits included
    loaded = _cold_imports(argv)
    assert "kamcrit" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("argv", [["-c", "import kamcrit"], ["-m", "kamcrit.cli", "--version"]],
                         ids=["import", "cli-version"])
def test_cold_import_adds_only_stdlib_numpy_and_kamcrit(argv):
    # a cold import must not grow a dependency: beyond what a bare interpreter
    # (site included) loads, only the standard library, numpy and kamcrit
    baseline = set(_cold_imports(["-c", "pass"]))
    added = {m for m in _cold_imports(argv) if m not in baseline}
    assert "kamcrit" in added and "numpy" in added
    # -X importtime also lists failed probes (pickle looks for Jython's
    # org.python.core); a name no finder locates was never loaded
    loaded = {m for m in added if importlib.util.find_spec(m.split(".")[0]) is not None}
    foreign = sorted(m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names
                     and m.split(".")[0] not in ("numpy", "kamcrit"))
    assert foreign == []


@pytest.mark.parametrize("argv", [["-c", "import kamcrit"], ["-m", "kamcrit.cli", "--version"],
                                  ["-m", "kamcrit.cli", "orbit", "--m", "8", "--n", "13",
                                   "--K", "0.8"],
                                  ["-c", "import pathlib, kamcrit; kamcrit.run_scan(kamcrit.ScanConfig("
                                   "['greene'], 1, pathlib.Path('{tmp}')), threads=1)"]],
                         ids=["import", "cli-version", "orbit", "scan"])
def test_cold_process_loads_no_pool_or_openssl(argv, tmp_path):
    # the process pool is for multi-worker scans only, and the scan manifest
    # hashes its config with the interpreter's own SHA-256, so no command
    # loads OpenSSL and a single-worker scan loads no pool
    loaded = _cold_imports([a.format(tmp=tmp_path) for a in argv])
    assert "kamcrit" in loaded
    assert {"multiprocessing", "concurrent.futures.process", "_hashlib"} & set(loaded) == set()
