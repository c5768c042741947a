import csv
import json
import os

import pytest

from kamcrit import Convergent, greene_kcrit, nch_distance_curve, scan
from kamcrit.errors import ConfigError, MergeConflictError
from kamcrit.scan import merge_results, parse_scan_config, run_scan, worker_count, write_atomic


def _cfg_text(out_dir, methods="greene", depth=2, grid="0.5,0.7,0.9"):
    return (
        f"# tiny scan\n"
        f"methods = {methods}\n"
        f"depth = {depth}\n"
        f"k_grid = {grid}\n"
        f"output_dir = {out_dir}\n"
    )


def test_parse_config_roundtrip(tmp_path):
    cfg = parse_scan_config(_cfg_text(tmp_path / "out"))
    assert cfg.methods == ["greene"]
    assert cfg.depth == 2
    assert cfg.k_grid == [0.5, 0.7, 0.9]
    assert cfg.content_hash() == parse_scan_config(_cfg_text(tmp_path / "out")).content_hash()


def test_parse_range_syntax(tmp_path):
    cfg = parse_scan_config(_cfg_text(tmp_path / "o", methods="chirikov", grid="0.80:0.02:0.90"))
    assert cfg.k_grid == [0.80, 0.82, 0.84, 0.86, 0.88, 0.90]


@pytest.mark.parametrize("grid", ["0:1:inf", "0:inf:1", "-inf:1:2", "0:nan:1"])
def test_parse_range_rejects_non_finite(grid):
    # a non-finite start, step or stop would never end the range loop
    with pytest.raises(ConfigError):
        scan._parse_real_list(grid)


def test_parse_range_caps_point_count():
    # one value per step would take unbounded time and memory
    with pytest.raises(ConfigError):
        scan._parse_real_list("0:1e-12:1")
    assert len(scan._parse_real_list("0:1e-4:0.9999")) == 10_000


def test_parse_tolerances(tmp_path):
    text = _cfg_text(tmp_path / "o") + "tol.k_star = 1e-5\n"
    cfg = parse_scan_config(text)
    assert cfg.tolerances == {"k_star": 1e-5}
    for bad in ("tol.bogus = 1", "tol.dk_max = 0.05"):
        with pytest.raises(ConfigError):
            parse_scan_config(_cfg_text(tmp_path / "o") + bad + "\n")


@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_parse_rejects_bad_tolerance(tmp_path, value):
    # K* must lie within tol.k_star/2 of the crossing: 0 is unreachable and nan meaningless
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o") + f"tol.k_star = {value}\n")


def test_parse_rejects_bad_lines(tmp_path):
    with pytest.raises(ConfigError):
        parse_scan_config("methods greene\ndepth = 1\noutput_dir = x\n")
    with pytest.raises(ConfigError):
        parse_scan_config("unknown_key = 1\ndepth = 1\noutput_dir = x\nmethods = greene\n")
    with pytest.raises(ConfigError):
        parse_scan_config("depth = 1\noutput_dir = x\n")  # no methods


def test_validation_rules(tmp_path):
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o", methods=""))
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o", methods="greene, greene"))
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o", methods="magic"))
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o", depth=0))
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o", grid="0.9,0.5"))
    with pytest.raises(ConfigError):
        parse_scan_config(_cfg_text(tmp_path / "o", methods="nch", grid="0.5,0.7,0.9"))


def test_worker_count_env(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("KAMCRIT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("KAMCRIT_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(2) == 2
    # capped at the CPU count, and by run_scan at the task count
    monkeypatch.setenv("KAMCRIT_THREADS", "4096")
    assert worker_count() == 8
    assert worker_count(100) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)

    pools = []

    class InlinePool:
        """Records the requested pool size and maps in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(scan, "ProcessPoolExecutor", InlinePool)
    manifest = run_scan(parse_scan_config(_cfg_text(tmp_path / "run", depth=2)))
    assert manifest.ok == 2
    assert pools == [2]

    monkeypatch.setenv("KAMCRIT_THREADS", "zebra")
    with pytest.raises(ConfigError):
        worker_count()


def test_write_atomic_failure_leaves_no_file(tmp_path):
    # a lone surrogate cannot be encoded, so the write raises half-way
    target = tmp_path / "x.csv"
    with pytest.raises(UnicodeEncodeError):
        write_atomic(target, "ok\n\ud800")
    assert not target.exists()
    assert not (tmp_path / "x.csv.tmp").exists()


def test_run_scan_greene_rowcount(tmp_path):
    out = tmp_path / "run"
    cfg = parse_scan_config(_cfg_text(out, methods="greene", depth=2))
    manifest = run_scan(cfg)
    assert manifest.failed == 0
    assert manifest.ok == 2
    body = (out / "greene.csv").read_text()
    lines = body.strip().split("\n")
    assert lines[0] == "method,n,K_or_stat,value"
    assert len(lines) == 1 + 2  # one row per convergent
    payload = json.loads((out / "greene.json").read_text())
    assert len(payload["rows"]) == 2
    man = json.loads((out / "manifest.json").read_text())
    assert {t["status"] for t in man["tasks"]} == {"ok"}
    assert man["config_sha256"] == cfg.content_hash()


def test_run_scan_chirikov_task_isolation(tmp_path):
    out = tmp_path / "run"
    # K=2.5 escapes (task fails); the others succeed
    cfg = parse_scan_config(_cfg_text(out, methods="chirikov", grid="0.04,0.09,2.5"))
    manifest = run_scan(cfg)
    assert manifest.ok == 2 and manifest.failed == 1
    statuses = {t["task"]: t for t in manifest.tasks}
    failing = [t for t in statuses.values() if t["status"] == "failed"]
    assert len(failing) == 1 and "escape" in failing[0]["error"]
    body = (out / "chirikov.csv").read_text()
    assert len(body.strip().split("\n")) == 1 + 2


def test_run_scan_nch_rows_per_grid_point(tmp_path):
    out = tmp_path / "run"
    cfg = parse_scan_config(_cfg_text(out, methods="nch", depth=1,
                                      grid="0.80,0.85,0.90,0.95,1.00"))
    manifest = run_scan(cfg)
    assert manifest.failed == 0 and manifest.ok == 1
    lines = (out / "nch.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 5  # one distance sample per grid point


def test_run_scan_deterministic_bodies(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    text = "methods = greene, chirikov\ndepth = 2\nk_grid = 0.04,0.08\n"
    cfg_a = parse_scan_config(text + f"output_dir = {out_a}\n")
    cfg_b = parse_scan_config(text + f"output_dir = {out_b}\n")
    run_scan(cfg_a)
    run_scan(cfg_b)
    for name in ("greene.csv", "chirikov.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_scan_parallel_matches_serial(tmp_path):
    out_a, out_b = tmp_path / "s", tmp_path / "p"
    text = "methods = chirikov\ndepth = 1\nk_grid = 0.04,0.06,0.08\n"
    run_scan(parse_scan_config(text + f"output_dir = {out_a}\n"), threads=1)
    run_scan(parse_scan_config(text + f"output_dir = {out_b}\n"), threads=2)
    assert (out_a / "chirikov.csv").read_bytes() == (out_b / "chirikov.csv").read_bytes()


def test_greene_rows_follow_only_from_their_inputs(tmp_path):
    # each greene task solves its order on a fresh branch, so its row is
    # greene_kcrit's K*(n) to the bit, whatever the worker count and whatever
    # the process solved before; depth 11 reaches n = 144, the first order
    # whose bracket is no longer (0.75, 1.0) but two steps of its own walk
    want = [(n, k.hex()) for n, k in greene_kcrit(depth=11).per_n]
    text = "methods = greene\ndepth = 11\n"

    def rows(name, threads):
        out = tmp_path / name
        assert run_scan(parse_scan_config(text + f"output_dir = {out}\n"), threads=threads).ok == 11
        with (out / "greene.csv").open(newline="") as fh:
            return [(int(n), float(v).hex()) for _, n, _, v in list(csv.reader(fh))[1:]]

    assert rows("serial", 1) == want
    assert rows("parallel", 2) == want
    nch_distance_curve(Convergent(55, 89), [0.90, 0.93, 0.96, 0.99, 1.02])
    greene_kcrit(depth=12)
    assert rows("after", 1) == want


def test_run_scan_all_methods_end_to_end(tmp_path):
    out = tmp_path / "full"
    cfg = parse_scan_config(
        "methods = greene, nch, chirikov\ndepth = 2\n"
        "k_grid = 0.80,0.85,0.90,0.95,1.00\n"
        f"output_dir = {out}\n"
    )
    manifest = run_scan(cfg)
    assert manifest.failed == 0
    assert manifest.ok == 2 + 2 + 5  # greene per order, nch per order, chirikov per K
    assert len(manifest.tasks) == manifest.ok
    for name in ("greene", "nch", "chirikov"):
        assert (out / f"{name}.csv").exists()
        assert (out / f"{name}.json").exists()
    tables = merge_results([out, out])  # idempotent self-merge
    assert len(tables["nch"]) == 2 * 5


def test_merge_disjoint_union(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scan(parse_scan_config(_cfg_text(a, methods="chirikov", grid="0.04,0.06")))
    run_scan(parse_scan_config(_cfg_text(b, methods="chirikov", grid="0.08,0.10")))
    tables = merge_results([a, b])
    assert len(tables["chirikov"]) == 4


def test_merge_idempotent(tmp_path):
    a = tmp_path / "a"
    run_scan(parse_scan_config(_cfg_text(a, methods="chirikov", grid="0.04,0.06")))
    tables = merge_results([a, a])
    assert len(tables["chirikov"]) == 2


def test_merge_conflict_names_key(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scan(parse_scan_config(_cfg_text(a, methods="chirikov", grid="0.04")))
    run_scan(parse_scan_config(_cfg_text(b, methods="chirikov", grid="0.04")))
    # forge a conflicting value in b
    body = (b / "chirikov.csv").read_text().splitlines()
    parts = body[1].split(",")
    parts[-1] = "999.0"
    body[1] = ",".join(parts)
    (b / "chirikov.csv").write_text("\n".join(body) + "\n")
    with pytest.raises(MergeConflictError) as err:
        merge_results([a, b])
    assert "chirikov" in str(err.value)


def test_merge_requires_manifest(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError):
        merge_results([empty])
