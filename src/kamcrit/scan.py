"""Batch (K, n, method) sweeps with deterministic outputs and run manifests.

Config files are flat key-value text, one ``key = value`` per line with
``#`` comments:

    methods = greene, nch        # enum list drawn from greene|nch|chirikov
    depth = 8                    # positive integer
    k_grid = 0.80:0.02:1.10      # "start:step:stop" (stop inclusive) or a
                                 # comma-separated list of reals
    output_dir = out/run1        # relative paths resolve against the
                                 # config file's directory

Any other key, a ``tol.`` key included, is refused with :class:`ConfigError`,
and so is a grid that a task would fail on: a value that is not finite, an
``nch`` grid that :func:`~kamcrit.criteria.check_k_grid` refuses, or a
``chirikov`` K <= 0.

Each (method, order/K) task is independent; failures are recorded per task
in the manifest and never stop the remaining tasks.  The worker count is
``run_scan``'s ``threads`` (default 1, at least 1), capped at the CPU count
and the task count; the process pool (multiprocessing, sockets,
subprocess) is imported only when a scan runs more than one worker.  Rows
are sorted by key and written at 17 significant digits through a staging
file and an atomic rename, so identical configs reproduce byte-identical
CSV bodies.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import ConfigError, DomainError, KamcritError, MergeConflictError
from .criteria import check_k_grid, chirikov_overlap, nch_distance_curve
from .orbits import Convergent, fibonacci_convergents
from .stability import find_destabilization

METHODS = ("greene", "nch", "chirikov")
_MAX_RANGE_POINTS = 10_000

Row = Tuple[str, int, str, float]  # (method, n, K_or_stat, value)


@dataclass
class ScanConfig:
    methods: List[str]
    depth: int
    output_dir: Path
    k_grid: List[float] = field(default_factory=list)

    def validate(self) -> None:
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} (expected one of {METHODS})")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate methods in config")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        for k in self.k_grid:
            if not math.isfinite(k):
                raise ConfigError(f"k_grid values must be finite, got {k!r}")
            if k <= 0.0 and "chirikov" in self.methods:
                raise ConfigError(f"k_grid values must be > 0 for chirikov, got {k!r}")
        if any(b <= a for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ConfigError("k_grid must be strictly increasing")
        needs_grid = {"nch", "chirikov"} & set(self.methods)
        if needs_grid and not self.k_grid:
            raise ConfigError(f"methods {sorted(needs_grid)} require a k_grid")
        if "nch" in self.methods:
            try:
                check_k_grid(self.k_grid)
            except DomainError as err:
                raise ConfigError(f"k_grid: {err}") from err

    def to_record(self) -> dict:
        return {
            "methods": list(self.methods),
            "depth": self.depth,
            "k_grid": [float(k) for k in self.k_grid],
            "output_dir": str(self.output_dir),
        }

    def content_hash(self) -> str:
        """SHA-256 of the canonical record without ``output_dir``: one science
        config hashes alike whichever directory it writes to."""
        # the interpreter's built-in SHA-256, as random.py takes its sha512:
        # hashlib would load OpenSSL's libcrypto for this one digest
        try:
            from _sha2 import sha256  # CPython >= 3.12
        except ImportError:
            try:
                from _sha256 import sha256  # CPython 3.10-3.11
            except ImportError:
                from hashlib import sha256
        record = self.to_record()
        del record["output_dir"]
        return sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _parse_real_list(text: str) -> List[float]:
    text = text.strip()
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range syntax is start:step:stop, got {text!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError as err:
            raise ConfigError(f"bad real in range {text!r}") from err
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ConfigError(f"range start, step and stop must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError("range step must be > 0")
        if (stop - start) / step + 1.0 > _MAX_RANGE_POINTS:
            raise ConfigError(f"range {text!r} has more than {_MAX_RANGE_POINTS} points")
        out = []
        value = start
        # stop is inclusive up to half a step of rounding headroom
        while value <= stop + 0.5 * step:
            out.append(round(value, 12))
            value += step
        return [v for v in out if v <= stop + 1e-12]
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as err:
        raise ConfigError(f"bad real list {text!r}") from err


def parse_scan_config(text: str, base_dir: Optional[Path] = None) -> ScanConfig:
    """Parse the flat key-value config grammar into a validated ScanConfig."""
    methods: List[str] = []
    depth: Optional[int] = None
    k_grid: List[float] = []
    output_dir: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "methods":
            methods = [m.strip() for m in value.split(",") if m.strip()]
        elif key == "depth":
            try:
                depth = int(value)
            except ValueError as err:
                raise ConfigError(f"line {lineno}: depth must be an integer") from err
        elif key == "k_grid":
            k_grid = _parse_real_list(value)
        elif key == "output_dir":
            output_dir = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if depth is None:
        raise ConfigError("missing required key 'depth'")
    if output_dir is None:
        raise ConfigError("missing required key 'output_dir'")
    out_path = Path(output_dir)
    if base_dir is not None and not out_path.is_absolute():
        out_path = base_dir / out_path
    cfg = ScanConfig(methods=methods, depth=depth, output_dir=out_path, k_grid=k_grid)
    cfg.validate()
    return cfg


def load_scan_config(path) -> ScanConfig:
    path = Path(path)
    return parse_scan_config(path.read_text(), base_dir=path.parent)


@dataclass
class RunManifest:
    config: dict
    version: str
    config_sha256: str
    started: str
    finished: str
    tasks: List[dict]
    ok: int
    failed: int

    def to_record(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# task bodies (module-level for pickling into worker processes)
# --------------------------------------------------------------------------

def _task_greene(payload) -> List[Row]:
    m, n = payload
    k_star, _ = find_destabilization(Convergent(m, n))
    return [("greene", n, "K_star", k_star)]


def _task_nch(payload) -> List[Row]:
    m, n, grid = payload
    curve = nch_distance_curve(Convergent(m, n), grid)
    return [("nch", n, _fmt(k), d) for k, d in curve.samples]


def _task_chirikov(payload) -> List[Row]:
    (k,) = payload
    rho = chirikov_overlap(k)
    return [("chirikov", 0, _fmt(k), rho)]


def _run_task(task) -> Tuple[str, str, Optional[List[Row]], Optional[str]]:
    task_id, body, payload = task
    try:
        rows = body(payload)
        return task_id, "ok", rows, None
    except KamcritError as err:
        return task_id, "failed", None, str(err)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def worker_count(override: Optional[int] = None) -> int:
    """Effective worker count: ``override``, default 1, capped at
    ``os.cpu_count()`` (``run_scan`` also caps it at the task count).  A
    count below 1 raises :class:`ConfigError`."""
    requested = 1 if override is None else int(override)
    if requested < 1:
        raise ConfigError(f"worker count must be >= 1, got {requested}")
    return min(requested, os.cpu_count() or 1)


def _build_tasks(cfg: ScanConfig):
    tasks = []
    for method in cfg.methods:
        if method == "greene":
            for c in fibonacci_convergents(cfg.depth):
                tasks.append((f"greene:n={c.n}", _task_greene, (c.m, c.n)))
        elif method == "nch":
            for c in fibonacci_convergents(cfg.depth):
                tasks.append((f"nch:n={c.n}", _task_nch, (c.m, c.n, list(cfg.k_grid))))
        elif method == "chirikov":
            for k in cfg.k_grid:
                tasks.append((f"chirikov:K={_fmt(k)}", _task_chirikov, (float(k),)))
    return tasks


def _csv_body(rows: Sequence[Row]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "n", "K_or_stat", "value"])
    for method, n, k_or_stat, value in rows:
        writer.writerow([method, n, k_or_stat, _fmt(value)])
    return buf.getvalue()


@contextlib.contextmanager
def staged(path: Path):
    """Yield a text file open on ``<name>.tmp`` and rename it over ``path``
    when the block succeeds; when anything raises, delete it instead.  A
    device, FIFO or socket at ``path`` is written in place, since a rename
    would replace it with a regular file."""
    if path.exists() and not (path.is_file() or path.is_dir()):
        with path.open("w") as fh:
            yield fh
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: Path, text: str) -> None:
    with staged(path) as fh:
        fh.write(text)


def run_scan(cfg: ScanConfig, threads: Optional[int] = None) -> RunManifest:
    """Execute every (method, n, K) task of ``cfg`` and persist the results.

    Writes one ``<method>.csv`` and ``<method>.json`` per requested method
    plus ``manifest.json`` into ``cfg.output_dir``.  Task failures are
    recorded per task; remaining tasks still run.
    """
    cfg.validate()
    tasks = _build_tasks(cfg)
    workers = min(worker_count(threads), len(tasks))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    if workers > 1:
        # imported here, so a process that never runs a pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]

    by_method: Dict[str, List[Row]] = {m: [] for m in cfg.methods}
    statuses = []
    ok = failed = 0
    for task_id, status, rows, error in results:
        entry = {"task": task_id, "status": status}
        if status == "ok":
            ok += 1
            for row in rows:
                by_method[row[0]].append(row)
        else:
            failed += 1
            entry["error"] = error
        statuses.append(entry)

    for method, rows in by_method.items():
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        write_atomic(cfg.output_dir / f"{method}.csv", _csv_body(rows))
        payload = {
            "method": method,
            "rows": [[r[0], r[1], r[2], r[3]] for r in rows],
        }
        write_atomic(cfg.output_dir / f"{method}.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")

    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = RunManifest(
        config=cfg.to_record(),
        version=__version__,
        config_sha256=cfg.content_hash(),
        started=started,
        finished=finished,
        tasks=statuses,
        ok=ok,
        failed=failed,
    )
    write_atomic(cfg.output_dir / "manifest.json", json.dumps(manifest.to_record(), sort_keys=True, indent=1) + "\n")
    return manifest


def _read_rows(directory: Path) -> List[Row]:
    rows: List[Row] = []
    for csv_path in sorted(directory.glob("*.csv")):
        with csv_path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["method", "n", "K_or_stat", "value"]:
                raise MergeConflictError(f"{csv_path} has an unexpected header {header!r}")
            for row in reader:
                try:
                    method, n, k_or_stat, value = row
                    rows.append((method, int(n), k_or_stat, float(value)))
                except ValueError as err:
                    raise MergeConflictError(f"{csv_path} line {reader.line_num}: malformed row {row!r}") from err
    return rows


def merge_results(dirs: Sequence) -> Dict[str, List[Row]]:
    """Union of result rows from several scan directories, keyed by
    (method, n, K_or_stat); equal duplicates collapse, conflicting values
    raise :class:`MergeConflictError` naming the keys."""
    merged: Dict[Tuple[str, int, str], float] = {}
    conflicts = []
    for d in dirs:
        d = Path(d)
        if not (d / "manifest.json").exists():
            raise ConfigError(f"missing manifest in {d}")
        for method, n, k_or_stat, value in _read_rows(d):
            key = (method, n, k_or_stat)
            if key in merged and _fmt(merged[key]) != _fmt(value):
                conflicts.append({"key": list(key), "values": [merged[key], value]})
            else:
                merged[key] = value
    if conflicts:
        names = ", ".join(str(tuple(c["key"])) for c in conflicts)
        raise MergeConflictError(f"conflicting values for keys: {names}", conflicts=conflicts)
    out: Dict[str, List[Row]] = {}
    for (method, n, k_or_stat), value in sorted(merged.items()):
        out.setdefault(method, []).append((method, n, k_or_stat, value))
    return out


def write_merged(tables: Dict[str, List[Row]], out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method, rows in tables.items():
        write_atomic(out_dir / f"{method}.csv", _csv_body(rows))
