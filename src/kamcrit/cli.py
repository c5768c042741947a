"""Command-line front door: orbits, residues, criteria, portraits, scans.

Exit codes: 0 success, 1 numeric failure (bracketing, continuation,
refinement, escape), 2 usage or config error.  Every subcommand with
``--out`` writes through a staging file and an atomic rename before
printing its summary line, so failed runs leave no partial output.
Summary lines are single-line key=value records.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .criteria import chirikov_kcrit, chirikov_overlap, greene_kcrit, nch_kcrit
from .errors import ConfigError, DomainError, KamcritError, UnsupportedParameterError
from .mapcore import TWO_PI, check_stochasticity, wrap_angle, wrap_momentum
from .orbits import (
    ALL_LINES,
    FAMILY_ALTERNATE,
    FAMILY_RATIONAL,
    Convergent,
    OrbitBranch,
)
from .scan import (
    _parse_real_list,
    load_scan_config,
    merge_results,
    run_scan,
    staged,
    write_atomic,
    write_merged,
)
from .stability import classify, monodromy



def _parse_grid(spec: str):
    grid = _parse_real_list(spec)
    if not grid:
        raise ConfigError(f"empty K grid {spec!r}")
    return grid


def _summary(**fields) -> str:
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.12g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _orbit_for(args):
    c = Convergent(args.m, args.n)
    family = FAMILY_RATIONAL if args.family == "rational" else FAMILY_ALTERNATE
    return OrbitBranch(c, family, line=args.line).orbit_at(args.K)


def _write_orbit(orbit, out: Path) -> None:
    if out.suffix.lower() == ".csv":
        write_atomic(out, "\n".join(orbit.to_csv_rows()) + "\n")
    else:
        write_atomic(out, json.dumps(orbit.to_record()) + "\n")


def cmd_orbit(args) -> int:
    orbit = _orbit_for(args)
    report = classify(monodromy(orbit))
    if args.out:
        _write_orbit(orbit, Path(args.out))
    print(_summary(
        m=orbit.m, n=orbit.n, K=float(orbit.K), family=orbit.family, line=orbit.line,
        closure_error=orbit.closure_error, residue=report.residue,
        classification=report.classification,
    ))
    return 0


def cmd_residue(args) -> int:
    orbit = _orbit_for(args)
    report = classify(monodromy(orbit))
    record = report.to_record(orbit)
    if args.out:
        write_atomic(Path(args.out), json.dumps(record) + "\n")
    print(_summary(
        m=orbit.m, n=orbit.n, K=float(orbit.K), trace=report.trace,
        residue=report.residue, classification=report.classification,
        lyapunov=report.lyapunov,
    ))
    return 0


def cmd_kcrit_greene(args) -> int:
    result = greene_kcrit(depth=args.depth, tol_k=args.tol_k)
    for n, k_star in result.per_n:
        print(f"n={n} K_star={k_star:.8f}")
    for failure in result.diagnostics["failures"]:
        print(f"warning: n={failure['n']} refused: {failure['error']}", file=sys.stderr)
    available = len(result.per_n)
    if available < min(3, args.depth):
        print(f"error: only {available} of {args.depth} thresholds available", file=sys.stderr)
        return 1
    if available < 3:
        print("warning: degenerate sequence (fewer than 3 thresholds); K_crit is the last value",
              file=sys.stderr)
    if args.out:
        record = result.to_record()
        record["table_csv"] = result.per_n_csv()
        write_atomic(Path(args.out), json.dumps(record, sort_keys=True) + "\n")
    print(_summary(method="greene", depth=args.depth, K_crit=result.k_crit))
    return 0


def cmd_kcrit_nch(args) -> int:
    grid = _parse_grid(args.k_grid)
    greene_value = None
    if args.greene_depth:
        greene_value = greene_kcrit(depth=args.greene_depth).k_crit
    result = nch_kcrit(args.depth, grid, greene_value=greene_value)
    for n, k_min in result.per_n:
        print(f"n={n} K_min={k_min:.6f}")
    for n in result.diagnostics.get("no_interior_minimum", []):
        print(f"n={n} K_min=none (no interior minimum)", file=sys.stderr)
    if args.out:
        write_atomic(Path(args.out), json.dumps(result.to_record(), sort_keys=True) + "\n")
    extra = {}
    if greene_value is not None:
        extra = {"K_crit_greene": greene_value, "delta": result.k_crit - greene_value}
    print(_summary(method="nch", depth=args.depth, K_crit=result.k_crit, **extra))
    return 0


def cmd_chirikov(args) -> int:
    if args.K is not None:
        rho = chirikov_overlap(args.K)
        if args.out:
            write_atomic(Path(args.out), json.dumps({"K": args.K, "rho": rho}) + "\n")
        print(_summary(method="chirikov", K=float(args.K), rho=rho))
        return 0
    result = chirikov_kcrit()
    if args.out:
        write_atomic(Path(args.out), json.dumps(result.to_record(), sort_keys=True) + "\n")
    measured = result.diagnostics.get("measured_crossing")
    print(_summary(
        method="chirikov",
        K_crit=result.k_crit,
        pendulum_crossing=result.diagnostics["pendulum_crossing"],
        measured_crossing="none" if measured is None else f"{measured:.6g}",
    ))
    return 0


_SEED_RE = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def _parse_seeds(spec: str):
    spec = spec.strip()
    if re.fullmatch(r"\d+", spec):
        count = int(spec)
        if count < 1:
            raise ConfigError("seed count must be >= 1")
        # uniformly spaced p-axis seeds at q = 0, offset off the fixed points
        return [(0.0, TWO_PI * (j + 0.5) / count) for j in range(count)]
    pairs = _SEED_RE.findall(spec)
    if not pairs:
        raise ConfigError(f"cannot parse seeds {spec!r}: expected a count or '(q,p)' pairs")
    try:
        seeds = [(float(q), float(p)) for q, p in pairs]
    except ValueError as err:
        raise ConfigError(f"non-numeric seed in {spec!r}") from err
    if not all(math.isfinite(q) and math.isfinite(p) for q, p in seeds):
        raise ConfigError(f"seed coordinates must be finite, got {spec!r}")
    return seeds


def _write_portrait(fh, paths) -> None:
    # one seed at a time, so only one seed's rows are ever formatted at once
    fh.write("seed_id,iter,q,p\n")
    for sid in range(paths.shape[0]):
        qt = wrap_angle(paths[sid, :, 0]).tolist()
        pt = wrap_momentum(paths[sid, :, 1]).tolist()
        fh.write("".join(f"{sid},{it},{q:.17g},{p:.17g}\n"
                         for it, (q, p) in enumerate(zip(qt, pt))))


def cmd_portrait(args) -> int:
    k = check_stochasticity(args.K)
    if args.iters < 1:
        raise ConfigError("--iters must be >= 1")
    seeds = _parse_seeds(args.seeds)
    qs = np.array([q for q, _ in seeds])
    ps = np.array([p for _, p in seeds])
    paths = _kernels.batch_trajectory(qs, ps, k, int(args.iters))
    summary = _summary(K=k, seeds=len(seeds), iters=args.iters,
                       rows=paths.shape[0] * paths.shape[1])
    if args.out:
        with staged(Path(args.out)) as fh:
            _write_portrait(fh, paths)
        print(summary)
    else:
        # keep piped CSV clean; the summary goes to stderr
        _write_portrait(sys.stdout, paths)
        print(summary, file=sys.stderr)
    return 0


def cmd_scan(args) -> int:
    if args.merge:
        tables = merge_results(args.merge)
        out_dir = Path(args.out_dir or "merged")
        write_merged(tables, out_dir)
        total = sum(len(rows) for rows in tables.values())
        print(_summary(merged_dirs=len(args.merge), methods=len(tables), rows=total,
                       out_dir=str(out_dir)))
        return 0
    if not args.config:
        raise ConfigError("scan needs --config (or --merge)")
    cfg = load_scan_config(args.config)
    manifest = run_scan(cfg, threads=args.threads)
    print(_summary(ok=manifest.ok, failed=manifest.failed,
                   out_dir=str(cfg.output_dir)))
    return 0 if manifest.ok >= 1 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamcrit",
        description="Periodic invariant sets of the standard map and "
                    "stochastic-transition criteria.",
    )
    parser.add_argument("--version", action="version", version=f"kamcrit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_orbit_flags(p):
        p.add_argument("--m", type=int, required=True, help="winding numerator")
        p.add_argument("--n", type=int, required=True, help="orbit order (period)")
        p.add_argument("--K", type=float, required=True, help="stochasticity parameter (>= 0)")
        p.add_argument("--family", choices=("rational", "alternate"), default="rational",
                       help="orbit family (default: rational)")
        p.add_argument("--line", choices=ALL_LINES, default=None,
                       help="symmetry line override (default: family rule)")
        p.add_argument("--out", default=None, help="output file (.json or .csv)")

    p = sub.add_parser("orbit", help="find one periodic orbit and report its stability")
    add_orbit_flags(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("residue", help="monodromy trace, residue and classification")
    add_orbit_flags(p)
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("kcrit-greene", help="destabilization thresholds and extrapolated K_crit")
    p.add_argument("--depth", type=int, required=True,
                   help="number of Fibonacci convergents (8 reaches order 55)")
    p.add_argument("--tol-k", type=float, default=1e-6, help="K* within tol-k/2 of R = 1 (default 1e-6)")
    p.add_argument("--out", default=None, help="output JSON file")
    p.set_defaults(func=cmd_kcrit_greene)

    p = sub.add_parser("kcrit-nch", help="elliptic-point distance minima and extrapolated K_crit")
    p.add_argument("--depth", type=int, required=True, help="number of Fibonacci convergents")
    p.add_argument("--k-grid", default="0.80:0.02:1.10",
                   help="K grid, start:step:stop or comma list (default 0.80:0.02:1.10)")
    p.add_argument("--greene-depth", type=int, default=0,
                   help="also run the Greene criterion at this depth and report the difference")
    p.add_argument("--out", default=None, help="output JSON file")
    p.set_defaults(func=cmd_kcrit_nch)

    p = sub.add_parser("chirikov", help="resonance-overlap ratio / threshold")
    p.add_argument("--K", type=float, default=None,
                   help="measure the overlap ratio at one K (omit for the threshold fit)")
    p.add_argument("--out", default=None, help="output JSON file")
    p.set_defaults(func=cmd_chirikov)

    p = sub.add_parser("portrait", help="phase-portrait points as CSV (torus-reduced)")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--seeds", required=True,
                   help="seed count (uniform p-axis seeds at q=0) or '(q,p)' pairs")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("scan", help="run a batch sweep from a config file, or merge runs")
    p.add_argument("--config", default=None, help="scan config file")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count (default: KAMCRIT_THREADS or 1)")
    p.add_argument("--merge", action="append", default=None,
                   help="merge result directories (repeatable)")
    p.add_argument("--out-dir", default=None, help="output directory for --merge")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, UnsupportedParameterError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KamcritError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
