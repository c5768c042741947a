"""Compare two saved results of the same workload, metric by metric.

    python3 kcbench/compare.py kcbench/.out/A.json kcbench/.out/B.json

Refuses (exit 2) to compare results whose kernel backend or BLAS thread
settings differ, since either changes the timings on its own.  One pair of
runs is an anecdote: a gain needs the repeated runs the README describes.
"""

import json
import sys

COMPARABLE = ("kernel_backend", "blas_threads")


def refusal(a, b):
    """Why ``a`` and ``b`` may not be compared, or None."""
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        return "different workloads or trace modes"
    for key in COMPARABLE:
        if a["env"][key] != b["env"][key]:
            return f"env {key} differs: {a['env'][key]!r} vs {b['env'][key]!r}"
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    why = refusal(a, b)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    for name, base in a["metrics"].items():
        new = b["metrics"].get(name)
        if new is None:
            continue
        ratio = new["value"] / base["value"] if base["value"] else float("nan")
        print(f"{name:44s} {base['value']:12.6g} {new['value']:12.6g} {ratio:8.4f} {base['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
