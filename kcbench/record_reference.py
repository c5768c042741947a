"""Record ``reference.json``: the outputs the checks compare against at the
reference seed.  Re-record only when a change is meant to alter outputs.

    python3 kcbench/record_reference.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"  # scratch space, ignored by git
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import kamcrit  # noqa: E402
import workloads as w  # noqa: E402


def cli(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kamcrit.cli", *argv], env=env,
                          capture_output=True, text=True, check=True)
    return w.summary_fields(proc.stdout)


def main():
    seed = w.REFERENCE_SEED
    deep = kamcrit.greene_kcrit(depth=w.GREENE_DEPTH)
    ref = {"seed": seed, "greene": {
        "per_n": {str(n): k for n, k in deep.per_n},
        "k_crit": {str(d): kamcrit.greene_kcrit(depth=d).k_crit for d in (8, 11)}
        | {str(w.GREENE_DEPTH): deep.k_crit},
    }}
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs = w.make_inputs("cli-cold", seed)
        mix = dict(w.cli_mix(inputs, tmp))
        cli(mix["portrait"])
        ref["cli-cold"] = {
            "inputs": inputs,
            "orbit_residue": float(cli(mix["orbit"])["residue"]),
            "residue": float(cli(mix["residue"])["residue"]),
            "chirikov_kcrit": float(cli(mix["chirikov"])["K_crit"]),
            "chirikov_rho": float(cli(mix["chirikov_K"])["rho"]),
            "portrait_head": [list(r) for r in w.parse_portrait(mix["portrait"][-1])[:20]],
        }
        inputs = w.make_inputs("sweep", seed)
        _, grid, _, out, _ = w.Sweep(inputs, tmp, None).op()
        ref["sweep"] = {"inputs": inputs, "grid": grid} | {
            m: [[n, k, v] for _, n, k, v in w.read_rows(out / f"{m}.csv")]
            for m in ("nch", "chirikov")}
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
