"""Run the property suite once per Hypothesis seed and list what fails.

    python tests/golden/seed_sweep.py [--seeds 0-29]

Each seed runs `tests/test_properties.py` in its own pytest process with
`--hypothesis-seed`.  HYPOTHESIS_STORAGE_DIRECTORY points at a fresh
temporary directory for every seed, so no example database carries over
from one seed to the next and the checkout's `.hypothesis` is neither
read nor written.  Prints each seed's outcome, the failing tests and the
falsifying examples Hypothesis reports, then the failing seeds.  Exits 1
when a seed fails.  Seeds are given as numbers or ranges, for example
`--seeds 0-9 21 23`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
SUITE = "tests/test_properties.py"


def parse_seeds(tokens: list) -> list:
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def falsifying_examples(output: str) -> list:
    """The `Falsifying ... example:` blocks of a pytest run, one string each."""
    blocks, block = [], None
    for line in output.splitlines():
        # drop pytest's error marker and the frame of an exception group
        text = re.sub(r"^(E |\s*\| ?)", "", line)
        if text.strip().startswith("Falsifying"):
            block, indent = [text.strip()], len(text) - len(text.lstrip())
        elif block is not None:
            block.append(text.rstrip()[indent:])
            if text.strip() == ")":
                blocks.append("\n".join(block))
                block = None
    return blocks


def run_seed(seed: int) -> tuple:
    """(passed, failing test ids, falsifying examples) for one seed."""
    with tempfile.TemporaryDirectory(prefix="hypothesis-") as store:
        env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=store,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             SUITE, f"--hypothesis-seed={seed}"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    out = proc.stdout + proc.stderr
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAILED ")]
    return proc.returncode == 0, failed, falsifying_examples(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", default=["0-29"],
                    help="seeds or ranges such as 0-29 (default 0-29)")
    args = ap.parse_args(argv)
    failing = []
    for seed in parse_seeds(args.seeds):
        passed, failed, examples = run_seed(seed)
        print(f"seed {seed}: {'passed' if passed else 'FAILED ' + ' '.join(failed)}",
              flush=True)
        for example in examples:
            print("    " + example.replace("\n", "\n    "))
        if not passed:
            failing.append(seed)
    print(f"failing seeds: {failing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
