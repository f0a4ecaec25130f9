"""Run the same `emlang` commands from two source trees and compare outputs.

    python tools/parity.py --base SRC --head SRC --work DIR

SRC is a checkout's `src` directory (the one holding `emlang/`). Every case
in CASES runs once with each tree on PYTHONPATH, writing under
DIR/<case>-base and DIR/<case>-head, and every pair of output trees is then
compared file by file. Cases that read another case's output read the
base's, so that both sides get the same inputs. The CHECKS compare two
paths under DIR, two files or two whole trees. The first two show that
`gen --seed 0 --test-samples 2000` draws the train and val splits of
`repro --seed 0`, so that its test rows fit that checkpoint. The others
show, on each side, that `repro --seed 0` writes under data/, baseline/,
el/ and attribution/ the trees that `gen`, `train` and `attribute` write on
their own from the same options and inputs.

A case exits 0 unless EXIT_CODES names another code for it, as it does
for a run that fails on purpose, whose output tree is compared all the
same. One line is printed per case and per differing, missing or extra
file. The exit status is 1 if any command exited with another code than its
case's or anything differed, but only after every case has run and every
tree has been compared.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

# name -> argv after `python -m emlang.cli`, with {work} standing for DIR;
# each case writes to --out {work}/<name>-<side>
CASES = {
    "repro": ["repro", "--seed", "0"],
    # the only run whose checkpoint has a standardization section, which
    # `attribute` reads and applies
    "repro-std": ["repro", "--seed", "0", "--standardize"],
    # all 200 epochs, another symbol set
    "repro7": ["repro", "--seed", "7", "--patience", "200"],
    # 6 symbols, two classes with two symbols each, so the per-symbol merge
    # adds up the rows of symbols that share a class
    "repro9": ["repro", "--seed", "9", "--mean-shift", "0.5"],
    # the one output mode that `repro` does not run
    "prob": ["attribute", "--checkpoint", "{work}/repro-base/el/checkpoint.json",
             "--test-csv", "{work}/repro-base/data/test.csv",
             "--output-mode", "probability"],
    # the one run from a non-zero baseline, which the attribution door
    # converts and checks: 28 entries of +-1/8 to +-5/8
    "baseline-vector": ["attribute", "--checkpoint",
                        "{work}/repro-base/el/checkpoint.json",
                        "--test-csv", "{work}/repro-base/data/test.csv",
                        "--baseline-vector",
                        ",".join(f"{(-1) ** i * (i % 5 + 1) / 8}" for i in range(28))],
    # the one `repro` that trains in batches of 600, where BLAS's thread
    # count changes the training bytes: a change to the threads that train
    # shows here
    "repro-batch600": ["repro", "--seed", "0", "--batch", "600"],
    # 133 validation rows in batches of 33 end in a 1-row batch, which numpy's
    # matmul runs as gemv, not dgemm, so the compiled step must leave it to
    # the numpy path: through dgemm the baseline's epoch-22 validation loss
    # moves by -1.7e-18
    "repro-batch33": ["repro", "--seed", "3", "--batch", "33", "--max-epochs", "40",
                      "--patience", "40"],
    "gen2000": ["gen", "--seed", "0", "--test-samples", "2000"],
    # 500 blocks of 4 samples, split over worker processes
    "attr2000": ["attribute", "--checkpoint", "{work}/repro-base/el/checkpoint.json",
                 "--test-csv", "{work}/gen2000-base/test.csv"],
    # every other tree groups features in blocks of 7
    "attr2000-b4": ["attribute", "--checkpoint",
                    "{work}/repro-base/el/checkpoint.json",
                    "--test-csv", "{work}/gen2000-base/test.csv",
                    "--block-size", "4"],
    # one feature a block: `attribution_summary.json` sums 28 block means
    # a row, where numpy adds more than 8 values pairwise; the other trees
    # sum 4 or 7
    "attr2000-b1": ["attribute", "--checkpoint",
                    "{work}/repro-base/el/checkpoint.json",
                    "--test-csv", "{work}/gen2000-base/test.csv",
                    "--block-size", "1"],
    # every `repro` tree has 171 test rows, one decode chunk; these evaluate
    # 2,000 rows, 8 chunks of 256
    "train2000-el": ["train", "--model", "el", "--data", "{work}/gen2000-base"],
    "train2000-baseline": ["train", "--model", "baseline",
                           "--data", "{work}/gen2000-base"],
    # every other run validates in batches of 32; this one takes the
    # baseline's validation loss over the whole 133-row split in one batch
    "batch600": ["train", "--model", "baseline", "--batch", "600",
                 "--max-epochs", "30", "--data", "{work}/gen2000-base"],
    # the one tree whose CSVs quote every field: a bare "\r" in a header
    # cell makes the writer quote all of them
    "repro-cr": ["repro", "--seed", "0", "--label-column", "lab\rel",
                 "--max-epochs", "30"],
    "gen40": ["gen", "--seed", "0", "--test-samples", "40"],
    # 10 blocks of 4 samples, fewer than two runs of MIN_RUN blocks: the one
    # case attributed in one process, pinned to one BLAS thread as every
    # run is
    "attr40": ["attribute", "--checkpoint", "{work}/repro-base/el/checkpoint.json",
               "--test-csv", "{work}/gen40-base/test.csv"],
    # `repro --seed 0`'s stages, one command each, on its data and checkpoint
    "stage-gen": ["gen", "--seed", "0"],
    "stage-baseline": ["train", "--model", "baseline",
                       "--data", "{work}/repro-base/data"],
    "stage-el": ["train", "--model", "el", "--data", "{work}/repro-base/data"],
    "stage-attribute": ["attribute",
                        "--checkpoint", "{work}/repro-base/el/checkpoint.json",
                        "--test-csv", "{work}/repro-base/data/test.csv"],
    # the one run that fails: the channel overflows on el's first epoch, and
    # the stages that finished, config.json, data/ and baseline/, are written
    "repro-el-diverges": ["repro", "--seed", "0", "--temperature", "1e-310",
                          "--max-epochs", "3", "--patience", "3"],
}

# the exit code of each case that must not exit 0
EXIT_CODES = {"repro-el-diverges": 3}

# files or trees that must be identical, as paths under DIR
CHECKS = [
    ("gen2000-base/train.csv", "repro-base/data/train.csv"),
    ("gen2000-base/val.csv", "repro-base/data/val.csv"),
    *((f"stage-{stage}-{side}", f"repro-{side}/{subtree}")
      for stage, subtree in (("gen", "data"), ("baseline", "baseline"),
                             ("el", "el"), ("attribute", "attribution"))
      for side in ("base", "head")),
]


def compare_trees(base, head):
    """(relative path, what) for every file that differs between the trees
    base and head, or that only one of them holds, in path order."""
    files = {}
    for side, root in (("base", Path(base)), ("head", Path(head))):
        for path in root.rglob("*"):
            if path.is_file():
                files.setdefault(path.relative_to(root).as_posix(), []).append(side)
    problems = []
    for rel in sorted(files):
        sides = files[rel]
        if sides == ["base"]:
            problems.append((rel, "only in base"))
        elif sides == ["head"]:
            problems.append((rel, "only in head"))
        elif (Path(base) / rel).read_bytes() != (Path(head) / rel).read_bytes():
            problems.append((rel, "differs"))
    return problems


def run_case(name, argv, src, side, work, code=0):
    """Run one case from the source tree src, into an emptied output
    directory; True if it exited with `code`."""
    out = Path(work) / f"{name}-{side}"
    shutil.rmtree(out, ignore_errors=True)
    args = [arg.replace("{work}", str(work)) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    result = subprocess.run(
        [sys.executable, "-m", "emlang.cli", *args, "--out", str(out)],
        env=env, capture_output=True, text=True, check=False,
    )
    if result.returncode != code:
        print(f"{name}: {side} exited {result.returncode}, not {code}: "
              f"{result.stderr.strip()}")
    return result.returncode == code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base source tree")
    parser.add_argument("--head", required=True, help="head source tree")
    parser.add_argument("--work", required=True, help="directory for outputs")
    args = parser.parse_args(argv)
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, case in CASES.items():
        # a list, not a generator: head runs even when base failed
        ran = all([run_case(name, case, src, side, work, EXIT_CODES.get(name, 0))
                   for side, src in (("base", args.base), ("head", args.head))])
        problems = compare_trees(work / f"{name}-base", work / f"{name}-head")
        ok &= ran and not problems
        state = "FAILED" if not ran else "DIFFERS" if problems else "identical"
        print(f"{name}: {state}")
        for rel, what in problems:
            print(f"  {name}/{rel}: {what}")
    for first, second in CHECKS:
        paths = [work / first, work / second]
        problems = []
        if all(path.is_dir() for path in paths):
            problems = compare_trees(*paths)
            same = not problems
        else:
            same = (all(path.is_file() for path in paths)
                    and paths[0].read_bytes() == paths[1].read_bytes())
        ok &= same
        print(f"cmp {first} {second}: {'identical' if same else 'DIFFERS'}")
        for rel, what in problems:
            print(f"  {rel}: {what}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
