"""Workloads: which emlang CLI calls run in set-up and which make one timed
pass, the arguments each gets from the workload seed, and the checks on
what each call writes.

Every workload runs the study's four stages in order, split at a different
point between set-up and the timed pass. Training always runs a fixed number
of epochs (patience equals max epochs), so the work in a pass does not
depend on where early stopping would fall for a given seed: at the default
patience of 10 the study's pass took 1.9 s to 8.0 s across seeds 0-11.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

STAGES = ("gen", "train_baseline", "train_el", "attribute")
# what each stage writes, as a key into a layout of directories
OUTPUT = {
    "gen": "data",
    "train_baseline": "baseline",
    "train_el": "el",
    "attribute": "attribution",
}

MIN_ACCURACY = 0.95
MAX_ACCURACY_GAP = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    setup_stages: int  # how many leading STAGES run in set-up
    gen_flags: tuple[str, ...] = ()
    train_flags: tuple[str, ...] = ()

    @property
    def pass_stages(self):
        return STAGES[self.setup_stages :]


WORKLOADS = {
    # The default repro pipeline at the default shape: what users run.
    # Training is ~90% of a pass and costs numpy call overhead.
    "study": Workload(
        "study", 0, train_flags=("--max-epochs", "200", "--patience", "200")
    ),
    # Attribution of 2,000 test samples from the default spec against a
    # checkpoint trained in set-up: 300-row, gradient-only dense passes.
    "attribute": Workload(
        "attribute",
        3,
        gen_flags=("--test-samples", "2000"),
        train_flags=("--max-epochs", "100", "--patience", "100"),
    ),
}


def layout(root: Path):
    """Where every stage reads and writes, all under one directory."""
    return {key: root / key for key in OUTPUT.values()}


def pass_layout(workload, setup: dict, root: Path):
    """A pass writes under `root` and reads what set-up produced."""
    own = layout(root)
    done = {OUTPUT[s] for s in STAGES[: workload.setup_stages]}
    return {key: setup[key] if key in done else path for key, path in own.items()}


def argv(workload, stage, seed, paths):
    s = str(seed)
    if stage == "gen":
        return ["gen", "--out", str(paths["data"]), "--seed", s, *workload.gen_flags]
    if stage == "attribute":
        return [
            "attribute",
            "--checkpoint", str(paths["el"] / "checkpoint.json"),
            "--test-csv", str(paths["data"] / "test.csv"),
            "--out", str(paths["attribution"]),
        ]
    model = stage.removeprefix("train_")
    return [
        "train", "--data", str(paths["data"]), "--out", str(paths[model]),
        "--model", model, "--seed", s, *workload.train_flags,
    ]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def check(stage, paths):
    """Problems found in what `stage` wrote; an empty list means correct."""
    try:
        return _check(stage, paths)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{stage}: unreadable output: {exc!r}"]


def _check(stage, paths):
    if stage == "gen":
        spec = _read_json(paths["data"] / "spec.json")
        return [
            f"gen: {tag}.csv does not hold {spec[f'{tag}_samples']} rows"
            for tag in ("train", "val", "test")
            if len(_csv_rows(paths["data"] / f"{tag}.csv")) != spec[f"{tag}_samples"]
        ]
    if stage.startswith("train_"):
        model = stage.removeprefix("train_")
        acc = _read_json(paths[model] / "eval_report.json")["accuracy"]
        problems = []
        if not acc >= MIN_ACCURACY:
            problems.append(f"{stage}: accuracy {acc} below {MIN_ACCURACY}")
        if model == "el":
            base = _read_json(paths["baseline"] / "eval_report.json")["accuracy"]
            if not abs(acc - base) <= MAX_ACCURACY_GAP:
                problems.append(f"{stage}: accuracy {acc} vs baseline {base}")
        return problems
    # attribute: finite rows, every test row attributed, and each symbol's
    # dominant feature block is its majority predicted class (class k is
    # informative in block k)
    problems = []
    rows = _csv_rows(paths["attribution"] / "conductance.csv")
    if not rows or not all(math.isfinite(float(v)) for row in rows for v in row):
        problems.append("attribute: conductance has non-finite or no rows")
    summary = _read_json(paths["attribution"] / "attribution_summary.json")["symbols"]
    attributed = sum(s["count"] for s in summary)
    expected = len(_csv_rows(paths["data"] / "test.csv"))
    if attributed != expected:
        problems.append(f"attribute: {attributed} of {expected} rows attributed")
    inventory = _read_json(paths["el"] / "eval_report.json")["symbol_inventory"]
    majority = {}
    for s in inventory:
        hist = s["predicted_class_counts"]
        majority[s["symbol"]] = hist.index(max(hist))
    for s in summary:
        if majority.get(s["symbol"]) != s["dominant_block"]:
            problems.append(
                f"attribute: symbol {s['symbol']} dominant block "
                f"{s['dominant_block']} is not its majority class "
                f"{majority.get(s['symbol'])}"
            )
    return problems


def facts(paths):
    """What the end-to-end metrics read from a finished set-up plus pass."""
    el = _read_json(paths["el"] / "eval_report.json")
    base = _read_json(paths["baseline"] / "eval_report.json")
    summary = _read_json(paths["attribution"] / "attribution_summary.json")["symbols"]
    spec = _read_json(paths["data"] / "spec.json")
    return {
        "el_accuracy": el["accuracy"],
        "baseline_accuracy": base["accuracy"],
        "dominant_share_min": min(s["attribution_share"] for s in summary),
        "train_sample_epochs": spec["train_samples"]
        * (el["epochs_trained"] + base["epochs_trained"]),
        "attributed": sum(s["count"] for s in summary),
    }


def digest(paths, keys):
    """sha256 of every file under the given layout entries, by relative name."""
    out = {}
    for key in keys:
        base = paths[key]
        for p in sorted(p for p in base.rglob("*") if p.is_file()):
            out[f"{key}/{p.relative_to(base)}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out
