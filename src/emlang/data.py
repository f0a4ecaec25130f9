"""Datasets: synthetic block-structured generation, CSV I/O, and feature
standardization.

The synthetic task mimics a marker-panel layout: D = num_classes x block_size
features, where a sample of class k draws its k-th feature block from
N(mean_shift, sigma^2) and every other block from N(0, sigma^2). Each class
is therefore informative in exactly one contiguous block, which is the
property the attribution report is checked against. It is generated as a
train/val/test triple, and the CLI reads such a triple back from CSVs, so
the package has no splitting of its own.

This module owns the CSV format. `write_csv` writes every CSV the package
produces: the dataset splits (`dataset_csv` gives their rows),
`training_log.csv` and `conductance.csv`. `load_csv` reads a dataset into
one float64 buffer and raises `InputError`, naming the file, for a file
that is not UTF-8 or not valid CSV, a header without exactly one label
column and at least one feature column, a ragged row, a feature cell that
is not a plain ASCII number, or a non-finite feature.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .nn import as_f64, as_labels, check_int, check_real, check_shape


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    split: str = ""
    feature_names: list[str] | None = None  # None means f0..f{D-1}

    def __post_init__(self):
        self.features = as_f64(self.features, "features")
        self.labels = as_labels("labels", self.labels, len(self.class_names))
        check_shape("features", self.features, (None, None))
        if self.feature_names is None:
            self.feature_names = [f"f{i}" for i in range(self.num_features)]
        if len(self.feature_names) != self.num_features:
            raise InputError(
                f"{len(self.feature_names)} feature names for "
                f"{self.num_features} feature columns"
            )
        check_shape("labels", self.labels, (self.num_samples,))

    @property
    def num_samples(self):
        return self.features.shape[0]

    @property
    def num_features(self):
        return self.features.shape[1]

    @property
    def num_classes(self):
        return len(self.class_names)


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = 4
    block_size: int = 7
    train_samples: int = 534
    val_samples: int = 133
    test_samples: int = 171
    mean_shift: float = 2.0
    noise_sigma: float = 1.0
    seed: int = 0

    @property
    def feature_dim(self):
        return self.num_classes * self.block_size

    def __post_init__(self):
        check_int("num_classes", self.num_classes, 2)
        check_int("block_size", self.block_size, 1)
        # fewer samples than classes would leave a class out of the split
        for name in ("train_samples", "val_samples", "test_samples"):
            check_int(name, getattr(self, name), self.num_classes)
        check_real("mean_shift", self.mean_shift)
        check_real("noise_sigma", self.noise_sigma, 0)
        check_int("seed", self.seed, 0)


def _balanced_labels(n, num_classes):
    # counts differ by at most one across classes; a count too large for an
    # intp raises OverflowError here, not a TypeError from an object array
    counts = np.full(num_classes, n // num_classes, dtype=np.intp)
    counts[: n % num_classes] += 1
    return np.repeat(np.arange(num_classes), counts)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def generate_synthetic(spec):
    """Deterministic (train, val, test) datasets per the block-Gaussian spec.
    Class names carry the index zero-padded to one width, so that their
    sorted order, in which `load_csv` numbers them, is index order. A spec
    whose features overflow to a non-finite value, or whose split numpy
    cannot allocate, is an InputError, with no numpy warning."""
    width = len(str(spec.num_classes - 1))
    class_names = [f"class{c:0{width}d}" for c in range(spec.num_classes)]
    splits = []
    sizes = [
        ("train", spec.train_samples),
        ("val", spec.val_samples),
        ("test", spec.test_samples),
    ]
    for split_index, (tag, n) in enumerate(sizes):
        rng = np.random.default_rng([spec.seed, split_index])
        try:
            labels = _balanced_labels(n, spec.num_classes)
            rng.shuffle(labels)
            # numpy rejects a scale of -0.0, which noise_sigma >= 0 allows
            features = rng.normal(0.0, abs(spec.noise_sigma), size=(n, spec.feature_dim))
        except (ValueError, OverflowError, MemoryError) as exc:
            # no count has an upper bound: numpy's refusal is the only one
            raise InputError(f"{tag}_samples, classes and block_size make the "
                             f"{tag} split too large to allocate: {exc}") from None
        blocks = features.reshape(n, spec.num_classes, spec.block_size)
        blocks[np.arange(n), labels] += spec.mean_shift
        if not np.all(np.isfinite(features)):
            raise InputError(
                f"{tag} features overflow: noise_sigma {spec.noise_sigma} and "
                f"mean_shift {spec.mean_shift} give non-finite values"
            )
        splits.append(Dataset(features, labels, list(class_names), split=tag))
    return tuple(splits)


def write_csv(path, header, rows, text=()):
    """Write `header`, then each of `rows`, to `path` as UTF-8 lines ending
    in "\n". Cells are ints, strings and Python floats, which the csv module
    writes as their repr, text that reads back bit-exact. `text` holds the
    string cells of `rows`. Minimal quoting leaves a bare carriage return
    unquoted, which a reader takes for a line end, so one in the header or in
    `text` quotes every field."""
    quote_all = any("\r" in cell for cell in (*header, *text))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)


def dataset_csv(dataset, label_column="label"):
    """The dataset as `write_csv`'s (header, rows, text): a header row of the
    feature names plus the label column, then one row per sample, made as
    the writer reads it."""
    names = dataset.class_names
    rows = zip(dataset.features, dataset.labels)
    return ([*dataset.feature_names, label_column],
            (row.tolist() + [names[label]] for row, label in rows), names)


def is_plain_number_text(text):
    """False for text that `float` reads as a number although a CSV number is
    never written so: with a digit-group `_` (1_000) or a non-ASCII
    character, such as an Arabic-Indic digit."""
    return text.isascii() and "_" not in text


def load_csv(path, label_column="label", split=""):
    """Parse a headered UTF-8 CSV: non-label columns become features in
    header order, named by their header cells, and label strings map to dense
    indices in sorted order. Blank lines are skipped, and rows are numbered
    as records of the file, blank ones included. Every feature cell goes
    through `float` into one float64 buffer, and a cell that is not plain
    number text does not parse; once the whole file parses, a non-finite
    feature is an error that names its row and column."""
    features = array("d")
    raw_labels = []
    blank_rows = []
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file, header row required")
            named = header.count(label_column)
            if named != 1:
                raise InputError(
                    f"{path}: header names label column {label_column!r} "
                    f"{named} times, expected once"
                )
            if len(header) == 1:
                raise InputError(f"{path}: header has no feature column")
            label_pos = header.index(label_column)
            feature_names = header[:label_pos] + header[label_pos + 1 :]
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    blank_rows.append(row_num)
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}: row {row_num} has {len(row)} cells, expected "
                        f"{len(header)}"
                    )
                raw_labels.append(row.pop(label_pos))
                # one check a row; only a row that fails it is checked a cell
                # at a time, so the first bad cell in column order is named
                strict = not is_plain_number_text("".join(row))
                for name, cell in zip(feature_names, row):
                    try:
                        if strict and not is_plain_number_text(cell):
                            raise ValueError
                        features.append(float(cell))
                    except ValueError:
                        raise InputError(
                            f"{path}: row {row_num}, column {name!r}: "
                            f"cannot parse {cell!r} as a number"
                        ) from None
    except UnicodeDecodeError as exc:
        # exc's position counts from the start of a decoded chunk, not of the file
        undecoded = exc.object[exc.start : exc.end]
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} {undecoded!r}") from None
    except csv.Error as exc:
        raise InputError(f"{path}: malformed CSV: {exc}") from None
    if not raw_labels:
        raise InputError(f"{path}: no data rows")
    matrix = np.frombuffer(features).reshape(len(raw_labels), len(feature_names))
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, column = bad[0]
        row_num = row + 2
        for blank in blank_rows:
            if blank <= row_num:
                row_num += 1
        raise InputError(
            f"{path}: row {row_num}, column {feature_names[column]!r}: "
            f"non-finite value {matrix[row, column]}"
        )
    class_names = sorted(set(raw_labels))
    index = {name: i for i, name in enumerate(class_names)}
    labels = np.array([index[name] for name in raw_labels])
    return Dataset(matrix, labels, class_names, split=split,
                   feature_names=feature_names)


def standardization(train):
    """The train split's feature mean and std, a zero std replaced by 1. A
    sum that overflows gives a non-finite value, without a numpy warning:
    the caller checks the pair (`save_checkpoint` does)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
    return mean, np.where(std == 0.0, 1.0, std)


def rescale(ds, stats):
    """ds with its features centered and scaled by stats = (mean, std). A
    feature that overflows becomes infinite, without a numpy warning: the
    caller checks the features (`train` and `evaluate` do)."""
    mean, std = stats
    with np.errstate(over="ignore"):
        return replace(ds, features=(ds.features - mean) / std)
