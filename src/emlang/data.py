"""Datasets: synthetic block-structured generation, CSV I/O, and feature
standardization.

The synthetic task mimics a marker-panel layout: D = num_classes x block_size
features, where a sample of class k draws its k-th feature block from
N(mean_shift, sigma^2) and every other block from N(0, sigma^2). Each class
is therefore informative in exactly one contiguous block, which is the
property the attribution report is checked against. It is generated as a
train/val/test triple, and the CLI reads such a triple back from CSVs, so
the package has no splitting of its own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .nn import as_f64


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    split: str = ""
    feature_names: list[str] | None = None  # None means f0..f{D-1}

    def __post_init__(self):
        self.features = as_f64(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputError(f"features must be 2-d, got shape {self.features.shape}")
        if self.feature_names is None:
            self.feature_names = [f"f{i}" for i in range(self.features.shape[1])]
        if len(self.feature_names) != self.features.shape[1]:
            raise InputError(
                f"{len(self.feature_names)} feature names for "
                f"{self.features.shape[1]} feature columns"
            )
        if self.labels.shape != (self.features.shape[0],):
            raise InputError(
                f"label count {self.labels.shape} does not match "
                f"{self.features.shape[0]} feature rows"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= len(self.class_names)
        ):
            raise InputError(
                f"labels must lie in [0, {len(self.class_names)})"
            )

    @property
    def num_samples(self):
        return self.features.shape[0]

    @property
    def num_features(self):
        return self.features.shape[1]

    @property
    def num_classes(self):
        return len(self.class_names)


@dataclass
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

    def validate(self):
        if self.num_classes < 2:
            raise InputError("num_classes must be >= 2")
        if self.block_size < 1:
            raise InputError("block_size must be >= 1")
        # fewer samples than classes would leave a class out of the split
        for name in ("train_samples", "val_samples", "test_samples"):
            if getattr(self, name) < self.num_classes:
                raise InputError(f"{name} must be >= num_classes")
        if self.noise_sigma < 0:
            raise InputError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise InputError("seed must be >= 0")


def _balanced_labels(n, num_classes):
    # counts differ by at most one across classes
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    return np.repeat(np.arange(num_classes), counts)


def generate_synthetic(spec):
    """Deterministic (train, val, test) datasets per the block-Gaussian spec."""
    spec.validate()
    class_names = [f"class{c}" for c in range(spec.num_classes)]
    splits = []
    sizes = [
        ("train", spec.train_samples),
        ("val", spec.val_samples),
        ("test", spec.test_samples),
    ]
    for split_index, (tag, n) in enumerate(sizes):
        rng = np.random.default_rng([spec.seed, split_index])
        labels = _balanced_labels(n, spec.num_classes)
        rng.shuffle(labels)
        features = rng.normal(0.0, spec.noise_sigma, size=(n, spec.feature_dim))
        cols = np.arange(spec.block_size)
        for k in range(spec.num_classes):
            rows = labels == k
            features[np.ix_(rows, k * spec.block_size + cols)] += spec.mean_shift
        splits.append(Dataset(features, labels, list(class_names), split=tag))
    return tuple(splits)


def csv_writer(fh, text):
    """A newline-terminated csv writer for rows whose text cells are among
    `text`. Minimal quoting leaves a bare carriage return unquoted, which a
    reader takes for a line end, so one in any cell quotes every field."""
    quote_all = any("\r" in cell for cell in text)
    return csv.writer(fh, lineterminator="\n",
                      quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)


def save_csv(dataset, path, label_column="label"):
    """Header row of the feature names plus the label column; floats as repr
    text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = list(dataset.feature_names) + [label_column]
        writer = csv_writer(fh, header + list(dataset.class_names))
        writer.writerow(header)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow(
                [repr(float(v)) for v in row] + [dataset.class_names[label]]
            )


def load_csv(path, label_column="label", split=""):
    """Parse a headered CSV: non-label columns become features in header
    order, named by their header cells, and label strings map to dense
    indices in sorted order."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required") from None
        if label_column not in header:
            raise InputError(f"{path}: missing label column {label_column!r}")
        label_pos = header.index(label_column)
        rows = []
        raw_labels = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InputError(
                    f"{path}: row {row_num} has {len(row)} cells, expected "
                    f"{len(header)}"
                )
            values = []
            for i, cell in enumerate(row):
                if i == label_pos:
                    raw_labels.append(cell)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}: row {row_num}, column {header[i]!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            rows.append(values)
    if not rows:
        raise InputError(f"{path}: no data rows")
    class_names = sorted(set(raw_labels))
    index = {name: i for i, name in enumerate(class_names)}
    labels = np.array([index[name] for name in raw_labels], dtype=np.int64)
    feature_names = header[:label_pos] + header[label_pos + 1 :]
    return Dataset(np.array(rows), labels, class_names, split=split,
                   feature_names=feature_names)


def standardization(train):
    """The train split's feature mean and std, a zero std replaced by 1."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    return mean, np.where(std == 0.0, 1.0, std)


def rescale(ds, stats):
    """ds with its features centered and scaled by stats = (mean, std)."""
    mean, std = stats
    return replace(ds, features=(ds.features - mean) / std)
