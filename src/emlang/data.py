"""Synthetic block-structured dataset generation, CSV I/O, and splitting.

The synthetic task mimics a marker-panel layout: D = num_classes x block_size
features, where a sample of class k draws its k-th feature block from
N(mean_shift, sigma^2) and every other block from N(0, sigma^2). Each class
is therefore informative in exactly one contiguous block, which is the
property the attribution report is checked against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, InputError
from .nn import as_f64


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    split: str = ""

    def __post_init__(self):
        self.features = as_f64(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputError(f"features must be 2-d, got shape {self.features.shape}")
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
        for name in ("train_samples", "val_samples", "test_samples"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise InputError("noise_sigma must be >= 0")


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


def save_csv(dataset, path, label_column="label"):
    """Header row f0..f{D-1} plus the label column; floats as repr text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"f{i}" for i in range(dataset.num_features)] + [label_column]
        writer.writerow(header)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow(
                [repr(float(v)) for v in row] + [dataset.class_names[label]]
            )


def load_csv(path, label_column="label", split=""):
    """Parse a headered CSV: non-label columns become features in header
    order, label strings map to dense indices in sorted order."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, header row required") from None
        if label_column not in header:
            raise FormatError(f"{path}: missing label column {label_column!r}")
        label_pos = header.index(label_column)
        rows = []
        raw_labels = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(
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
                    raise FormatError(
                        f"{path}: row {row_num}, column {header[i]!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    class_names = sorted(set(raw_labels))
    index = {name: i for i, name in enumerate(class_names)}
    labels = np.array([index[name] for name in raw_labels], dtype=np.int64)
    return Dataset(np.array(rows), labels, class_names, split=split)


def _allocate(count, fractions):
    # largest-remainder allocation; sums to count exactly
    raw = fractions * count
    base = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - base), kind="stable")
    base[order[: count - base.sum()]] += 1
    return base


def split(dataset, fractions, seed):
    """Stratified, seeded 3-way split: per-class largest-remainder counts on
    a global permutation; each split's class frequencies match the whole
    within one sample per class."""
    fractions = as_f64(fractions)
    if fractions.shape != (3,):
        raise InputError(f"expected 3 fractions, got {fractions.shape}")
    if np.any(fractions <= 0):
        raise InputError("fractions must be positive")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise InputError(f"fractions must sum to 1, got {fractions.sum()!r}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.num_samples)
    parts = [[], [], []]
    for k in range(dataset.num_classes):
        class_indices = order[dataset.labels[order] == k]
        counts = _allocate(len(class_indices), fractions)
        start = 0
        for part, c in zip(parts, counts):
            part.extend(class_indices[start : start + c])
            start += c
    tags = ("train", "val", "test")
    out = []
    for tag, part in zip(tags, parts):
        if not part:
            raise InputError(f"{tag} split is empty")
        idx = np.sort(np.array(part, dtype=np.int64))
        out.append(
            Dataset(
                dataset.features[idx],
                dataset.labels[idx],
                list(dataset.class_names),
                split=tag,
            )
        )
    return tuple(out)


def standardization(train):
    """The train split's feature mean and std, a zero std replaced by 1."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    return mean, np.where(std == 0.0, 1.0, std)


def rescale(ds, stats):
    """ds with its features centered and scaled by stats = (mean, std)."""
    mean, std = stats
    return replace(ds, features=(ds.features - mean) / std)
