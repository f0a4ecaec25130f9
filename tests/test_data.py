import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emlang.data import (
    Dataset,
    SynthSpec,
    dataset_csv,
    generate_synthetic,
    load_csv,
    rescale,
    standardization,
    write_csv,
)
from emlang.errors import InputError


def least_squares_accuracy(train, test):
    """One-vs-rest least-squares classifier, independent of the package's
    training path."""
    n = train.num_samples
    x = np.hstack([train.features, np.ones((n, 1))])
    y = np.zeros((n, train.num_classes))
    y[np.arange(n), train.labels] = 1.0
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    x_test = np.hstack([test.features, np.ones((test.num_samples, 1))])
    predictions = np.argmax(x_test @ w, axis=1)
    return float((predictions == test.labels).mean())


def test_default_spec_split_sizes():
    train, val, test = generate_synthetic(SynthSpec(seed=0))
    assert train.num_samples == 534
    assert val.num_samples == 133
    assert test.num_samples == 171
    assert train.num_features == 28
    assert train.class_names == ["class0", "class1", "class2", "class3"]


def test_noiseless_generation_is_exact_blocks():
    spec = SynthSpec(
        num_classes=3,
        block_size=2,
        train_samples=30,
        val_samples=9,
        test_samples=9,
        noise_sigma=0.0,
        seed=1,
    )
    train, _, _ = generate_synthetic(spec)
    for k in range(3):
        rows = train.features[train.labels == k]
        block = slice(2 * k, 2 * k + 2)
        np.testing.assert_array_equal(rows[:, block], 2.0)
        others = np.delete(rows, np.s_[2 * k : 2 * k + 2], axis=1)
        np.testing.assert_array_equal(others, 0.0)


def test_noiseless_task_is_perfectly_classifiable():
    spec = SynthSpec(noise_sigma=0.0, train_samples=80, val_samples=20,
                     test_samples=40, seed=2)
    train, _, test = generate_synthetic(spec)
    assert least_squares_accuracy(train, test) == 1.0


def test_default_task_is_linearly_separable_enough():
    # mean shift / sigma = 2 must admit >= 95% one-vs-rest accuracy
    train, _, test = generate_synthetic(SynthSpec(seed=3))
    assert least_squares_accuracy(train, test) >= 0.95


def test_per_class_block_means_concentrate():
    spec = SynthSpec(train_samples=1200, val_samples=100, test_samples=100, seed=4)
    train, _, _ = generate_synthetic(spec)
    for k in range(spec.num_classes):
        rows = train.features[train.labels == k]
        bound = 4.0 * spec.noise_sigma / np.sqrt(rows.shape[0])
        for b in range(spec.num_classes):
            block_mean = rows[:, b * 7 : (b + 1) * 7].mean(axis=0)
            target = spec.mean_shift if b == k else 0.0
            assert np.all(np.abs(block_mean - target) < bound)


def test_generator_is_deterministic():
    a = generate_synthetic(SynthSpec(seed=5))
    b = generate_synthetic(SynthSpec(seed=5))
    for ds_a, ds_b in zip(a, b):
        np.testing.assert_array_equal(ds_a.features, ds_b.features)
        np.testing.assert_array_equal(ds_a.labels, ds_b.labels)


def test_classes_balanced_up_to_rounding():
    train, val, test = generate_synthetic(SynthSpec(seed=6))
    for ds in (train, val, test):
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1


def test_spec_validation():
    with pytest.raises(InputError):
        generate_synthetic(SynthSpec(num_classes=1))
    with pytest.raises(InputError):
        generate_synthetic(SynthSpec(train_samples=0))
    # a split smaller than num_classes would miss a class
    with pytest.raises(InputError, match=r"^test_samples must be an int >= 4, got 3$"):
        generate_synthetic(SynthSpec(test_samples=3))
    generate_synthetic(SynthSpec(test_samples=4))
    with pytest.raises(InputError):
        generate_synthetic(SynthSpec(noise_sigma=-1.0))
    with pytest.raises(InputError,
                       match=r"^noise_sigma must be a finite number >= 0, got inf$"):
        generate_synthetic(SynthSpec(noise_sigma=np.inf))
    for shift in (np.nan, -np.inf):
        with pytest.raises(InputError,
                           match=f"^mean_shift must be a finite number, got {shift!r}$"):
            generate_synthetic(SynthSpec(mean_shift=shift))
    with pytest.raises(InputError, match="seed"):
        generate_synthetic(SynthSpec(seed=-1))


def test_generate_synthetic_rejects_overflowing_features():
    with pytest.raises(InputError, match="train features overflow"):
        generate_synthetic(SynthSpec(noise_sigma=1e308))
    # and without a numpy RuntimeWarning, which the suite makes an error,
    # when the mean shift overflows finite noise
    with pytest.raises(InputError, match="train features overflow"):
        generate_synthetic(SynthSpec(noise_sigma=1e307, mean_shift=1.7e308))
    # large but finite features are generated
    train, _, _ = generate_synthetic(SynthSpec(noise_sigma=0.0, mean_shift=1e308))
    assert train.features.max() == 1e308


@pytest.mark.parametrize("field, value, refusal", [
    ("block_size", 10**11, "Unable to allocate"),
    ("test_samples", 10**14, "Unable to allocate"),
    ("block_size", 2**62, "Maximum allowed dimension exceeded"),
    ("train_samples", 10**30, "Python int too large"),
    # too long for repr, and still shown by numpy's refusal alone
    ("val_samples", 10**5000, "Python int too large"),
], ids=["block-1e11", "test-1e14", "block-2**62", "train-1e30", "val-1e5000"])
def test_generate_synthetic_turns_a_split_numpy_cannot_allocate_into_an_input_error(
        field, value, refusal):
    # numpy refuses each split before it allocates anything; no count has an
    # upper bound of its own
    split = field.split("_")[0] if field.endswith("samples") else "train"
    message = (f"{split}_samples, classes and block_size make the {split} split "
               f"too large to allocate: {refusal}")
    with pytest.raises(InputError, match=f"^{re.escape(message)}"):
        generate_synthetic(SynthSpec(**{field: value}))


def test_a_noise_sigma_of_negative_zero_is_no_noise():
    # -0.0 >= 0 passes the spec's check, so it must not reach numpy's
    # normal, which rejects a scale whose sign bit is set
    for signed, unsigned in zip(generate_synthetic(SynthSpec(noise_sigma=-0.0)),
                                generate_synthetic(SynthSpec(noise_sigma=0.0))):
        assert signed.features.tobytes() == unsigned.features.tobytes()
        np.testing.assert_array_equal(signed.labels, unsigned.labels)


def test_twelve_classes_keep_their_labels_and_names_through_csv(tmp_path):
    # load_csv numbers classes by sorted name, so class10 must sort after
    # class09, not before class2
    spec = SynthSpec(num_classes=12, block_size=2, train_samples=24,
                     val_samples=12, test_samples=12, seed=8)
    splits = generate_synthetic(spec)
    assert splits[0].class_names == [f"class{k:02d}" for k in range(12)]
    for ds in splits:
        path = tmp_path / f"{ds.split}.csv"
        write_csv(path, *dataset_csv(ds))
        loaded = load_csv(path)
        assert loaded.class_names == ds.class_names
        np.testing.assert_array_equal(loaded.labels, ds.labels)


# every finite float64, with the edge cases of its decimal text made likely
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.225073858507201e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# header and label cells: any text a UTF-8 file holds, "\r" and "\n" too;
# NUL only from Python 3.11, whose csv reader accepts it
CELLS = st.text(st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="" if sys.version_info >= (3, 11) else "\x00",
), max_size=6)


@st.composite
def csv_datasets(draw):
    """Datasets whose every class occurs, with class names in sorted order:
    what `load_csv` rebuilds from a file."""
    dim = draw(st.integers(1, 4))
    names = draw(st.lists(CELLS.filter(lambda c: c != "label"),
                          min_size=dim, max_size=dim))
    classes = sorted(draw(st.sets(CELLS, min_size=1, max_size=4)))
    extra = draw(st.lists(st.integers(0, len(classes) - 1), max_size=5))
    labels = draw(st.permutations(list(range(len(classes))) + extra))
    features = draw(arrays(np.float64, (len(labels), dim), elements=FLOATS))
    return Dataset(features, labels, classes, feature_names=names)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=csv_datasets())
def test_csv_round_trip_is_bit_exact(tmp_path, ds):
    path = tmp_path / "round.csv"
    write_csv(path, *dataset_csv(ds))
    loaded = load_csv(path)
    # bytes, so -0.0 must come back as -0.0
    assert loaded.features.tobytes() == ds.features.tobytes()
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.class_names == ds.class_names
    assert loaded.feature_names == ds.feature_names


def test_load_csv_basic(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("a,b,label\n1.5,2.0,yes\n3.0,4.5,no\n0.0,1.0,yes\n")
    ds = load_csv(path)
    assert ds.features.shape == (3, 2)
    assert ds.feature_names == ["a", "b"]
    assert ds.class_names == ["no", "yes"]
    assert ds.labels.tolist() == [1, 0, 1]


def test_load_csv_keeps_the_header_around_the_label_column(tmp_path):
    path = tmp_path / "middle.csv"
    path.write_text("b,label,a\n1.5,yes,2.0\n3.0,no,4.5\n")
    ds = load_csv(path)
    assert ds.feature_names == ["b", "a"]
    np.testing.assert_array_equal(ds.features, [[1.5, 2.0], [3.0, 4.5]])
    with pytest.raises(InputError):
        Dataset(ds.features, ds.labels, ds.class_names, feature_names=["b"])


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InputError, match="label"):
        load_csv(path)


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,x\n1.0,oops,y\n")
    with pytest.raises(InputError, match=r"row 3.*'b'"):
        load_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_csv_rejects_a_nonfinite_cell(tmp_path, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"a,b,label\n1.0,2.0,x\n1.0,{value},y\n")
    with pytest.raises(InputError, match=rf"row 3, column 'b': non-finite value {value}$"):
        load_csv(path)


def test_load_csv_reports_a_parse_error_before_an_earlier_nonfinite_cell(tmp_path):
    path = tmp_path / "both.csv"
    path.write_text("a,b,label\n1.0,nan,x\n1.0,oops,y\n")
    with pytest.raises(InputError, match=r"row 3, column 'b': cannot parse 'oops'"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("label\nx\ny\n", "header has no feature column"),
    ("a,label,label\n1.0,x,2.0\n", "header names label column 'label' 2 times"),
], ids=["no-feature-column", "label-column-twice"])
def test_load_csv_rejects_a_header_without_features_or_one_label(tmp_path, text,
                                                                 message):
    path = tmp_path / "header.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=message):
        load_csv(path)


def test_load_csv_peak_memory_is_one_float64_buffer(tmp_path):
    # 10,000 x 28 features are 2.1 MiB as float64; one Python list of floats
    # per row held 12.6 MiB
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(10_000, 28)), rng.integers(0, 4, size=10_000),
                 ["a", "b", "c", "d"])
    path = tmp_path / "long.csv"
    write_csv(path, *dataset_csv(ds))
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("text", [
    "a,label\n1.0,x\n2.0,y\n\n",
    "a,label\n1.0,x\n\n2.0,y\n",
], ids=["trailing", "between-rows"])
def test_load_csv_skips_blank_lines(tmp_path, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])
    assert ds.labels.tolist() == [0, 1]


def test_load_csv_counts_blank_lines_in_row_numbers(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,label\n\n1.0,x\n\n\nnan,y\n\n")
    with pytest.raises(InputError, match=r"row 6, column 'a': non-finite value nan$"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["1_000", "\u0661", "\u00a01"])
def test_load_csv_rejects_a_feature_cell_that_is_not_plain_ascii(tmp_path, cell):
    # float() reads each of these as a number
    path = tmp_path / "plain.csv"
    path.write_text(f"a,b,label\n1.0,2.0,x\n3.0,{cell},y\n", encoding="utf-8")
    message = f"row 3, column 'b': cannot parse {cell!r} as a number"
    with pytest.raises(InputError, match=re.escape(message)):
        load_csv(path)


def test_load_csv_names_the_first_bad_cell_of_a_row_that_is_not_plain(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b,c,label\n1.0,oops,1_000,x\n")
    with pytest.raises(InputError, match=r"row 2, column 'b': cannot parse 'oops'"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,label\n1.0,2.0,x\n1.0,x\n")
    with pytest.raises(InputError, match="row 3"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InputError):
        load_csv(path)


def test_standardize_uses_train_statistics():
    rng = np.random.default_rng(13)
    train = Dataset(rng.normal(5.0, 3.0, size=(200, 4)),
                    rng.integers(0, 2, size=200), ["a", "b"])
    test = Dataset(rng.normal(5.0, 3.0, size=(50, 4)),
                   rng.integers(0, 2, size=50), ["a", "b"])
    stats = standardization(train)
    s_train, s_test = rescale(train, stats), rescale(test, stats)
    np.testing.assert_allclose(s_train.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(s_train.features.std(axis=0), 1.0, atol=1e-12)
    expected = (test.features - train.features.mean(axis=0)) / train.features.std(axis=0)
    np.testing.assert_allclose(s_test.features, expected, atol=1e-12)


def test_standardization_and_rescale_overflow_without_a_warning():
    import warnings

    # the first column's variance overflows; the second's sum meets +inf and
    # -inf in numpy's pairwise summation, which gives NaN
    cancelling = np.zeros(16)
    cancelling[[0, 8]], cancelling[[1, 9]] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = [standardization(Dataset(column[:, None], np.zeros(16, int), ["a"]))
                 for column in (np.tile([1e200, -1e200], 8), cancelling)]
        scaled = rescale(Dataset([[1e200]], [0], ["a"]), ([0.0], [1e-150]))
    assert np.isinf(stats[0][1]).all() and np.isnan(stats[1][0]).all()
    assert np.isinf(scaled.features).all()


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.zeros((3, 2)), [0, 1], ["a", "b"])
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), [0, 2], ["a", "b"])
