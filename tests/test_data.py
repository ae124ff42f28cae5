import numpy as np
import pytest

from gossipmask import (DataFormatError, Dataset, FieldError, assign_labels,
                        load_cifar10, partition, synth_generate)


# --------------------------------------------------------------- datasets

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.5]]), np.array([0]), 2)
    with pytest.raises(ValueError):
        Dataset(np.array([[0.5]]), np.array([2]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)


def test_dataset_rejects_nan_features():
    # a NaN compares False with both bounds, so only a check that asks for
    # min >= 0 and max <= 1 catches it
    for bad in ([[0.5, np.nan]], [[np.nan]], [[np.nan, 0.2], [0.1, 0.3]]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            Dataset(np.array(bad), np.zeros(len(bad), dtype=int), 2)


def test_synth_zero_noise_reproduces_prototype():
    train, test = synth_generate(3, (2, 4, 4), 10, noise=0.0, seed=5)
    for c in range(3):
        block = train.features[train.labels == c]
        assert np.array_equal(block, np.broadcast_to(block[0], block.shape))


def test_synth_range_and_split():
    train, test = synth_generate(4, (3, 5, 5), 100, noise=0.4, seed=1)
    assert len(train) == 320 and len(test) == 80
    for ds in (train, test):
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_synth_deterministic():
    a = synth_generate(3, (2, 3, 3), 20, noise=0.2, seed=9)
    b = synth_generate(3, (2, 3, 3), 20, noise=0.2, seed=9)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)


def test_synth_rejects_bad_arguments():
    with pytest.raises(ValueError):
        synth_generate(1, (2,), 10)
    with pytest.raises(ValueError):
        synth_generate(3, (2,), 1)
    with pytest.raises(ValueError):
        synth_generate(3, (2,), 10, noise=-0.1)


def test_synth_keeps_a_test_sample_per_class():
    # a fifth of each class, rounded down, is its test split
    with pytest.raises(FieldError) as exc:
        synth_generate(3, (2,), 4)
    assert exc.value.field == "per_class"
    train, test = synth_generate(3, (2,), 5, seed=0)
    assert len(train) == 12
    assert np.array_equal(test.labels, [0, 1, 2])


# ---------------------------------------------------------- assign_labels

def test_assign_full_overlap():
    sets = assign_labels(4, 5, 5, seed=0)
    assert all(s == (0, 1, 2, 3, 4) for s in sets)


def test_assign_deterministic_sizes():
    a = assign_labels(20, 10, 4, seed=13)
    b = assign_labels(20, 10, 4, seed=13)
    assert a == b
    assert all(len(s) == 4 and len(set(s)) == 4 for s in a)
    assert set().union(*map(set, a)) == set(range(10))


def test_assign_unlucky_coverage_names_the_counts():
    # 2 x 5 can cover 10 labels, but independent draws almost never do
    with pytest.raises(FieldError, match=r"^label coverage not reached in 100 "
                       r"draws: 2 agents with labels_per_agent = 5 left some "
                       r"of the 10 labels without a holder every time$") as caught:
        assign_labels(2, 10, 5, seed=0)
    assert caught.value.field == "labels_per_agent"


def test_assign_impossible_coverage():
    with pytest.raises(ValueError):
        assign_labels(1, 5, 3, seed=0)
    with pytest.raises(ValueError):
        assign_labels(3, 5, 0, seed=0)


# -------------------------------------------------------------- partition

def test_partition_even_split():
    train, test = synth_generate(2, (2,), 13, noise=0.1, seed=3)
    # label 0 has 10 train samples (80% of 13 = 11 -> 13 - 2; recompute below)
    label0 = int((train.labels == 0).sum())
    sets = [(0,), (0,), (0, 1)]
    plan = partition(train, test, sets, seed=1)
    sizes = sorted(int(np.isin(plan.train_indices[i],
                               np.flatnonzero(train.labels == 0)).sum())
                   for i in range(3))
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == label0


def test_partition_single_holder_gets_all():
    train, test = synth_generate(3, (2,), 20, noise=0.1, seed=4)
    sets = [(0, 1), (2,), (2,)]
    plan = partition(train, test, sets, seed=2)
    got = plan.train_indices[0]
    want = np.flatnonzero(np.isin(train.labels, [0, 1]))
    assert np.array_equal(np.sort(got), want)


def test_partition_conservation_and_disjoint():
    train, test = synth_generate(5, (3,), 40, noise=0.2, seed=6)
    sets = assign_labels(6, 5, 2, seed=6)
    plan = partition(train, test, sets, seed=6)
    all_idx = np.concatenate(plan.train_indices)
    assert len(all_idx) == len(np.unique(all_idx))
    for lab in range(5):
        total = sum(int((train.labels[idx] == lab).sum())
                    for idx in plan.train_indices)
        assert total == int((train.labels == lab).sum())


def test_partition_shared_label_duplicates_test():
    train, test = synth_generate(3, (2,), 30, noise=0.1, seed=8)
    sets = [(0, 1), (1, 2)]
    plan = partition(train, test, sets, seed=8)
    ones = np.flatnonzero(test.labels == 1)
    for agent in range(2):
        assert np.isin(ones, plan.test_indices[agent]).all()


def test_partition_test_locality():
    train, test = synth_generate(4, (2,), 30, noise=0.1, seed=9)
    sets = assign_labels(5, 4, 2, seed=9)
    plan = partition(train, test, sets, seed=9)
    for agent, labels in enumerate(sets):
        got = set(test.labels[plan.test_indices[agent]].tolist())
        assert got <= set(labels)


def test_partition_unheld_label_rejected():
    train, test = synth_generate(3, (2,), 10, noise=0.1, seed=10)
    with pytest.raises(ValueError, match="label 2"):
        partition(train, test, [(0,), (1,)], seed=0)


def test_partition_deterministic():
    train, test = synth_generate(4, (2,), 25, noise=0.2, seed=11)
    sets = assign_labels(4, 4, 2, seed=11)
    a = partition(train, test, sets, seed=11)
    b = partition(train, test, sets, seed=11)
    for i in range(4):
        assert np.array_equal(a.train_indices[i], b.train_indices[i])
        assert np.array_equal(a.test_indices[i], b.test_indices[i])


# ---------------------------------------------------------------- cifar10

def _write_batch(path, labels, pixel=128):
    records = []
    for lab in labels:
        records.append(bytes([lab]) + bytes([pixel]) * 3072)
    path.write_bytes(b"".join(records))


def _fake_cifar(tmp_path, per_train=4, per_test=3):
    rng = np.random.default_rng(0)
    for i in range(1, 6):
        _write_batch(tmp_path / f"data_batch_{i}.bin",
                     rng.integers(0, 10, per_train).tolist())
    _write_batch(tmp_path / "test_batch.bin",
                 rng.integers(0, 10, per_test).tolist())


def test_cifar_record_count_and_range(tmp_path):
    _fake_cifar(tmp_path, per_train=4, per_test=3)
    size = (tmp_path / "data_batch_1.bin").stat().st_size
    assert size // 3073 == 4 and size % 3073 == 0
    train, test = load_cifar10(tmp_path)
    assert len(train) == 20 and len(test) == 3
    assert train.features.shape[1:] == (3, 32, 32)
    assert train.features.min() >= 0.0 and train.features.max() <= 1.0
    assert train.features.max() == pytest.approx(128 / 255)


def test_cifar_bad_label_rejected(tmp_path):
    _fake_cifar(tmp_path)
    _write_batch(tmp_path / "data_batch_2.bin", [255])
    with pytest.raises(DataFormatError, match="data_batch_2"):
        load_cifar10(tmp_path)


def test_cifar_truncated_rejected(tmp_path):
    _fake_cifar(tmp_path)
    path = tmp_path / "data_batch_3.bin"
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataFormatError, match="offset"):
        load_cifar10(tmp_path)


def test_cifar_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="missing"):
        load_cifar10(tmp_path)
