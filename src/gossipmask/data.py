"""Datasets and label-skew partitioning.

Features are float64 with every entry in [0, 1]. The synthetic generator
is the default desk-scale task: one random prototype per class plus
uniform noise, clipped back into range. The partitioner implements label
skew: each agent holds a few labels, a label's training samples are split
as evenly as possible among its holders, and each agent's test set is the
union of all test samples of its labels. Shared labels duplicate test
samples across agents by index, not by copy: an agent reads its samples
through :class:`Rows`, a view of the dataset's arrays at the plan's
indices, which gathers only the rows asked for.

A loader for the CIFAR-10 binary batch format (3073-byte records, one
label byte followed by 3072 channel-major pixel bytes) is included for
full-scale runs.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FieldError

__all__ = [
    "Dataset",
    "PartitionPlan",
    "Rows",
    "DataFormatError",
    "synth_generate",
    "check_synth",
    "assign_labels",
    "partition",
    "load_cifar10",
]

_CIFAR_RECORD = 3073
_CIFAR_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR_TEST = ["test_batch.bin"]


class DataFormatError(Exception):
    pass


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree in length")
        # written so that a NaN, which compares False, fails it too
        if self.features.size and not (self.features.min() >= 0.0
                                       and self.features.max() <= 1.0):
            raise ValueError("feature entries must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self):
        return self.features.shape[0]


@dataclass
class PartitionPlan:
    """Per-agent label sets and train/test sample indices."""

    label_sets: list
    train_indices: list
    test_indices: list


class Rows:
    """Read-only view of the rows ``base[index]`` of a shared array. It
    gathers on demand: a slice or an index array ``key`` gives
    ``base[index[key]]``, the bytes the same key gives on a copy of
    ``base[index]``, and ``np.asarray`` gathers every row."""

    __slots__ = ("base", "index")

    def __init__(self, base, index):
        self.base, self.index = base, np.asarray(index, dtype=np.intp)

    def __len__(self):
        return len(self.index)

    def __getitem__(self, key):
        return self.base[self.index[key]]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.base[self.index], dtype=dtype)


def synth_generate(num_classes, dim, per_class, noise=0.1, seed=0):
    """Synthetic classification task: per class a fixed random prototype in
    [0.25, 0.75]^dim, samples = prototype + uniform(-noise, noise), clipped
    to [0, 1]. Returns an 80/20 train/test split, deterministic per seed."""
    check_synth(num_classes, per_class, noise)
    dim = tuple(int(d) for d in dim)
    rng = np.random.default_rng(seed)
    protos = 0.25 + 0.5 * rng.random((num_classes,) + dim)
    test_per = per_class // 5
    train_per = per_class - test_per
    train_x, test_x = [], []
    for c in range(num_classes):
        samples = protos[c] + rng.uniform(-noise, noise, size=(per_class,) + dim)
        np.clip(samples, 0.0, 1.0, out=samples)
        train_x.append(samples[:train_per])
        test_x.append(samples[train_per:])
    train_y = np.repeat(np.arange(num_classes), train_per)
    test_y = np.repeat(np.arange(num_classes), test_per)
    return (Dataset(np.concatenate(train_x), train_y, num_classes),
            Dataset(np.concatenate(test_x), test_y, num_classes))


def check_synth(num_classes, per_class, noise):
    """The argument checks of :func:`synth_generate`, without the data: a
    FieldError names the argument it rejects."""
    if num_classes < 2:
        raise FieldError("num_classes", "need at least 2 classes")
    if per_class < 5:   # a fifth of them, rounded down, is the test split
        raise FieldError("per_class", "need at least 5 samples per class")
    if noise < 0:
        raise FieldError("noise", "noise must be nonnegative")


def assign_labels(num_agents, num_classes, labels_per_agent, seed):
    """Draw ``labels_per_agent`` distinct labels per agent, independently
    and uniformly, redrawing (up to 100 times) until every label has at
    least one holder. A FieldError naming ``labels_per_agent`` reports
    counts that no agent can hold, that cannot cover the labels, or that
    never covered them in the draws."""
    c = int(labels_per_agent)
    if not 1 <= c <= num_classes:
        raise FieldError("labels_per_agent",
                         f"labels per agent must be in [1, {num_classes}]")
    if num_agents * c < num_classes:
        raise FieldError("labels_per_agent",
                         f"{num_agents} agents with {c} labels "
                         f"each cannot cover {num_classes} labels")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        sets = [tuple(int(x) for x in np.sort(rng.choice(num_classes, c, replace=False)))
                for _ in range(num_agents)]
        if len(set().union(*map(set, sets))) == num_classes:
            return sets
    raise FieldError("labels_per_agent",
                     f"label coverage not reached in 100 draws: {num_agents} "
                     f"agents with labels_per_agent = {c} left some of the "
                     f"{num_classes} labels without a holder every time")


def partition(train, test, label_sets, seed):
    """Split training samples of each label evenly (sizes differ by at most
    one) among the label's holders; give each agent all test samples of its
    labels. The plan holds indices only: a test sample of a shared label is
    listed once per holder, and :class:`Rows` reads it from the one dataset."""
    holders = {lab: [i for i, s in enumerate(label_sets) if lab in s]
               for lab in range(train.num_classes)}
    for lab, h in holders.items():
        if not h:
            raise ValueError(f"label {lab} has no holder")
    rng = np.random.default_rng(seed)
    per_agent = [[] for _ in label_sets]
    for lab in range(train.num_classes):
        idxs = np.flatnonzero(train.labels == lab)
        perm = rng.permutation(idxs)
        for agent, part in zip(holders[lab], np.array_split(perm, len(holders[lab]))):
            per_agent[agent].append(part)
    train_indices = [np.sort(np.concatenate(parts)) if parts
                     else np.array([], dtype=np.int64) for parts in per_agent]
    test_indices = [np.flatnonzero(np.isin(test.labels, list(s)))
                    for s in label_sets]
    return PartitionPlan(list(label_sets), train_indices, test_indices)


def _load_cifar_files(paths):
    feats, labs = [], []
    for p in paths:
        if not p.is_file():
            raise DataFormatError(f"missing CIFAR-10 batch file: {p}")
        raw = p.read_bytes()
        if len(raw) % _CIFAR_RECORD:
            raise DataFormatError(
                f"{p}: truncated record at offset {len(raw) - len(raw) % _CIFAR_RECORD}")
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        labels = rec[:, 0]
        bad = np.flatnonzero(labels > 9)
        if bad.size:
            raise DataFormatError(
                f"{p}: invalid label {labels[bad[0]]} at offset {bad[0] * _CIFAR_RECORD}")
        feats.append(rec[:, 1:].reshape(-1, 3, 32, 32) / 255.0)
        labs.append(labels.astype(np.int64))
    return Dataset(np.concatenate(feats), np.concatenate(labs), 10)


def load_cifar10(path):
    """Load the standard binary batches from a directory; pixels are scaled
    to [0, 1]. Returns (train, test)."""
    base = Path(path)
    train = _load_cifar_files([base / f for f in _CIFAR_TRAIN])
    test = _load_cifar_files([base / f for f in _CIFAR_TEST])
    return train, test
