"""Named substreams of a single root seed.

Every source of randomness in a run (parameter init, score-tensor init,
topology draw, data partition, batch selection, ...) is derived from the
root seed through a named substream, so components can be re-seeded and
re-run independently without disturbing each other.
"""

import numpy as np

# An index is part of every seed drawn from its stream: never renumber one.
STREAMS = {
    "params": 0,
    "z": 1,
    "topology": 2,
    "partition": 3,
    "batch": 4,
    "retention": 5,
    "labels": 6,
    "data": 7,
    "probe": 9,
}


def seed_key(root, name, *extra):
    """Seed sequence for the ``name`` substream of ``root``.

    ``extra`` integers (agent id, round index, layer index, ...) split the
    substream further. The result can be fed to ``numpy.random.default_rng``.
    """
    return [int(root), STREAMS[name], *(int(e) for e in extra)]


def substream(root, name, *extra):
    """Fresh generator for the given substream."""
    return np.random.default_rng(seed_key(root, name, *extra))
