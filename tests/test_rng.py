import numpy as np

from striplab.rng import ROLE_BULK, ROLE_SURFACE, mix64, stream

FROZEN_VECTORS = [
    ((0, 0), 16294208416658607535),
    ((0, 1), 7960286522194355700),
    ((1, 0), 10451216379200822465),
    ((42, 7), 14769051326987775908),
    ((2**64 - 1, 123456789), 14763516371262913487),
]


def test_mix64_frozen_vectors():
    for (master, idx), want in FROZEN_VECTORS:
        assert mix64(master, idx) == want


def test_mix64_range_and_distinctness():
    seen = {mix64(5, i) for i in range(2000)}
    assert len(seen) == 2000
    assert all(0 <= v < 2**64 for v in seen)


def test_stream_deterministic_and_role_separated():
    a = stream(mix64(9, 3), ROLE_SURFACE).uniform(size=8)
    b = stream(mix64(9, 3), ROLE_SURFACE).uniform(size=8)
    c = stream(mix64(9, 3), ROLE_BULK).uniform(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_seeds_index_pure():
    # order of derivation must not matter
    forward = [mix64(77, i) for i in range(50)]
    backward = [mix64(77, i) for i in reversed(range(50))]
    assert forward == backward[::-1]
