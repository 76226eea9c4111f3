import numpy as np
import pytest

from bmlab.paths import GridPath
from bmlab.rng import RngStream


def test_stream_reproducible_bit_for_bit():
    a = RngStream(123, 7).generator().standard_normal(64)
    b = RngStream(123, 7).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_streams_differ_across_ids_and_splits():
    base = RngStream(5)
    x = base.generator().standard_normal(8)
    y = RngStream(5, 1).generator().standard_normal(8)
    z = base.split(3).generator().standard_normal(8)
    w = base.named("labels").generator().standard_normal(8)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)
    assert not np.array_equal(x, w)
    assert base.split(3) == base.split(3)
    assert base.named("labels") == base.named("labels")


def test_gridpath_invariants():
    with pytest.raises(ValueError):
        GridPath([0.5, 1.0], [0.0, 0.0])  # must start at 0
    with pytest.raises(ValueError):
        GridPath([0.0, 0.0], [0.0, 0.0])  # strictly increasing
    with pytest.raises(ValueError):
        GridPath([0.0, 1.0], [0.0, np.inf])
    with pytest.raises(ValueError):
        GridPath([0.0, 0.5, 1.0], [0.0, -0.1, 0.0], "excursion")
    with pytest.raises(ValueError):
        GridPath([0.0, 0.5, 1.0], [0.0, 0.1, 0.2], "excursion")
    with pytest.raises(ValueError):
        GridPath([0.0, 1.0], [0.0, 0.0], kind="nope")
