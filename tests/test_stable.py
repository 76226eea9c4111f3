import numpy as np
import pytest

from bmlab.rng import RngStream
from bmlab.stable import stable_increments


def test_laplace_identity_is_the_source_of_truth():
    # E[exp(-lam D)] = exp(dt c lam^alpha) within 4 SE at each lam
    reps = 1_000_000
    x = stable_increments(1.5, 1.0, 1.0, RngStream(100), size=reps)
    for lam in (0.5, 1.0, 2.0):
        samples = np.exp(-lam * x)
        se = samples.std(ddof=1) / np.sqrt(reps)
        assert abs(samples.mean() - np.exp(lam ** 1.5)) < 4 * se


def test_unit_mean_example_value():
    # alpha=3/2, c=1, dt=1: MC mean of exp(-D) should approach e
    x = stable_increments(1.5, 1.0, 1.0, RngStream(101), size=1_000_000)
    samples = np.exp(-x)
    se = samples.std(ddof=1) / np.sqrt(len(x))
    assert abs(samples.mean() - np.e) < 4 * se


def test_laplace_identity_other_parameters():
    reps = 400_000
    for alpha, c, dt in ((1.2, 0.7, 0.5), (1.8, 2.0, 0.25)):
        x = stable_increments(alpha, c, dt, RngStream(103), size=reps)
        for lam in (0.5, 1.0, 2.0):
            samples = np.exp(-lam * x)
            se = samples.std(ddof=1) / np.sqrt(reps)
            assert abs(samples.mean() - np.exp(dt * c * lam ** alpha)) < 4 * se


def test_small_dt_increments_concentrate_near_zero():
    x = stable_increments(1.5, 1.0, 1e-6, RngStream(102), size=20_000)
    assert np.median(np.abs(x)) < 1e-3


def test_negative_tail_dominates():
    # only upward jumps, so the median is negative
    x = stable_increments(1.5, 1.0, 1e-3, RngStream(104), size=200_000)
    assert np.mean(x < 0) > 0.5


def test_scalar_op_and_determinism():
    a = stable_increments(1.5, 1.0, 0.1, RngStream(7, 3), size=1)
    b = stable_increments(1.5, 1.0, 0.1, RngStream(7, 3), size=1)
    assert a.shape == (1,) and np.array_equal(a, b)


def test_parameter_validation():
    with pytest.raises(ValueError):
        stable_increments(2.0, 1.0, 1.0, RngStream(0), size=1)
    with pytest.raises(ValueError):
        stable_increments(1.0, 1.0, 1.0, RngStream(0), size=1)
    with pytest.raises(ValueError):
        stable_increments(1.5, -1.0, 1.0, RngStream(0), size=1)
    with pytest.raises(ValueError):
        stable_increments(1.5, 1.0, 0.0, RngStream(0), size=1)
