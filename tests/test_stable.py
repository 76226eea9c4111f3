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


def _cms_reference(alpha, c, dt, gen, size):
    """The Chambers-Mallows-Stuck draw and scale as first written, one
    expression each, kept as the reference for the in-place kernel."""
    u = gen.uniform(-np.pi / 2, np.pi / 2, size=size)
    w = gen.standard_exponential(size=size)
    zeta = np.tan(np.pi * alpha / 2)
    b = np.arctan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2 * alpha))
    num = np.sin(alpha * (u + b))
    den = np.cos(u) ** (1.0 / alpha)
    tail = (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha)
    x = s * num / den * tail
    scale = (np.asarray(dt, dtype=float) * c * abs(np.cos(np.pi * alpha / 2))) ** (1.0 / alpha)
    return scale * x


@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
@pytest.mark.parametrize("size", [1, 1000])
@pytest.mark.parametrize("array_dt", [False, True])
def test_increments_match_the_reference_bit_for_bit(alpha, size, array_dt):
    # a power on a numpy scalar and one on an array differ in the last bit
    # for about one value in twenty, so scalar dt runs over 100 values
    seed = (int(alpha * 10), size, array_dt)
    steps = np.random.default_rng(seed).uniform(1e-5, 2.0, size=(100, size))
    cases = list(steps[:2]) if array_dt else list(steps[:, 0])
    for i, dt in enumerate(cases):
        dt_before = np.copy(dt)
        got = stable_increments(alpha, 0.7, dt, np.random.default_rng(i), size=size)
        want = _cms_reference(alpha, 0.7, dt, np.random.default_rng(i), size)
        assert got.dtype == want.dtype and got.shape == want.shape == (size,)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(dt, dt_before)  # the caller's dt is not written


@pytest.mark.parametrize("c, dt", [
    (np.nan, 1e-3),
    (1.0, np.nan),
    (1.0, np.array([1e-3, np.nan])),
    (1.0, np.array([1e-3, 0.0])),
])
def test_nan_and_nonpositive_parameters_raise(c, dt):
    size = np.size(dt)
    with pytest.raises(ValueError, match="must be positive"):
        stable_increments(1.5, c, dt, RngStream(0), size=size)
