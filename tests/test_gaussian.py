import numpy as np
import pytest

from bmlab.acceptance import _ks_two_sample
from bmlab.gaussian import (_bridge_values,
                            _excursion_values, _snake_label_values,
                            min_covariance_matrix,
                            sample_excursion, sample_snake_labels)
from bmlab.paths import GridPath
from bmlab.rng import RngStream


# ---------------------------------------------------------------------------
# bridge

def test_bridge_n2_is_pinned_to_zero():
    vals = _bridge_values(2, 3.0, 1.0, RngStream(1).generator(), 1)
    assert np.array_equal(vals, [[0.0, 0.0]])


def test_bridge_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _bridge_values(1, 1.0, 1.0, RngStream(0).generator(), 1)
    with pytest.raises(ValueError):
        _bridge_values(8, 0.0, 1.0, RngStream(0).generator(), 1)


def test_bridge_determinism():
    a = _bridge_values(17, 2.0, 1.5, RngStream(9, 4).generator(), 1)
    b = _bridge_values(17, 2.0, 1.5, RngStream(9, 4).generator(), 1)
    assert np.array_equal(a, b)


def test_bridge_covariance_matches_target_within_4se():
    # MC covariance at n=8 against scale^2 * s(l-t)/l, elementwise 4 SE
    n, ell, scale, reps = 8, 2.0, 1.3, 100_000
    vals = _bridge_values(n, ell, scale, RngStream(11).generator(), reps)
    t = np.linspace(0.0, ell, n)
    target = scale * scale * np.minimum(t[:, None], t[None, :]) \
        * (ell - np.maximum(t[:, None], t[None, :])) / ell
    prods = vals[:, :, None] * vals[:, None, :]
    est = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(reps)
    inner = slice(1, n - 1)
    assert np.all(np.abs(est - target)[inner, inner] < 4 * se[inner, inner])


def test_bridge_midpoint_variance_is_quarter_duration():
    # on-grid midpoint, scale 1: Var(B_{l/2}) -> l/4
    ell, reps = 2.0, 100_000
    vals = _bridge_values(9, ell, 1.0, RngStream(12).generator(), reps)
    sq = vals[:, 4] ** 2
    se = sq.std(ddof=1) / np.sqrt(reps)
    assert abs(sq.mean() - ell / 4) < 4 * se


def test_bridge_joint_characteristic_function_gaussian():
    n, ell, reps = 8, 1.0, 100_000
    vals = _bridge_values(n, ell, 1.0, RngStream(13).generator(), reps)
    t = np.linspace(0.0, ell, n)
    cov = np.minimum(t[:, None], t[None, :]) \
        * (ell - np.maximum(t[:, None], t[None, :])) / ell
    gen = RngStream(14).generator()
    for _ in range(5):
        theta = gen.normal(size=n)
        target = np.exp(-0.5 * theta @ cov @ theta)
        proj = vals @ theta
        re, im = np.cos(proj), np.sin(proj)
        assert abs(re.mean() - target) < 4 * re.std(ddof=1) / np.sqrt(reps) + 1e-12
        assert abs(im.mean()) < 4 * im.std(ddof=1) / np.sqrt(reps) + 1e-12


# ---------------------------------------------------------------------------
# excursion

def test_excursion_pinned_nonnegative():
    p = sample_excursion(64, 1.0, RngStream(3))
    assert p.values[0] == 0.0 and p.values[-1] == 0.0
    assert np.all(p.values >= 0)
    assert p.kind == "excursion"


def test_excursion_scaling_law_ks():
    # max of a length-4 sample vs twice the max of a length-1 sample
    reps, n = 100_000, 128
    m4 = _excursion_values(n, 4.0, RngStream(21).generator(), reps).max(axis=1)
    m1 = _excursion_values(n, 1.0, RngStream(22).generator(), reps).max(axis=1)
    assert _ks_two_sample(m4, 2.0 * m1) < 0.02


def test_excursion_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_excursion(1, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        sample_excursion(16, -1.0, RngStream(0))


# ---------------------------------------------------------------------------
# snake labels

def test_label_variances_match_lifetime_exactly_in_expectation():
    x = sample_excursion(16, 1.0, RngStream(31))
    reps = 100_000
    ys = _snake_label_values(x.values, RngStream(32).generator(), reps)
    est = (ys * ys).mean(axis=0)
    se = (ys * ys).std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(est - x.values) < 4 * se + 1e-12)


def test_label_covariance_is_range_minimum():
    x = sample_excursion(16, 1.0, RngStream(41))
    reps = 100_000
    ys = _snake_label_values(x.values, RngStream(42).generator(), reps)
    target = min_covariance_matrix(x.values)
    prods = ys[:, :, None] * ys[:, None, :]
    est = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(est - target) < 4 * se + 1e-12)


def test_spine_stack_agrees_with_dense_cholesky_sampler():
    # distributional agreement per coordinate against an independent exact
    # Gaussian sampler built from the covariance matrix
    x = sample_excursion(16, 1.0, RngStream(51))
    reps = 100_000
    ys = _snake_label_values(x.values, RngStream(52).generator(), reps)
    cov = min_covariance_matrix(x.values)
    lam, vec = np.linalg.eigh(cov)
    root = vec @ np.diag(np.sqrt(np.maximum(lam, 0.0))) @ vec.T
    ref = RngStream(53).generator().standard_normal((reps, len(x.values))) @ root.T
    for i in range(1, len(x.values) - 1):
        assert _ks_two_sample(ys[:, i], ref[:, i]) < 0.02


def test_label_joint_characteristic_function_gaussian():
    x = sample_excursion(12, 1.0, RngStream(55))
    reps = 100_000
    ys = _snake_label_values(x.values, RngStream(56).generator(), reps)
    cov = min_covariance_matrix(x.values)
    gen = RngStream(57).generator()
    for _ in range(5):
        theta = gen.normal(size=12)
        target = np.exp(-0.5 * theta @ cov @ theta)
        proj = ys @ theta
        re, im = np.cos(proj), np.sin(proj)
        assert abs(re.mean() - target) < 4 * re.std(ddof=1) / np.sqrt(reps) + 1e-12
        assert abs(im.mean()) < 4 * im.std(ddof=1) / np.sqrt(reps) + 1e-12


def test_zero_lifetime_gives_zero_labels_with_flag():
    x = GridPath(np.linspace(0, 1, 8), np.zeros(8), "excursion")
    s = sample_snake_labels(x, RngStream(6))
    assert s.degenerate
    assert np.all(s.y_values == 0.0)


def test_snake_sample_structure_and_argmin():
    x = sample_excursion(256, 1.0, RngStream(61))
    s = sample_snake_labels(x, RngStream(62))
    assert s.y_values[0] == 0.0 and s.y_values[-1] == 0.0
    assert s.s_star_index == int(np.argmin(s.y_values))
    assert not s.degenerate
    # determinism
    s2 = sample_snake_labels(x, RngStream(62))
    assert np.array_equal(s.y_values, s2.y_values)


def test_subsample_keeps_alignment():
    x = sample_excursion(17, 1.0, RngStream(71))
    s = sample_snake_labels(x, RngStream(72))
    half = s.subsample(2)
    assert len(half) == 9
    assert np.array_equal(half.y_values, s.y_values[::2])
    with pytest.raises(ValueError):
        s.subsample(3)
