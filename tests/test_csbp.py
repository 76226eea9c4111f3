import hashlib

import numpy as np
import pytest

from bmlab.acceptance import _ks_two_sample
from bmlab.csbp import (CsbpPath, LawCheck, LevyPath, absorption_cutoff,
                        csbp_marginals, extinction_time_from,
                        lamperti_csbp_to_levy, lamperti_levy_to_csbp,
                        levy_exponent_scale, merge_ppp_counts, sample_csbp,
                        sample_levy, sample_merge_ppp, survival_prob, u_t)
from bmlab.errors import ResourceLimitError
from bmlab.paths import GridPath
from bmlab.rng import RngStream
from bmlab.stable import stable_increments


GOLDEN_MARGINALS = "41d3834a5c5d9cd78b211b28aa55a292dcb66826858fde6f435f9e1da77b67f9"


# ---------------------------------------------------------------------------
# closed forms

def test_u_t_identity_at_time_zero():
    assert u_t(1.5, 1.0, 7.0, 0.0) == 7.0


def test_u_t_reference_value():
    # alpha=3/2, c=1, lam=4, t=1/2: (1/2 + 1/2)^(-2) = 1
    assert u_t(1.5, 1.0, 4.0, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_u_t_large_lam_limit():
    assert u_t(1.5, 1.0, 1e12, 1.0) == pytest.approx(1.0, rel=1e-5)
    assert u_t(1.5, 1.0, 0.0, 5.0) == 0.0


def test_survival_prob_values():
    assert survival_prob(1.5, 1.0, 1.0, 1.0) == pytest.approx(1 - np.exp(-1), rel=1e-12)
    assert survival_prob(1.5, 1.0, 0.0, 1.0) == 0.0
    assert survival_prob(1.5, 1.0, 1.0, 1e9) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling

def test_sample_csbp_started_at_zero_is_flat():
    cp = sample_csbp(1.5, 1.0, 0.0, 1.0, 0.01, RngStream(1))
    assert np.all(cp.path.values == 0.0)
    assert cp.extinction_index is not None


def test_sample_csbp_absorbs_and_stays_at_zero():
    # a path with a small start dies quickly; values stay 0 afterwards
    cp = sample_csbp(1.5, 1.0, 0.05, 4.0, 1e-3, RngStream(5))
    assert cp.extinction_index is not None
    v = cp.path.values
    assert np.all(v[cp.extinction_index:] == 0.0)
    assert np.all(v >= 0.0)
    assert cp.extinction_time == cp.path.times[cp.extinction_index]


def test_sample_csbp_step_budget():
    with pytest.raises(ResourceLimitError):
        sample_csbp(1.5, 1.0, 1.0, 10.0, 1e-9, RngStream(2), max_steps=1000)


def _sample_csbp_oracle(alpha, c, y0, horizon, dt, rng):
    """The scalar stepping loop ``sample_csbp`` once carried, kept as its
    reference: same draws, one Python float per step."""
    gen = rng.generator()
    c_levy = levy_exponent_scale(alpha, c)
    cutoff = absorption_cutoff(alpha, c, dt)
    times = [0.0]
    vals = [float(y0)]
    ext = None
    y = float(y0)
    if y <= cutoff:
        ext = float(extinction_time_from(alpha, c, y, gen))
    else:
        for k in range(1, int(np.ceil(horizon / dt)) + 1):
            inc = float(stable_increments(alpha, c_levy, y * dt, gen, size=1)[0])
            y = y + inc
            t_now = k * dt
            if y <= cutoff:
                rem = 0.0 if y <= 0 else float(extinction_time_from(alpha, c, y, gen))
                ext = t_now + rem
                break
            times.append(t_now)
            vals.append(y)
    if ext is not None and ext <= horizon:
        times.append(ext)
        vals.append(0.0)
        return np.array(times), np.array(vals), len(vals) - 1
    return np.array(times), np.array(vals), None


def test_sample_csbp_matches_the_scalar_oracle():
    # the grid and extinction index agree exactly; values (and the drawn
    # extinction time) agree to rounding, since the stepper takes each
    # stable scale power on a length-1 array instead of a Python float
    alpha, c, horizon, dt = 1.5, 1.0, 2.0, 1e-2
    below = 0.5 * absorption_cutoff(alpha, c, dt)
    base = RngStream(500)
    ended = 0
    for y0 in (below, 0.05, 1.0, 3.0):
        for seed in range(40):
            rng = base.named(f"y{y0}").split(seed)
            cp = sample_csbp(alpha, c, y0, horizon, dt, rng)
            times, vals, ext = _sample_csbp_oracle(alpha, c, y0, horizon, dt, rng)
            assert cp.extinction_index == ext
            grid = len(times) if ext is None else ext
            assert np.array_equal(cp.path.times[:grid], times[:grid])
            np.testing.assert_allclose(cp.path.times, times, rtol=1e-12, atol=0)
            np.testing.assert_allclose(cp.path.values, vals, rtol=1e-12, atol=0)
            ended += ext is not None
    assert 0 < ended < 160


def _marginals_digest():
    # 132 calls: a start at 0, one below the cutoff, three above it; one to
    # three targets, some off the grid (none rounding to step 0); two
    # parameter pairs; and a rescaled problem with its own cutoff
    h = hashlib.sha256()
    cut = absorption_cutoff(1.5, 1.0, 1e-2)
    cases = [(alpha, c, y0, targets, 1e-2, None)
             for y0 in (0.0, 0.5 * cut, 0.05, 1.0, 2.5)
             for targets in ([0.5], [0.2504, 0.5], [0.0117, 0.25, 0.6])
             for alpha, c in ((1.5, 1.0), (1.3, 0.7))
             for _ in range(4)]
    cases += [(1.5, 1.0, 4.0, [2 * t for t in targets], 2e-2, 4 * cut)
              for targets in ([0.5], [0.13, 0.5], [0.0117, 0.25, 0.6])
              for _ in range(4)]
    for i, (alpha, c, y0, targets, dt, cutoff) in enumerate(cases):
        vals, ext = csbp_marginals(alpha, c, y0, targets, dt,
                                   RngStream(900).split(i), size=40,
                                   cutoff=cutoff)
        h.update(vals.tobytes())
        h.update(ext.tobytes())
    return h.hexdigest()


def test_marginals_match_golden_digest():
    # recorded from the stepping loop csbp_marginals carried before it
    # shared one stepper with sample_csbp
    assert _marginals_digest() == GOLDEN_MARGINALS


def test_targets_before_the_first_step_report_the_start():
    vals, ext = csbp_marginals(1.5, 1.0, 1.0, [0.0, 0.0004, 1.0], 1e-3,
                               RngStream(1), size=4)
    assert np.array_equal(vals[:, :2], np.ones((4, 2)))
    last, ext_last = csbp_marginals(1.5, 1.0, 1.0, [1.0], 1e-3, RngStream(1),
                                    size=4)
    assert np.array_equal(vals[:, 2], last[:, 0])
    assert np.array_equal(ext, ext_last)


@pytest.mark.parametrize("y0, targets, dt", [
    (-1.0, [1.0], 1e-2),       # negative start
    (1.0, [-0.5, 1.0], 1e-2),  # negative target
    (1.0, [], 1e-2),           # no target
    (1.0, [0.0], 1e-2),        # no positive horizon
    (1.0, [1.0], 0.0),
    (1.0, [1.0], -0.01),
])
def test_marginals_reject_invalid_input(y0, targets, dt):
    with pytest.raises(ValueError):
        csbp_marginals(1.5, 1.0, y0, targets, dt, RngStream(3), size=4)


@pytest.mark.parametrize("call", [
    lambda: csbp_marginals(1.5, np.nan, 1.0, [0.1], 1e-2, RngStream(3), size=4),
    lambda: u_t(1.5, np.nan, 1.0, 1.0),
    lambda: survival_prob(1.5, np.nan, 1.0, 1.0),
], ids=["marginals", "u_t", "survival_prob"])
def test_nan_constants_raise(call):
    with pytest.raises(ValueError, match="must be positive"):
        call()


def test_marginals_draw_through_the_module_attribute_once_per_step(monkeypatch):
    import bmlab.csbp as csbp_module
    sizes = []

    def counting(alpha, c, dt, gen, size=1):
        sizes.append(size)
        return stable_increments(alpha, c, dt, gen, size=size)

    monkeypatch.setattr(csbp_module, "stable_increments", counting)
    vals, ext = csbp_marginals(1.5, 1.0, 1.0, [0.3], 1e-2, RngStream(4),
                               size=50)
    # one call per step of the 30, each drawing for the paths still alive
    assert len(sizes) == 30 and np.isinf(ext).any()
    assert sizes[0] == 50 and sizes == sorted(sizes, reverse=True)
    monkeypatch.undo()
    again, ext_again = csbp_marginals(1.5, 1.0, 1.0, [0.3], 1e-2, RngStream(4),
                                      size=50)
    assert np.array_equal(vals, again) and np.array_equal(ext, ext_again)


def test_marginals_step_budget():
    with pytest.raises(ResourceLimitError, match="needs 10000 steps"):
        csbp_marginals(1.5, 1.0, 1.0, [1.0], 1e-4, RngStream(2), size=4,
                       max_steps=1000)


def test_law_check_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        LawCheck.from_samples("one", np.ones(1), 1.0)
    with pytest.raises(ValueError, match="at least 2 samples"):
        LawCheck.from_samples("none", np.ones(0), 1.0)


def test_marginal_laplace_law_small():
    # smaller replica count than the acceptance run, same law
    reps = 20_000
    vals, ext = csbp_marginals(1.5, 1.0, 1.0, [1.0], 1e-3, RngStream(77), size=reps)
    for lam in (0.5, 1.0, 2.0):
        s = np.exp(-lam * vals[:, 0])
        se = s.std(ddof=1) / np.sqrt(reps)
        target = np.exp(-u_t(1.5, 1.0, lam, 1.0))
        assert abs(s.mean() - target) < 3 * se + 0.01
    surv = np.mean(ext > 1.0)
    assert abs(surv - survival_prob(1.5, 1.0, 1.0, 1.0)) < 0.015


def test_marginal_laplace_law_parameter_grid():
    # three (alpha, c, y0) corners x three Laplace arguments at t = 0.5
    reps, t = 12_000, 0.5
    for i, (alpha, c, y0) in enumerate(((1.5, 1.0, 1.0), (1.3, 0.5, 2.0),
                                        (1.7, 2.0, 0.5))):
        vals, _ = csbp_marginals(alpha, c, y0, [t], 1e-3,
                                 RngStream(400).split(i), size=reps)
        for lam in (0.5, 1.0, 2.0):
            s = np.exp(-lam * vals[:, 0])
            se = s.std(ddof=1) / np.sqrt(reps)
            target = np.exp(-y0 * u_t(alpha, c, lam, t))
            assert abs(s.mean() - target) < 3 * se + 0.01, (alpha, c, y0, lam)


def test_marginal_scaling_property_ks():
    # Y_{C^{alpha-1} t} from C*y0, divided by C, vs Y_t from y0; the scaled
    # problem runs with correspondingly scaled step and endgame level
    reps, c_fac, t, dt = 30_000, 4.0, 0.5, 1e-3
    from bmlab.csbp import absorption_cutoff
    cut = absorption_cutoff(1.5, 1.0, dt)
    a, _ = csbp_marginals(1.5, 1.0, c_fac, [np.sqrt(c_fac) * t],
                          c_fac ** 0.5 * dt, RngStream(88), size=reps,
                          cutoff=c_fac * cut)
    b, _ = csbp_marginals(1.5, 1.0, 1.0, [t], dt, RngStream(89), size=reps)
    assert _ks_two_sample(a[:, 0] / c_fac, b[:, 0]) < 0.02


# ---------------------------------------------------------------------------
# time changes

def test_constant_path_time_change_is_identity():
    times = np.linspace(0.0, 1.0, 11)
    lp = LevyPath(1.5, 1.0, GridPath(times, np.ones(11), "levy"))
    cp = lamperti_levy_to_csbp(lp)
    assert np.allclose(cp.path.times, times)
    assert np.array_equal(cp.path.values, lp.path.values)
    back = lamperti_csbp_to_levy(cp)
    assert np.allclose(back.path.times, times)


def test_round_trip_deviation_bounded_by_quadrature_error():
    # levy -> csbp -> levy: the two integral clocks are mutually inverse,
    # so reconstructed grid times must match the original ones up to
    # quadrature error; values pass through the time changes unchanged
    dt = 1e-3
    failures = 0
    n_paths = 200
    for rep in range(n_paths):
        lp = sample_levy(1.5, 2.0, 1.0, 1.0, dt, RngStream(1000).split(rep))
        cp = lamperti_levy_to_csbp(lp)
        back = lamperti_csbp_to_levy(cp)
        m = min(len(lp.path), len(back.path))
        if lp.path.values[-1] <= 0:
            m -= 1  # the absorbed crossing value is replaced by 0
        sup = float(np.max(np.abs(lp.path.values)))
        assert np.array_equal(back.path.values[:m], lp.path.values[:m])
        dev = float(np.max(np.abs(back.path.times[:m] - lp.path.times[:m])))
        if dev > 10.0 * np.sqrt(dt) * sup:
            failures += 1
    assert failures <= max(n_paths // 100, 1)


def test_extinction_times_agree_between_paths_and_clock():
    lp = sample_levy(1.5, 2.0, 0.3, 2.0, 1e-3, RngStream(9))
    if lp.path.values[-1] <= 0:
        cp = lamperti_levy_to_csbp(lp)
        assert cp.extinction_index == len(cp.path) - 1
        assert cp.path.values[-1] == 0.0
        # the clock image of the driving first-zero time is the last clock
        # value, within one grid step of the recorded extinction time
        assert cp.extinction_time >= cp.path.times[-2]


def test_time_change_rejects_empty_and_bad_paths():
    with pytest.raises(ValueError):
        lamperti_levy_to_csbp(LevyPath(1.5, 1.0, GridPath([0.0], [-1.0], "levy")))


# ---------------------------------------------------------------------------
# merge point process

def test_merge_ppp_counts_poisson_mean():
    # points above depth w on [0, ell]: Poisson with mean ell/(2 w^2)
    reps, x_min, w, ell = 3000, 0.02, 0.1, 0.7
    base = RngStream(300)
    counts = merge_ppp_counts(x_min, w, ell, base, reps)
    target = ell / (2 * w * w)
    se = counts.std(ddof=1) / np.sqrt(reps)
    assert abs(counts.mean() - target) < 3 * se
    # total count has mean x_min^-2 / 2
    totals = np.empty(reps)
    for r in range(reps):
        totals[r] = len(sample_merge_ppp(x_min, base.named("b").split(r)).points)
    se_t = totals.std(ddof=1) / np.sqrt(reps)
    assert abs(totals.mean() - 0.5 / x_min ** 2) < 3 * se_t


def test_csbp_path_invariant_rejects_resurrection():
    with pytest.raises(ValueError):
        CsbpPath(1.5, 1.0, GridPath([0.0, 1.0, 2.0], [1.0, 0.0, 0.5], "csbp"))
