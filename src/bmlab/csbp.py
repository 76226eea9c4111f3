"""Stable branching processes and their driving spectrally positive paths.

The branching family is parameterized by alpha in (1, 2) and a constant
c > 0 through its closed-form marginal laws:

    u_t(lam) = (lam^(1-alpha) + c t)^(1/(1-alpha))
    E[exp(-lam Y_t)] = exp(-Y_0 u_t(lam))
    P[extinction after t] = 1 - exp(-(c t)^(1/(1-alpha)) Y_0)

Calibration note: u_t above solves du/dt = -(c/(alpha-1)) u^alpha, so the
driving path matching these marginals has Laplace exponent
(c/(alpha-1)) * lam^alpha.  ``sample_csbp`` (one recorded path) and
``csbp_marginals`` (many paths, values at chosen times) both run the one
stepper ``_steps``, which describes the scheme.  The driving path reaches
0 by creeping, which discrete increments with a light left tail
essentially never reproduce, so once the value falls below a small cutoff
the remaining lifetime is drawn from the exact extinction law instead.

The module also carries the truncated point process governing merge depths
along a boundary interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .paths import GridPath
from .rng import RngStream
from .stable import stable_increments

__all__ = [
    "CsbpPath",
    "LevyPath",
    "MergePPP",
    "u_t",
    "survival_prob",
    "sample_levy",
    "sample_csbp",
    "lamperti_levy_to_csbp",
    "lamperti_csbp_to_levy",
    "sample_merge_ppp",
    "merge_ppp_counts",
    "csbp_marginals",
    "levy_exponent_scale",
    "absorption_cutoff",
    "extinction_time_from",
    "LawCheck",
]

MAX_STEPS_DEFAULT = 2_000_000


# ---------------------------------------------------------------------------
# closed forms

def u_t(alpha: float, c: float, lam: float, t: float) -> float:
    """Laplace-transform kernel of the branching process.

    Total on lam >= 0, t >= 0; lam = 0 maps to 0 and t = 0 returns lam.
    """
    _check_ac(alpha, c)
    if lam < 0 or t < 0:
        raise ValueError("lam and t must be nonnegative")
    if lam == 0.0:
        return 0.0
    if t == 0.0:
        return float(lam)
    return float((lam ** (1.0 - alpha) + c * t) ** (1.0 / (1.0 - alpha)))


def survival_prob(alpha: float, c: float, y0: float, t: float) -> float:
    """P[the process started at y0 is still alive at time t]."""
    _check_ac(alpha, c, y0)
    if t <= 0:
        raise ValueError("t must be positive")
    return float(-np.expm1(-((c * t) ** (1.0 / (1.0 - alpha))) * y0))


def _check_ac(alpha: float, c: float, y0: float = 0.0):
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if not c > 0:
        raise ValueError("c must be positive")
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")


# ---------------------------------------------------------------------------
# path containers

@dataclass
class LevyPath:
    """Spectrally positive stable path on a uniform grid."""

    alpha: float
    c: float
    path: GridPath

    def __post_init__(self):
        _check_ac(self.alpha, self.c)
        if self.path.kind != "levy":
            raise ValueError("path kind must be 'levy'")


@dataclass
class CsbpPath:
    """Branching-process path; absorbed at 0 and flat afterwards."""

    alpha: float
    c: float
    path: GridPath
    extinction_index: int | None = None

    def __post_init__(self):
        _check_ac(self.alpha, self.c)
        if self.path.kind != "csbp":
            raise ValueError("path kind must be 'csbp'")
        v = self.path.values
        if np.any(v < 0):
            raise ValueError("branching-process values must be nonnegative")
        zeros = np.flatnonzero(v == 0.0)
        if zeros.size:
            first = int(zeros[0])
            if np.any(v[first:] != 0.0):
                raise ValueError("path must stay at 0 once it hits 0")
            if self.extinction_index is None:
                self.extinction_index = first
            elif self.extinction_index != first:
                raise ValueError("extinction_index must be the first zero index")

    @property
    def extinction_time(self) -> float | None:
        if self.extinction_index is None:
            return None
        return float(self.path.times[self.extinction_index])


# ---------------------------------------------------------------------------
# simulation

def _n_steps(dt: float, horizon: float, max_steps: int) -> int:
    """Number of dt-steps covering [0, horizon], checked against the budget."""
    if not (dt > 0 and horizon > 0):
        raise ValueError("dt and horizon must be positive")
    steps = np.ceil(horizon / dt)
    if steps > max_steps:
        raise ResourceLimitError(
            f"horizon/dt needs {steps:.0f} steps, budget is {max_steps}")
    return int(steps)


def sample_levy(alpha: float, c: float, x0: float, horizon: float, dt: float,
                rng: RngStream, max_steps: int = MAX_STEPS_DEFAULT) -> LevyPath:
    """Stable path started at x0 on a uniform dt-grid up to ``horizon``,
    truncated at its first nonpositive grid value (the value is kept, so
    the crossing is visible).
    """
    _check_ac(alpha, c)
    n_steps = _n_steps(dt, horizon, max_steps)
    incs = stable_increments(alpha, c, dt, rng, size=n_steps)
    values = np.concatenate([[x0], x0 + np.cumsum(incs)])
    hit = np.flatnonzero(values <= 0.0)
    if hit.size:
        values = values[: int(hit[0]) + 1]
    times = dt * np.arange(len(values))
    return LevyPath(alpha, c, GridPath(times, values, "levy"))


def lamperti_levy_to_csbp(lp: LevyPath) -> CsbpPath:
    """Time-change a driving path into a branching-process path.

    The integral clock (of 1/X) is computed by trapezoidal quadrature on
    the grid; a nonpositive final value is replaced by absorption at 0,
    with the crossing time found by linear interpolation of the clock.
    """
    x = lp.path.values
    t_grid = lp.path.times
    if len(x) == 0:
        raise ValueError("empty path")
    if len(x) > 1 and np.any(x[:-1] <= 0):
        raise ValueError("driving path must be positive before its final value")
    absorbed = len(x) > 1 and x[-1] <= 0.0
    lead = x[:-1] if absorbed else x
    dt = np.diff(t_grid[: len(lead)])
    inv = 1.0 / lead
    clock = np.concatenate([[0.0], np.cumsum(0.5 * dt * (inv[:-1] + inv[1:]))])
    if absorbed:
        # partial step up to the zero crossing, left-value rectangle rule
        theta = x[-2] / (x[-2] - x[-1])
        step = t_grid[len(lead)] - t_grid[len(lead) - 1]
        zeta = clock[-1] + theta * step / x[-2]
        if zeta <= clock[-1]:
            zeta = np.nextafter(clock[-1], np.inf)
        times = np.concatenate([clock, [zeta]])
        values = np.concatenate([lead, [0.0]])
        ext = len(values) - 1
    else:
        times, values, ext = clock, lead.copy(), None
    return CsbpPath(lp.alpha, lp.c, GridPath(times, values, "csbp"),
                    extinction_index=ext)


def lamperti_csbp_to_levy(cp: CsbpPath) -> LevyPath:
    """Inverse time change; the clock integrates Y by trapezoids."""
    y = cp.path.values
    t_grid = cp.path.times
    if len(y) == 0:
        raise ValueError("empty path")
    keep = len(y) if cp.extinction_index is None else cp.extinction_index + 1
    yy = y[:keep]
    dt = np.diff(t_grid[:keep])
    clock = np.concatenate([[0.0], np.cumsum(0.5 * dt * (yy[:-1] + yy[1:]))])
    clock = np.maximum.accumulate(clock)
    # strictly increasing grid is required; collapse any stalled tail
    good = np.concatenate([[True], np.diff(clock) > 0])
    return LevyPath(cp.alpha, cp.c,
                    GridPath(clock[good], yy[good], "levy"))


def levy_exponent_scale(alpha: float, c: float) -> float:
    """Laplace-exponent constant of the driving path for branching c."""
    return c / (alpha - 1.0)


def extinction_time_from(alpha: float, c: float, y: np.ndarray,
                         gen) -> np.ndarray:
    """Exact extinction-time draws for processes started at ``y``.

    Inverts P[zeta <= s] = exp(-(c s)^(1/(1-alpha)) y).
    """
    u = gen.uniform(size=np.shape(y))
    return ((np.asarray(y) / -np.log(u)) ** (alpha - 1.0)) / c


def absorption_cutoff(alpha: float, c: float, dt: float) -> float:
    """Value level below which the endgame is drawn exactly (one driving
    step's noise scale); ``c`` is the branching constant."""
    return (levy_exponent_scale(alpha, c) * dt) ** (1.0 / alpha)


def _steps(alpha: float, c: float, y0: float, dt: float, n_steps: int,
           gen, size: int, cutoff: float):
    """Step ``size`` independent paths from y0; yields (k, values,
    extinction_times) after step k = 0, 1, ..., ``n_steps``, stopping early
    once every path has ended.  The yielded arrays are updated in place.

    Steps live on the uniform dt-grid of branching time: a step from value
    y consumes driving time y*dt and adds an increment with the exact
    stable law for that duration (the step-level form of the integral time
    change).  A path whose value falls to ``cutoff`` or below has ended: its
    remaining lifetime is drawn from the exact extinction law (none if it
    fell to 0 or below), and it keeps its entry value, clipped at 0, with
    no further draws.  Paths alive at the end have extinction time +inf.
    """
    c_levy = levy_exponent_scale(alpha, c)
    y = np.full(size, float(y0))
    ext_time = np.full(size, np.inf)
    # values of the live paths, rows ``active`` of y; the same array as y
    # until a path ends, then a compact copy written back after each step
    ya = y
    active = np.arange(size)
    if y0 <= cutoff:
        ext_time[:] = extinction_time_from(alpha, c, y, gen)
        active = active[:0]
    yield 0, y, ext_time
    for k in range(1, n_steps + 1):
        if not active.size:
            return
        ya += stable_increments(alpha, c_levy, ya * dt, gen, size=active.size)
        ended = ya <= cutoff
        if ended.any():
            rows = active[ended]
            entry = np.maximum(ya[ended], 0.0)
            ext_time[rows] = k * dt + np.where(
                entry > 0, extinction_time_from(alpha, c, entry, gen), 0.0)
            live = ~ended
            active = active[live]
            ya = ya[live]
            y[rows] = entry
        if ya is not y:
            y[active] = ya
        yield k, y, ext_time


def sample_csbp(alpha: float, c: float, y0: float, horizon: float, dt: float,
                rng: RngStream, max_steps: int = MAX_STEPS_DEFAULT) -> CsbpPath:
    """Branching-process path from y0, absorbed at 0, truncated at ``horizon``.

    One path of :func:`_steps` at the ``absorption_cutoff`` level: the
    grid values while the path is alive, then 0 at its drawn extinction
    time if that is within the horizon.
    """
    _check_ac(alpha, c, y0)
    n_steps = _n_steps(dt, horizon, max_steps)
    if y0 == 0.0:
        return CsbpPath(alpha, c, GridPath([0.0, horizon], np.zeros(2), "csbp"))
    times, vals = [], []
    for k, y, ext in _steps(alpha, c, y0, dt, n_steps, rng.generator(), 1,
                            absorption_cutoff(alpha, c, dt)):
        if k and ext[0] < np.inf:
            break  # ended during step k; only its extinction time is kept
        times.append(k * dt)
        vals.append(y[0])
    if ext[0] <= horizon:
        times.append(ext[0])
        vals.append(0.0)
    return CsbpPath(alpha, c, GridPath(times, vals, "csbp"))


def csbp_marginals(alpha: float, c: float, y0: float, t_targets, dt: float,
                   rng: RngStream, size: int,
                   max_steps: int = MAX_STEPS_DEFAULT,
                   cutoff: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Marginal values of ``size`` independent paths at the given times.

    Returns (values, extinction_times): values[k, j] is the value of path k
    of :func:`_steps` at the grid step nearest t_targets[j] (0 if extinct by
    t_targets[j]), extinction_times[k] is +inf for paths alive at the last
    grid step.  Targets are nonnegative times, the last one positive.
    Paths inside the endgame report their entry value until their drawn
    death time.

    ``cutoff`` overrides the endgame level; a rescaled problem should scale
    it along with the state (scheme self-similarity).
    """
    _check_ac(alpha, c, y0)
    t_targets = np.sort(np.asarray(t_targets, dtype=float))
    if t_targets.size == 0 or not t_targets[0] >= 0:
        raise ValueError("t_targets must be a nonempty list of nonnegative times")
    n_steps = _n_steps(dt, float(t_targets[-1]), max_steps)
    if cutoff is None:
        cutoff = absorption_cutoff(alpha, c, dt)
    target_steps = [int(round(tt / dt)) for tt in t_targets]  # sorted
    snapshots = np.empty((size, len(t_targets)))
    j = 0
    for k, y, ext_time in _steps(alpha, c, y0, dt, n_steps, rng.generator(),
                                 size, cutoff):
        while j < len(target_steps) and target_steps[j] == k:
            snapshots[:, j] = y
            j += 1
    snapshots[:, j:] = y[:, None]  # targets past the last step taken
    return np.where(ext_time[:, None] <= t_targets, 0.0, snapshots), ext_time


# ---------------------------------------------------------------------------
# merge point process

@dataclass
class MergePPP:
    """Truncated Poisson points (s, x) on [0,1] x (x_min, inf), intensity x^-3.

    The expected number of points above depth w over an s-interval of
    length L is L / (2 w^2).
    """

    points: np.ndarray  # shape (m, 2): columns s, x
    x_min: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if self.x_min <= 0:
            raise ValueError("x_min must be positive")
        if self.points.size and np.any(self.points[:, 1] < self.x_min):
            raise ValueError("all depths must be at least x_min")


def sample_merge_ppp(x_min: float, rng: RngStream) -> MergePPP:
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    gen = rng.generator()
    mean = 0.5 / (x_min * x_min)
    m = int(gen.poisson(mean))
    s = gen.uniform(0.0, 1.0, size=m)
    x = x_min / np.sqrt(1.0 - gen.uniform(0.0, 1.0, size=m))
    return MergePPP(np.column_stack([s, x]), x_min)


def merge_ppp_counts(x_min: float, w: float, ell: float, rng: RngStream,
                     reps: int) -> np.ndarray:
    """Counts of points with s <= ell and depth >= w in ``reps`` samples of
    the process truncated at x_min, sample r from ``rng.split(r)``; each is
    Poisson with mean ell / (2 w^2) when w >= x_min."""
    counts = np.empty(reps)
    for r in range(reps):
        pts = sample_merge_ppp(x_min, rng.split(r)).points
        counts[r] = np.count_nonzero((pts[:, 0] <= ell) & (pts[:, 1] >= w))
    return counts


# ---------------------------------------------------------------------------
# law-test records

@dataclass
class LawCheck:
    """One Monte Carlo law check: estimate vs closed-form target."""

    name: str
    estimate: float
    se: float
    target: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_samples(cls, name: str, samples: np.ndarray, target: float,
                     abs_slack: float = 0.0, **extra) -> "LawCheck":
        """Passes when the sample mean is within 3 standard errors plus
        ``abs_slack`` of the target."""
        if len(samples) < 2:
            raise ValueError(f"{name} needs at least 2 samples, got {len(samples)}")
        est = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
        tol = 3.0 * se + abs_slack
        return cls(name, est, se, float(target), tol,
                   abs(est - target) < tol, dict(extra))

    def to_record(self) -> dict:
        rec = {
            "name": self.name,
            "estimate": self.estimate,
            "se": self.se,
            "target": self.target,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }
        rec.update(self.extra)
        return rec
