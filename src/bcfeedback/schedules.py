"""The three schemes: the channel each accepts, its schedule and its rate limits.

Only this module knows the scheme names: ``check_channel`` is the channel
rule, ``make_schedule`` the one dispatch on a name, and ``rate_report`` reads
the limits off the schedule it builds.  The equations live in ``fixedpoint``.

All schedules are data independent: the coefficients for step n never look at
channel outputs, only at deterministically propagated second moments.  A
schedule can therefore be unrolled once per configuration and shared across
Monte Carlo trials.

Each ``step()`` returns one unvalidated ScheduleStep;
``montecarlo.prepare_scheme`` stacks them into one table and checks it once.
Only the steps are arrays: a schedule's solved constants and ``rate_limits()``
are floats, and the Hadamard table and eigenvalues are built at their first
use, so ``rate_report`` runs without numpy.

Shared bookkeeping is the normalised source covariance R = E[s s^T] / p_share
with p_share = P / M.  One channel use with coefficients (alpha, beta, a, b)
updates it exactly:

    R' = D^-1 (R - beta (b w^T + w b^T)
               + b b^T (beta^2 q + sigma^2 / p_share)
               + diag(b^2 * private_vars) / p_share) D^-1

with w = R alpha, q = alpha^T R alpha, D = diag(a).  ``covariance_update``
implements this as a dense reference; no schedule calls it.  Both Hadamard
schedules carry only R's M eigenvalues mu and read E[x^2] off them, and the
two-user schedule carries no R at all.

* OzarowSchedule (two receivers): tracks the scalar source correlation rho
  with ``fixedpoint.rho_map``.  In ``tracked`` mode rho follows that exact
  recursion from rho_1 = 0; in ``pinned`` mode it alternates between +rho*
  and -rho*, the stationary pair.
* DegradedSchedule: every receiver sees the same output (private variances
  zero); coefficients are the minimum-mean-square ones, in closed form from
  R's Hadamard eigenvalues, which keep R's diagonal exactly 1 while they
  cycle toward the sum-rate fixed point.
* SymmetricSchedule: private noises only, constant (a, b, gamma) from the
  warmup plan; Hadamard columns stay eigenvectors of G = R - gamma I while
  the eigenvalue assignment rotates one column per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channel import ChannelConfig
from .fixedpoint import (
    _ozarow_contractions,
    build_warmup_plan,
    rho_map,
    solve_lambda_bc,
    solve_rho,
)
from .numerics import MAX_HADAMARD_LOG2, sylvester_hadamard

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SCHEME_IDS", "DEFAULT_NOISE", "check_channel", "ScheduleInvariantError",
           "covariance_update", "make_schedule", "rate_report"]

SCHEME_IDS = ("ozarow2", "degraded", "symmetric")
# each scheme's default (common, per-receiver private) noise variances
DEFAULT_NOISE = {"ozarow2": (0.0, 1.0), "degraded": (1.0, 0.0), "symmetric": (0.0, 1.0)}

# relative tolerance of the symmetric schedule's invariant checks
_CHECK_TOL = 1e-9


class ScheduleInvariantError(RuntimeError):
    """A tracked second-moment invariant failed; indicates an implementation bug."""


def check_channel(scheme: str, channel: ChannelConfig) -> None:
    """Raise ValueError unless ``scheme`` (one of SCHEME_IDS) can run on ``channel``.

    ozarow2 needs exactly two receivers, each with positive total noise.
    degraded needs a positive common noise and no private noise; symmetric
    needs no common noise and equal positive private noises.  Both mix with
    Hadamard columns, so both need a power-of-two receiver count of at most
    2**MAX_HADAMARD_LOG2.
    """
    m = channel.num_receivers
    common, priv = channel.common_noise_var, channel.private_noise_vars
    if scheme == "ozarow2":
        if m != 2:
            raise ValueError("scheme 'ozarow2' needs exactly 2 receivers")
        if common + priv[0] <= 0.0 or common + priv[1] <= 0.0:
            raise ValueError("scheme 'ozarow2' needs positive total noise per receiver")
        return
    if scheme == "degraded":
        if any(v != 0.0 for v in priv):
            raise ValueError("scheme 'degraded' needs all private noise variances zero")
        if common <= 0.0:
            raise ValueError("scheme 'degraded' needs positive common noise variance")
    elif scheme == "symmetric":
        if common != 0.0:
            raise ValueError("scheme 'symmetric' needs zero common noise variance")
        if len(set(priv)) != 1 or priv[0] <= 0.0:
            raise ValueError("scheme 'symmetric' needs equal positive private noise variances")
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEME_IDS}")
    if m & (m - 1):
        raise ValueError(f"scheme {scheme!r} needs a power-of-two receiver count")
    if m > 2**MAX_HADAMARD_LOG2:
        raise ValueError(
            f"scheme {scheme!r} supports at most 2**{MAX_HADAMARD_LOG2} receivers"
        )


@dataclass(frozen=True)
class ScheduleStep:
    """One channel use: alpha, a, b of shape (M,), beta, and the analytic E[x_n^2]."""

    alpha: np.ndarray
    beta: float
    a: np.ndarray
    b: np.ndarray
    expected_power: float


def covariance_update(R: np.ndarray, step: ScheduleStep, channel: ChannelConfig,
                      p_share: float) -> np.ndarray:
    """Exact one-step update of the normalised source covariance."""
    import numpy as np

    R = np.asarray(R, dtype=float)
    m = channel.num_receivers
    if R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}")
    if not p_share > 0.0:
        raise ValueError("p_share must be positive")
    alpha, beta, a, b = step.alpha, step.beta, step.a, step.b
    if alpha.shape != (m,):
        raise ValueError("step width does not match the channel")
    w = R @ alpha
    q = float(alpha @ w)
    cross = beta * (np.outer(b, w) + np.outer(w, b))
    out_var = beta * beta * q + channel.common_noise_var / p_share
    noise_diag = np.diag(b * b * np.asarray(channel.private_noise_vars)) / p_share
    new = (R - cross + np.outer(b, b) * out_var + noise_diag) / np.outer(a, a)
    return 0.5 * (new + new.T)


def hadamard_eigen_profile(G: np.ndarray, columns: np.ndarray, dyadic_index: np.ndarray):
    """Eigenvalues of G's dyadic part D(r)[i, k] = r[i ^ k], and ||G - D(r)||_F.

    dyadic_index[d, i] is the flat position of G[i, i ^ d], so r[d] is a row
    mean; values = columns.T @ r are the Rayleigh quotients h_j^T G h_j / M.
    """
    import numpy as np

    diagonals = G.take(dyadic_index)
    r = diagonals.mean(axis=1)
    return columns.T @ r, float(np.linalg.norm(diagonals - r[:, None]))


# ----------------------------------------------------------------------------
# two-user correlation-tracking schedule
# ----------------------------------------------------------------------------


class OzarowSchedule:
    """Two-receiver schedule driven by the alternating source correlation.

    mode="tracked" follows the exact correlation recursion from rho = 0 (the
    sources start independent), so the analytic transmit power is the budget P
    at every single step.  mode="pinned" generates coefficients from the
    stationary pair (-1)^(n+1) rho*; the true second moments then approach the
    assumed ones only as the transient decays.
    """

    def __init__(self, channel: ChannelConfig, g: float = 1.0, mode: str = "tracked"):
        check_channel("ozarow2", channel)
        if mode not in ("tracked", "pinned"):
            raise ValueError(f"unknown mode {mode!r}")
        self.channel = channel
        self.g = float(g)
        self.mode = mode
        self.p0 = channel.power_budget / 2.0
        self.fixed_point = solve_rho(
            channel.power_budget,
            channel.common_noise_var,
            channel.private_noise_vars[0],
            channel.private_noise_vars[1],
            self.g,
        )
        self.rho = 0.0 if mode == "tracked" else self.fixed_point.rho

    def rate_limits(self) -> tuple[float, ...]:
        return self.fixed_point.rates

    def solved(self) -> dict:
        """RateReport constants: rho*, its residual and the sum rate."""
        fp = self.fixed_point
        return dict(rho=fp.rho, residual=fp.residual, sum_rate=sum(fp.rates))

    def step(self) -> ScheduleStep:
        import numpy as np

        ch = self.channel
        p = ch.power_budget
        g = self.g
        sigma2 = ch.common_noise_var
        s1, s2 = ch.private_noise_vars
        rho = self.rho
        sign = 1.0 if rho >= 0.0 else -1.0
        r = abs(rho)
        dd = 1.0 + g * g + 2.0 * g * r
        v1 = p + sigma2 + s1
        v2 = p + sigma2 + s2
        beta = math.sqrt(2.0 / dd)
        a1, a2 = _ozarow_contractions(r, p, sigma2, s1, s2, g)
        b1 = (p / 2.0) * beta * (1.0 + g * r) / v1
        b2 = (p / 2.0) * beta * sign * (g + r) / v2
        if self.mode == "tracked":
            self.rho = rho_map(rho, p, sigma2, s1, s2, g)
        else:
            self.rho = -rho
        # beta normalises the mixture variance at the current correlation, so
        # under tracked moments E[x^2] equals the budget exactly.
        return ScheduleStep(alpha=np.array([1.0, g * sign]), beta=beta,
                            a=np.array([a1, a2]), b=np.array([b1, b2]), expected_power=p)


# ----------------------------------------------------------------------------
# degraded (common output) schedule
# ----------------------------------------------------------------------------


def _per_user_rate_bits(M: int, P: float, lam: float) -> float:
    """Per-receiver rate limit of both Hadamard schedules at effective power P."""
    return 0.5 * math.log2((1.0 + P * lam) / (1.0 + (P / M) * lam * (M - lam)))


def _hadamard_columns(sched) -> np.ndarray:
    """The shared M x M Hadamard table, built at the first step: ``rate_report``
    never steps a schedule, so it never builds one."""
    return sylvester_hadamard(sched.channel.num_receivers.bit_length() - 1)


class DegradedSchedule:
    """All receivers share one output; coefficients are minimum-mean-square.

    R stays dyadic, so its Hadamard eigenvalues mu are the whole state.  Step
    n on column j = (n - 1) mod M, with c = sigma^2 / p_share and out_var =
    M mu_j + c, sends b = (mu_j / out_var) h_j, sets mu_j to mu_j c / out_var
    and divides mu by a^2, the new mean (mean mu - mu_j^2 / out_var, free of
    its cancellation at high power).  Mean mu, R's diagonal, stays 1 while
    mu_j converges to lambda, so the power P mu_j tends to P lambda, not to
    the budget P: lambda lies in [1, M], and the sum rate exceeds the capacity
    1/2 log2(1 + P/sigma^2) at P (M = 2, P = sigma^2: 0.567 bits against 0.5).
    """

    columns = functools.cached_property(_hadamard_columns)

    def __init__(self, channel: ChannelConfig):
        check_channel("degraded", channel)
        m = channel.num_receivers
        self.channel = channel
        self.p_share = channel.power_budget / m
        self.p0 = self.p_share
        self.p_eff = channel.power_budget / channel.common_noise_var
        self.solution = solve_lambda_bc(m, self.p_eff)
        self.step_index = 1

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """R's Hadamard eigenvalues, all 1 (R_1 = I) until the first step."""
        import numpy as np

        return np.ones(self.channel.num_receivers)

    def rate_limits(self) -> tuple[float, ...]:
        m = self.channel.num_receivers
        return (_per_user_rate_bits(m, self.p_eff, self.solution.lam),) * m

    def solved(self) -> dict:
        """RateReport constants, with the power P lambda spent and the capacity at P."""
        sol = self.solution
        return dict(lam=sol.lam, residual=sol.residual, sum_rate=sol.sum_rate,
                    avg_power=self.channel.power_budget * sol.lam,
                    capacity_at_budget=0.5 * math.log2(1.0 + self.p_eff))

    def step(self) -> ScheduleStep:
        import numpy as np

        mu = self.mu
        m = mu.size
        j = (self.step_index - 1) % m
        mu_j = float(mu[j])
        noise = self.channel.common_noise_var / self.p_share
        out_var = m * mu_j + noise
        mu[j] = mu_j * noise / out_var
        a_sq = float(np.mean(mu))
        if not a_sq > 0.0:
            raise ScheduleInvariantError("residual source variance lost positivity")
        alpha = self.columns[:, j]
        mu /= a_sq
        self.step_index += 1
        return ScheduleStep(alpha=alpha, beta=1.0, a=np.full(m, math.sqrt(a_sq)),
                            b=(mu_j / out_var) * alpha, expected_power=self.p_share * m * mu_j)


# ----------------------------------------------------------------------------
# symmetric (private noises only) schedule
# ----------------------------------------------------------------------------


class SymmetricSchedule:
    """Equal private noises, zero common noise, constant steady coefficients.

    All rate-determining quantities depend on the noise scale s only through
    the effective power P/s, so the plan is built at that power and the
    resulting a, b, beta, gamma apply to the physical channel unchanged; only
    the embedding variance carries the scale s back in.

    R stays dyadic, so its Hadamard eigenvalues mu, shape (M,), are the whole
    state, carried on every step.  Step n on column j = (n - 1) mod M sends
    E[x^2] = p_share M beta^2 mu_j, adds c = b_0^2 s / p_share to every mu,
    sets mu_j to (1 - beta b_0 M)^2 mu_j + c, a sum of two positive terms,
    and divides mu by a^2.  ``check_invariants`` only decides whether each
    step is verified: the eigenvalues mu - gamma of G = R - gamma I must stay
    finite and positive and, after warmup, match the planned profile.  A
    failure is a bug in the emitted steps or the plan.
    """

    columns = functools.cached_property(_hadamard_columns)

    def __init__(self, channel: ChannelConfig, check_invariants: bool = True):
        check_channel("symmetric", channel)
        m = channel.num_receivers
        self.channel = channel
        self.plan = build_warmup_plan(m, channel.power_budget / channel.private_noise_vars[0])
        self.gamma = self.plan.bgamma.gamma
        self.p_share = channel.power_budget / m
        self.p0 = self.p_share * (self.plan.lambda0 + self.gamma)  # R_1 = (lambda0 + gamma) I
        self.check_invariants = check_invariants
        self.step_index = 1

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """R's Hadamard eigenvalues, all lambda0 + gamma until the first step."""
        import numpy as np

        return np.full(self.channel.num_receivers, self.plan.lambda0 + self.gamma)

    @property
    def phase(self) -> str:
        return "warmup" if self.step_index < self.plan.M else "steady"

    def rate_limits(self) -> tuple[float, ...]:
        m = self.channel.num_receivers
        return (_per_user_rate_bits(m, self.plan.P, self.plan.lam),) * m

    def solved(self) -> dict:
        """RateReport constants: lambda, its residual and the sum rate."""
        plan = self.plan
        return dict(lam=plan.lam, residual=plan.lam_residual, sum_rate=plan.sum_rate)

    def step(self) -> ScheduleStep:
        import numpy as np

        m = self.channel.num_receivers
        plan = self.plan
        n = self.step_index
        if n == 1 and self.check_invariants:
            self._sorted_lambda_seq = np.sort(plan.lambda_seq)
            self._verify()  # R_1 itself
        j = (n - 1) % m
        alpha = self.columns[:, j]
        b = plan.bgamma.b
        beta = plan.beta_b[n - 1] / b if n <= m - 1 else plan.steady_beta
        mu = self.mu
        mu_j = float(mu[j])
        shift = b * b * self.channel.private_noise_vars[0] / self.p_share
        mu += shift
        mu[j] = (1.0 - beta * b * m) ** 2 * mu_j + shift
        mu /= plan.steady_a**2
        self.step_index += 1
        if self.check_invariants:
            self._verify()
        return ScheduleStep(alpha=alpha, beta=beta, a=np.full(m, plan.steady_a), b=b * alpha,
                            expected_power=self.p_share * m * beta * beta * mu_j)

    def _verify(self) -> None:
        import numpy as np

        vals = self.mu - self.gamma
        if not np.all(np.isfinite(vals)):
            raise ScheduleInvariantError("covariance lost finiteness")
        if np.min(vals) <= 0.0:
            raise ScheduleInvariantError(
                f"G lost positive definiteness at step {self.step_index}"
            )
        if self.phase == "steady":
            want = self._sorted_lambda_seq
            drift = np.max(np.abs(np.sort(vals) - want))
            if drift > _CHECK_TOL * max(1.0, float(want[-1])):
                raise ScheduleInvariantError(
                    f"eigenvalue profile drifted by {drift:.3g} "
                    f"at step {self.step_index}"
                )


def make_schedule(scheme: str, channel: ChannelConfig, *, g: float = 1.0,
                  rho_mode: str = "tracked", check_invariants: bool = True):
    """Construct the schedule named by ``scheme`` (one of SCHEME_IDS)."""
    if scheme == "ozarow2":
        return OzarowSchedule(channel, g=g, mode=rho_mode)
    if scheme == "degraded":
        return DegradedSchedule(channel)
    if scheme == "symmetric":
        return SymmetricSchedule(channel, check_invariants=check_invariants)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEME_IDS}")


# ----------------------------------------------------------------------------
# rate reporting
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Per-receiver rate limits plus scheme-specific diagnostics (all rates in bits)."""

    scheme: str
    M: int
    P: float
    per_user: tuple[float, ...]
    sum_rate: float
    rate_fraction: float
    target_rates: tuple[float, ...]
    exponent_bases: tuple[float, ...]
    lam: float | None = None
    rho: float | None = None
    residual: float = 0.0
    avg_power: float | None = None
    capacity_at_budget: float | None = None


def rate_report(scheme: str, channel: ChannelConfig, *, g: float = 1.0,
                rate_fraction: float = 0.5) -> RateReport:
    """Rate limits, targets at the given fraction, and error-exponent bases.

    ``channel`` is a ChannelConfig that :func:`check_channel` accepts for
    ``scheme``.  The limits and solved constants are read off the scheme's
    schedule, which is built but never stepped.  The exponent base for receiver
    m is 2**(2 (R_m* - R_m)), the per-step shrink factor of the decoded
    interval relative to its reliability budget.
    """
    if not (0.0 < rate_fraction < 1.0):
        raise ValueError("rate_fraction must lie strictly between 0 and 1")
    sched = make_schedule(scheme, channel, g=g)
    per_user = sched.rate_limits()
    targets = tuple(rate_fraction * r for r in per_user)
    bases = tuple(2.0 ** (2.0 * (r - t)) for r, t in zip(per_user, targets))
    return RateReport(
        scheme=scheme, M=channel.num_receivers, P=channel.power_budget, per_user=per_user,
        rate_fraction=rate_fraction, target_rates=targets, exponent_bases=bases,
        **sched.solved(),
    )
