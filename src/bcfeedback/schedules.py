"""The three concrete parameter schedules.

All schedules are data independent: the coefficients for step n never look at
channel outputs, only at deterministically propagated second moments.  A
schedule can therefore be unrolled once per configuration and shared across
Monte Carlo trials.

Each ``step()`` returns one unvalidated ScheduleStep;
``montecarlo.prepare_scheme`` stacks them into one table and checks it once.

Shared bookkeeping is the normalised source covariance R = E[s s^T] / p_share
with p_share = P / M.  One channel use with coefficients (alpha, beta, a, b)
updates it exactly:

    R' = D^-1 (R - beta (b w^T + w b^T)
               + b b^T (beta^2 q + sigma^2 / p_share)
               + diag(b^2 * private_vars) / p_share) D^-1

with w = R alpha, q = alpha^T R alpha, D = diag(a).  ``covariance_update``
implements this as a dense reference; no schedule calls it.  Both Hadamard
schedules carry only R's M eigenvalues (the symmetric one only for its
checks), and the two-user schedule carries no R at all.

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

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig
from .fixedpoint import (
    SCHEME_IDS,
    WarmupPlan,
    _effective_power,
    _ozarow_contractions,
    _per_user_rate_bits,
    build_warmup_plan,
    check_channel,
    rho_map,
    solve_lambda_bc,
    solve_rho,
)
from .numerics import sylvester_hadamard

__all__ = ["ScheduleInvariantError", "covariance_update", "make_schedule"]


# relative tolerance of the symmetric schedule's invariant checks
_CHECK_TOL = 1e-9


class ScheduleInvariantError(RuntimeError):
    """A tracked second-moment invariant failed; indicates an implementation bug."""


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

    def rate_limits(self) -> np.ndarray:
        return np.array(self.fixed_point.rates)

    def step(self) -> ScheduleStep:
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


class DegradedSchedule:
    """All receivers share one output; coefficients are minimum-mean-square.

    R stays dyadic, so its Hadamard eigenvalues mu are the whole state.  Step
    n on column j = (n - 1) mod M, with c = sigma^2 / p_share and out_var =
    M mu_j + c, sends b = (mu_j / out_var) h_j, sets mu_j to mu_j c / out_var
    and divides mu by a^2, the new mean (mean mu - mu_j^2 / out_var, free of
    its cancellation at high power).  Mean mu, R's diagonal, stays 1 while
    mu_j converges to lambda; the power P mu_j meets the budget on average.
    """

    def __init__(self, channel: ChannelConfig):
        check_channel("degraded", channel)
        m = channel.num_receivers
        self.channel = channel
        self.columns = sylvester_hadamard(m.bit_length() - 1).astype(float)
        self.mu = np.ones(m)
        self.p_share = channel.power_budget / m
        self.p0 = self.p_share
        self.solution = solve_lambda_bc(m, _effective_power("degraded", channel))
        self.step_index = 1

    def rate_limits(self) -> np.ndarray:
        m = self.channel.num_receivers
        p_eff = _effective_power("degraded", self.channel)
        return np.full(m, _per_user_rate_bits(m, p_eff, self.solution.lam))

    def step(self) -> ScheduleStep:
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

    Only ``check_invariants`` carries second moments: R stays dyadic, so its
    Hadamard eigenvalues mu, shape (M,), are the whole state.  Step n on
    column j = (n - 1) mod M adds c = b_0^2 s / p_share to every mu, sets
    mu_j to (1 - beta b_0 M)^2 mu_j + c, a sum of two positive terms, and
    divides mu by a^2.  The eigenvalues mu - gamma of G = R - gamma I must
    stay finite and positive and, after warmup, match the planned profile.
    A failure is a bug in the emitted steps or the plan.
    """

    def __init__(self, channel: ChannelConfig, check_invariants: bool = True):
        check_channel("symmetric", channel)
        m = channel.num_receivers
        self.channel = channel
        self.plan: WarmupPlan = build_warmup_plan(m, _effective_power("symmetric", channel))
        self.columns = sylvester_hadamard(m.bit_length() - 1).astype(float)
        self.gamma = self.plan.bgamma.gamma
        self.p_share = channel.power_budget / m
        self.p0 = self.p_share * (self.plan.lambda0 + self.gamma)
        self.check_invariants = check_invariants
        self.step_index = 1
        if check_invariants:
            self.mu = np.full(m, self.plan.lambda0 + self.gamma)
            self._sorted_lambda_seq = np.sort(self.plan.lambda_seq)
            self._verify()

    @property
    def phase(self) -> str:
        return "warmup" if self.step_index < self.plan.M else "steady"

    def rate_limits(self) -> np.ndarray:
        m = self.channel.num_receivers
        return np.full(m, _per_user_rate_bits(m, self.plan.P, self.plan.lam))

    def step(self) -> ScheduleStep:
        ch = self.channel
        m = ch.num_receivers
        plan = self.plan
        n = self.step_index
        j = (n - 1) % m
        alpha = self.columns[:, j]
        b = plan.bgamma.b
        if n <= m - 1:
            beta = plan.beta_b[n - 1] / b
            lam_n = plan.warmup_lambda[n - 1]
        else:
            beta = plan.steady_beta
            lam_n = plan.lam
        step = ScheduleStep(alpha=alpha, beta=beta, a=np.full(m, plan.steady_a), b=b * alpha,
                            expected_power=ch.power_budget * beta * beta * (lam_n + self.gamma))
        self.step_index += 1
        if self.check_invariants:
            mu = self.mu
            b0 = float(step.b[0])
            shift = b0 * b0 * ch.private_noise_vars[0] / self.p_share
            mu_j = (1.0 - step.beta * b0 * m) ** 2 * mu[j] + shift
            mu += shift
            mu[j] = mu_j
            mu /= float(step.a[0]) ** 2
            self._verify()
        return step

    def _verify(self) -> None:
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
