"""The three schemes: the channel each accepts, its schedule and its rate limits.

Only this module knows the scheme names: ``check_channel`` is the channel
rule, ``make_schedule`` the one dispatch on a name, and ``rate_report`` reads
the limits off the schedule it builds.  The equations live in ``fixedpoint``.

All schedules are data independent: the coefficients for step n never look at
channel outputs, only at deterministically propagated second moments.  A
schedule can therefore be unrolled once per configuration and shared across
Monte Carlo trials.

Every scheme is one coding strategy (Kramer's orthogonal-modulation form):
step n names a row h of the schedule's shared +-1 ``table``, mixes with
alpha = weights * h and feeds back b * h.  ``unroll(n)`` runs the scheme's
rule over the next n steps and returns their rows, beta, a, b and E[x^2] as
arrays, unvalidated; ``montecarlo.prepare_scheme`` calls it once and checks
the arrays.  Solved constants and ``rate_limits()`` are floats, and the
table and eigenvalues are built at first use, so ``rate_report`` runs
without numpy.

Shared bookkeeping is the normalised source covariance R = E[s s^T] / p_share
with p_share = P / M.  One channel use with coefficients (alpha, beta, a, b)
updates it exactly:

    R' = D^-1 (R - beta (b w^T + w b^T)
               + b b^T (beta^2 q + sigma^2 / p_share)
               + diag(b^2 * private_vars) / p_share) D^-1

with w = R alpha, q = alpha^T R alpha, D = diag(a).  ``covariance_update``
implements this as a dense reference; no schedule calls it.

``HadamardSchedule`` is the one schedule class.  Its three constructors
differ only in their rule, their solved constants and their rate limits:

* ``ozarow2`` (two receivers, table H_2, weights (1, g)): the row is the
  sign of the scalar source correlation rho; ``fixedpoint._two_user_step``
  maps |rho| to the step's coefficients and the next |rho|, so no R is
  carried.  In ``tracked`` mode rho follows that exact recursion from
  rho_1 = 0; in ``pinned`` mode it alternates between +rho* and -rho*.
* ``degraded`` and ``symmetric`` (table H_M, weights 1): step n uses row
  (n - 1) mod M.  Every receiver feeds back b_0 h_j and contracts by one a,
  so R stays dyadic and its Hadamard eigenvalues mu are the whole state;
  step n sends E[x^2] = p_share M beta^2 mu_j, read off mu_j before the
  step.  ``degraded``: every receiver sees the same output (private
  variances zero); the coefficients are the minimum-mean-square ones, in
  closed form from R's Hadamard eigenvalues, which keep R's diagonal
  exactly 1 while they cycle toward the sum-rate fixed point.
  ``symmetric``: private noises only, constant (a, b, gamma) from the
  warmup plan; the rows stay eigenvectors of G = R - gamma I while the
  eigenvalue assignment rotates one row per step.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channel import ChannelConfig
from .fixedpoint import _two_user_step, build_warmup_plan, solve_lambda_bc, solve_rho
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
# the symmetric checks copy each mu state into a buffer of at most this many
# floats (at least one state) and check a full buffer at a time
_CHECK_BLOCK_FLOATS = 2**16


class ScheduleInvariantError(RuntimeError):
    """A tracked second-moment invariant failed; indicates an implementation bug."""


def check_channel(scheme: str, channel: ChannelConfig) -> None:
    """Raise ValueError unless ``scheme`` (one of SCHEME_IDS) can run on ``channel``.

    ozarow2 needs exactly two receivers, each with positive total noise.
    degraded needs a positive common noise and no private noise; symmetric
    needs no common noise and equal positive private noises.  Both mix with
    Hadamard rows, so both need a power-of-two receiver count of at most
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


def covariance_update(R: np.ndarray, alpha: np.ndarray, beta: float, a: np.ndarray,
                      b: np.ndarray, channel: ChannelConfig, p_share: float) -> np.ndarray:
    """Exact update of the normalised source covariance by one step of shape (M,) vectors."""
    import numpy as np

    R = np.asarray(R, dtype=float)
    m = channel.num_receivers
    if R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}")
    if not p_share > 0.0:
        raise ValueError("p_share must be positive")
    if np.shape(alpha) != (m,):
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


def _sylvester_rows(sched) -> np.ndarray:
    """The shared Sylvester table of the schedule's width, built at its first
    use: ``rate_report`` never steps a schedule, so it never builds one."""
    return sylvester_hadamard(sched.channel.num_receivers.bit_length() - 1)


def _cycle_rate_limits(m: int, p: float, lam: float) -> tuple[float, ...]:
    """Each receiver's limit when the rows cycle at effective power p and fixed point lam."""
    return (0.5 * math.log2((1.0 + p * lam) / (1.0 + (p / m) * lam * (m - lam))),) * m


# ----------------------------------------------------------------------------
# the schedule: one class, one rule per scheme
# ----------------------------------------------------------------------------


class HadamardSchedule:
    """Kramer's orthogonal modulation, built by ``ozarow2``, ``degraded`` or
    ``symmetric``; the module docstring gives their rules."""

    table = functools.cached_property(_sylvester_rows)
    weights = (1.0,)

    def __init__(self, channel: ChannelConfig, mu0: float, solved: dict,
                 rate_limits: tuple[float, ...]):
        self.channel = channel
        self.p_share = channel.power_budget / channel.num_receivers
        self.p0 = self.p_share * mu0  # R_1 = mu0 I
        self._mu0 = mu0
        self._solved = solved
        self._rate_limits = rate_limits
        self.step_index = 1

    @classmethod
    def ozarow2(cls, channel: ChannelConfig, g: float = 1.0,
                mode: str = "tracked") -> HadamardSchedule:
        """Two receivers, weights (1, g), the row following the correlation rho.

        Step n uses row 0 of H_2, (1, 1), while rho >= 0 and row 1, (1, -1),
        while it is negative, and feeds back (b_1, |b_2|) * h.  mode="tracked"
        follows the exact correlation recursion from rho = 0 (the sources
        start independent), so the analytic transmit power is the budget P
        at every single step.  mode="pinned" generates coefficients from the
        stationary pair (-1)^(n+1) rho*; the true second moments then
        approach the assumed ones only as the transient decays.
        """
        check_channel("ozarow2", channel)
        if mode not in ("tracked", "pinned"):
            raise ValueError(f"unknown mode {mode!r}")
        g = float(g)
        args = (channel.power_budget, channel.common_noise_var, *channel.private_noise_vars, g)
        fp = solve_rho(*args)
        self = cls(channel, 1.0, dict(rho=fp.rho, residual=fp.residual, sum_rate=sum(fp.rates)),
                   fp.rates)
        self.weights, self.g, self.mode, self.fixed_point = (1.0, g), g, mode, fp
        self.rho = 0.0 if mode == "tracked" else fp.rho
        self._two_user = _two_user_step(*args)
        self._rule = self._correlation_rule
        return self

    @classmethod
    def degraded(cls, channel: ChannelConfig) -> HadamardSchedule:
        """All receivers share one output; coefficients are minimum-mean-square.

        With c = sigma^2 / p_share and out_var = M mu_j + c, step n feeds
        back b_0 = mu_j / out_var, sets mu_j to mu_j c / out_var and divides
        mu by a^2, the new mean (mean mu - mu_j^2 / out_var, free of its
        cancellation at high power).  Mean mu, R's diagonal, stays 1 while
        mu_j converges to lambda, so the power P mu_j tends to P lambda, not
        to the budget P: lambda lies in [1, M], and the sum rate exceeds the
        capacity 1/2 log2(1 + P/sigma^2) at P (M = 2, P = sigma^2: 0.567 bits
        against 0.5).
        """
        check_channel("degraded", channel)
        m = channel.num_receivers
        p_eff = channel.power_budget / channel.common_noise_var
        sol = solve_lambda_bc(m, p_eff)
        self = cls(channel, 1.0, dict(
            lam=sol.lam, residual=sol.residual, sum_rate=sol.sum_rate,
            avg_power=channel.power_budget * sol.lam,
            capacity_at_budget=0.5 * math.log2(1.0 + p_eff)), _cycle_rate_limits(m, p_eff, sol.lam))
        self._rule = self._mmse_rule
        return self

    @classmethod
    def symmetric(cls, channel: ChannelConfig, check_invariants: bool = True) -> HadamardSchedule:
        """Equal private noises s, zero common noise, the warmup plan's coefficients.

        The rates depend on s only through the effective power P/s, so the
        plan is built there and its a, b_0, beta, gamma apply to the physical
        channel unchanged; only the embedding variance carries s back in.
        Step n adds c = b_0^2 s / p_share to every mu, sets mu_j to
        (1 - beta b_0 M)^2 mu_j + c, a sum of two positive terms, and divides
        mu by a^2.  ``check_invariants`` only decides whether ``unroll``
        verifies mu before every step and after the last, a block of states
        at a time: the eigenvalues mu - gamma of G = R - gamma I must stay
        finite and positive and, after warmup, match the planned profile.  A
        failure names the first bad state's step, and is a bug in the
        emitted steps or the plan.
        """
        check_channel("symmetric", channel)
        m = channel.num_receivers
        plan = build_warmup_plan(m, channel.power_budget / channel.private_noise_vars[0])
        self = cls(channel, plan.lambda0 + plan.bgamma.gamma,
                   dict(lam=plan.lam, residual=plan.lam_residual, sum_rate=plan.sum_rate),
                   _cycle_rate_limits(m, plan.P, plan.lam))
        self.plan, self.gamma = plan, plan.bgamma.gamma
        self.check_invariants = check_invariants
        self._rule = self._planned_rule
        return self

    @functools.cached_property
    def mu(self) -> np.ndarray:
        """R's Hadamard eigenvalues, all mu0 until the first step."""
        import numpy as np

        return np.full(self.channel.num_receivers, self._mu0)

    def rate_limits(self) -> tuple[float, ...]:
        return self._rate_limits

    def solved(self) -> dict:
        """RateReport constants: rho* or lambda, its residual and the sum rate,
        and for ``degraded`` the power P lambda spent and the capacity at P."""
        return dict(self._solved)

    def unroll(self, n: int):
        """The next n steps as arrays: (row, beta, a, b, expected_power).

        Step i mixes with alpha = weights * h and feeds back b[i] * h, with
        h = table[row[i]]; a and b are (n, len(weights)), the rest (n,).  The
        arrays are built once from the rule's floats and are not validated.
        """
        import numpy as np

        if n < 0:
            raise ValueError("n must be nonnegative")
        first, k = self.step_index, len(self.weights)
        steps = self._rule(first, n)  # (row, beta, a, b, expected_power) per step
        self.step_index = first + n
        rows, beta, a, b, power = zip(*steps) if steps else ((),) * 5
        return (np.array(rows, dtype=np.intp), np.array(beta, dtype=float),
                np.array(a, dtype=float).reshape(n, k), np.array(b, dtype=float).reshape(n, k),
                np.array(power, dtype=float))

    def _correlation_rule(self, first: int, n: int):
        two_user, tracked = self._two_user, self.mode == "tracked"
        rho, power, steps = self.rho, self.channel.power_budget, []
        for _ in range(n):
            if not -1.0 <= rho <= 1.0:
                raise ValueError(f"tracked rho = {rho!r} rounded past +-1 at "
                                 f"P={power!r}, g={self.g!r}")
            rho_next, a1, a2, beta_n, b1, b2 = two_user(abs(rho))
            # beta normalises the mixture variance at the current correlation,
            # so under tracked moments E[x^2] equals the budget exactly; b2 is
            # |b_2|: rounding is sign-symmetric, so the row's -1 gives b_2 exactly
            steps.append((0 if rho >= 0.0 else 1, beta_n, (a1, a2), (b1, b2), power))
            if tracked:
                rho = rho_next if rho >= 0.0 else -rho_next  # -0.0 counts as positive
            else:
                rho = -rho
            self.rho = rho
        return steps

    def _mmse_rule(self, first: int, n: int):
        mu = self.mu
        m, p_share = mu.size, self.p_share
        noise = self.channel.common_noise_var / p_share
        steps = []
        for i in range(first, first + n):
            j = (i - 1) % m
            mu_j = float(mu[j])
            out_var = m * mu_j + noise
            mu[j] = mu_j * noise / out_var
            a_sq = float(mu.sum()) / m  # mu.mean(), bit for bit
            if not a_sq > 0.0:
                raise ScheduleInvariantError("residual source variance lost positivity")
            mu /= a_sq
            steps.append((j, 1.0, math.sqrt(a_sq), mu_j / out_var, p_share * m * mu_j))
        return steps

    def _planned_rule(self, first: int, n: int):
        import numpy as np

        mu, plan = self.mu, self.plan
        m, p_share = mu.size, self.p_share
        a, b, beta_b, steady_beta = plan.steady_a, plan.bgamma.b, plan.beta_b, plan.steady_beta
        a_sq = a**2
        shift = b * b * self.channel.private_noise_vars[0] / p_share
        check = self.check_invariants and n > 0
        if check:
            # states[t] holds mu before step label + t: R_1 first on a fresh
            # schedule, then the state after each step
            states = np.empty((min(max(1, _CHECK_BLOCK_FLOATS // m), n + 1), m))
            want = np.sort(plan.lambda_seq)
            label, filled = (1, 1) if first == 1 else (first + 1, 0)
            states[0] = mu  # kept only on a fresh schedule
        steps = []
        # a bad state is reported from its block; the steps after it must not warn
        with np.errstate(over="ignore", invalid="ignore") if check else contextlib.nullcontext():
            for i in range(first, first + n):
                j = (i - 1) % m
                mu_j = float(mu[j])
                beta_n = beta_b[i - 1] / b if i <= m - 1 else steady_beta
                mu += shift
                mu[j] = (1.0 - beta_n * b * m) ** 2 * mu_j + shift
                mu /= a_sq
                steps.append((j, beta_n, a, b, p_share * m * beta_n * beta_n * mu_j))
                if check:
                    if filled == len(states):
                        self._verify(states, label, want)
                        label, filled = label + filled, 0
                    states[filled] = mu
                    filled += 1
        if check:
            self._verify(states[:filled], label, want)
        return steps

    def _verify(self, states: np.ndarray, first: int, want: np.ndarray) -> None:
        """Check each row of ``states``, mu before step first + t, in place.

        The eigenvalues mu - gamma must be finite, then positive, then from
        step M on (steady) match the sorted plan ``want``.  The first failing
        step raises, naming its first failing condition in that order.
        """
        import numpy as np

        states -= self.gamma
        bad = ~np.isfinite(states).all(axis=1)
        low = states.min(axis=1) <= 0.0
        steady = states[max(0, self.plan.M - first):]
        offset = len(states) - len(steady)
        steady.sort(axis=1)
        steady -= want
        drift = np.abs(steady, out=steady).max(axis=1)
        drifted = np.zeros_like(bad)
        drifted[offset:] = drift > _CHECK_TOL * max(1.0, float(want[-1]))
        failed = bad | low | drifted
        if not failed.any():
            return
        t = int(failed.argmax())
        if bad[t]:
            raise ScheduleInvariantError("covariance lost finiteness")
        if low[t]:
            raise ScheduleInvariantError(f"G lost positive definiteness at step {first + t}")
        raise ScheduleInvariantError(
            f"eigenvalue profile drifted by {drift[t - offset]:.3g} at step {first + t}"
        )


def make_schedule(scheme: str, channel: ChannelConfig, *, g: float = 1.0,
                  rho_mode: str = "tracked", check_invariants: bool = True):
    """Construct the schedule named by ``scheme`` (one of SCHEME_IDS)."""
    if scheme == "ozarow2":
        return HadamardSchedule.ozarow2(channel, g=g, mode=rho_mode)
    if scheme == "degraded":
        return HadamardSchedule.degraded(channel)
    if scheme == "symmetric":
        return HadamardSchedule.symmetric(channel, check_invariants=check_invariants)
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
