"""Fixed-point solvers and closed forms behind the achievable-rate claims.

The Hadamard-modulated schedules are governed by a scalar lambda: the largest
root in [1, M] of

    (P x + 1)**(M - 1) = ((P/M) x (M - x) + 1)**M ,          (broadcast form)

solved here in log form for conditioning.  Its multiple-access twin replaces
the right side with (1 + P x (M - x))**M and the left with (1 + M P x)**(M-1);
substituting P -> P/M maps one equation onto the other, which is the duality
the test suite pins down numerically.

From lambda the symmetric schedule needs a feedback gain b and a correlation
offset gamma solving the coupled pair

    gamma = ((P lam + 1) / (1 + (P/M) lam (M - lam))) * (gamma + (M/P) b**2)
    gamma = (1 / (4 b**2)) * (M b**2 + (P/M) lam**2 / (1 + P lam))**2 - lam

whose closed-form solution is implemented in :func:`solve_b_gamma` and
re-verified against both residuals before being returned.

The two-user correlation-tracking variant instead follows a scalar source
correlation rho through :func:`rho_map`; its stationary magnitude is the
largest root in [0, 1] of x + rho_map(x) = 0 (the map flips sign every step,
so the fixed point alternates between +rho* and -rho*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import MAX_HADAMARD_LOG2, _libm, largest_root

__all__ = [
    "SCHEME_IDS",
    "check_channel",
    "FixedPointError",
    "WarmupPlan",
    "solve_lambda_bc",
    "solve_lambda_mac",
    "solve_b_gamma",
    "rho_map",
    "solve_rho",
    "build_warmup_plan",
    "rate_report",
]

SCHEME_IDS = ("ozarow2", "degraded", "symmetric")

_ROOT_TOL = 1e-12
_CHECK_TOL = 1e-10
# lam enters solve_b_gamma from the sum-rate solver (residual <= 1e-12); a
# clearly wrong lam moves the log gap by O(1), so 1e-8 separates the two
# regimes by many orders of magnitude either way
_LAMBDA_GAP_TOL = 1e-8


class FixedPointError(RuntimeError):
    """A solved quantity failed one of its defining identities."""


@dataclass(frozen=True)
class SumRateSolution:
    """Largest fixed point lambda in [1, M] with its implied sum rate (bits)."""

    lam: float
    residual: float
    sum_rate: float


@dataclass(frozen=True)
class BGamma:
    """Feedback gain b > 0 and correlation offset gamma < 0 for the symmetric schedule."""

    b: float
    gamma: float


@dataclass(frozen=True)
class OzarowFixedPoint:
    """Stationary correlation magnitude of the two-user variant.

    a1_star and a2_star are the per-step source contraction factors at the
    fixed point; the achievable rates are -log2 of each.
    """

    rho: float
    residual: float
    a1_star: float
    a2_star: float

    @property
    def rates(self) -> tuple[float, float]:
        """Per-receiver rate limits in bits."""
        return (0.0 - math.log2(self.a1_star), 0.0 - math.log2(self.a2_star))  # 0.0, not -0.0


@dataclass(frozen=True)
class WarmupPlan:
    """Everything the symmetric schedule needs, solved once per (M, P).

    The first M - 1 steps use damped input scalings beta_b[n]/b to steer the
    source covariance onto the steady eigenvalue cycle lambda_seq; from step M
    onward the scaling is the constant steady_beta.  Warmup step n targets
    d_n = steady_a**(2n), and beta_b[n - 1] is the smaller positive root of

        M u**2 (lam_n + gamma) - 2 u (lam_n + gamma) + ((1 - d_n)/M) lam_n = 0

    where lam_n = lambda0 / steady_a**(2(n-1)) is the eigenvalue the step acts on.
    """

    M: int
    P: float
    lam: float
    lam_residual: float
    lambda_seq: tuple[float, ...]
    lambda0: float
    beta_b: tuple[float, ...]
    warmup_lambda: tuple[float, ...]
    steady_a: float
    steady_beta: float
    bgamma: BGamma


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


# ----------------------------------------------------------------------------
# lambda equations
# ----------------------------------------------------------------------------


def _validate_mp(M: int, P: float) -> tuple[int, float]:
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or M < 1:
        raise ValueError("M must be a positive integer")
    P = float(P)
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError("P must be positive and finite")
    return int(M), P


# The gaps take a float or an array and log1p through libm element by element,
# so a scan on the array agrees bitwise with scalar bisection on the same points.


def _bc_log_gap(x, M: int, P: float):
    return M * _libm(math.log1p, (P / M) * x * (M - x)) - (M - 1) * _libm(math.log1p, P * x)


def _mac_log_gap(x, M: int, P: float):
    return M * _libm(math.log1p, P * x * (M - x)) - (M - 1) * _libm(math.log1p, M * P * x)


def _solve_lambda(gap, M: int, P: float, gain: float) -> SumRateSolution:
    if M == 1:
        lam, residual = 1.0, abs(gap(1.0, 1, P))
    else:
        # the log terms grow to (M - 1) log1p(gain M), and bisection stops at
        # float resolution, so an absolute tol alone fails at large P
        scale = max(1.0, (M - 1) * math.log1p(gain * M))
        res = largest_root(lambda x: gap(x, M, P), 1.0, float(M), _ROOT_TOL * scale)
        lam, residual = res.root, res.residual
    if not (1.0 <= lam <= M):
        raise FixedPointError(f"lambda {lam!r} escaped [1, {M}]")
    return SumRateSolution(lam=lam, residual=residual,
                           sum_rate=0.5 * math.log2(1.0 + gain * lam))


def solve_lambda_bc(M: int, P: float) -> SumRateSolution:
    """Largest root in [1, M] of the broadcast equation; sum rate (1/2) log2(1 + P lam)."""
    M, P = _validate_mp(M, P)
    return _solve_lambda(_bc_log_gap, M, P, P)


def solve_lambda_mac(M: int, P: float) -> SumRateSolution:
    """Largest root in [1, M] of the multiple-access twin; sum rate (1/2) log2(1 + M P lam)."""
    M, P = _validate_mp(M, P)
    return _solve_lambda(_mac_log_gap, M, P, M * P)


# ----------------------------------------------------------------------------
# (b, gamma) closed form
# ----------------------------------------------------------------------------


def solve_b_gamma(lam: float, M: int, P: float) -> BGamma:
    """Closed-form (b, gamma) for the symmetric schedule at fixed point lam.

    The closed form satisfies the two defining identities for *any* lam, so
    they cannot reveal a lam that fails the sum-rate equation; that equation
    is checked explicitly here instead (raising FixedPointError), because a
    schedule built on a non-fixed-point lam would quietly violate the power
    budget.  The identities, the quadratic
    M b**2 - 2 b sqrt(lam + gamma) + (P/M) lam**2 / (1 + P lam) = 0, and the
    bounds 0 > gamma >= -lam / (1 + P lam) and lam + gamma > 0 are verified
    as well to guard the arithmetic itself.
    """
    M, P = _validate_mp(M, P)
    lam = float(lam)
    if not (0.0 < lam <= M):
        raise ValueError("lam must lie in (0, M]")
    gap = _bc_log_gap(lam, M, P)
    if abs(gap) > _LAMBDA_GAP_TOL:
        raise FixedPointError(
            f"lam {lam!r} does not satisfy the sum-rate equation "
            f"(gap {gap:.3g}) for M={M}, P={P}"
        )
    snr = 1.0 + P * lam
    tail = 4.0 * (M / P) ** 2 * snr / lam**2
    b2 = ((P * lam**2 + 2.0 * lam) / snr) / (M**2 + tail)
    b = math.sqrt(b2)
    gamma = -((M / P) ** 2) * b2 * snr / lam**2

    r10, r11, rq = b_gamma_residuals(b, gamma, lam, M, P)
    if max(abs(r10), abs(r11), abs(rq)) > _CHECK_TOL:
        raise FixedPointError(
            f"(b, gamma) residuals too large: {r10:.3g}, {r11:.3g}, {rq:.3g}"
        )
    if not (gamma < 0.0):
        raise FixedPointError("gamma must be negative")
    if gamma < -lam / snr - _CHECK_TOL:
        raise FixedPointError("gamma fell below -lam/(1 + P lam)")
    if not (lam + gamma > 0.0):
        raise FixedPointError("lam + gamma must be positive")
    return BGamma(b=b, gamma=gamma)


def b_gamma_residuals(b: float, gamma: float, lam: float, M: int, P: float):
    """Residuals of the two defining identities and the quadratic, in order."""
    snr = 1.0 + P * lam
    r10 = gamma - (snr / (1.0 + (P / M) * lam * (M - lam))) * (gamma + (M / P) * b * b)
    inner = M * b * b + (P / M) * lam * lam / snr
    r11 = gamma - (inner * inner / (4.0 * b * b) - lam)
    rq = M * b * b - 2.0 * b * math.sqrt(lam + gamma) + (P / M) * lam * lam / snr
    return r10, r11, rq


# ----------------------------------------------------------------------------
# two-user correlation recursion
# ----------------------------------------------------------------------------


def _validate_ozarow_noise(P, sigma2, sigma1_2, sigma2_2, g):
    P = float(P)
    vals = [float(sigma2), float(sigma1_2), float(sigma2_2)]
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError("P must be positive and finite")
    if any(not (math.isfinite(v) and v >= 0.0) for v in vals):
        raise ValueError("noise variances must be nonnegative and finite")
    if vals[0] + vals[1] <= 0.0 or vals[0] + vals[2] <= 0.0:
        raise ValueError("each receiver needs positive total noise variance")
    g = float(g)
    if not (math.isfinite(g) and g > 0.0):
        raise ValueError("g must be positive and finite")
    return P, vals[0], vals[1], vals[2], g


def rho_map(rho: float, P: float, sigma2: float, sigma1_2: float,
            sigma2_2: float, g: float) -> float:
    """One-step update of the two-user source correlation.

    Derived from exact second-moment propagation of the two sources through
    one channel use and one feedback update; the sign convention keeps track
    of the alternating correlation, so the output of a positive input is
    negative and vice versa.
    """
    P, sigma2, sigma1_2, sigma2_2, g = _validate_ozarow_noise(
        P, sigma2, sigma1_2, sigma2_2, g
    )
    rho = float(rho)
    if not (-1.0 <= rho <= 1.0):
        raise ValueError("rho must lie in [-1, 1]")
    return float(_rho_step(rho, P, sigma2, sigma1_2, sigma2_2, g))


def _rho_step(rho, P, sigma2, sigma1_2, sigma2_2, g):
    """rho_map on validated arguments; ``rho`` is a float or an array (elementwise)."""
    sign = 2.0 * (rho >= 0.0) - 1.0  # +1 where rho >= 0 (-0.0 included), else -1
    r = abs(rho)
    dd = 1.0 + g * g + 2.0 * g * r
    v1 = P + sigma2 + sigma1_2
    v2 = P + sigma2 + sigma2_2
    pi = v1 * v2
    sig_total = P + sigma2 + sigma1_2 + sigma2_2
    one_m = 1.0 - rho * rho
    num = pi * rho - (P * sig_total / dd) * (g + r) * (1.0 + g * r) * sign
    den = math.sqrt(pi) * np.sqrt(
        (sigma2 + sigma1_2 + P * g * g * one_m / dd)
        * (sigma2 + sigma2_2 + P * one_m / dd)
    )
    if np.count_nonzero(den <= 0.0):
        raise ValueError("degenerate update: residual variance vanished")
    return num / den


def _ozarow_contractions(r: float, P, sigma2, sigma1_2, sigma2_2, g) -> tuple[float, float]:
    """Per-step source contraction factors (a1, a2) at correlation magnitude r = |rho|."""
    dd = 1.0 + g * g + 2.0 * g * r
    one_m = 1.0 - r * r
    a1 = math.sqrt((sigma2 + sigma1_2 + P * g * g * one_m / dd) / (P + sigma2 + sigma1_2))
    a2 = math.sqrt((sigma2 + sigma2_2 + P * one_m / dd) / (P + sigma2 + sigma2_2))
    return a1, a2


def solve_rho(P: float, sigma2: float, sigma1_2: float, sigma2_2: float,
              g: float) -> OzarowFixedPoint:
    """Stationary correlation magnitude: largest root in [0, 1] of x + rho_map(x) = 0."""
    P, sigma2, sigma1_2, sigma2_2, g = _validate_ozarow_noise(
        P, sigma2, sigma1_2, sigma2_2, g
    )
    res = largest_root(
        lambda x: x + _rho_step(x, P, sigma2, sigma1_2, sigma2_2, g), 0.0, 1.0, _ROOT_TOL
    )
    rho = res.root
    a1, a2 = _ozarow_contractions(rho, P, sigma2, sigma1_2, sigma2_2, g)
    for name, val in (("a1_star", a1), ("a2_star", a2)):
        if not (0.0 < val <= 1.0):  # 1.0: a rate below float resolution
            raise FixedPointError(f"{name} = {val!r} escaped (0, 1]")
    return OzarowFixedPoint(rho=rho, residual=res.residual, a1_star=a1, a2_star=a2)


# ----------------------------------------------------------------------------
# symmetric-schedule warmup plan
# ----------------------------------------------------------------------------


def _require_power_of_two(M: int) -> None:
    if M & (M - 1):
        raise ValueError(f"M = {M} must be a power of two (Hadamard mixing)")


def build_warmup_plan(M: int, P: float) -> WarmupPlan:
    """Solve lambda, (b, gamma), and the warmup scalings for the symmetric schedule."""
    M, P = _validate_mp(M, P)
    _require_power_of_two(M)
    sol = solve_lambda_bc(M, P)
    lam = sol.lam
    bg = solve_b_gamma(lam, M, P)
    gamma = bg.gamma
    a2 = (1.0 + (P / M) * lam * (M - lam)) / (1.0 + P * lam)
    lam0 = lam / (1.0 + (P / M) * lam * (M - lam))
    seq = tuple(lam * a2**m for m in range(M))

    # Warmup step n in 1..M-1 acts on current eigenvalue lam0 / a2**(n-1) and
    # targets d_n = a2**n.  The discriminant term gamma + d_n * lam_n equals
    # gamma + a2 * lam0 identically, so it is computed once; tiny negative
    # values are cancellation noise and get clamped to zero.
    disc = gamma + a2 * lam0
    beta_b: list[float] = []
    warm_lams: list[float] = []
    for n in range(1, M):
        lam_n = lam0 / a2 ** (n - 1)
        denom = lam_n + gamma
        if denom <= 0.0:
            raise FixedPointError("warmup eigenvalue plus gamma must stay positive")
        if disc < -1e-12 * denom:
            raise FixedPointError(
                f"negative warmup discriminant {disc:.3g} at step {n}"
            )
        u = (1.0 - math.sqrt(max(disc, 0.0) / denom)) / M
        if not (0.0 < u < 2.0 / M):
            raise FixedPointError(f"warmup scaling u = {u!r} escaped (0, 2/M)")
        beta_b.append(u)
        warm_lams.append(lam_n)

    steady_beta = 1.0 / math.sqrt(lam + gamma)
    if not lam0 + gamma > 0.0:
        raise FixedPointError("embedding variance came out nonpositive")
    return WarmupPlan(
        M=M,
        P=P,
        lam=lam,
        lam_residual=sol.residual,
        lambda_seq=seq,
        lambda0=lam0,
        beta_b=tuple(beta_b),
        warmup_lambda=tuple(warm_lams),
        steady_a=math.sqrt(a2),
        steady_beta=steady_beta,
        bgamma=bg,
    )


# ----------------------------------------------------------------------------
# rate reporting
# ----------------------------------------------------------------------------


def check_channel(scheme: str, channel) -> None:
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


def _effective_power(scheme: str, channel) -> float:
    """P over the private (symmetric) or common (degraded) noise variance."""
    noise = channel.private_noise_vars[0] if scheme == "symmetric" else channel.common_noise_var
    return channel.power_budget / noise


def _per_user_rate_bits(M: int, P: float, lam: float) -> float:
    return 0.5 * math.log2((1.0 + P * lam) / (1.0 + (P / M) * lam * (M - lam)))


def rate_report(scheme: str, channel, *, g: float = 1.0,
                rate_fraction: float = 0.5) -> RateReport:
    """Rate limits, targets at the given fraction, and error-exponent bases.

    ``channel`` is a ChannelConfig that :func:`check_channel` accepts for
    ``scheme``; noise variances enter through the effective signal-to-noise
    power (symmetric: P / private variance, degraded: P / common variance,
    two-user: explicitly).  The exponent base for receiver m is
    2**(2 (R_m* - R_m)), the per-step shrink factor of the decoded interval
    relative to its reliability budget.
    """
    if not (0.0 < rate_fraction < 1.0):
        raise ValueError("rate_fraction must lie strictly between 0 and 1")
    check_channel(scheme, channel)
    m = channel.num_receivers
    p = channel.power_budget
    if scheme == "ozarow2":
        fp = solve_rho(
            p, channel.common_noise_var,
            channel.private_noise_vars[0], channel.private_noise_vars[1], g,
        )
        per_user = fp.rates
        report = dict(rho=fp.rho, residual=fp.residual, sum_rate=sum(per_user))
    else:
        p_eff = _effective_power(scheme, channel)
        sol = solve_lambda_bc(m, p_eff)
        per_user = (_per_user_rate_bits(m, p_eff, sol.lam),) * m
        report = dict(lam=sol.lam, residual=sol.residual, sum_rate=sol.sum_rate)
        if scheme == "degraded":
            report.update(avg_power=p * sol.lam,
                          capacity_at_budget=0.5 * math.log2(1.0 + p_eff))

    targets = tuple(rate_fraction * r for r in per_user)
    bases = tuple(2.0 ** (2.0 * (r - t)) for r, t in zip(per_user, targets))
    return RateReport(
        scheme=scheme, M=m, P=p, per_user=per_user,
        rate_fraction=rate_fraction, target_rates=targets, exponent_bases=bases,
        **report,
    )
