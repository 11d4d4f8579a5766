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
so the fixed point alternates between +rho* and -rho*).  One closure,
``_two_user_step``, forms the whole two-user step at |rho|: the next |rho|
and the step's coefficients.  ``rho_map``, ``solve_rho`` and the ``ozarow2``
schedule all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import _as_int, largest_root

__all__ = [
    "FixedPointError",
    "solve_lambda_bc",
    "solve_lambda_mac",
    "solve_b_gamma",
    "rho_map",
    "solve_rho",
    "build_warmup_plan",
]

_ROOT_TOL = 1e-12
_CHECK_TOL = 1e-10
# lam enters solve_b_gamma from the sum-rate solver (residual <= 1e-12); a
# clearly wrong lam moves the log gap by O(1), so 1e-8 separates the two
# regimes by many orders of magnitude either way
_LAMBDA_GAP_TOL = 1e-8
# at gain <= 1e-10 lambda is 1 + (M - 1)·gain/(2M) to within gain²/12 < 1e-21,
# far below the 2.2e-16 spacing of floats at 1; there the float gap is too flat
# to bracket (f(1) rounds to 0 or below, and at subnormal P/M it is noise)
_SMALL_GAIN = 1e-10


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
    lam, lam_residual and sum_rate are the sum-rate solution at (M, P).
    """

    M: int
    P: float
    lam: float
    lam_residual: float
    sum_rate: float
    lambda_seq: tuple[float, ...]
    lambda0: float
    beta_b: tuple[float, ...]
    steady_a: float
    steady_beta: float
    bgamma: BGamma


# ----------------------------------------------------------------------------
# lambda equations
# ----------------------------------------------------------------------------


def _validate_mp(M: int, P: float) -> tuple[int, float]:
    message = "M must be a positive integer"
    M = _as_int(M, message)
    if M < 1:
        raise ValueError(message)
    P = float(P)
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError("P must be positive and finite")
    return M, P


def _log_gap(M: int, c: float, d: float):
    """x -> M log1p(c x (M - x)) - (M - 1) log1p(d x), of a float."""
    m, m1 = float(M), float(M - 1)
    return lambda x: m * math.log1p(c * x * (m - x)) - m1 * math.log1p(d * x)


def _solve_lambda(gap, M: int, gain: float) -> SumRateSolution:
    """Largest root in [1, M] of ``gap``, a difference of two log terms.

    Both equations read D(x) = 1 + c·x(M - x) - (1 + dx)^k = 0 with c = d/M
    and k = (M - 1)/M (d = gain: P for the broadcast form, M·P for its
    twin); the gap is M·(log(1 + c·x(M - x)) - log((1 + dx)^k)) and has D's
    sign on [0, M].  For d > 0 and M >= 2 the root in [1, M] is unique:

    * D(0) = 0.
    * D(1) = 1 + kd - (1 + d)^k > 0, by strict AM-GM on 1 + d and 1 with
      weights k and 1 - k.
    * D(M) = 1 - (1 + dM)^k < 0.
    * D'' = -2c + k(1 - k)·d²·(1 + dx)^(k - 2) is strictly decreasing, its
      own derivative being negative, so D'' has at most one zero, a simple
      one, and by Rolle D has at most three on [0, M], counted with
      multiplicity.
    * D(1) > 0 > D(M) puts an odd number of them in (1, M).  With the one
      at 0 that leaves exactly one, a simple zero: D changes sign once.

    At gain <= _SMALL_GAIN the root is λ = 1 + (M - 1)·gain/(2M) in closed
    form.  Above it the float gap's end values bracket the root too
    (measured, not proved: the tests compare each root there with a
    60-digit one), and ``largest_root`` narrows the bracket between them.
    Either term is at most 2T, T = (M - 1)·log1p(gain·M).  The search stops
    at adjacent floats, so an absolute tol alone fails at large P: tol is
    1e-12·max(1, T).  Where gain·M overflows, T and so tol are infinite and
    would accept any residual: that gain is a ValueError.
    """
    if M > 1 and gain > _SMALL_GAIN:
        terms = (M - 1) * math.log1p(gain * M)
        if not math.isfinite(terms):
            raise ValueError(f"gain {gain!r} times M={M} overflows the sum-rate equation")
        res = largest_root(gap, 1.0, float(M), _ROOT_TOL * max(1.0, terms))
        lam, residual = res.root, res.residual
    else:  # exactly 1.0 at M = 1
        lam = 1.0 + (M - 1) * gain / (2 * M)
        residual = abs(gap(lam))
    if not (1.0 <= lam <= M):
        raise FixedPointError(f"lambda {lam!r} escaped [1, {M}]")
    # log1p: 1 + gain·lam would round gain·lam away where it is small
    return SumRateSolution(lam=lam, residual=residual,
                           sum_rate=math.log1p(gain * lam) / (2.0 * math.log(2.0)))


def solve_lambda_bc(M: int, P: float) -> SumRateSolution:
    """Largest root in [1, M] of the broadcast equation; sum rate (1/2) log2(1 + P lam)."""
    M, P = _validate_mp(M, P)
    return _solve_lambda(_log_gap(M, P / M, P), M, P)


def solve_lambda_mac(M: int, P: float) -> SumRateSolution:
    """Largest root in [1, M] of the multiple-access twin; sum rate (1/2) log2(1 + M P lam)."""
    M, P = _validate_mp(M, P)
    return _solve_lambda(_log_gap(M, P, M * P), M, M * P)


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
    as well to guard the arithmetic itself.  Where (M/P)**2 overflows or b**2
    underflows to 0 the closed form has no float value, and a ValueError
    names M and P.
    """
    M, P = _validate_mp(M, P)
    lam = float(lam)
    if not (0.0 < lam <= M):
        raise ValueError("lam must lie in (0, M]")
    gap = _log_gap(M, P / M, P)(lam)  # the broadcast gap
    if abs(gap) > _LAMBDA_GAP_TOL:
        raise FixedPointError(
            f"lam {lam!r} does not satisfy the sum-rate equation "
            f"(gap {gap:.3g}) for M={M}, P={P}"
        )
    snr = 1.0 + P * lam
    try:
        ratio_sq = (M / P) ** 2
    except OverflowError:
        ratio_sq = math.inf
    if ratio_sq == math.inf:
        raise ValueError(f"(M/P)**2 overflows at M={M}, P={P!r}")
    tail = 4.0 * ratio_sq * snr / lam**2
    b2 = ((P * lam**2 + 2.0 * lam) / snr) / (M**2 + tail)
    if b2 == 0.0:
        raise ValueError(f"b**2 underflows to 0 at M={M}, P={P!r}")
    b = math.sqrt(b2)
    gamma = -ratio_sq * b2 * snr / lam**2

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
    out = _two_user_step(P, sigma2, sigma1_2, sigma2_2, g)(abs(rho))[0]
    return out if rho >= 0.0 else -out  # -0.0 counts as positive


def _two_user_step(P, sigma2, sigma1_2, sigma2_2, g):
    """r -> (rho_map(r), a1, a2, beta, b1, |b2|) on validated arguments, r = |rho| <= 1.

    One two-user step: beta normalises the mixture (1, g) to E[x^2] = P, a_m
    and b_m are receiver m's contraction and MMSE gain.  The textbook
    numerator (P + a)(P + b) rho - P (P + a + b - sigma2) h sign cancels two
    terms of size P**2; since h - r = g (1 - r)(1 + r)/dd, the form below is
    equal and carries 1 - r exactly (a, b, h as defined in the body).
    """
    a = sigma2 + sigma1_2
    b = sigma2 + sigma2_2
    # formed once, each sum in its own order (v1 = (P + sigma2) + sigma1_2)
    ab, ps, pgg, pabg = a * b, P * sigma2, P * g * g, P * (P + a + b) * g
    root, c, g2 = math.sqrt((P + a) * (P + b)), 1.0 + g * g, 2.0 * g
    half, v1, v2 = P / 2.0, P + sigma2 + sigma1_2, P + sigma2 + sigma2_2

    def step(r):
        dd = c + g2 * r
        one_m = (1.0 - r) * (1.0 + r)
        u1 = a + pgg * one_m / dd
        u2 = b + P * one_m / dd
        den = root * math.sqrt(u1 * u2)
        if den <= 0.0:
            raise ValueError("degenerate update: residual variance vanished")
        w1, w2 = 1.0 + g * r, g + r
        beta = math.sqrt(2.0 / dd)
        return ((ab * r + ps * (w2 * w1 / dd) - pabg * one_m / dd) / den,
                math.sqrt(u1 / v1), math.sqrt(u2 / v2),
                beta, half * beta * w1 / v1, half * beta * w2 / v2)

    return step


def solve_rho(P: float, sigma2: float, sigma1_2: float, sigma2_2: float,
              g: float) -> OzarowFixedPoint:
    """Stationary correlation magnitude: largest root in [0, 1] of x + rho_map(x) = 0.

    With a = sigma2 + sigma1_2 and b = sigma2 + sigma2_2, both positive, the
    map's denominator den(x) is positive on [0, 1], so f(x) = x + rho_map(x) is
    continuous there, and its end values have opposite signs:

    * f(0) = -P g (P + sigma2 + sigma1_2 + sigma2_2) / ((1 + g**2) den(0)) < 0:
      at r = 0 the numerator is P sigma2 h - P (P + a + b) g / dd with
      dd = 1 + g**2 and h = g / dd.
    * f(1) = 1 + (a b + P sigma2) / sqrt((P + a)(P + b) a b) > 1: at r = 1
      every factor 1 - r vanishes and h = 1.

    So a root lies in (0, 1).  That it is the only one is measured, not
    proved: ``test_rho_scans_return_the_pure_float_scan_result`` walks a
    10,001-point grid down from 1 (P from 1e-9 to 1e200, g from 1e-3 to 1e3,
    four noise settings) and finds the crossing the search finds.
    """
    P, sigma2, sigma1_2, sigma2_2, g = _validate_ozarow_noise(
        P, sigma2, sigma1_2, sigma2_2, g
    )
    step = _two_user_step(P, sigma2, sigma1_2, sigma2_2, g)
    res = largest_root(lambda x: x + step(x)[0], 0.0, 1.0, _ROOT_TOL)
    rho = res.root
    _, a1, a2 = step(rho)[:3]
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

    steady_beta = 1.0 / math.sqrt(lam + gamma)
    if not lam0 + gamma > 0.0:
        raise FixedPointError("embedding variance came out nonpositive")
    return WarmupPlan(
        M=M,
        P=P,
        lam=lam,
        lam_residual=sol.residual,
        sum_rate=sol.sum_rate,
        lambda_seq=seq,
        lambda0=lam0,
        beta_b=tuple(beta_b),
        steady_a=math.sqrt(a2),
        steady_beta=steady_beta,
        bgamma=bg,
    )
