"""Independent numerical oracles used to freeze and cross-check constants.

Everything here deliberately avoids the package's own numerics: plain
bisection instead of the package's root finder, quadrature to check the
normal cdf and quantile, finite-difference Newton instead of closed-form
algebra, and explicit nested evaluation instead of the decoder's folded
affine state.  Constants frozen into the tests were produced by these
routines (or by 50-digit decimal arithmetic on exact polynomial forms) and
are cited next to their definitions.

Three references share package code or layout on purpose, because each
must reproduce a package routine bit for bit rather than to rounding:

* :func:`scan_largest_root`, the package's former point-by-point scan over
  a 10 001-point grid, finishes with :func:`float_bisect`, the package's
  former float bisection.  Where f changes sign at one float,
  ``largest_root`` must return its root and residual exactly; the solvers'
  scans must match it to 1e-12 relative, and take at most 3 probes (ITP's
  n0) more than :func:`float_bisect` on the same bracket.  Where f's
  end values do not bracket a sign change, ``largest_root`` does not walk
  the grid as this scan does: it returns an exact zero at an end or raises
  NoSignChangeError.  Fed :func:`libm_bc_log_gap` or
  :func:`libm_mac_log_gap`, the sum-rate gaps with libm's ``log1p`` on one
  float at a time, it is the pure-float scan of a lambda solve above gain
  1e-10.
* :func:`draw_trial`, the package's former one-call draw, takes a whole
  trial's stream at once and is the reference for ``draw_batch``'s blocks.
* :func:`scalar_trial`, the package's former single-trial loop, updates
  each receiver's source and folds its decoder one float at a time and is
  the reference for every step of a one-trial ``run_batch``; it draws
  through :func:`draw_trial` and shares the package's embedding, encode step
  and channel outputs.  It also maps each receiver's pivot interval to the
  decoded subinterval of (0, 1) through :func:`std_normal_cdf`, which the
  package does not form; :func:`decode_interval` is that map on its own.

:func:`mp_rho_map` is the two-user correlation map at 50 digits, in the
textbook form whose float evaluation cancels at high power, and
:func:`mp_lambda` the largest root of either sum-rate equation at 60 digits.

Four references check the Hadamard schedules' second moments without the
package's eigenvalue shortcuts: :func:`dense_eigen_profile`, the dense
``G @ H`` profile of a covariance, :func:`hadamard_eigen_step`,
``covariance_update`` carried in the Hadamard eigenvalue domain in its
textbook form, :func:`mp_degraded_steps`, the degraded schedule's
coefficients from a 40-digit dense covariance, and
:func:`mp_dense_eigenvalues`, the Hadamard eigenvalues of a 40-digit dense
covariance driven by given steps.

:func:`mmse_steps` is the linear-MMSE feedback recursion for any choice of
mixing vectors, built only on ``covariance_update``; it reproduces the
two-user schedule and gives the Kramer-style baseline that ``symmetric``
must beat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import ndtr

from bcfeedback.channel import channel_outputs
from bcfeedback.core import embed_message, encode
from bcfeedback.numerics import NoSignChangeError, RootFindingError, RootResult
from bcfeedback.schedules import covariance_update

# Largest root of 5 x^3 - 20 x^2 + 18 x + 2 on [1, 2], the polynomial left
# after clearing logarithms from the two-receiver sum-rate equation at P = 10:
# (1 + 10 x - 5 x^2)^2 = 1 + 10 x.  50-digit bisection, truncated to double.
LAMBDA_2_10 = 1.610586077871746919

# Same elimination at P = 1: x^3 - 4 x^2 + 4 = 0 on [1, 2].
LAMBDA_2_1 = 1.193936566474630448

# Four receivers, P = 10: largest real root of (1 + 10x - 2.5x^2)^4 - (1 + 10x)^3
# on [1, 4], via companion-matrix eigenvalues of the expanded polynomial.
LAMBDA_4_10 = 2.2859501875901556

# Stationary correlation for the two-user scheme at P = 10, g = 1, zero common
# noise, unit private noises.  With D = 2 (1 + x) and both residual-variance
# factors equal to 6 - 5x, the fixed-point equation x + map(x) = 0 collapses to
# 55 x^2 - 127 x + 60 = 0, whose root in [0, 1] is (127 - sqrt(2929)) / 110.
RHO_STAR_10 = 0.662543304446006973
# Residual contraction at that point: a1*^2 = (6 - 5 rho*) / 11.
A1_STAR_SQ_10 = 0.244298497979087739

# Closed-form constants downstream of LAMBDA_2_10 (50-digit decimal):
A_SQ_2_10 = 0.241783986263454229     # per-step contraction squared
LAMBDA0_2_10 = 0.389413922128253080  # embedding eigenvalue
B_2_10 = 0.580716091634187291
GAMMA_2_10 = -0.08895385298471476
U1_2_10 = 0.434221110335689344       # warmup beta * b at step 1
P0_2_10 = 1.502300345717691584       # embedding variance (P / M)(lambda0 + gamma)
BETA_2_10 = 0.810671959629165905

# Quadrature values of the standard normal cdf (scipy.integrate.quad).
PHI_1 = 0.841344746068543
PHI_M2_5 = 0.006209665325776104
PHI_0_673 = 0.7495263545390305


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; assumes one sign change on [lo, hi]."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError("no sign change for the oracle bisection")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def float_bisect(f, a: float, b: float, fa: float, fb: float, tol: float) -> RootResult:
    """Bisect [a, b], whose end values fa and fb have opposite signs, on floats.

    Down to an exact zero or adjacent floats, keeping the half whose end
    values have opposite signs; ``iterations`` counts the midpoints probed.
    The end nearer zero in |f| is the root, and a residual above tol raises
    RootFindingError.
    """
    iterations = 0
    while True:
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            if math.isinf(mid):  # a + b overflowed: halve each end first
                mid = 0.5 * a + 0.5 * b
            if not (a < mid < b):
                break
        fm = float(f(mid))
        iterations += 1
        if fm == 0.0:
            return RootResult(mid, 0.0, iterations)
        if math.isnan(fm):
            raise ValueError("f evaluated to NaN in the bracket")
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    root, res = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
    if res > tol:
        raise RootFindingError(
            f"bisection hit float resolution at x={root!r} with |f|={res:.3g} > tol {tol:g}"
        )
    return RootResult(root, res, iterations)


def scan_largest_root(f, lo: float, hi: float, tol: float = 1e-12) -> RootResult:
    """Reference for ``largest_root``: one float call of f per grid point, walked down from hi."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError("largest_root needs finite bounds with lo < hi")
    xs = np.linspace(float(lo), float(hi), 10_001)
    vals = np.array([f(float(x)) for x in xs], dtype=float)
    if np.any(np.isnan(vals)):
        raise ValueError("f evaluated to NaN on the scan grid")

    for i in range(len(xs) - 1, 0, -1):
        if vals[i] == 0.0:
            return RootResult(float(xs[i]), 0.0, 0)
        if (vals[i] < 0.0) != (vals[i - 1] < 0.0):
            return float_bisect(
                f, float(xs[i - 1]), float(xs[i]), float(vals[i - 1]), float(vals[i]), tol
            )
    if vals[0] == 0.0:
        return RootResult(float(xs[0]), 0.0, 0)

    near = np.flatnonzero(np.abs(vals) <= tol)
    if near.size:
        i = int(near[-1])
        return RootResult(float(xs[i]), float(abs(vals[i])), 0)
    raise NoSignChangeError(
        f"no sign change on [{lo}, {hi}]: f(lo)={vals[0]:.6g}, f(hi)={vals[-1]:.6g}, "
        f"min |f| on grid {np.min(np.abs(vals)):.6g} exceeds tol {tol:g}"
    )


def mp_lambda(M: int, P: float, twin: bool = False) -> float:
    """Largest root in [1, M] of the broadcast sum-rate equation at 60 digits.

    The equation is M log1p(c x (M - x)) = (M - 1) log1p(d x), with c = P/M
    and d = P, or for the multiple-access twin c = P and d = M P, both formed
    exactly.  Bisection keeps the side where the gap is positive, so it does
    not need the gap's sign at x = 1, which lies below 60 digits at tiny P.
    """
    with mpmath.workdps(60):
        P = mpmath.mpf(P)
        c, d = (P, M * P) if twin else (P / M, P)
        lo, hi = mpmath.mpf(1), mpmath.mpf(M)
        for _ in range(220):  # 1024 / 2**220 < 1e-63
            x = (lo + hi) / 2
            if M * mpmath.log1p(c * x * (M - x)) > (M - 1) * mpmath.log1p(d * x):
                lo = x
            else:
                hi = x
        return float(lo)


def libm_bc_log_gap(x: float, M: int, P: float) -> float:
    """The broadcast log gap of one float, through libm's log1p."""
    return M * math.log1p((P / M) * x * (M - x)) - (M - 1) * math.log1p(P * x)


def libm_mac_log_gap(x: float, M: int, P: float) -> float:
    """The multiple-access log gap of one float, through libm's log1p."""
    return M * math.log1p(P * x * (M - x)) - (M - 1) * math.log1p(M * P * x)


def draw_trial(rng: np.random.Generator, M: int, horizon: int):
    """One trial's whole stream in two calls: M uniforms, then (horizon, 1 + M) normals.

    Row n of the normals is step n + 1's noise, shared component first.
    """
    theta = rng.random(M)
    return theta, rng.standard_normal((horizon, 1 + M))


def std_normal_cdf(x):
    """Standard normal cdf.  Scalars in, float out; ndarrays map elementwise."""
    if np.ndim(x) == 0:
        return float(ndtr(float(x)))
    return ndtr(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ScalarTrial:
    """What :func:`scalar_trial` computed for one trial."""

    success: np.ndarray  # (len(checkpoints), M) booleans: |s_{n+1}| < t_n
    steps: tuple  # per step n = 1..horizon: (x, y, s, slope, intercept), floats and (M,) tuples
    final_intervals: tuple  # per receiver: the decoded (lo, hi) after the last step


def dense_coefficients(h, weights, a, b, m: int):
    """One step's alpha = weights * h, a and b * h as lists of m floats.

    h is a row of a +-1 table; weights, a and b have width 1, standing for
    every receiver, or m.
    """
    h = [float(v) for v in h]
    w, a, b = ([float(v[j if len(v) > 1 else 0]) for j in range(m)] for v in (weights, a, b))
    return [w[j] * h[j] for j in range(m)], a, [b[j] * h[j] for j in range(m)]


@dataclass(frozen=True)
class DenseStep:
    """One channel use with alpha, a and b spelt out per receiver, shape (M,)."""

    alpha: np.ndarray
    beta: float
    a: np.ndarray
    b: np.ndarray
    expected_power: float


def dense_step(sched, unrolled) -> DenseStep:
    """A schedule's ``unroll(1)`` in dense form: alpha = weights * h, a, and
    b * h, with h the step's row of ``sched.table``."""
    (row,), (beta,), (a,), (b,), (power,) = unrolled
    alpha, a, b = dense_coefficients(sched.table[row], sched.weights, a, b,
                                     sched.channel.num_receivers)
    return DenseStep(alpha=np.array(alpha), beta=float(beta), a=np.array(a), b=np.array(b),
                     expected_power=float(power))


def dense_update(R, step, channel, p_share: float) -> np.ndarray:
    """``covariance_update`` by one dense step."""
    return covariance_update(R, step.alpha, step.beta, step.a, step.b, channel, p_share)


def scalar_trial(prepared, horizon: int, policies, rng, checkpoints) -> ScalarTrial:
    """Reference for every step of a one-trial ``run_batch``, its replay folded as floats.

    Keeps one scalar (log_slope, intercept) per receiver, forms each step's
    alpha, a and b per receiver from the prepared rows with
    :func:`dense_coefficients`, and takes one policy per receiver and
    explicit checkpoints.
    """
    ch = prepared.channel
    m = ch.num_receivers
    theta, z = draw_trial(rng, m, horizon)
    s = np.array([embed_message(t, prepared.p0) for t in theta])
    log_slope = [0.0] * m
    intercept = [0.0] * m
    success = np.zeros((len(checkpoints), m), dtype=bool)
    mark_index = {n: i for i, n in enumerate(checkpoints)}
    steps = []
    if 0 in mark_index:
        success[mark_index[0], :] = True

    for n in range(1, horizon + 1):
        alpha, a, b = dense_coefficients(prepared.table[prepared.row[n - 1]], prepared.weights,
                                         prepared.a[n - 1], prepared.b[n - 1], m)
        x = encode(s, np.array(alpha), prepared.beta[n - 1])
        y = channel_outputs(ch, x, z[n - 1])
        for j in range(m):
            intercept[j] = intercept[j] + math.exp(log_slope[j]) * b[j] * float(y[j])
            log_slope[j] = log_slope[j] + math.log(a[j])
        s = np.array([(s[j] - b[j] * float(y[j])) / a[j] for j in range(m)])
        if n in mark_index:
            for j in range(m):
                success[mark_index[n], j] = abs(s[j]) < policies[j].halfwidth(n)
        steps.append((x, tuple(y), tuple(s), tuple(math.exp(v) for v in log_slope),
                      tuple(intercept)))

    finals = decode_interval(log_slope, intercept, policies, prepared.p0, horizon)
    return ScalarTrial(success=success, steps=tuple(steps), final_intervals=finals)


def decode_interval(log_slope, intercept, policies, p0: float, n: int):
    """Decoded subintervals of (0, 1) of one trial's receivers after n steps.

    Maps each receiver's pivot interval (-t_n, t_n), from its policy in
    ``policies``, through its replay map (log_slope, intercept) and the
    source cdf.  At n = 0 nothing has been observed and every receiver gets
    the whole interval.
    """
    if n == 0:
        return ((0.0, 1.0),) * len(policies)
    scale = math.sqrt(p0)
    out = []
    for ls, c, pol in zip(log_slope, intercept, policies):
        # log t_n, finite where the power of two in halfwidth(n) overflows
        log_t = math.log(pol.base_halfwidth) + n * pol.growth_rate_bits * math.log(2.0)
        mag = math.exp(float(ls) + log_t)
        out.append((std_normal_cdf((float(c) - mag) / scale),
                    std_normal_cdf((float(c) + mag) / scale)))
    return tuple(out)


def dense_eigen_profile(G: np.ndarray, columns: np.ndarray):
    """Rayleigh quotients of G along each Hadamard column and the residual norms.

    columns is the (M, M) array of +-1 columns; returns (values, residuals)
    where values[j] = h_j^T G h_j / M and residuals[j] = ||G h_j - values[j] h_j||.
    One dense O(M^3) product, the reference for ``hadamard_eigen_profile``.
    """
    GH = G @ columns
    vals = (columns * GH).sum(axis=0) / G.shape[0]
    resid = np.linalg.norm(GH - columns * vals, axis=0)
    return vals, resid


def hadamard_eigen_step(mu: np.ndarray, j: int, step, channel, p_share: float) -> np.ndarray:
    """One ``covariance_update`` step on the eigenvalues mu of a dyadic R.

    Valid for a ``HadamardSchedule`` step on row j: alpha is Sylvester row
    h_j, b = b_0 h_j, a is uniform and the private noises are equal.  R then
    stays dyadic, every row stays an eigenvector, and only mu_j moves besides
    a uniform noise shift and 1/a^2:

        mu <- (mu + b_0^2 s_p / p_share
               + e_j (M b_0^2 out_var - 2 beta b_0 M mu_j)) / a^2

    with out_var = beta^2 M mu_j + s_c / p_share.  ``step`` is a
    :func:`dense_step`, whose b[0] is b_0 since every Sylvester row starts
    with +1.  The e_j term subtracts nearly equal terms at high
    power: against :func:`mp_dense_eigenvalues` it drifts by up to 1.2e-6
    relative at P = 1e9 (M = 8, 40 symmetric steps), so it is a reference at
    moderate P only.
    """
    m = mu.size
    b0 = float(step.b[0])
    beta = step.beta
    out_var = beta * beta * m * mu[j] + channel.common_noise_var / p_share
    new = mu + b0 * b0 * channel.private_noise_vars[0] / p_share
    new[j] += m * b0 * b0 * out_var - 2.0 * beta * b0 * m * mu[j]
    return new / float(step.a[0]) ** 2


def mp_degraded_steps(m: int, P: float, sigma2: float, steps: int):
    """(a, b, E[x^2]) of the degraded schedule's first steps, from a 40-digit dense R.

    Propagates the full normalised covariance R = E[s s^T] / (P/M) from the
    identity, with the minimum-mean-square coefficients read off R at each
    step and the covariance update written out literally; no eigenvalue
    shortcut is used.
    """
    with mpmath.workdps(40):
        p_share = mpmath.mpf(P) / m
        noise = mpmath.mpf(sigma2) / p_share
        H = [[(-1) ** bin(i & k).count("1") for k in range(m)] for i in range(m)]
        R = mpmath.eye(m)
        out = []
        for n in range(steps):
            h = [H[i][n % m] for i in range(m)]
            w = [mpmath.fsum(R[i, k] * h[k] for k in range(m)) for i in range(m)]
            q = mpmath.fsum(h[i] * w[i] for i in range(m))
            out_var = q + noise
            b = [wi / out_var for wi in w]
            a = [mpmath.sqrt(R[i, i] - b[i] * w[i]) for i in range(m)]
            R = mpmath.matrix([
                [(R[i, k] - b[i] * w[k] - w[i] * b[k] + b[i] * b[k] * out_var) / (a[i] * a[k])
                 for k in range(m)]
                for i in range(m)
            ])
            out.append((np.array([float(v) for v in a]), np.array([float(v) for v in b]),
                        float(p_share * q)))
        return out


def mp_dense_eigenvalues(steps, channel, p_share: float, r0: float):
    """Hadamard Rayleigh quotients h_j^T R h_j / M after each step, from a 40-digit dense R.

    Propagates the full normalised covariance R from r0 I through the given
    emitted steps, with the covariance update written out literally; no
    eigenvalue shortcut is used.
    """
    with mpmath.workdps(40):
        m = channel.num_receivers
        p_share = mpmath.mpf(p_share)
        H = [[(-1) ** bin(i & k).count("1") for k in range(m)] for i in range(m)]
        R = mpmath.eye(m) * mpmath.mpf(r0)
        out = []
        for step in steps:
            alpha, a, b = ([mpmath.mpf(float(v)) for v in x] for x in (step.alpha, step.a, step.b))
            beta = mpmath.mpf(step.beta)
            w = [mpmath.fsum(R[i, k] * alpha[k] for k in range(m)) for i in range(m)]
            q = mpmath.fsum(alpha[i] * w[i] for i in range(m))
            out_var = beta * beta * q + mpmath.mpf(channel.common_noise_var) / p_share
            R = mpmath.matrix([
                [(R[i, k] - beta * (b[i] * w[k] + w[i] * b[k]) + b[i] * b[k] * out_var
                  + (b[i] * b[i] * mpmath.mpf(channel.private_noise_vars[i]) / p_share
                     if i == k else 0)) / (a[i] * a[k])
                 for k in range(m)]
                for i in range(m)
            ])
            out.append(np.array([
                float(mpmath.fsum(H[i][j] * R[i, k] * H[k][j] for i in range(m) for k in range(m)) / m)
                for j in range(m)
            ]))
        return out


def mmse_steps(channel, alpha_of, steps: int) -> list[DenseStep]:
    """The linear-MMSE feedback recursion from independent unit sources, step by step.

    Step n sends x = beta alpha^T s with alpha = alpha_of(n, R) and beta
    renormalised to E[x^2] = P.  Each receiver m takes the MMSE coefficient
    b_m = E[s_m y_m] / E[y_m^2] and contracts by the a_m that keeps R's
    diagonal at 1; R goes through ``covariance_update``.  The steady
    -log2 a_m are the rates.
    """
    m = channel.num_receivers
    power = channel.power_budget
    p_share = power / m
    out_var = power + channel.common_noise_var + np.asarray(channel.private_noise_vars)
    R = np.eye(m)
    out = []
    for n in range(1, steps + 1):
        alpha = np.asarray(alpha_of(n, R), dtype=float)
        w = R @ alpha
        beta = math.sqrt(m / float(alpha @ w))  # p_share beta^2 alpha^T R alpha = P
        b = p_share * beta * w / out_var
        unscaled = covariance_update(R, alpha, beta, np.ones(m), b, channel, p_share)
        a = np.sqrt(np.diag(unscaled))
        R = unscaled / np.outer(a, a)
        out.append(DenseStep(alpha=alpha, beta=beta, a=a, b=b, expected_power=power))
    return out


def mp_rho_map(rho: float, P: float, sigma2: float, sigma1_2: float,
               sigma2_2: float, g: float) -> float:
    """``rho_map`` in its textbook form, evaluated with 50 significant digits.

    The numerator (P + a)(P + b) rho - P (P + sigma_total) h sign, with
    a = sigma2 + sigma1_2, b = sigma2 + sigma2_2 and h = (g + r)(1 + g r)/dd,
    subtracts two terms of size P**2 and loses up to about 2 log10(P) digits;
    at 50 digits more than 30 remain at P = 1e9.
    """
    with mpmath.workdps(50):
        rho, P, s2, s1, s22, g = (mpmath.mpf(v) for v in (rho, P, sigma2, sigma1_2, sigma2_2, g))
        sign = 1 if rho >= 0 else -1
        r = abs(rho)
        dd = 1 + g * g + 2 * g * r
        pi = (P + s2 + s1) * (P + s2 + s22)
        num = pi * rho - P * (P + s2 + s1 + s22) / dd * (g + r) * (1 + g * r) * sign
        den = mpmath.sqrt(pi) * mpmath.sqrt(
            (s2 + s1 + P * g * g * (1 - rho * rho) / dd) * (s2 + s22 + P * (1 - rho * rho) / dd)
        )
        return float(num / den)


def normal_cdf_quad(x: float) -> float:
    """Standard normal cdf by adaptive quadrature from zero."""
    val, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        0.0, x, epsabs=1e-15, epsrel=1e-13,
    )
    return 0.5 + val


def mp_solve_b_gamma(lam: float, M: int, P: float, start) -> tuple[float, float]:
    """Solve the two (b, gamma) defining identities by 60-digit Newton.

    The identities are written out literally here, so this shares no code
    with the library's closed form.  High precision is not a luxury: the two
    residual surfaces cross at an extremely shallow angle (Jacobian condition
    number around 1e10), so float64 residual noise of ~1e-16 smears the
    crossing over ~1e-6.  At 60 significant digits the same plain Newton
    iteration pins it far below 1e-12.
    """
    with mpmath.workdps(60):
        lam_mp = mpmath.mpf(lam)
        p_mp = mpmath.mpf(P)
        snr = 1 + p_mp * lam_mp

        def residuals(b, gamma):
            r10 = gamma - (snr / (1 + (p_mp / M) * lam_mp * (M - lam_mp))) * (
                gamma + (M / p_mp) * b * b
            )
            inner = M * b * b + (p_mp / M) * lam_mp * lam_mp / snr
            r11 = gamma - (inner * inner / (4 * b * b) - lam_mp)
            return r10, r11

        root = mpmath.findroot(
            residuals,
            (mpmath.mpf(start[0]), mpmath.mpf(start[1])),
            solver="mdnewton",
            tol=mpmath.mpf(10) ** -40,
            maxsteps=200,
        )
        return float(root[0]), float(root[1])


def affine_chain(coeffs, s: float) -> float:
    """Evaluate w_1(w_2(...w_n(s))) by explicit nesting.

    ``coeffs`` is a sequence of (a_k, c_k) pairs with w_k(s) = a_k s + c_k,
    ordered k = 1..n; the innermost map is the last pair.
    """
    val = s
    for a_k, c_k in reversed(list(coeffs)):
        val = a_k * val + c_k
    return val
