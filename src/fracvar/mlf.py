"""One-parameter Mittag-Leffler function E_beta(z) = sum_k z^k / Gamma(beta k + 1).

Every kernel value goes through one array evaluator for z <= 0, 0 < beta <= 1
(``_ml_neg_array``). Each value it returns is certified to the relative
tolerance ``tol``; otherwise NonConvergent is raised. Two routes:

* The power series by Horner's rule, with the term count fixed in advance
  from the largest argument. Even and odd terms are summed apart in z^2, free
  of cancellation, so the roundoff of their difference is at most about
  eps * terms * sum_k |term_k|. A value is certified when that bound is below
  tol times the value and, for z < 0, the value lies in (0, 1], where
  complete monotonicity puts E_beta(-x).
* Quadrature of the spectral form for every other argument. With x = -z,
  t = x^(1/beta), s = sin(beta pi), c = cos(beta pi), the substitution
  r = e^l / t in E_beta(-x) = integral_0^inf exp(-r t) K_beta(r) dr gives

      E_beta(-x) = s / (pi x) integral exp(-e^l) e^(beta l)
                   / ((1 + c w)^2 + (s w)^2) dl,      w = e^(beta l) / x,

  whose bulk sits at l = O(1) for every x. The trapezoid rule runs on the
  double-exponential map l = v - exp(-v) for exponentially decaying
  integrands (Takahasi and Mori), on nodes shared by all arguments. As
  beta -> 1 the integrand has a near pole of width about s at w = -1/c;
  where its weight exp(-t) still counts, the same integral in the angle phi,
  e^(beta l) = x sin(beta pi - phi) / sin phi,

      E_beta(-x) = 1/(beta pi) integral_0^(beta pi)
                   exp(-(x sin(beta pi - phi) / sin phi)^(1/beta)) dphi,

  which has no interior singularity, is used with the tanh-sinh map.
  The error estimate is the gap between the sums at step h and h/2, plus a
  bound on rounding; elements that miss tol are refined a bounded number of
  times, in blocks of about _BLOCK argument-node pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, NonConvergent

_MAX_TERMS = 10_000
_EPS = float(np.finfo(float).eps)
_DEFAULT_QUAD_TOL = 1e-10
_H0 = 0.25           # initial trapezoid step on both maps
_REFINE = 5          # step halvings after the first comparison
_BLOCK = 1 << 16     # argument-node pairs per temporary
_POLE_BETA = 0.8     # above it, arguments near the pole take the angular form
_LOG_TAIL = math.log(0.25 * _EPS)
_LOG_TERM_CAP = math.log(1e290)


@dataclass(frozen=True)
class MLParams:
    """Order and relative tolerance for a Mittag-Leffler evaluation."""

    beta: float
    tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise InvalidParam(f"beta must lie in (0, 1], got {self.beta}")
        if not (0.0 < self.tol < 1e-2):
            raise InvalidParam(f"tol must lie in (0, 1e-2), got {self.tol}")


def _series_array(beta: float, z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Horner sum of the series over an array; returns (values, certified).

    The series runs in u = |z| / max|z|, with coefficients a_k, the terms at
    the largest |z|, so no coefficient underflows before the sum is done. The
    term count K is fixed so that the tail beyond it there is below eps / 4;
    a term above 1e290 leaves every element uncertified.
    """
    x = np.abs(z).ravel()
    xmax = float(np.max(x, initial=0.0))
    if xmax == 0.0:
        return np.ones(z.shape), np.ones(z.shape, dtype=bool)
    log_x = math.log(xmax)
    coeffs = [1.0]
    summable = False
    for k in range(1, _MAX_TERMS + 1):
        lg = math.lgamma(beta * k + 1.0)
        log_term = k * log_x - lg
        if log_term > _LOG_TERM_CAP:
            break
        coeffs.append(math.exp(log_term))
        # term ratios r fall with k, so the tail is at most term * r / (1 - r)
        log_r = log_x + lg - math.lgamma(beta * (k + 1) + 1.0)
        if log_r < 0.0 and log_term + log_r - math.log1p(-math.exp(log_r)) < _LOG_TAIL:
            summable = True
            break
    if not summable:
        return np.ones(z.shape), np.zeros(z.shape, dtype=bool)
    if len(coeffs) % 2:
        coeffs.append(0.0)
    # columns[j] holds (a_2j, a_2j+1)
    columns = np.array(coeffs).reshape(-1, 2, 1)[::-1]
    u = x / xmax
    y = u * u
    acc = np.repeat(columns[0], x.size, axis=1)
    for col in columns[1:]:
        acc *= y
        acc += col
    even, odd = acc[0], u * acc[1]
    neg = z.ravel() < 0.0
    value = np.where(neg, even - odd, even + odd)
    certified = _EPS * len(coeffs) * (even + odd) <= tol * np.abs(value)
    certified &= ~neg | ((value > 0.0) & (value <= 1.0))
    return value.reshape(z.shape), certified.reshape(z.shape)


def _series(beta: float, z: float, tol: float) -> tuple[float, bool]:
    """Scalar power series; returns (value, certified)."""
    value, certified = _series_array(beta, np.array([float(z)]), tol)
    return float(value[0]), bool(certified[0])


def _trapezoid(f, lo: float, hi: float, tol: float, roundoff: np.ndarray) -> np.ndarray:
    """Trapezoid sums over [lo, hi] of one integrand per row, f(rows, nodes) -> row sums.

    The step is halved until consecutive sums differ by at most
    (tol - roundoff) relative, roundoff being each row's bound on the
    relative rounding error of its integrand values; rows that still differ
    after _REFINE halvings, or whose roundoff alone exceeds tol, raise
    NonConvergent.
    """
    slack = tol - roundoff
    if np.any(slack <= 0.0):
        raise NonConvergent(f"tol={tol:.1e} is below the quadrature's rounding error")
    n = max(2, math.ceil((hi - lo) / _H0))
    h = (hi - lo) / n

    def sums(rows, nodes):
        out = np.empty(rows.size)
        step = max(1, _BLOCK // nodes.size)
        for i in range(0, rows.size, step):
            out[i:i + step] = f(rows[i:i + step], nodes)
        return out

    rows = np.arange(slack.size)
    total = h * sums(rows, lo + h * np.arange(n + 1))
    for _ in range(_REFINE + 1):
        finer = 0.5 * total[rows] + 0.5 * h * sums(rows, lo + h * (np.arange(n) + 0.5))
        done = np.abs(finer - total[rows]) <= slack[rows] * np.abs(finer)
        total[rows] = finer
        rows = rows[~done]
        if rows.size == 0:
            return total
        h, n = 0.5 * h, 2 * n
    raise NonConvergent(
        f"spectral quadrature missed tol={tol:.1e} for {rows.size} argument(s)")


def _quadrature(beta: float, x: np.ndarray, tol: float) -> np.ndarray:
    """E_beta(-x) for x > 0, 0 < beta < 1, by the spectral integral."""
    # s and c from the nearer end of (0, 1): beta * pi loses 1 - beta
    half = min(beta, 1.0 - beta)
    s = math.sin(math.pi * half)
    c = math.cos(math.pi * half) * (1.0 if beta <= 0.5 else -1.0)
    log_tol = math.log(1.0 / tol)
    with np.errstate(over="ignore"):
        t = x ** (1.0 / beta)
    out = np.empty_like(x)
    near = np.zeros(x.shape, dtype=bool)
    if beta > _POLE_BETA:
        # -log of the lower bound E_beta(-x) >= 1 / (1 + Gamma(1 - beta) x)
        log_bound = np.log1p(math.gamma(1.0 - beta) * x)
        near = t <= log_tol + 10.0 + log_bound - math.log(s)

    far = ~near
    if np.any(far):
        xf = x[far]
        # tails: e^(beta l) / x to the left, exp(-e^l) to the right
        l_lo = (min(0.0, math.log(float(np.min(xf)))) - log_tol - 10.0) / beta
        l_hi = math.log(log_tol + 25.0 + max(0.0, math.log(float(np.max(xf)))))
        v_lo = -math.log(-l_lo)
        v_hi = l_hi + 1.0  # l = v - exp(-v) < v

        def ell(rows, v):
            em = np.exp(-v)
            ell_ = v - em
            with np.errstate(over="ignore", under="ignore"):
                common = (1.0 + em) * np.exp(beta * ell_ - np.exp(ell_))
                w = np.exp(beta * ell_) / xf[rows, None]
                return ((common / ((1.0 + c * w) ** 2 + (s * w) ** 2)).sum(axis=1))

        sums = _trapezoid(ell, v_lo, v_hi, tol, np.full(xf.size, 64.0 * _EPS))
        out[far] = (s / math.pi) / xf * sums

    if np.any(near):
        tn = t[near]
        eta = math.pi * (1.0 - beta)
        # tanh-sinh weights fall like exp(-pi sinh v)
        z_max = math.asinh((log_tol + 15.0 + float(np.max(log_bound[near]))) / math.pi)

        def angular(rows, v):
            q = 0.5 * math.pi * np.sinh(v)
            with np.errstate(over="ignore", under="ignore", divide="ignore"):
                phi = beta * math.pi / (1.0 + np.exp(-2.0 * q))
                gap = beta * math.pi / (1.0 + np.exp(2.0 * q))  # beta pi - phi
                sin_phi = np.where(phi < 0.5 * math.pi, np.sin(phi), np.sin(eta + gap))
                rho = (np.sin(gap) / sin_phi) ** (1.0 / beta)
                weight = 0.25 * math.pi * np.cosh(v) / np.cosh(q) ** 2
                return np.exp(-tn[rows, None] * rho) @ weight

        # the exponent t * rho carries its rounding error into the value
        out[near] = _trapezoid(angular, -z_max, z_max, tol, 16.0 * _EPS * (4.0 + tn))
    return np.minimum(out, 1.0)


def _ml_neg_array(beta: float, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """E_beta over an array of nonpositive arguments, each certified to tol.

    The hot path of kernel evaluation. Raises NonConvergent when an element
    can be certified by neither the series nor the quadrature.
    """
    z = np.asarray(z, dtype=float)
    if beta == 1.0:
        return np.exp(z)
    if not np.all(z <= 0.0):
        raise InvalidParam("_ml_neg_array needs nonpositive arguments")
    x = -z.ravel()
    out = np.ones_like(x)
    # the roundoff bound eps * K * E_beta(x) <= tol * E_beta(-x) <= tol needs
    # exp(x^(1/beta)) below tol / eps, so larger arguments skip the series
    x_cut = (math.log(max(tol / _EPS, 1.0)) + 1.0) ** beta
    todo = (x > 0.0) & (x <= x_cut)
    if np.any(todo):
        value, certified = _series_array(beta, -x[todo], tol)
        out[todo] = value
        todo[todo] = ~certified
    todo |= x > x_cut
    if np.any(todo):
        out[todo] = _quadrature(beta, x[todo], tol)
    return out.reshape(z.shape)


def ml_eval(params: MLParams, z: float) -> float:
    """Evaluate E_beta(z) to the relative accuracy requested by params.

    Raises NonConvergent when no route can certify the result (in practice:
    huge positive arguments).
    """
    beta = params.beta
    z = float(z)
    if z == 0.0:
        return 1.0
    if beta == 1.0:
        try:
            return math.exp(z)
        except OverflowError:
            raise NonConvergent(f"E_1({z}) overflows") from None
    if z < 0.0:
        return float(_ml_neg_array(beta, np.array([z]), params.tol)[0])
    value, certified = _series(beta, z, params.tol)
    if certified:
        return value
    raise NonConvergent(f"series for E_{beta}({z}) failed certification")


def spectral_density(gamma: float, r) -> float | np.ndarray:
    """Density K_gamma(r) of the spectral representation of E_gamma(-t^gamma).

    Positive for every r > 0 when 0 < gamma < 1; its total mass is 1.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParam(f"gamma must lie in (0, 1), got {gamma}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParam("spectral density requires r > 0")
    singam = math.sin(gamma * math.pi)
    cosgam = math.cos(gamma * math.pi)
    with np.errstate(over="ignore"):
        rg = arr**gamma
        denom = rg * rg + 2.0 * cosgam * rg + 1.0
        out = (arr ** (gamma - 1.0)) * singam / (math.pi * denom)
    out = np.where(np.isfinite(out), out, 0.0)
    if np.ndim(r) == 0:
        return float(out)
    return out


def ml_eval_spectral(gamma: float, t: float) -> float:
    """Evaluate E_gamma(-t^gamma) by the spectral quadrature alone.

    Independent of the power series; the two routes cross-validate each other.
    The value is certified to _DEFAULT_QUAD_TOL (1e-10) relative.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParam(f"gamma must lie in (0, 1), got {gamma}")
    t = float(t)
    if t < 0.0:
        raise InvalidParam(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return 1.0
    return float(_quadrature(gamma, np.array([t**gamma]), _DEFAULT_QUAD_TOL)[0])
