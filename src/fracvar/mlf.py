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
* Quadrature of the spectral form for every other argument. For 0 < beta < 1,

      E_beta(-lam s^beta) = integral exp(-e^l s) K_beta(e^l; lam) e^l dl,
      K_beta(e^l; lam) e^l = (sin / pi) w / ((w + cos)^2 + sin^2),

  with w = e^(beta l) / lam and sin, cos of beta pi taken from the nearer end
  of (0, 1) (``_density``, the one copy of K_beta): no lam^2 is formed, and
  the sum of squares keeps the near pole at w = -cos free of cancellation as
  beta -> 1. With lam = x and s = 1 the bulk sits at l = O(1) for every x.
  The trapezoid rule runs on the double-exponential map l = v - exp(-v) for
  exponentially decaying integrands (Takahasi and Mori), on nodes shared by
  all arguments. As beta -> 1 the near pole narrows to a width of about sin;
  where its weight exp(-t), t = x^(1/beta), still counts, the same integral
  in the angle phi, e^(beta l) = x sin(beta pi - phi) / sin phi,

      E_beta(-x) = 1/(beta pi) integral_0^(beta pi)
                   exp(-(x sin(beta pi - phi) / sin phi)^(1/beta)) dphi,

  which has no interior singularity, is used with the tanh-sinh map.
  The error estimate is the gap between the sums at step h and h/2, plus a
  bound on rounding; elements that miss tol are refined a bounded number of
  times, in blocks of about _BLOCK argument-node pairs.

The same density gives the sum-of-exponentials (SOE) rule of the history
sums (``_soe_rule``): E_beta(-lam s^beta) ~ sum_k w_k exp(-e^(l_k) s) for
every node's (beta, lam) on one set of rates, s in [s_min, span]. The
integrand is analytic in the strip |Im l| < d = min(pi (1 - beta) / beta,
pi / 2) (poles of K_beta, then exp(-e^l s) stops decaying), so the trapezoid
step comes from the rule's error bound 4 exp(-2 pi d / h) = _SOE_EPS. The
left tail, below 2 sin(beta pi) e^(beta l) / (pi lam), is cut where its
integral falls below _SOE_EPS times the lower bound
1 / (1 + Gamma(1 - beta) lam span^beta) of E_beta(-lam span^beta); the right
one where exp(-e^l s_min) < e^-40. The rule is certified before use against
``_ml_neg_array`` within _SOE_TOL on 64 log-spaced s, at the nodes with
extreme beta and lam; it is refused when that check misses or when it needs
more rates than allowed, as beta -> 1 narrows the strip.
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
_SOE_EPS = 1e-15     # target relative error of the sum-of-exponentials rule
_SOE_TOL = 1e-13     # its spot check against _ml_neg_array


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


def _density(beta, lam, scale=1.0):
    """l -> scale K_beta(e^l; lam) e^l in the form of the module docstring;
    beta and lam broadcast against l, and a scalar beta takes one exp per l."""
    beta = np.asarray(beta, dtype=float)
    # sin and cos of beta pi from the nearer end of (0, 1): beta pi loses 1 - beta
    half = np.minimum(beta, 1.0 - beta)
    sin = np.sin(math.pi * half)
    cos = np.where(beta <= 0.5, 1.0, -1.0) * np.cos(math.pi * half)
    # divided through by c = scale sin / pi: v / ((v + cos / c)^2 + (pi / scale)^2)
    # with v = w / c, so one (l, lam) pair costs five operations after the exp
    c = scale * sin / math.pi
    inv, shift, floor = 1.0 / (lam * c), cos / c, (math.pi / scale) ** 2

    def density(ell):
        v = np.exp(beta * ell) * inv
        with np.errstate(over="ignore"):
            return v / ((v + shift) ** 2 + floor)
    return density


def _quadrature(beta: float, x: np.ndarray, tol: float) -> np.ndarray:
    """E_beta(-x) for x > 0, 0 < beta < 1, by the spectral integral."""
    log_tol = math.log(1.0 / tol)
    with np.errstate(over="ignore"):
        t = x ** (1.0 / beta)
    out = np.empty_like(x)
    near = np.zeros(x.shape, dtype=bool)
    if beta > _POLE_BETA:
        # -log of the lower bound E_beta(-x) >= 1 / (1 + Gamma(1 - beta) x)
        log_bound = np.log1p(math.gamma(1.0 - beta) * x)
        near = t <= log_tol + 10.0 + log_bound - math.log(math.sin(math.pi * (1.0 - beta)))

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
            return _density(beta, xf[rows, None])(ell_) @ ((1.0 + em) * np.exp(-np.exp(ell_)))

        out[far] = _trapezoid(ell, v_lo, v_hi, tol, np.full(xf.size, 64.0 * _EPS))

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


def _soe_rule(betas: np.ndarray, lams: np.ndarray, s_min: float, span: float,
              max_terms: int, cols: slice = slice(None)):
    """(rates, weights) of the SOE rule for E_beta(-lam s^beta), one (beta, lam)
    pair per node, on s in [s_min, span]; None if it needs more than
    max_terms rates, beta reaches 1 or the spot check of the module docstring
    misses. Every pair enters the rule and the check; weights(ks) gives w
    (one row per rate, one column per pair in cols) for rates[ks].
    """
    b_max = float(np.max(betas))
    if b_max >= 1.0:
        return None
    d = min(math.pi * (1.0 - b_max) / b_max, 0.5 * math.pi)
    h = 2.0 * math.pi * d / math.log(4.0 / _SOE_EPS)
    with np.errstate(divide="ignore"):
        tails = np.log(_SOE_EPS * math.pi * lams * betas / (
            2.0 * np.sin(math.pi * betas)
            * (1.0 + math.gamma(1.0 - b_max) * lams * span ** betas))) / betas
    l_hi = math.log(40.0 / s_min)
    steps = (l_hi - float(np.min(tails))) / h
    if not steps <= max_terms - 1:
        return None
    ell = l_hi - h * np.arange(math.ceil(steps), -1, -1)
    s = np.geomspace(s_min, span, 64)
    decays = np.exp(-np.outer(s, np.exp(ell)))
    for i in {int(np.argmin(betas)), int(np.argmax(betas)),
              int(np.argmin(lams)), int(np.argmax(lams))}:
        try:
            want = _ml_neg_array(float(betas[i]), -lams[i] * s ** betas[i])
        except NonConvergent:
            return None
        got = decays @ _density(betas[i], lams[i], h)(ell)
        if not np.max(np.abs(got - want) / want) <= _SOE_TOL:
            return None
    weights = _density(betas[0] if np.all(betas == betas[0]) else betas[cols], lams[cols], h)
    return np.exp(ell), lambda ks: weights(ell[ks, None])


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
    with np.errstate(over="ignore", invalid="ignore"):
        out = _density(gamma, 1.0)(np.log(arr)) / arr
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
