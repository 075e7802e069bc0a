"""One-parameter Mittag-Leffler function E_beta(z) = sum_k z^k / Gamma(beta k + 1).

Every kernel value goes through one array evaluator for z <= 0, 0 < beta <= 1
(``_ml_neg_array``), over one row or over rows with one beta each, which
take one Horner loop and each give what they give alone, bit for bit. Each
value it returns is certified to the relative tolerance ``tol``; otherwise
NonConvergent is raised. Two routes:

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
one where exp(-e^l s_min) < e^-40. The rule is checked before use against
``_ml_neg_array`` within _SOE_TOL on 64 log-spaced s, at the nodes with
extreme beta and lam; it is refused when that check misses, when its
reference does not converge, or when it needs more rates than allowed, as
beta -> 1 narrows the strip.

The power rule of the weakly singular operators (``_power_rule``) is the same
construction for s^(-nu) = (1/Gamma(nu)) integral exp(nu l - e^l s) dl, with
weights h nu e^(nu l) / Gamma(1 + nu): the integrand has no pole, so the
strip is |Im l| < pi/2 for every nu and the step is that of d = pi/2. Below
l_lo = ln(_SOE_EPS / 2) / (1 + nu_min) - ln(span), exp(-e^l s) = 1 to
within the tolerance, so the rule's nodes below l_lo sum as a geometric
series into the node l_lo, whose weight is e^(nu l_lo) times
h nu / (1 - e^(-h nu)) / Gamma(1 + nu). That factor is 1 at nu = 0, where
the rule is s^0 = 1, a rate-0 term alone once folded. Its error is proven,
not sampled, so no check runs: the bound in ``_power_rule``'s docstring is
below _SOE_TOL for every nu in [0, 1) while the rule keeps at most
_POWER_TERMS = 132 rates (span / s_min <= 3e12), and a rule of more rates
is refused.

Both rules fold their slow terms (``_folded``): a rate with r span <= 1 has
r s <= 1 on the whole range, where exp(-r s) is a polynomial of degree 13 in
r to about 1e-16. Such a term's weight is spread over 14 Chebyshev-Lobatto
rates on [0, 1/span], the first of them r = 0, by the Lagrange basis of
those rates at r. K then counts the folded rates: 56 for the power rule at
n = 2048 on [0, 1] (108-165 nodes before the fold), and 56 for a tracked
order at n = 1024 (357 before).
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
_ROWS_BLOCK = 1 << 14  # values per block of rows of _ml_neg_array
_POLE_BETA = 0.8     # above it, arguments near the pole take the angular form
_LOG_TAIL = math.log(0.25 * _EPS)
_LOG_TERM_CAP = math.log(1e290)
_LOG_TINY = math.log(np.finfo(float).tiny)   # below it, exp is subnormal
_SOE_EPS = 1e-15     # target relative error of the sum-of-exponentials rule
_SOE_TOL = 1e-13     # the relative error an SOE rule may have
_POWER_TERMS = 132   # most rates of a power rule: term (v) of its bound passes _SOE_TOL at 133
_FOLD = 14           # Chebyshev-Lobatto rates that take an SOE rule's slow terms
_FOLD_BLOCK = 1 << 14  # slow weights per temporary of a fold


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


def _coefficients(beta: float, log_x: float) -> list[float] | None:
    """The terms a_k of the series at |z| = e^log_x, in an even count: up to
    the first whose tail is below eps / 4, padded with a zero; None when a
    term passes 1e290 first, or after _MAX_TERMS terms."""
    coeffs = [1.0]
    lg = math.lgamma(beta + 1.0)  # lgamma(beta k + 1), carried from the ratio test
    for k in range(1, _MAX_TERMS + 1):
        log_term = k * log_x - lg
        if log_term > _LOG_TERM_CAP:
            return None
        coeffs.append(math.exp(log_term))
        # term ratios r fall with k, so the tail is at most term * r / (1 - r)
        lg_next = math.lgamma(beta * (k + 1) + 1.0)
        log_r = log_x + lg - lg_next
        if log_r < 0.0 and log_term + log_r - math.log1p(-math.exp(log_r)) < _LOG_TAIL:
            return coeffs + [0.0] * (len(coeffs) % 2)
        lg = lg_next
    return None


def _series_array(beta, z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Horner sum of the series over z; returns (values, certified).

    beta is a float for the whole array, or one beta per row of a 2-d z,
    and each row is summed as it is alone. It runs in u = |z| / max|z| over
    the row, which needs a nonzero z (a zero gives 1), with coefficients
    a_k, the terms at that largest |z| (_coefficients), so no coefficient
    underflows before the sum is done. A row whose series is not summable
    is left uncertified. The rows share one Horner loop: a row of K terms
    takes zero coefficients above them, which leave its sums as they are,
    bit for bit, and K enters its roundoff bound.
    """
    betas = np.array(beta, dtype=float).reshape(-1)
    u = np.abs(z).reshape(betas.size, -1)
    xmax = u.max(axis=1)
    rows = [_coefficients(b, math.log(m)) for b, m in zip(betas.tolist(), xmax.tolist())]
    terms = [0 if c is None else len(c) for c in rows]
    width = max(2, *terms)
    table = np.array([[0.0] * width if c is None else c + [0.0] * (width - len(c))
                      for c in rows])
    # columns[j] holds (a_2j, a_2j+1) of every row
    columns = table.T.reshape(-1, 2, betas.size, 1)[::-1]
    u /= xmax[:, None]
    y = u * u
    acc = np.repeat(columns[0], u.shape[1], axis=2)
    for col in columns[1:]:
        acc *= y
        acc += col
    even, odd = acc
    odd *= u
    neg = z.reshape(u.shape) < 0.0
    # u and y, spent, hold the sum and the difference, then |value| tol
    total = np.add(even, odd, out=u)
    value = np.where(neg, np.subtract(even, odd, out=y), total)
    total *= _EPS * np.array(terms, dtype=float)[:, None]  # the roundoff bound
    certified = total <= np.multiply(np.abs(value, out=y), tol, out=y)
    certified &= ~neg | ((value > 0.0) & (value <= 1.0))
    if None in rows:
        failed = [c is None for c in rows]
        value[failed], certified[failed] = 1.0, False
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


def _ml_neg_array(beta, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """E_beta over an array of nonpositive arguments, each certified to tol.

    The hot path of kernel evaluation. beta is a float for the whole array,
    or one beta per row of a 2-d z; each row takes the routes it takes
    alone, bit for bit: its own series (_series_array, all rows in one
    Horner loop), and one quadrature call for its uncertified elements.
    Raises NonConvergent when an element can be certified by neither the
    series nor the quadrature.
    """
    z = np.asarray(z, dtype=float)
    betas = np.array(beta, dtype=float).reshape(-1)
    rows = z.reshape(betas.size, -1)
    step = max(1, _ROWS_BLOCK // max(1, rows.shape[1]))
    if betas.size > step:  # rows in blocks of about _ROWS_BLOCK values
        out = np.empty(rows.shape)
        for lo in range(0, betas.size, step):
            out[lo : lo + step] = _ml_neg_array(betas[lo : lo + step], rows[lo : lo + step], tol)
        return out.reshape(z.shape)
    x = -rows
    beta_list = betas.tolist()
    if 1.0 in beta_list:  # E_1 = exp, on any argument
        out = np.exp(-x)
        rest = betas != 1.0
        if rest.any():
            out[rest] = _ml_neg_array(betas[rest], -x[rest], tol)
        return out.reshape(z.shape)
    if not (x >= 0.0).all():
        raise InvalidParam("_ml_neg_array needs nonpositive arguments")
    out = np.ones_like(x)
    # the roundoff bound eps * K * E_beta(x) <= tol * E_beta(-x) <= tol needs
    # exp(x^(1/beta)) below tol / eps, so larger arguments skip the series
    log_ratio = math.log(max(tol / _EPS, 1.0)) + 1.0
    x_cut = np.array([log_ratio**b for b in beta_list])[:, None]
    todo = (x > 0.0) & (x <= x_cut)
    counts = todo.sum(axis=1)
    width = int(counts.max())
    if width:
        # each row's series arguments packed to the left of a row of width,
        # zeros after them where rows differ in count
        live = counts > 0
        args = -x[todo]
        packed = Ellipsis
        if args.size < width * int(np.count_nonzero(live)):
            packed = np.arange(width) < counts[live, None]
            args, args[packed] = np.zeros(packed.shape), args
        value, certified = _series_array(betas[live], args.reshape(-1, width), tol)
        out[todo] = value[packed].ravel()
        todo[todo] = ~certified[packed].ravel()
    todo |= x > x_cut
    for i, rest in enumerate(todo.any(axis=1).tolist()):
        if rest:
            out[i, todo[i]] = _quadrature(beta_list[i], x[i, todo[i]], tol)
    return out.reshape(z.shape)


def _folded(l_lo: float, l_hi: float, h: float, span: float, pairs: int, unfolded,
            max_terms: int):
    """An SOE rule from the trapezoid nodes l = l_lo, l_lo + h, ... up to
    l_hi or just past it (rates e^l), its slow terms folded as in the module
    docstring; None if it keeps more than max_terms rates or has more than
    4 max_terms slow terms to fold.

    unfolded(cols)(l) gives the trapezoid weights of the nodes l, one column
    per pair in cols (an index array); a rule with pairs = 1 serves every
    pair with one column. Returns (rates, weights), rates ascending, where
    weights(cols)(ks) gives the rows ks of the folded weights for the pairs
    cols. A weights(cols) call folds in blocks of _FOLD_BLOCK slow weights.
    """
    if not (l_hi + math.log(span)) / h + _FOLD <= max_terms:  # the fast rates alone
        return None
    ell = l_lo + h * np.arange(math.ceil((l_hi - l_lo) / h) + 1)
    slow = int(np.searchsorted(ell, -math.log(span), side="right"))
    if _FOLD + ell.size - slow > max_terms or slow > 4 * max_terms:
        return None
    # Lagrange basis at the extrema x_m = -cos(theta_m) of T_N, N = _FOLD - 1,
    # in x = 2 r span - 1: L_m(x) = 2 / (N c_m) sum_j T_j(x_m) T_j(x) / c_j
    theta = math.pi * np.arange(_FOLD) / (_FOLD - 1)
    c = np.ones(_FOLD)
    c[[0, -1]] = 2.0
    j = np.arange(_FOLD)[:, None]
    x = np.clip(2.0 * span * np.exp(ell[:slow]) - 1.0, -1.0, 1.0)
    basis = (2.0 / (_FOLD - 1)) / c[:, None] * (
        (np.cos(j * (math.pi - theta)) / c[:, None]).T @ np.cos(j * np.arccos(x)))
    rates = np.concatenate((0.5 * (1.0 - np.cos(theta)) / span, np.exp(ell[slow:])))
    step = max(1, _FOLD_BLOCK // max(slow, 1))

    def weights(cols):
        cols = np.arange(pairs)[cols] if pairs > 1 else np.zeros(1, dtype=int)
        head = np.concatenate([basis @ unfolded(cols[a:a + step])(ell[:slow])
                               for a in range(0, cols.size, step)], axis=1)
        fast = unfolded(cols)

        def at(ks):
            idx = np.arange(rates.size)[ks]
            return np.concatenate((head[idx[idx < _FOLD]],
                                   fast(ell[idx[idx >= _FOLD] + (slow - _FOLD)])))
        return at
    return rates, weights


def _soe_rule(betas: np.ndarray, lams: np.ndarray, s_min: float, span: float,
              max_terms: int):
    """(rates, weights) of the SOE rule for E_beta(-lam s^beta), one (beta, lam)
    pair per node, on s in [s_min, span], in the form of _folded; None if it
    needs more than max_terms rates, beta reaches 1, or the spot check of the
    module docstring misses or raises NonConvergent. Every pair enters the
    rule and the check;
    weights gives one column for every pair when all pairs are the same.
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
    if np.all(betas == betas[0]) and np.all(lams == lams[0]):
        betas, lams = betas[:1], lams[:1]
    fixed = bool(np.all(betas == betas[0]))

    def unfolded(cols):
        density = _density(betas[0] if fixed else betas[cols], lams[cols], h)
        return lambda ell: density(ell[:, None])

    rule = _folded(float(np.min(tails)), math.log(40.0 / s_min), h, span, betas.size,
                   unfolded, max_terms)
    if rule is None:
        return None
    rates, weights = rule
    s = np.geomspace(s_min, span, 64)
    decays = np.exp(-np.outer(s, rates))
    picks = sorted({int(np.argmin(betas)), int(np.argmax(betas)),
                    int(np.argmin(lams)), int(np.argmax(lams))})
    try:
        wants = _ml_neg_array(betas[picks], np.array([-lams[i] * s ** betas[i] for i in picks]))
    except NonConvergent:
        return None
    for i, want in zip(picks, wants):
        got = decays @ weights([i])(slice(None))[:, 0]
        if not np.max(np.abs(got - want) / want) <= _SOE_TOL:
            return None
    return rule


def _power_rule(nus: np.ndarray, s_min: float, span: float, max_terms: int):
    """(rates, weights) of the SOE rule for s^(-nu), one nu per pair, on s in
    [s_min, span], in the form of _folded; None if some nu leaves [0, 1) or
    the rule needs more than max_terms or _POWER_TERMS rates. Weights give
    one column for all pairs when every nu is the same.

    The rule is proven, not checked. Take its rates and weights as exact,
    u = eps / 2 and K rates. For every nu in [0, 1) and s in [s_min, span],
    its error relative to s^(-nu) is at most the sum of five terms:

    (i) Truncation. For nu > 0, f(l) = exp(nu l - e^l s) / Gamma(nu) is
        analytic in |Im l| < pi/2 and int |f(x + iy)| dx = (s cos y)^(-nu)
        exactly. So by Trefethen and Weideman (SIAM Rev. 56(3), 2014,
        Thm 5.1) the untruncated rule, on any shift of its nodes, is within
        min over 0 < y < pi/2 of 2 (cos y)^(-nu) / (exp(2 pi y / h) - 1),
        relative.
        That is 5.0e-16 at nu = 0, 5.6e-15 at 0.5, 3.0e-14 at 0.99 and
        3.1e-14 as nu -> 1. At nu = 0 every weight but the lump's is 0.
    (ii) Left tail. Each node l_k <= l_lo has moved from exp(-e^(l_k) s) to
        exp(-e^(l_lo) s), by less than e^(l_lo) s. Their weights add to the
        lump's, e^(nu l_lo) c(nu) with c(nu) = h nu / (1 - e^(-h nu)) /
        Gamma(1 + nu). Relative to s^(-nu) that is at most
        c(nu) (e^(l_lo) span)^(1 + nu) = c(nu) (_SOE_EPS / 2)^((1 + nu) /
        (1 + nu_min)) <= 6.1e-16.
    (iii) Right cut. The dropped nodes have x = e^l s >= 40 e^h, where
        x^nu e^(-x) more than halves from node to node. So they add at most
        2 h nu / Gamma(1 + nu) x^nu e^(-x) at x = 40 e^h, below 1e-21.
    (iv) Fold. A slow term w exp(-r s) becomes w p(r), p the degree-13
        interpolant in r of exp(-r s) at the 14 Chebyshev-Lobatto rates on
        [0, 1/span]. In x = 2 r span - 1 the 14th derivative is at most
        (s / (2 span))^14 <= 2^-14 and the nodal polynomial at most 2^-12,
        so |p - exp(-r s)| <= 2^-26 / 14! = 1.7e-19. The slow weights, a
        left sum of e^(nu l) up to -ln(span), add to
        W <= e^(nu h) span^(-nu) / Gamma(1 + nu), so the term is
        1.7e-19 e^(nu h) / Gamma(1 + nu) <= 2.3e-19.
    (v) Rounding. The K-term sum has K - 1 additions, and each term a
        product, an exp within an ulp and the rounding of r s: to first
        order, (K + 3) u times the sum of |terms|. The fast terms are
        positive and at most the untruncated rule, 1 + (i). The folded ones
        are at most Lambda W, with the fold's Lebesgue constant
        Lambda <= 1 + (2 / pi) ln 14 = 2.68 (Trefethen, "Approximation
        Theory and Approximation Practice", Thm 15.2). So (v) is
        (K + 3) u (1 + (i) + Lambda e^(nu h) / Gamma(1 + nu)).

    At K = 71 (span / s_min = 2^17) the sum is at most 6.9e-14, and it stays
    within _SOE_TOL while K <= _POWER_TERMS = 132 (9.95e-14 as nu -> 1),
    that is span / s_min <= 3e12. Term (v) passes _SOE_TOL at K = 133, so
    steeper warps are refused: psi = t^12 on [0.001, 1] at n = 1024 would
    need K = 301, with a bound of 1.9e-13, and takes rows.
    """
    if not (np.min(nus) >= 0.0 and np.max(nus) < 1.0):
        return None
    if np.all(nus == nus[0]):
        nus = nus[:1]
    h = math.pi ** 2 / math.log(4.0 / _SOE_EPS)
    # below l_lo, exp(-e^l s) is 1 to _SOE_EPS / 2 relative for s <= span
    l_lo = math.log(0.5 * _SOE_EPS) / (1.0 + float(np.min(nus))) - math.log(span)
    gammas = np.array(list(map(math.gamma, (1.0 + nus).tolist())))
    hn = h * nus
    scales = hn / gammas
    # the factor of node l_lo, which also takes the geometric sum of the
    # nodes below it, h nu / (1 - e^(-h nu)) / Gamma(1 + nu): 1 at nu = 0
    lo_scales = np.divide(hn, -np.expm1(-hn), out=np.ones_like(hn), where=hn > 0.0) / gammas

    def unfolded(cols):
        nu, scale, lo_scale = nus[cols], scales[cols], lo_scales[cols]

        def at(ell):
            w = np.multiply.outer(ell, nu)
            np.exp(w, out=w)
            w *= scale
            lowest = ell == l_lo
            if lowest.any():
                w[lowest] = np.exp(l_lo * nu) * lo_scale
            return w
        return at

    return _folded(l_lo, math.log(40.0 / s_min), h, span, nus.size, unfolded,
                   min(max_terms, _POWER_TERMS))


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

    Positive for every finite r > 0 when 0 < gamma < 1; its total mass is 1.
    It grows like r^(gamma - 1) as r -> 0: where it passes the float range
    (r = 5e-324 at gamma = 0.01) the value is inf. At r = inf it is 0.0, the
    limit.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParam(f"gamma must lie in (0, 1), got {gamma}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise InvalidParam("spectral density requires r > 0")
    ell = np.log(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _density(gamma, 1.0)(ell) / arr
        # where e^(gamma l) is subnormal the denominator is 1: the density is
        # sin(gamma pi) / pi r^(gamma - 1), its power taken in logs
        out = np.where(gamma * ell < _LOG_TINY,
                       math.sin(math.pi * min(gamma, 1.0 - gamma)) / math.pi
                       * np.exp((gamma - 1.0) * ell), out)
    out = np.where(arr == np.inf, 0.0, out)
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
