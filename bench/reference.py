"""Reference values computed without any fracvar code.

Everything the benchmark checks an output against comes from here:

* the erfc oracle E_{1/2}(-x) = erfcx(x) = exp(x^2) erfc(x), in double
  precision from the stdlib ``math.erfc`` and, for large x, the asymptotic
  series, and in mpmath precision for quadrature;
* the defining power series of E_beta(z) in mpmath precision (the track
  kernel on [0, 1] keeps |z| <= 7/3, where the series converges fast);
* closed forms: criterion 04 (exponential kernel applied to f = t), the
  classical Caputo and Riemann-Liouville derivatives and the variable-order
  integral of monomials, and the linear solves on the Caputo-Fabrizio and
  Atangana-Baleanu kernels;
* mpmath tanh-sinh quadrature of the kernel integrals at a sample of nodes,
  for trig data and for the track kernel;
* fixed-step RK4 marches of the ODEs that the compatibility-corrected
  Caputo-Fabrizio equation (for the nonlinear solve) and the
  exponential-kernel derivatives (for the boundedness probe) reduce to.

mpmath serves the benchmark only; the package under test never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

mp.mp.dps = 20
_SQRT_PI = math.sqrt(math.pi)


# --- Mittag-Leffler references -------------------------------------------------


def erfcx(x: float) -> float:
    """exp(x^2) erfc(x) = E_{1/2}(-x) for x >= 0, relative error about 1e-14."""
    if x < 0.0:
        raise ValueError(f"erfcx oracle needs x >= 0, got {x}")
    if x <= 10.0:
        return math.exp(x * x) * math.erfc(x)
    # erfcx(x) ~ 1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k; at
    # x > 10 the terms shrink by (2k-1)/(2x^2) < 1/2 for the first 50 of them
    inv = 1.0 / (2.0 * x * x)
    term = total = 1.0
    for k in range(1, 50):
        term *= -(2 * k - 1) * inv
        total += term
        if abs(term) < 1e-17 * total:
            break
    return total / (x * _SQRT_PI)


def _mp_erfcx(x):
    return mp.exp(x * x) * mp.erfc(x)


class MLSeries:
    """E_beta(z) for |z| <= zmax by its defining series in mpmath precision."""

    def __init__(self, beta: float, zmax: float):
        beta = mp.mpf(beta)
        coeffs = []
        k = 0
        # stop once zmax^k / Gamma(beta k + 1) is far below working precision
        while True:
            c = 1 / mp.gamma(beta * k + 1)
            coeffs.append(c)
            if k > 4 and c * mp.mpf(zmax) ** k < mp.mpf(10) ** (-mp.mp.dps - 5):
                break
            k += 1
            if k > 2000:
                raise ValueError("Mittag-Leffler series reference did not converge")
        self.coeffs = coeffs[::-1]

    def __call__(self, z):
        acc = mp.mpf(0)
        for c in self.coeffs:
            acc = acc * z + c
        return acc


# --- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """The bounded kernel H(t, tau) = E_beta(-lam(t) (psi(t) - psi(tau))^gamma).

    ``alpha`` is (c0, c1) for alpha(t) = c0 + c1 t; gamma/beta of None track
    alpha(t); ``warp`` is "t" or "ln(t)". The normalization M is 1, so the
    prefactor is 1 / (1 - alpha(t)).
    """

    alpha: tuple[float, float]
    gamma: float | None
    beta: float | None
    warp: str = "t"

    def alpha_at(self, t):
        return mp.mpf(self.alpha[0]) + mp.mpf(self.alpha[1]) * t

    def psi(self, t):
        return t if self.warp == "t" else mp.log(t)

    def dpsi(self, t):
        return mp.mpf(1) if self.warp == "t" else 1 / t

    def row(self, t, a):
        """tau -> H(t, tau) for a fixed output node t >= tau >= a."""
        al = self.alpha_at(t)
        lam = al / (1 - al)
        gamma = al if self.gamma is None else mp.mpf(self.gamma)
        beta = al if self.beta is None else mp.mpf(self.beta)
        psit = self.psi(t)
        if beta == 1:
            return lambda tau: mp.exp(-lam * (psit - self.psi(tau)) ** gamma)
        if beta == mp.mpf(0.5):
            return lambda tau: _mp_erfcx(lam * (psit - self.psi(tau)) ** gamma)
        span = float(psit - self.psi(a))
        series = MLSeries(float(beta), float(lam) * max(span, 1.0) ** float(gamma))
        return lambda tau: series(-lam * (psit - self.psi(tau)) ** gamma)

    def prefactor(self, t):
        return 1 / (1 - self.alpha_at(t))


def _segments(a, t):
    # split long ranges so tanh-sinh sees the diagonal behaviour at scale 1
    if t - a > 2:
        return [a, t - 1, t]
    return [a, t]


def caputo_ns(kernel: Kernel, fprime, a: float, t: float) -> float:
    """prefactor(t) * int_a^t H(t, tau) f'(tau) dtau."""
    t, a = mp.mpf(t), mp.mpf(a)
    if t == a:
        return 0.0
    row = kernel.row(t, a)
    value = mp.quad(lambda tau: row(tau) * fprime(tau), _segments(a, t))
    return float(kernel.prefactor(t) * value)


def _inner_rl(kernel: Kernel, f, a, s):
    row = kernel.row(s, a)
    return mp.quad(lambda tau: kernel.dpsi(tau) * row(tau) * f(tau),
                   _segments(mp.mpf(a), s))


def rl_ns(kernel: Kernel, f, fprime, a: float, t: float) -> float:
    """prefactor(t) / psi'(t) * d/dt int_a^t psi'(tau) H(t, tau) f(tau) dtau.

    For a fixed-parameter kernel on the identity warp H depends on t - tau
    only, and the derivative is H(t - a) f(a) + int_a^t H(t - tau) f'(tau)
    dtau. Otherwise (track kernel) a fourth-order central difference of the
    inner integral, taken in 20-digit arithmetic, stands in.
    """
    t = mp.mpf(t)
    a = mp.mpf(a)
    if kernel.warp == "t" and kernel.gamma is not None and kernel.beta is not None \
            and kernel.alpha[1] == 0.0:
        row = kernel.row(t, a)
        inner = row(a) * f(a)
        if t > a:
            inner += mp.quad(lambda tau: row(tau) * fprime(tau), _segments(a, t))
    else:
        d = mp.mpf("1e-4")
        inner = (_inner_rl(kernel, f, a, t - 2 * d) - 8 * _inner_rl(kernel, f, a, t - d)
                 + 8 * _inner_rl(kernel, f, a, t + d)
                 - _inner_rl(kernel, f, a, t + 2 * d)) / (12 * d)
    return float(kernel.prefactor(t) / kernel.dpsi(t) * inner)


def criterion_04(alpha: float, t: float) -> float:
    """Caputo-type derivative of f = t under the exponential kernel (M = 1)."""
    return (1.0 - math.exp(-alpha * t / (1.0 - alpha))) / alpha


# --- weakly singular family on monomials (identity warp, a = 0) -----------------


def caputo_classical_monomials(coeffs, alpha: float, t: float) -> float:
    """sum_k c_k D^alpha t^k with D^alpha t^k = k!/Gamma(k+1-alpha) t^(k-alpha)."""
    return sum(c * math.gamma(k + 1) / math.gamma(k + 1 - alpha) * t ** (k - alpha)
               for k, c in enumerate(coeffs) if k >= 1 and c != 0.0)


def rl_classical_monomials(coeffs, alpha: float, t: float) -> float:
    """Riemann-Liouville derivative; unlike Caputo the constant term survives."""
    return sum(c * math.gamma(k + 1) / math.gamma(k + 1 - alpha) * t ** (k - alpha)
               for k, c in enumerate(coeffs) if c != 0.0)


def integral_monomials(coeffs, alpha_t: float, t: float) -> float:
    """sum_k c_k I^alpha t^k with I^alpha t^k = k!/Gamma(k+1+alpha) t^(k+alpha)."""
    return sum(c * math.gamma(k + 1) / math.gamma(k + 1 + alpha_t) * t ** (k + alpha_t)
               for k, c in enumerate(coeffs) if c != 0.0)


# --- solver references -----------------------------------------------------------


def linear_cf_solution(alpha: float, k: float, u0: float, t: float) -> float:
    """D u = -k u on the Caputo-Fabrizio kernel, compatibility-corrected."""
    return u0 * math.exp(-k * alpha * t / (1.0 + k * (1.0 - alpha)))


def linear_ab_solution(alpha: float, k: float, u0: float, t: float) -> float:
    """D u = -k u on the beta = gamma = alpha = 1/2 kernel, compatibility-corrected.

    The Laplace transform gives u = u0 E_{1/2}(-mu t^{1/2}) with
    mu = k alpha / (1 + k (1 - alpha)).
    """
    mu = k * alpha / (1.0 + k * (1.0 - alpha))
    return u0 * erfcx(mu * math.sqrt(t))


def _rk4(rhs, y0: float, b: float, n: int, substeps: int) -> np.ndarray:
    """Classical RK4 for y' = rhs(t, y) on [0, b]; y at the n + 1 grid nodes."""
    h = b / (n * substeps)
    y = y0
    out = [y0]
    for i in range(n):
        for j in range(substeps):
            t = (i * substeps + j) * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(y)
    return np.array(out)


def cf_ode_solution(alpha: float, F, F_t, F_u, u0: float, b: float, n: int,
                    substeps: int = 4) -> np.ndarray:
    """Solve the compatibility-corrected Caputo-Fabrizio equation on [0, b].

    With H = exp(-lam (t - tau)) and P = 1/(1 - alpha), the equation
    P int_0^t H u' = F(t, u) - H(t, 0) F(0, u0) differentiates to the ODE
    u' = (lam F + F_t) / (P - F_u), marched by RK4 with ``substeps`` steps
    per grid panel. Returns u at the n + 1 grid nodes.
    """
    lam = alpha / (1.0 - alpha)
    P = 1.0 / (1.0 - alpha)
    return _rk4(lambda t, u: (lam * F(t, u) + F_t(t, u)) / (P - F_u(t, u)),
                u0, b, n, substeps)


def cf_operator_on_grid(op: str, alpha: float, f, fprime, n: int,
                        substeps: int = 8) -> np.ndarray:
    """Exponential-kernel derivative of f on [0, 1] (identity warp, M = 1).

    y = int_0^t exp(-lam (t - tau)) g(tau) dtau solves y' = g - lam y, so the
    Caputo type is P y with g = f', and the RL type is P (f - lam y) with
    g = f, since H(t, t) = 1 and d/dt H = -lam H.
    """
    lam = alpha / (1.0 - alpha)
    P = 1.0 / (1.0 - alpha)
    g = fprime if op == "caputo" else f
    y = _rk4(lambda t, y: g(t) - lam * y, 0.0, 1.0, n, substeps)
    if op == "caputo":
        return P * y
    return P * (np.array([f(i / n) for i in range(n + 1)]) - lam * y)
