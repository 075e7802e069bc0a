"""One-parameter Mittag-Leffler evaluation against independent oracles.

The order-1/2 oracle is the classical identity E_{1/2}(-x) = exp(x^2) erfc(x),
computed here through math.erfc so none of the package's own machinery is
involved. Expected values below were frozen from that identity. For other
orders the oracle is the large-argument asymptotic series
E_beta(-x) ~ sum_k (-1)^(k+1) x^(-k) / Gamma(1 - beta k).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracvar import mlf
from fracvar.errors import InvalidParam, NonConvergent
from fracvar.mlf import (
    MLParams,
    _ml_neg_array,
    _series,
    ml_eval,
    ml_eval_spectral,
    spectral_density,
)


def erfc_oracle(x: float) -> float:
    """E_{1/2}(-x) for x >= 0, by the exp(x^2) erfc(x) identity.

    Above x = 15 the direct product would overflow/underflow, so the
    asymptotic expansion of scaled erfc takes over (its truncation error
    there is below 1e-15 relative).
    """
    if x < 15.0:
        return math.exp(x * x) * math.erfc(x)
    s = term = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) / (2.0 * x * x)
        s += term
    return s / (x * math.sqrt(math.pi))


def asymptotic_oracle(beta: float, x: float) -> tuple[float, float]:
    """sum_k (-1)^(k+1) x^(-k) / Gamma(1 - beta k), cut at its smallest term.

    Returns (sum, bound on the smallest term). 1/Gamma(1 - beta k) is taken
    by reflection as Gamma(beta k) sin(pi beta k) / pi; for beta > 1/2 the
    sine is formed from 1 - beta, which float arithmetic holds exactly.
    """
    total, smallest = 0.0, math.inf
    for k in range(1, 400):
        envelope = math.exp(math.lgamma(beta * k) - k * math.log(x)) / math.pi
        if envelope > smallest:
            break
        smallest = envelope
        if beta > 0.5:
            total += envelope * math.sin(math.pi * (1.0 - beta) * k)
        else:
            total += (-1) ** (k + 1) * envelope * math.sin(math.pi * beta * k)
    return total, smallest


# frozen from erfc_oracle at x = 0.5, 1, 2, 5
ORACLE_HALF = {
    0.5: 0.6156903441929259,
    1.0: 0.4275835761558070,
    2.0: 0.2553956763105057,
    5.0: 0.11070463773306866,
}


@pytest.mark.parametrize("x,expected", sorted(ORACLE_HALF.items()))
def test_order_half_against_erfc_identity(x, expected):
    # every route certifies MLParams.tol = 1e-12 relative; rel 1e-11
    # leaves room for the oracle's own rounding
    got = ml_eval(MLParams(beta=0.5), -x)
    assert got == pytest.approx(expected, rel=1e-11, abs=0.0)
    # and the frozen numbers really are the oracle's
    assert expected == pytest.approx(erfc_oracle(x), rel=1e-15, abs=0.0)


def test_value_at_zero_is_one():
    for beta in (0.1, 0.3, 0.5, 0.77, 1.0):
        assert ml_eval(MLParams(beta=beta), 0.0) == 1.0


def test_order_one_reduces_to_exp():
    for z in (-3.0, -0.5, 0.25, 2.0):
        assert ml_eval(MLParams(beta=1.0), z) == pytest.approx(math.exp(z), rel=1e-15, abs=0.0)


def test_cancellation_region_order_half():
    # series certification must hand these to the spectral route, not
    # return the roundoff residue of huge alternating terms
    for x in (15.0, 25.5, 40.0):
        got = ml_eval(MLParams(beta=0.5), -x)
        assert got == pytest.approx(erfc_oracle(x), rel=1e-11, abs=0.0), x


def test_far_negative_argument_skips_series():
    # far beyond the series' reach: spectral quadrature only
    got = ml_eval(MLParams(beta=0.5), -60.0)
    assert got == pytest.approx(erfc_oracle(60.0), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("x", [7.5, 90.0, 150.0, 1e3, 3777.7, 1e4])
def test_order_half_far_arguments_against_erfc_identity(x):
    # E_0.5(-90) once came back as 1.2e-12 against 6.27e-3
    assert ml_eval(MLParams(beta=0.5), -x) == pytest.approx(erfc_oracle(x), rel=1e-11,
                                                                  abs=0.0)


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("x", [1e100, 1e300])
def test_huge_negative_argument_leading_term(beta, x):
    # E_beta(-x) = 1 / (x Gamma(1 - beta)) + O(x^-2); a density that formed
    # x^2 would overflow to zero weight and certify E = 0
    expected = 1.0 / (x * math.gamma(1.0 - beta))
    assert ml_eval(MLParams(beta=beta), -x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_quadrature_below_rounding_error_raises():
    # no route can certify 1e-15 relative there; an uncertified value is
    # never returned
    with pytest.raises(NonConvergent):
        ml_eval(MLParams(beta=0.5, tol=1e-15), -60.0)


@pytest.mark.parametrize("z", [0.5, 5.0, 20.0])
def test_positive_argument_order_half(z):
    # E_{1/2}(z) = exp(z^2) erfc(-z); at z = 20 the sum runs past k = 2000,
    # where 1 / Gamma(k/2 + 1) alone underflows
    expected = math.exp(z * z) * math.erfc(-z)
    assert ml_eval(MLParams(beta=0.5), z) == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_huge_positive_argument_raises():
    with pytest.raises(NonConvergent):
        ml_eval(MLParams(beta=0.5), 75.0)


def test_params_validation():
    with pytest.raises(InvalidParam):
        MLParams(beta=0.0)
    with pytest.raises(InvalidParam):
        MLParams(beta=1.2)
    with pytest.raises(InvalidParam):
        MLParams(beta=0.5, tol=0.5)


class TestSpectralDensity:
    def test_closed_form_at_order_half(self):
        # K_{1/2}(r) = (1/pi) / (sqrt(r) (r + 1)); at r = 1 that is 1/(2 pi)
        assert spectral_density(0.5, 1.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                           rel=1e-14)
        r = 0.37
        assert spectral_density(0.5, r) == pytest.approx(
            1.0 / (math.pi * math.sqrt(r) * (r + 1.0)), rel=1e-13)

    def test_positive_on_positive_axis(self):
        r = np.geomspace(1e-6, 1e6, 200)
        for gamma in (0.2, 0.5, 0.8):
            assert np.all(spectral_density(gamma, r) > 0.0)

    def test_unit_mass(self):
        # integral of the density is E_gamma(0) = 1; in l = ln r the
        # integrand decays like e^(-gamma |l|) at both ends, so the trapezoid
        # rule converges exponentially
        for gamma in (0.3, 0.5, 0.9):
            m = math.floor(800.0 / gamma)
            r = np.exp(0.05 * np.arange(-m, m + 1))
            assert 0.05 * np.sum(spectral_density(gamma, r) * r) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.99, 0.999, 0.9999])
    def test_accurate_near_order_one(self, gamma):
        # K_gamma(1) = sin(pi e) / (4 pi sin^2(pi e / 2)), e = 1 - gamma; the
        # denominator 2 + 2 cos(gamma pi) cancels when formed directly
        e = 1.0 - gamma
        expected = math.sin(math.pi * e) / (4.0 * math.pi * math.sin(0.5 * math.pi * e) ** 2)
        assert spectral_density(gamma, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_range_ends(self):
        # near r = 0 the density grows like r^(gamma - 1): at gamma = 0.01 and
        # r = 5e-324 it is about 1e318, past the float range, so inf; at
        # r = inf it is its limit 0
        assert spectral_density(0.01, 5e-324) == math.inf
        assert spectral_density(0.01, math.inf) == 0.0
        got = spectral_density(0.01, np.array([5e-324, 1.0, math.inf]))
        assert got[0] == math.inf and 0.0 < got[1] < math.inf and got[2] == 0.0

    def test_subnormal_power_taken_in_logs(self):
        # at r = 5e-324 and gamma = 0.99, e^(gamma ln r) is subnormal; the
        # 30-digit value of sin(gamma pi) / pi r^(gamma - 1) /
        # (r^(2 gamma) + 2 r^gamma cos(gamma pi) + 1) there
        assert spectral_density(0.99, 5e-324) == pytest.approx(
            17.099787463684605570737083169, rel=1e-13, abs=0.0)

    def test_gamma_validation(self):
        with pytest.raises(InvalidParam):
            spectral_density(1.0, 1.0)
        with pytest.raises(InvalidParam):
            ml_eval_spectral(0.5, -1.0)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_series_and_spectral_cross_validate(gamma, t):
    """The two routes share no code; agreement certifies both."""
    series_value, certified = _series(gamma, -(t ** gamma), 1e-9)
    assert certified
    spectral_value = ml_eval_spectral(gamma, t)
    assert abs(series_value - spectral_value) <= 1e-8


@given(st.floats(min_value=0.0, max_value=45.0),
       st.floats(min_value=0.0, max_value=45.0),
       st.sampled_from([0.4, 0.6, 0.8, 1.0]))
@settings(max_examples=60, deadline=None)
def test_monotone_decreasing_on_negative_axis(x1, x2, beta):
    lo, hi = sorted((x1, x2))
    params = MLParams(beta=beta)
    v_lo, v_hi = ml_eval(params, -lo), ml_eval(params, -hi)
    assert 0.0 < v_hi <= v_lo + 1e-9
    assert v_lo <= 1.0


def test_array_helper_matches_scalar():
    z = -np.concatenate([np.linspace(0.0, 30.0, 97), [90.0],
                         np.geomspace(31.0, 1e4, 60)])
    out = _ml_neg_array(0.5, z)
    ref = np.array([ml_eval(MLParams(beta=0.5), float(v)) for v in z])
    assert np.max(np.abs(out - ref) / np.maximum(np.abs(ref), 1e-30)) < 1e-11
    oracle = np.array([erfc_oracle(-float(v)) for v in z])
    assert np.max(np.abs(out - oracle) / oracle) < 1e-11


def _check_against_asymptotics(beta, x1, x2, v1, v2):
    """Monotone, inside (0, 1], and on the asymptotic series where it holds."""
    assert 0.0 <= v2 <= v1 <= 1.0
    # positive, unless exp(-x) itself lies below the smallest double
    assert v2 > 0.0 or (beta == 1.0 and math.exp(-x2) == 0.0)
    for x, v in ((x1, v1), (x2, v2)):
        if x >= 1.0 and beta < 1.0:
            total, smallest = asymptotic_oracle(beta, x)
            if total > 0.0 and smallest <= 1e-13 * total:
                assert v == pytest.approx(total, rel=1e-11, abs=0.0), (beta, x)


@given(st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.0, max_value=1e4),
       st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_property_on_whole_negative_axis(beta, x1, x2):
    x1, x2 = sorted((x1, x2))
    v1, v2 = _ml_neg_array(beta, np.array([-x1, -x2]))
    _check_against_asymptotics(beta, x1, x2, v1, v2)


@given(st.floats(min_value=1e-3, max_value=0.1, exclude_max=True),
       st.floats(min_value=0.0, max_value=1e4),
       st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_small_orders_certified_or_refused(beta, x1, x2):
    # below beta = 0.1 a value may be refused, but never returned wrong
    x1, x2 = sorted((x1, x2))
    try:
        v1, v2 = _ml_neg_array(beta, np.array([-x1, -x2]))
    except NonConvergent:
        return
    _check_against_asymptotics(beta, x1, x2, v1, v2)


def test_array_helper_beta_one_is_exp():
    z = -np.linspace(0.0, 5.0, 11)
    assert np.array_equal(_ml_neg_array(1.0, z), np.exp(z))


def test_rows_of_betas_match_one_call_per_row(monkeypatch):
    # one beta per row of a 2-d argument gives, bit for bit, what each row
    # gives alone: series-only rows; kernel rows of tracked 0.5..0.7 at
    # n = 1024, whose largest arguments the series leaves uncertified; rows
    # of tracked 0.75..0.99 past the series cut, near the pole (angular
    # quadrature); a row at beta = 1; zero arguments, and arguments above
    # the cut of a beta = 1/2 row
    s = np.linspace(0.0, 1.0, 1025)
    alphas = [0.5, 0.55, 0.673, 0.7, 0.8, 0.95, 0.99]
    betas = np.array(alphas + [1.0, 0.5])
    z = np.array([-(a / (1.0 - a)) * s**a for a in alphas]
                 + [-3.0 * s, -np.concatenate((s[:513], np.geomspace(3.1, 400.0, 512)))])
    quadratures = []
    real = mlf._quadrature

    def counted(beta, x, tol):
        quadratures.append(beta)
        return real(beta, x, tol)

    monkeypatch.setattr(mlf, "_quadrature", counted)
    alone = np.array([_ml_neg_array(float(b), row) for b, row in zip(betas, z)])
    assert sorted(set(quadratures)) == [0.5, 0.673, 0.7, 0.8, 0.95, 0.99]
    assert np.array_equal(alone[-2], np.exp(z[-2]))
    quadratures.clear()
    assert np.array_equal(_ml_neg_array(betas, z), alone)
    # one quadrature call per row with uncertified elements, as alone
    assert quadratures == [0.673, 0.7, 0.8, 0.95, 0.99, 0.5]
    assert np.array_equal(_ml_neg_array(betas[::-1].copy(), z[::-1]), alone[::-1])


def test_spot_check_evaluates_its_pairs_in_one_call(monkeypatch):
    # the SOE rule's spot check takes one evaluator call for its extreme
    # (beta, lam) pairs, each row as alone, and keeps its verdicts
    betas = np.linspace(0.5, 0.7, 513)
    lams = betas / (1.0 - betas)
    calls = []
    real = mlf._ml_neg_array

    def counted(beta, z, tol=1e-12):
        calls.append(np.shape(z))
        return real(beta, z, tol)

    monkeypatch.setattr(mlf, "_ml_neg_array", counted)
    assert mlf._soe_rule(betas, lams, 1.0 / 1024, 1.0, 1024) is not None
    assert calls == [(2, 64)]
    monkeypatch.setattr(mlf, "_SOE_TOL", 0.0)
    assert mlf._soe_rule(betas, lams, 1.0 / 1024, 1.0, 1024) is None


def test_array_helper_refuses_positive_arguments():
    with pytest.raises(InvalidParam, match="nonpositive"):
        _ml_neg_array(0.5, np.array([-1.0, 0.5]))


def test_order_one_overflow_raises():
    with pytest.raises(NonConvergent, match="overflows"):
        ml_eval(MLParams(1.0), 1000.0)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_spectral_density_needs_positive_r(r):
    with pytest.raises(InvalidParam, match="r > 0"):
        spectral_density(0.5, r)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5])
def test_spectral_route_needs_gamma_inside_the_unit_interval(gamma):
    with pytest.raises(InvalidParam, match="gamma must lie in"):
        ml_eval_spectral(gamma, 1.0)


def test_spectral_route_at_zero_is_one():
    assert ml_eval_spectral(0.5, 0.0) == 1.0


def test_trapezoid_raises_when_the_sums_do_not_settle():
    # a unit integrand on [0, 1] has no end-weight halving, so the sums read
    # 1 + h: after _REFINE halvings the gap h / 2 is still far above 1e-10
    def ones(rows, nodes):
        return np.full(rows.size, float(nodes.size))

    with pytest.raises(NonConvergent, match="missed tol"):
        mlf._trapezoid(ones, 0.0, 1.0, 1e-10, np.zeros(1))
