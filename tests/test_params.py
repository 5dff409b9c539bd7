import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ratio_bound_holds
from cllb.errors import DomainError, ParameterError
from cllb.params import (
    DerivedConstants,
    ModelParams,
    derive,
    log_t_ratio,
    log_t_ratio_bound,
    psi,
    t_seq,
    validate,
)

# 50-digit reference values (mpmath) for the derived constants, keyed by the
# exact double-precision inputs
CONSTANTS_TABLE = [
    # (alpha, hurst, theta, c_h, c21, kappa)
    (2.0, 0.5, 0.25, 0.15915494309189533577, 0.39894228040143267794, 0.75112554446494248286),
    (1.5, 0.75, 1.0 / 3.0, 0.14960335515053725423, 0.63619572522863025955, 0.89529681450828701331),
    (1.2, 0.9, 0.41666666666666668209, 0.082452469409151347825, 0.81776751481214800928, 0.95807776287570162158),
    (2.0, 0.8, 0.40000000000000002220, 0.13373984546548750398, 0.66812441004204042940, 0.87605559797803718739),
    (1.8, 0.3, 0.11111111111111111454, 0.11504819084081604909, 0.39931671618640015637, 0.82741990815237188631),
]

# psi cross-check table: (t, theta, 50-digit value)
PSI_TABLE = [
    (0.05, 0.25, 0.46203212127729287),
    (0.2, 0.25, 0.80515963811307555),
    (0.3, 0.25, 1.1275093921740257),
    (1e-08, 0.25, 0.0076541543154997532),
    (1e-30, 0.25, 2.204351029132791e-8),
    (0.05, 0.4, 0.29072037571090491),
    (0.2, 0.45, 0.67699832283854831),
    (0.01, 0.1, 0.60479889338150244),
    (0.0001, 1.0 / 3.0, 0.035579051486985286),
    (0.33, 0.49, 1.7679205103145698),
]

T_SEQ_TABLE = [
    (1, 0.5, 0.36787944117144232),
    (2, 1.0, 0.01831563888873418),
    (3, 0.5, 0.0055378307143824734),
    (5, 0.7, 1.9982046111341637e-7),
    (4, 2.0, 1.6038108905486379e-28),
]


class TestValidate:
    def test_heat_case_is_valid(self):
        p = ModelParams(2.0, 0.5, 1.0)
        assert validate(p) is p

    @pytest.mark.parametrize("alpha", [2.5, 1.0, 0.5, 3.0, -1.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            validate(ModelParams(alpha, 0.5))

    def test_hurst_at_lower_boundary_rejected(self):
        # H = (2 - alpha)/2 exactly is excluded; the message carries the bound
        with pytest.raises(ParameterError, match="0.25"):
            validate(ModelParams(1.5, 0.25))

    @pytest.mark.parametrize("hurst", [1.0, 1.2, 0.0, -0.5])
    def test_hurst_out_of_range(self, hurst):
        with pytest.raises(ParameterError, match="hurst"):
            validate(ModelParams(2.0, hurst))

    def test_hurst_conditioning_limit(self):
        with pytest.raises(ParameterError, match="conditioning"):
            validate(ModelParams(2.0, 1.0 - 1e-8))

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(ParameterError, match="beta"):
            validate(ModelParams(2.0, 0.5, beta))


class TestDerive:
    @pytest.mark.parametrize("alpha,hurst,theta,c_h,c21,kappa", CONSTANTS_TABLE)
    def test_against_high_precision_references(self, alpha, hurst, theta, c_h, c21, kappa):
        consts = derive(ModelParams(alpha, hurst))
        assert consts.theta == pytest.approx(theta, rel=1e-14)
        assert consts.c_h == pytest.approx(c_h, rel=1e-13)
        assert consts.c21 == pytest.approx(c21, rel=1e-13)
        assert consts.kappa == pytest.approx(kappa, rel=1e-13)

    def test_heat_case_closed_forms(self):
        # theta = 1/4, c21 = 1/sqrt(2 pi), kappa = pi^(-1/4)
        consts = derive(ModelParams(2.0, 0.5))
        assert consts.theta == 0.25
        assert consts.c21 == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
        assert consts.kappa == pytest.approx(math.pi ** -0.25, rel=1e-15)

    def test_kappa_identity(self):
        # kappa^2 * pi * alpha * theta = H Gamma(2H) Gamma(1-2 theta) sin(pi H)
        for alpha, hurst, *_ in CONSTANTS_TABLE:
            consts = derive(ModelParams(alpha, hurst))
            lhs = consts.kappa ** 2 * math.pi * alpha * consts.theta
            rhs = (
                hurst
                * math.gamma(2 * hurst)
                * math.gamma(1 - 2 * consts.theta)
                * math.sin(math.pi * hurst)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1.001, 2.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_admissible_region_properties(self, alpha, frac):
        # map frac into the open admissible hurst interval (below the
        # conditioning cap); derive() itself asserts the two c21 forms agree
        lo = (2.0 - alpha) / 2.0
        hi = 1.0 - 2e-6 * alpha
        hurst = lo + frac * (hi - lo)
        if not lo < hurst < hi:
            return
        consts = derive(ModelParams(alpha, hurst))
        assert 0.0 < consts.theta < 0.5
        for value in (consts.c_h, consts.c21, consts.kappa):
            assert math.isfinite(value) and value > 0.0


class TestPsi:
    def test_loglog_collapses_at_e_to_minus_e(self):
        # t = e^-e makes loglog(1/t) = 1, so psi = t^theta
        t = math.exp(-math.e)
        for theta in (0.1, 0.25, 0.49):
            assert psi(t, theta) == pytest.approx(t ** theta, rel=1e-15)
        assert psi(t, 0.25) == pytest.approx(0.50683465283410744, rel=1e-13)

    def test_e_to_minus_e_squared(self):
        # loglog(1/t) = 2: psi = (t/2)^theta
        assert psi(math.exp(-math.e ** 2), 0.25) == pytest.approx(
            0.13258241593404772, rel=1e-13
        )

    @pytest.mark.parametrize("t,theta,expected", PSI_TABLE)
    def test_against_high_precision_references(self, t, theta, expected):
        assert psi(t, theta) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.0 / math.e, 0.5, 1.0])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            psi(t, 0.25)

    def test_positive_on_domain(self):
        for t in (1e-300, 1e-10, 0.01, 0.36):
            assert psi(t, 0.25) > 0.0


class TestTSeq:
    def test_first_term_is_one_over_e(self):
        # 1^(1+beta) = 1 for every beta
        for beta in (0.25, 0.5, 1.0, 2.0):
            assert t_seq(1, beta) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_n2_beta1(self):
        assert t_seq(2, 1.0) == pytest.approx(math.exp(-4.0), rel=1e-15)

    @pytest.mark.parametrize("n,beta,expected", T_SEQ_TABLE)
    def test_against_high_precision_references(self, n, beta, expected):
        assert t_seq(n, beta) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing(self):
        values = [t_seq(n, 1.0) for n in range(1, 20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_ratio_bound_example(self):
        # n = 3, beta = 0.5: t_4/t_3 <= exp(-1.5 * 3^0.5)
        assert t_seq(4, 0.5) / t_seq(3, 0.5) <= math.exp(-1.5 * 3.0 ** 0.5)
        assert ratio_bound_holds(3, 0.5)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 2.0])
    def test_ratio_bound_1_to_200(self, beta):
        # compared in log space: valid far past double-precision underflow
        for n in range(1, 201):
            assert log_t_ratio(n, beta) <= log_t_ratio_bound(n, beta)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            t_seq(0, 1.0)
        with pytest.raises(ParameterError):
            t_seq(1, 0.0)


def test_derived_constants_two_theta():
    consts = DerivedConstants(theta=0.25, c_h=1.0, c21=1.0, kappa=1.0)
    assert consts.two_theta == 0.5
