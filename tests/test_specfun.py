"""Airy kernel tests: exact identities, frozen series values, regime checks."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airytunnel import AiryOverflowError, DomainError, airy, log_bi_over_ai
from airytunnel.specfun import (
    OSCILLATORY_LIMIT,
    OSCILLATORY_SWITCH,
    SERIES_ASYMPTOTIC_SWITCH,
    _DERIVS,
    _GRID_LO,
    _GRID_STEP,
    _U_K,
    _airy_asymptotic,
    _airy_grid,
    _airy_oscillatory,
    _asymptotic_sums,
    _series_terms,
    _taylor_derivs,
    _taylor_sum,
)

# Independent oracle constants, written out rather than imported.
G13 = 2.6789385347077476337
G23 = 1.3541179394264004170
AI0 = 1.0 / (9.0 ** (1.0 / 3.0) * G23)
AIP0 = -1.0 / (3.0 ** (1.0 / 3.0) * G13)
BI0 = 1.0 / (3.0 ** (1.0 / 6.0) * G23)
BIP0 = 3.0 ** (1.0 / 6.0) / G13


def maclaurin_airy(u, terms=120):
    """Independent oracle: direct Maclaurin sum of the two auxiliary series.

    f: y(0)=1, y'(0)=0 and g: y(0)=0, y'(0)=1 solve y'' = u y; Ai and Bi
    are the standard combinations. Accurate in double precision only for
    small |u|, which is all this oracle is used for.
    """
    # term recurrences: f_k ~ u^{3k}, g_k ~ u^{3k+1}
    tf, tg = 1.0, u
    f, g = tf, tg
    fp, gp = 0.0, 1.0
    for k in range(1, terms):
        tf = tf * u ** 3 / ((3 * k - 1) * (3 * k))
        tg = tg * u ** 3 / ((3 * k) * (3 * k + 1))
        f += tf
        g += tg
        if u != 0.0:
            fp += tf * (3 * k) / u
            gp += tg * (3 * k + 1) / u
    ai = AI0 * f + AIP0 * g
    bi = BI0 * f + BIP0 * g
    ai_p = AI0 * fp + AIP0 * gp
    bi_p = BI0 * fp + BIP0 * gp
    return ai, bi, ai_p, bi_p


def test_zero_argument_matches_gamma_closed_forms():
    pair = airy(0.0)
    assert pair.ai == pytest.approx(AI0, rel=1e-14, abs=0)
    assert pair.bi == pytest.approx(BI0, rel=1e-14, abs=0)
    assert pair.ai_prime == pytest.approx(AIP0, rel=1e-14, abs=0)
    assert pair.bi_prime == pytest.approx(BIP0, rel=1e-14, abs=0)
    # Bi(0)/Ai(0) = sqrt(3)
    assert pair.bi / pair.ai == pytest.approx(math.sqrt(3.0), rel=1e-14, abs=0)


@pytest.mark.parametrize("u", [-2.5, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_small_arguments_match_maclaurin_oracle(u):
    ai, bi, ai_p, bi_p = maclaurin_airy(u)
    pair = airy(u)
    assert pair.ai == pytest.approx(ai, rel=1e-12, abs=1e-14)
    assert pair.bi == pytest.approx(bi, rel=1e-12, abs=1e-14)
    assert pair.ai_prime == pytest.approx(ai_p, rel=1e-12, abs=1e-14)
    assert pair.bi_prime == pytest.approx(bi_p, rel=1e-12, abs=1e-14)


def test_unit_argument_frozen_values():
    # frozen from the Maclaurin oracle summed to machine convergence
    pair = airy(1.0)
    assert pair.ai == pytest.approx(0.13529241631288141552, rel=1e-12, abs=0)
    assert pair.bi == pytest.approx(1.2074235949528712594, rel=1e-12, abs=0)


def test_wronskian_identity_on_grid():
    worst = 0.0
    for u in np.linspace(-10.0, 10.0, 2001):
        p = airy(float(u))
        w = p.ai * p.bi_prime - p.ai_prime * p.bi
        worst = max(worst, abs(w - 1.0 / math.pi))
    assert worst <= 1e-12


def test_positive_axis_signs_and_monotonicity():
    us = np.linspace(0.0, 10.0, 201)
    ai_vals = [airy(float(u)).ai for u in us]
    bi_vals = [airy(float(u)).bi for u in us]
    assert all(v > 0 for v in ai_vals)
    assert all(v > 0 for v in bi_vals)
    assert all(x > y for x, y in zip(ai_vals[:-1], ai_vals[1:]))
    assert all(x < y for x, y in zip(bi_vals[:-1], bi_vals[1:]))


def test_defining_ode_residual_five_point_stencil():
    h = 1e-3
    for u in np.linspace(-5.0, 5.0, 101):
        u = float(u)
        ai = [airy(u + k * h).ai for k in (-2, -1, 0, 1, 2)]
        bi = [airy(u + k * h).bi for k in (-2, -1, 0, 1, 2)]
        for f in (ai, bi):
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            assert abs(d2 - u * f[2]) <= 1e-5 * max(1.0, abs(u * f[2]))


def test_regime_switch_overlap_agreement():
    assert SERIES_ASYMPTOTIC_SWITCH == 9.0
    for u in np.linspace(8.0, 10.0, 21):
        grid = _airy_grid(float(u))
        asym = _airy_asymptotic(np.array([u]))
        for g, a in zip(grid, asym):
            assert g == pytest.approx(a.item(), rel=1e-9, abs=0)


@pytest.mark.parametrize("u", [8.0, 10.0, 20.0, 50.0, 100.0])
def test_leading_order_asymptotic_forms(u):
    # ai ~ exp(-z)/(2 sqrt(pi) u^(1/4)), bi ~ exp(+z)/(sqrt(pi) u^(1/4)),
    # z = (2/3) u^(3/2), to within 1% at u >= 8.
    pair = airy(u)
    zeta = (2.0 / 3.0) * u ** 1.5
    q = u ** 0.25
    assert pair.ai * 2.0 * math.sqrt(math.pi) * q * math.exp(zeta) == pytest.approx(1.0, rel=0.01, abs=0)
    assert pair.bi * math.sqrt(math.pi) * q * math.exp(-zeta) == pytest.approx(1.0, rel=0.01, abs=0)


def test_mpmath_cross_check_in_range():
    for u in np.linspace(-10.0, 9.0, 77):
        u = float(u)
        pair = airy(u)
        with mpmath.workdps(30):
            refs = [mpmath.airyai(u), mpmath.airybi(u), mpmath.airyai(u, 1), mpmath.airybi(u, 1)]
        for mine, ref in zip((pair.ai, pair.bi, pair.ai_prime, pair.bi_prime), refs):
            assert abs(mine - float(ref)) <= 1e-11 * max(1.0, abs(float(ref)))


@pytest.mark.parametrize("u", [15.0, 50.0, 100.0])
def test_mpmath_cross_check_asymptotic_range(u):
    pair = airy(u)
    with mpmath.workdps(40):
        assert pair.ai == pytest.approx(float(mpmath.airyai(u)), rel=1e-8, abs=0)
        assert pair.bi == pytest.approx(float(mpmath.airybi(u)), rel=1e-8, abs=0)
        assert pair.ai_prime == pytest.approx(float(mpmath.airyai(u, 1)), rel=1e-8, abs=0)
        assert pair.bi_prime == pytest.approx(float(mpmath.airybi(u, 1)), rel=1e-8, abs=0)


def test_overflow_raises_with_exponent():
    with pytest.raises(AiryOverflowError) as info:
        airy(120.0)
    assert isinstance(info.value, OverflowError)
    assert info.value.exponent == pytest.approx((2.0 / 3.0) * 120.0 ** 1.5, rel=1e-12, abs=0)


#: Measured: over 3,000 arguments z in (10, 1e4] (log-uniform, and dense
#: just past 10) the largest error of any of the four functions below
#: u = -10, relative to its envelope, is 1.33 eps zeta; the bound is 2.
OSCILLATORY_C = 2.0


def assert_within_phase_conditioning(u):
    """airy(u) at u < -10 against mpmath: every error, relative to the
    envelope sqrt(Ai^2 + Bi^2) (of the derivatives for Ai', Bi'), is at most
    OSCILLATORY_C eps zeta, zeta = (2/3)|u|^(3/2)."""
    pair = airy(u)
    with mpmath.workdps(40):
        ref = [mpmath.airyai(u), mpmath.airybi(u), mpmath.airyai(u, 1), mpmath.airybi(u, 1)]
        env = 2 * [mpmath.hypot(ref[0], ref[1])] + 2 * [mpmath.hypot(ref[2], ref[3])]
        got = (pair.ai, pair.bi, pair.ai_prime, pair.bi_prime)
        err = [float(abs(g - r) / e) for g, r, e in zip(got, ref, env)]
    bound = OSCILLATORY_C * np.finfo(float).eps * (2.0 / 3.0) * abs(u) ** 1.5
    assert max(err) <= bound, (u, err, bound)


def test_below_minus_ten_matches_mpmath():
    assert_within_phase_conditioning(-10.5)
    airy(-10.0)  # the grid's end
    with pytest.raises(DomainError):
        airy(float("nan"))


def test_below_the_oscillatory_limit_airy_raises_without_warning():
    # 2 eps zeta reaches 1 at the limit, so below it no digit is correct;
    # past u ~ -1e205 z ** 1.5 would overflow, so z is judged before it.
    assert OSCILLATORY_LIMIT == pytest.approx(-2.2512e10, rel=1e-4, abs=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (-1e12, -1e210, np.nextafter(OSCILLATORY_LIMIT, -np.inf)):
            with pytest.raises(DomainError, match=r"^airy argument must be >= -2\.2512e\+10, "):
                airy(u)
        with pytest.raises(DomainError, match=r"got -1000000000000\.0$"):
            airy(np.array([-20.0, -1e12, -1e210]))
        edge = airy(np.nextafter(OSCILLATORY_LIMIT, 0.0))
    assert all(math.isfinite(v) for v in (edge.ai, edge.bi, edge.ai_prime, edge.bi_prime))


def test_oscillatory_switch_is_continuous():
    assert OSCILLATORY_SWITCH == -10.0
    grid = _airy_grid(np.array([OSCILLATORY_SWITCH]))
    oscillatory = _airy_oscillatory(np.array([-OSCILLATORY_SWITCH]))
    for g, o in zip(grid, oscillatory):
        assert abs(g.item() - o.item()) <= 1e-13 * abs(g.item())


@settings(max_examples=60, deadline=None)
@given(st.floats(10.0, 1e4, exclude_min=True))
def test_oscillatory_error_is_the_phase_conditioning(z):
    assert_within_phase_conditioning(-z)


def test_array_argument_matches_scalar_calls_bit_for_bit():
    # grid regime over [-10, 9], plus asymptotic entries on both sides
    u = np.concatenate((np.linspace(-10.0, 9.0, 20001), [9.0 + 1e-12, 9.5, 15.0, 60.0],
                        -np.geomspace(10.0 + 1e-12, 1e4, 201)))
    pair = airy(u)
    for field in ("ai", "bi", "ai_prime", "bi_prime"):
        assert getattr(pair, field).shape == u.shape
    for i, x in enumerate(u.tolist()):
        one = airy(x)
        assert (pair.ai[i], pair.bi[i], pair.ai_prime[i], pair.bi_prime[i]) == (
            one.ai, one.bi, one.ai_prime, one.bi_prime,
        )


def test_array_argument_errors():
    with pytest.raises(DomainError):
        airy(np.array([0.5, -15.2, float("nan"), -3.0]))
    with pytest.raises(DomainError):
        airy(np.array([0.0, float("nan")]))
    with pytest.raises(AiryOverflowError):
        airy(np.array([1.0, 120.0]))
    assert airy(np.array([-15.2, -10.0])).ai.shape == (2,)  # no lower end


@pytest.mark.parametrize("u", [0.7, 2, np.float64(15.0), np.array(3.5)])
def test_scalar_arguments_give_python_floats(u):
    pair = airy(u)
    assert all(type(v) is float for v in (pair.ai, pair.bi, pair.ai_prime, pair.bi_prime))
    assert pair == airy(float(u))
    ratio = log_bi_over_ai(u)
    assert type(ratio) is float and ratio == log_bi_over_ai(float(u))


@pytest.mark.parametrize("u", [[], [0.5], [-3.0, 2.0, 15.0]])
def test_1d_arguments_give_arrays_of_their_shape(u):
    u = np.array(u, dtype=float)
    pair = airy(u)
    for field in ("ai", "bi", "ai_prime", "bi_prime"):
        assert isinstance(getattr(pair, field), np.ndarray)
        assert getattr(pair, field).shape == u.shape
    ratio = log_bi_over_ai(np.abs(u))
    assert isinstance(ratio, np.ndarray) and ratio.shape == u.shape


@pytest.mark.parametrize("u", [[[1.0, 20.0]], [[1.0, 2.0]], [[0.5], [3.0]]])
def test_2d_arguments_raise_value_error(u):
    with pytest.raises(ValueError):
        airy(np.array(u))
    with pytest.raises(ValueError):
        log_bi_over_ai(np.array(u))


def test_log_ratio_at_zero():
    assert log_bi_over_ai(0.0) == pytest.approx(math.log(math.sqrt(3.0)), rel=1e-13, abs=0)


def test_log_ratio_matches_direct_quotient():
    for u in (0.5, 2.0, 4.0, 8.9):
        pair = airy(u)
        assert log_bi_over_ai(u) == pytest.approx(math.log(pair.bi / pair.ai), rel=1e-9, abs=0)


def test_log_ratio_large_argument_leading_term():
    val = log_bi_over_ai(400.0)
    lead = math.log(2.0) + (4.0 / 3.0) * 8000.0
    assert abs(val - lead) / lead < 1e-4
    # continuity across the regime switch: the two evaluation paths agree
    # up to the genuine function variation over the 2e-9 straddle
    lo = log_bi_over_ai(SERIES_ASYMPTOTIC_SWITCH - 1e-9)
    hi = log_bi_over_ai(SERIES_ASYMPTOTIC_SWITCH + 1e-9)
    slope = 2.0 * math.sqrt(SERIES_ASYMPTOTIC_SWITCH)
    assert abs(hi - lo) <= slope * 2e-9 + 1e-10


def test_log_ratio_rejects_negative():
    with pytest.raises(DomainError):
        log_bi_over_ai(-0.1)


def reference_asymptotic_sums(zeta, max_terms=60):
    """The sums loop before its early stop, kept as its reference: every term to the smallest."""
    sa = sb = sc = sd = 1.0
    uk = 1.0
    sign = 1.0
    prev = 1.0
    zk = 1.0
    for k in range(1, max_terms):
        uk *= (6 * k - 1) * (6 * k - 3) * (6 * k - 5) / (216.0 * k * (2 * k - 1))
        vk = -uk * (6 * k + 1) / (6 * k - 1.0)
        zk *= zeta
        t = uk / zk
        if abs(t) >= prev:
            break
        prev = abs(t)
        sign = -sign
        sa += sign * t
        sb += t
        sc += sign * vk / zk
        sd += vk / zk
    return sa, sb, sc, sd


def assert_sums_match_reference(u):
    """The one-pass sums at u (a 1D array) equal the reference loop's, bit for bit."""
    zeta = np.array([(2.0 / 3.0) * x ** 1.5 for x in u.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _asymptotic_sums(zeta)
    assert got.shape == (4, u.size)
    for sums, z in zip(got.T.tolist(), zeta.tolist()):
        assert tuple(sums) == reference_asymptotic_sums(z)


def test_asymptotic_sums_stop_early_without_changing_a_bit():
    # u from the regime switch to past the overflow limit, dense at the low
    # end where the sums keep the most terms.
    u = np.concatenate((np.linspace(SERIES_ASYMPTOTIC_SWITCH, 40.0, 8001), np.geomspace(40.0, 5000.0, 8001)))
    assert_sums_match_reference(u)
    # Hypothesis-drawn arguments in (9, 1e8], one pass each: zeta^k overflows
    # past the stop of the largest, which must not warn.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(SERIES_ASYMPTOTIC_SWITCH, 1e8, exclude_min=True), min_size=1, max_size=40))
    def drawn(u):
        assert_sums_match_reference(np.array(u))

    drawn()


def reference_taylor_sum(d, h):
    """The Taylor step as a loop over its terms, kept as the reference of _taylor_sum."""
    sy = 0.0
    syp = 0.0
    hk = 1.0  # h^n / n!
    for n in range(len(d) - 1):
        sy += d[n] * hk
        syp += d[n + 1] * hk
        hk *= h / (n + 1)
    return sy, syp


@pytest.mark.parametrize("size", [1, 32, 401])
def test_taylor_sum_equals_term_loop_bit_for_bit(size):
    # Query steps: any node, any offset within half a grid step.
    rng = np.random.default_rng(size)
    idx = rng.integers(0, _DERIVS.shape[2], size)
    h = rng.uniform(-0.125, 0.125, size)
    got = _taylor_sum(_DERIVS[:, :, idx], h)
    want = reference_taylor_sum(_DERIVS[:, :, idx], h)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # Seed-table steps: a 1D list of 32 derivatives and a full grid step.
    for x0, y, yp in zip(rng.uniform(-12.0, 12.0, size), rng.normal(size=size), rng.normal(size=size)):
        d = _taylor_derivs(x0, y, yp, 30)
        assert tuple(_taylor_sum(d, 0.25)) == reference_taylor_sum(d, 0.25)
        assert tuple(_taylor_sum(d, -0.25)) == reference_taylor_sum(d, -0.25)


# The grid's Taylor derivatives to h^40, from the seeds (y, y') of _DERIVS.
LONG_DERIVS = np.array([
    [_taylor_derivs(_GRID_LO + i * _GRID_STEP, y, yp, 40) for y, yp in node.tolist()]
    for i, node in enumerate(_DERIVS[:2].transpose(2, 1, 0))
]).transpose(2, 1, 0)


def test_grid_step_is_as_long_as_a_double_needs():
    # The 17-term step equals a 41-term one bit for bit: at every node at
    # the longest steps a query takes, and densely over the supported range.
    nodes = np.arange(_DERIVS.shape[2])
    for h in (0.125, -0.125, np.nextafter(0.125, 0.0), -np.nextafter(0.125, 0.0)):
        step = np.full(nodes.size, h)
        short = _taylor_sum(_DERIVS[:, :, nodes], step)
        long = _taylor_sum(LONG_DERIVS[:, :, nodes], step)
        assert np.array_equal(short, long)
    u = np.linspace(-10.0, SERIES_ASYMPTOTIC_SWITCH, 200001)
    idx = np.rint((u - _GRID_LO) / _GRID_STEP).astype(int)
    (ai, bi), (ai_prime, bi_prime) = _taylor_sum(LONG_DERIVS[:, :, idx], u - (_GRID_LO + idx * _GRID_STEP))
    assert all(np.array_equal(g, w) for g, w in zip(_airy_grid(u), (ai, bi, ai_prime, bi_prime)))


def test_asymptotic_table_end_never_decides_a_stop():
    # The sums keep the most terms just above the switch: every stop there
    # comes from the stop rule, with a coefficient to spare. The builder
    # keeps rows 1 .. n for the longest stop n.
    u = np.concatenate(([np.nextafter(SERIES_ASYMPTOTIC_SWITCH, np.inf)], np.linspace(9.0, 12.0, 30001)[1:]))
    zeta = np.array([(2.0 / 3.0) * x ** 1.5 for x in u.tolist()])
    assert len(_series_terms(zeta)) - 1 < _U_K.size
