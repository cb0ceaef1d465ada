"""Potential families, tabulated loading, derivative and k2 contracts."""

import io
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airytunnel import (
    FormatError,
    GaussianBarrier,
    NonSmoothError,
    ParabolicBarrier,
    RangeError,
    Sech2Barrier,
    SquareBarrier,
    TabulatedPotential,
    load_tabulated,
)


def central_diff(pot, x, h=1e-5):
    return (pot.v(x + h) - pot.v(x - h)) / (2.0 * h)


def test_family_peak_values():
    assert Sech2Barrier(1.0, 1.0).v(0.0) == pytest.approx(1.0, abs=1e-15)
    assert ParabolicBarrier(1.0).v(1.0) == pytest.approx(0.0, abs=1e-15)
    assert GaussianBarrier(2.0, 1.0).v(0.0) == pytest.approx(2.0, abs=1e-15)
    assert SquareBarrier(1.0, 2.0).v(0.0) == 1.0
    assert SquareBarrier(1.0, 2.0).v(1.0) == 1.0  # edge included
    assert SquareBarrier(1.0, 2.0).v(1.0000001) == 0.0


def test_derivatives_closed_forms():
    assert ParabolicBarrier(1.0).v_prime(0.5) == pytest.approx(-1.0, rel=1e-14)
    assert Sech2Barrier(1.0, 1.0).v_prime(0.0) == pytest.approx(0.0, abs=1e-15)
    # -2 V0 sech(x)^2 tanh(x) at x = 0.8814 (close to the E = V0/2 turning point)
    x = 0.8814
    expected = -2.0 / math.cosh(x) ** 2 * math.tanh(x)
    assert expected == pytest.approx(-0.7071, abs=5e-5)
    assert Sech2Barrier(1.0, 1.0).v_prime(x) == pytest.approx(expected, rel=1e-13)


def test_square_has_no_derivative():
    with pytest.raises(NonSmoothError):
        SquareBarrier(1.0, 2.0).v_prime(0.3)


def test_wavenumber_sq_examples():
    assert Sech2Barrier(1.0, 1.0).wavenumber_sq(0.5, 0.0) == pytest.approx(-0.5, abs=1e-15)
    assert ParabolicBarrier(1.0).wavenumber_sq(0.5, 2.0) == pytest.approx(3.5, abs=1e-14)
    pot = GaussianBarrier(1.5, 1.2)
    x = 0.77
    assert pot.wavenumber_sq(pot.v(x), x) == 0.0  # turning-point definition


def test_wavenumber_sq_is_bit_exact_difference():
    rng = np.random.default_rng(42)
    pots = [
        ParabolicBarrier(1.0),
        Sech2Barrier(1.3, 0.8),
        GaussianBarrier(2.0, 1.5),
        SquareBarrier(1.0, 2.0),
    ]
    for _ in range(1000):
        for pot in pots:
            x = float(rng.uniform(-3, 3))
            e = float(rng.uniform(0.01, 3.0))
            assert pot.wavenumber_sq(e, x) == e - pot.v(x)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(7)
    pots = [ParabolicBarrier(1.0), Sech2Barrier(1.0, 1.0), GaussianBarrier(2.0, 1.3)]
    for pot in pots:
        for x in rng.uniform(-4, 4, 40):
            fd = central_diff(pot, float(x))
            vp = pot.v_prime(float(x))
            assert abs(fd - vp) <= 1e-7 * max(1.0, abs(vp))


def test_vectorized_evaluation_matches_scalar():
    # A scalar runs as an array of size one, so every scalar input type gets
    # the bits of its array entry: at x = -8.18, Sech2Barrier(1, 1) differs in
    # the last bit between numpy's scalar pow and its array square.
    even = np.linspace(-9.0, 9.0, 1201)
    graded = 9.0 * np.linspace(-1.0, 1.0, 300) ** 3
    pots = [
        ParabolicBarrier(1.3),
        Sech2Barrier(1.0, 1.0),
        GaussianBarrier(2.0, 1.5),
        SquareBarrier(1.0, 2.0),
        TabulatedPotential(even, np.exp(-even * even / 4.0)),
        TabulatedPotential(graded, 1.0 / np.cosh(graded) ** 2),
    ]
    xs = np.concatenate(([-8.18, -1.0, 0.0, 3.0], np.random.default_rng(3).uniform(-9, 9, 400)))
    for pot in pots:
        methods = [pot.v, pot.v_prime] if pot.smooth else [pot.v]
        for method in methods:
            vec = method(xs)
            assert vec.shape == xs.shape
            assert method(xs.reshape(2, -1)).shape == (2, xs.size // 2)
            assert method(np.empty((0, 3))).shape == (0, 3)
            assert method(3) == method(3.0) == method(np.array([3.0]))[0]
            for x, want in zip(xs.tolist(), vec.tolist()):
                for scalar in (x, np.float64(x), np.array(x)):
                    got = method(scalar)
                    assert type(got) is float and got.hex() == want.hex(), (pot, x)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Sech2Barrier(-1.0, 1.0)
    with pytest.raises(ValueError):
        Sech2Barrier(1.0, 0.0)
    with pytest.raises(ValueError):
        GaussianBarrier(float("nan"), 1.0)
    with pytest.raises(ValueError):
        ParabolicBarrier(0.0)


# -- tabulated potentials ----------------------------------------------------


def test_tabulated_interpolates_samples_exactly():
    x = np.linspace(-1, 1, 5)
    pot = TabulatedPotential(x, 1.0 - x ** 2)
    assert pot.v(0.0) == pytest.approx(1.0, abs=1e-12)
    for xi, vi in zip(x, 1.0 - x ** 2):
        assert pot.v(float(xi)) == pytest.approx(float(vi), abs=1e-12)


def test_tabulated_200_rows_tracks_sech2():
    x = np.linspace(-8, 8, 200)
    pot = TabulatedPotential(x, 1.0 / np.cosh(x) ** 2)
    assert abs(pot.v(0.5) - 1.0 / math.cosh(0.5) ** 2) <= 1e-6


def test_dense_tabulated_tracks_builtin_on_interior():
    x = np.linspace(-8, 8, 400)
    pot = TabulatedPotential(x, 1.0 / np.cosh(x) ** 2)
    grid = np.linspace(-7, 7, 1001)
    err = np.abs(pot.v(grid) - 1.0 / np.cosh(grid) ** 2)
    assert err.max() <= 1e-6


def test_tabulated_derivative_from_spline():
    x = np.linspace(-8, 8, 600)
    pot = TabulatedPotential(x, 1.0 / np.cosh(x) ** 2)
    for xi in (-1.3, 0.2, 2.0):
        exact = -2.0 / math.cosh(xi) ** 2 * math.tanh(xi)
        assert pot.v_prime(xi) == pytest.approx(exact, abs=2e-6)


def mpmath_natural_spline(x, v, grid):
    """(V, dV/dx) at the points grid of the natural cubic spline through (x, v).

    Solved at 30 digits: the second derivatives m, zero at both ends, solve
    h[i-1] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i] m[i+1] = 6 (s[i] - s[i-1])
    with s the secant slopes, by elimination.
    """
    piece = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, x.size - 2).tolist()
    with mpmath.workdps(30):
        x = [mpmath.mpf(t) for t in x.tolist()]
        v = [mpmath.mpf(t) for t in v.tolist()]
        n = len(x)
        h = [x[i + 1] - x[i] for i in range(n - 1)]
        s = [(v[i + 1] - v[i]) / h[i] for i in range(n - 1)]
        diag = [2 * (h[i] + h[i + 1]) for i in range(n - 2)]
        rhs = [6 * (s[i + 1] - s[i]) for i in range(n - 2)]
        for i in range(1, n - 2):
            w = h[i] / diag[i - 1]
            diag[i] -= w * h[i]
            rhs[i] -= w * rhs[i - 1]
        m = [mpmath.mpf(0)] * n
        for i in reversed(range(n - 2)):
            m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
        values, slopes = [], []
        for t, i in zip(grid.tolist(), piece):
            left, right = x[i + 1] - t, t - x[i]
            lo, hi = v[i] - m[i] * h[i] ** 2 / 6, v[i + 1] - m[i + 1] * h[i] ** 2 / 6
            values.append((m[i] * left ** 3 + m[i + 1] * right ** 3) / (6 * h[i])
                          + (lo * left + hi * right) / h[i])
            slopes.append((m[i + 1] * right ** 2 - m[i] * left ** 2) / (2 * h[i]) + (hi - lo) / h[i])
        return np.array(values, dtype=float), np.array(slopes, dtype=float)


@pytest.mark.parametrize("n", [4, 7, 1201])
def test_tabulated_spline_matches_mpmath_natural_spline(n):
    # Non-uniform knots and O(1) values; the oracle solves the spline in mpmath.
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.2, 1.8, n)) * (12.0 / n)
    v = np.exp(-((x - x.mean()) ** 2)) + 0.1 * rng.standard_normal(n)
    pot = TabulatedPotential(x, v)
    grid = np.concatenate([np.linspace(x[0], x[-1], 4001), x])
    ref_v, ref_slope = mpmath_natural_spline(x, v, grid)
    assert np.max(np.abs(pot.v(grid) - ref_v)) <= 1e-13
    assert np.max(np.abs(pot.v_prime(grid) - ref_slope)) <= 1e-12
    # Scalar calls take the same arithmetic path as the vectorised scan.
    vec = pot.v(grid)
    assert all(pot.v(float(xi)) == vi for xi, vi in zip(grid[::97], vec[::97]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 400),
    lo=st.floats(-50.0, 50.0),
    span=st.floats(1e-3, 1e3),
    spacing=st.sampled_from(["even", "jittered", "graded"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_spline_piece_equals_searchsorted(n, lo, span, spacing, seed):
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 1.0, n)
    if spacing == "jittered":  # knots a few ulps off an even grid
        s[1:-1] *= 1.0 + 1e-14 * rng.standard_normal(n - 2)
    elif spacing == "graded":  # pieces from ~n**-3 to ~3/n of the span
        s = s ** 3
    x = lo + span * s
    if not np.all(np.diff(x) > 0):
        return
    pot = TabulatedPotential(x, np.cos(x))
    edge = 0.5 * pot._tol
    knots = np.concatenate((x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)))
    pts = np.concatenate((knots, [x[0] - edge, x[-1] + edge], rng.uniform(x[0], x[-1], 200)))
    pts = np.clip(pts, x[0] - edge, x[-1] + edge)
    i, t = pot._piece(pts)
    want = np.searchsorted(x[1:-1], pts, side="right")
    assert np.array_equal(i, want)
    assert np.array_equal(t, pts - x[want])
    # A scalar takes the same pieces, so it gets the bits of its array entry.
    for method in (pot.v, pot.v_prime):
        assert [method(p) for p in pts[::7].tolist()] == method(pts)[::7].tolist()


def test_even_table_pieces_need_no_search(monkeypatch):
    x = np.linspace(-6.0, 6.0, 1201)
    pot = TabulatedPotential(x, np.exp(-x * x))
    searches = []
    real = np.searchsorted

    def counting(*args, **kwargs):
        searches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    pts = np.concatenate((x, np.nextafter(x, -np.inf)[1:], np.nextafter(x, np.inf)[:-1],
                          np.linspace(-6.0, 6.0, 10007)))
    want = np.exp(-x * x)
    assert np.array_equal(pot.v(x), want)
    pot.v(pts)
    assert searches == []


def test_tabulated_range_is_enforced():
    x = np.linspace(-2, 2, 9)
    pot = TabulatedPotential(x, np.exp(-x ** 2))
    with pytest.raises(RangeError):
        pot.v(2.5)
    with pytest.raises(RangeError):
        pot.v(np.array([0.0, -2.1]))
    with pytest.raises(RangeError):
        pot.v_prime(-3.0)
    pot.v(2.0)  # boundary itself is fine


def test_load_tabulated_parses_comments_and_commas():
    text = "# barrier samples\n-1.0, 0.1\n-0.2 0.9\n\n0.3,0.8\n1.0 0.05\n"
    pot = load_tabulated(text)
    assert pot.x_samples.size == 4
    assert pot.v(-1.0) == pytest.approx(0.1, abs=1e-12)


def test_load_tabulated_from_bytes_and_stream(tmp_path):
    rows = "\n".join("%g %g" % (x, x * x) for x in (-2.0, -1.0, 0.5, 2.0))
    assert load_tabulated(rows.encode()).v(0.5) == pytest.approx(0.25, abs=1e-12)
    assert load_tabulated(io.StringIO(rows)).v(0.5) == pytest.approx(0.25, abs=1e-12)
    path = tmp_path / "pot.dat"
    path.write_text(rows)
    assert load_tabulated(path).v(0.5) == pytest.approx(0.25, abs=1e-12)
    assert load_tabulated(str(path)).v(0.5) == pytest.approx(0.25, abs=1e-12)


def test_load_tabulated_rejects_bad_input():
    with pytest.raises(FormatError):
        load_tabulated("0 1\n1 2\n2 3\n")  # only 3 rows
    with pytest.raises(FormatError):
        load_tabulated("0 1\n1 2\n1 3\n2 4\n")  # duplicate x
    with pytest.raises(FormatError):
        load_tabulated("0 1\n2 2\n1 3\n3 4\n")  # non-monotone
    with pytest.raises(FormatError):
        load_tabulated("0 1\n1 spam\n2 3\n3 4\n")  # non-numeric
    with pytest.raises(FormatError):
        load_tabulated("0 1 9\n1 2\n2 3\n3 4\n")  # three fields
    with pytest.raises(FormatError, match="not UTF-8"):
        load_tabulated(b"\xff\xfe0 1\n1 2\n2 3\n3 4\n")  # not UTF-8
    with pytest.raises(FormatError, match="not UTF-8"):
        load_tabulated(io.BytesIO(b"0 1\n1 2\n2 3\n3 \xe9\n"))


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 spam\n2 3\n3 4\n", "line 2: non-numeric token in '1 spam'"),
    ("0 1 9\n1 2\n2 3\n3 4\n", "line 1: expected two fields, got 3"),
    # three fields and one keep the total token count of two rows
    ("# c\n\n0 1\n1 2 3\n2\n3 4\n", "line 4: expected two fields, got 3"),
    ("0 1\n1 |\n2 3\n3 4\n", "line 2: non-numeric token in '1 |'"),
    ("0 1\n1 2 | 5 6\n2 3\n3 4\n", "line 2: expected two fields, got 5"),
    ("0 1\n1 2 # note\n2 3\n3 4\n", "line 2: expected two fields, got 4"),
    ("0 1\n,# 2\n2 3\n3 4\n", "line 2: non-numeric token in ',# 2'"),
    ("0 1\r\n1 2\r\n2\r\n3 4\r\n", "line 3: expected two fields, got 1"),
])
def test_load_tabulated_names_the_first_bad_line(text, message):
    with pytest.raises(FormatError, match="^%s$" % re.escape(message)):
        load_tabulated(text)
