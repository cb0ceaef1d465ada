"""Transfer-matrix solver: calibration, flux conservation, convergence."""

import ast
import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truth
from airytunnel import (
    AsymptoteMismatchError,
    DomainError,
    GaussianBarrier,
    ParabolicBarrier,
    Sech2Barrier,
    TabulatedPotential,
    exact_transmission,
    make_potential,
    rate_report,
)
from airytunnel import oracle
from airytunnel.oracle import _slice_matrices, _transmissions, _tree_product
from conftest import (
    SquareBarrier,
    entry_matches,
    midpoint_samples,
    not_even,
    tilted_gaussian_samples,
    transfer_once,
)


def reference_transfer_loop(pot, energy, x_left, x_right, n):
    """Slice-by-slice product of the (psi, psi') slice matrices, renormalized
    every 64 slices: the scalar form of ``_transfer_once``, kept as its
    reference. Returns (T, R, ln T)."""
    d = (x_right - x_left) / n
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for j, v in enumerate(midpoint_samples(pot, x_left, x_right, n).tolist()):
        q = v - energy
        k = math.sqrt(abs(q))
        if q < 0.0:
            c, s, ks = math.cos(k * d), math.sin(k * d) / k, -k * math.sin(k * d)
        elif q > 0.0:
            c, s, ks = math.cosh(k * d), math.sinh(k * d) / k, k * math.sinh(k * d)
        else:
            c, s, ks = 1.0, d, 0.0
        p11, p12, p21, p22 = (
            c * p11 + s * p21, c * p12 + s * p22, ks * p11 + c * p21, ks * p12 + c * p22,
        )
        if j % 64 == 63:
            scale = max(abs(p11), abs(p12), abs(p21), abs(p22))
            p11, p12, p21, p22 = p11 / scale, p12 / scale, p21 / scale, p22 / scale
            log_scale += math.log(scale)
    k = math.sqrt(energy)
    m22 = abs(complex(p11 + p22, p21 / k - k * p12)) / 2
    m21 = abs(complex(p11 - p22, p21 / k + k * p12)) / 2
    log_t_sq = -2.0 * (log_scale + math.log(m22))
    return (math.exp(log_t_sq) if log_t_sq > -745.0 else 0.0), (m21 / m22) ** 2, log_t_sq


def mpmath_transfer(pot, energy, x_left, x_right, n):
    """(T, R) of the same slices multiplied in 34-digit arithmetic."""
    with mpmath.workdps(34):
        d = mpmath.mpf((x_right - x_left) / n)
        p11, p12, p21, p22 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        for v in midpoint_samples(pot, x_left, x_right, n).tolist():
            q = mpmath.mpf(v) - mpmath.mpf(energy)
            k = mpmath.sqrt(abs(q))
            if q < 0:
                c, s, ks = mpmath.cos(k * d), mpmath.sin(k * d) / k, -k * mpmath.sin(k * d)
            elif q > 0:
                c, s, ks = mpmath.cosh(k * d), mpmath.sinh(k * d) / k, k * mpmath.sinh(k * d)
            else:
                c, s, ks = mpmath.mpf(1), d, mpmath.mpf(0)
            p11, p12, p21, p22 = (
                c * p11 + s * p21, c * p12 + s * p22, ks * p11 + c * p21, ks * p12 + c * p22,
            )
        k = mpmath.sqrt(mpmath.mpf(energy))
        m22 = mpmath.hypot(p11 + p22, p21 / k - k * p12) / 2
        m21 = mpmath.hypot(p11 - p22, p21 / k + k * p12) / 2
        return float(1 / m22 ** 2), float((m21 / m22) ** 2)


def product_cases(tilted):
    """(potential, half width of the domain) of the product checks."""
    return [
        (Sech2Barrier(1.0, 1.0), 12.0),
        (GaussianBarrier(1.0, 3.19), 40.0),
        (tilted, 6.0),
        (Sech2Barrier(1.0, 8.0), 120.0),
    ]


#: A barrier thick enough that its partial products are rescaled.
THICK, THICK_HALF_WIDTH = Sech2Barrier(1.0, 400.0), 4800.0


def test_square_closed_form_values():
    assert truth.square_barrier(0.5, 1.0, 2.0) == pytest.approx(0.21077109396613054, rel=1e-12, abs=0)
    assert truth.square_barrier(0.5, 1.0, 0.0) == 1.0
    assert truth.square_barrier(0.5, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-9)
    assert truth.square_barrier(1e-6, 1.0, 2.0) < 1e-4
    assert truth.square_barrier(1.0, 1.0, 2.0) == 0.5  # 1 / (1 + V0 L**2 / 4) at E = V0
    with pytest.raises(ValueError):
        truth.square_barrier(1.5, 1.0, 2.0)


def test_calibration_against_square_closed_form():
    # domain chosen so the barrier edges fall exactly on slice boundaries
    pot = SquareBarrier(1.0, 2.0)
    result = exact_transmission(pot, 0.5, (-5.0, 5.0), slices=10000)
    reference = truth.square_barrier(0.5, 1.0, 2.0)
    assert result.t_exact == pytest.approx(reference, rel=1e-6, abs=0)
    assert result.flux_defect <= 1e-10
    assert 0.0 <= result.t_exact <= 1.0


def test_sech2_converged_run():
    result = exact_transmission(Sech2Barrier(1.0, 1.0), 0.5, (-12.0, 12.0), slices=10000)
    assert result.flux_defect <= 1e-10
    assert result.slices == 20000
    reference = truth.poschl_teller(0.5, 1.0, 1.0)
    assert result.t_exact == pytest.approx(reference, rel=1e-6, abs=0)
    assert result.richardson_estimate == pytest.approx(reference, rel=1e-8, abs=0)
    assert result.t_exact + result.r_exact == pytest.approx(1.0, abs=1e-10)


def test_second_order_grid_convergence():
    pot = Sech2Barrier(1.0, 1.0)
    ts = {n: transfer_once(pot, 0.5, -12.0, 12.0, n)[0] for n in (500, 1000, 2000, 4000)}
    d1 = abs(ts[1000] - ts[500])
    d2 = abs(ts[2000] - ts[1000])
    d3 = abs(ts[4000] - ts[2000])
    assert d1 / d2 >= 4.0
    assert d2 / d3 >= 4.0


def test_domain_widening_changes_nothing():
    # matched slice width in both domains so only the tail truncation differs
    pot = Sech2Barrier(1.0, 1.0)
    t_narrow = exact_transmission(pot, 0.5, (-12.0, 12.0), slices=12000).t_exact
    t_wide = exact_transmission(pot, 0.5, (-16.0, 16.0), slices=16000).t_exact
    assert abs(t_narrow - t_wide) <= 1e-8


def test_high_energy_is_transparent():
    result = exact_transmission(Sech2Barrier(1.0, 1.0), 10.0, (-12.0, 12.0), slices=2000)
    assert result.t_exact == pytest.approx(1.0, abs=1e-3)


def test_thick_barrier_never_overflows():
    result = exact_transmission(Sech2Barrier(1.0, 8.0), 0.1, (-120.0, 120.0), slices=10000)
    assert 0.0 <= result.t_exact < 1e-12
    assert result.flux_defect <= 1e-10


def test_gaussian_barrier_transmission_reasonable():
    result = exact_transmission(GaussianBarrier(1.0, 1.0), 0.5, (-12.0, 12.0), slices=4000)
    assert 0.0 < result.t_exact < 1.0
    assert result.flux_defect <= 1e-10


def test_asymptote_mismatch_rejected():
    with pytest.raises(AsymptoteMismatchError):
        exact_transmission(ParabolicBarrier(1.0), 0.5, (-1.5, 1.5), slices=1000)
    with pytest.raises(AsymptoteMismatchError):
        exact_transmission(Sech2Barrier(1.0, 1.0), 0.5, (-3.0, 3.0), slices=1000)


def test_input_validation():
    pot = Sech2Barrier(1.0, 1.0)
    with pytest.raises(DomainError):
        exact_transmission(pot, -0.5, (-12.0, 12.0), slices=1000)
    with pytest.raises(DomainError):
        exact_transmission(pot, 0.0, (-12.0, 12.0), slices=1000)
    with pytest.raises(ValueError):
        exact_transmission(pot, 0.5, (-12.0, 12.0), slices=50)
    with pytest.raises(ValueError):
        exact_transmission(pot, 0.5, (12.0, -12.0), slices=1000)
    # exp(kappa * d) = exp(1000) per slice is out of double range
    with pytest.raises(ValueError):
        exact_transmission(SquareBarrier(1e8, 2.0), 0.5, (-5.0, 5.0), slices=100)


@pytest.mark.parametrize("n", [4000, 4001, 8000])
@pytest.mark.parametrize("energy", [0.1, 0.5, 0.95])
def test_tree_product_matches_reference_loop(tilted_barrier, energy, n):
    # odd and even slice counts carry a matrix up the tree at different levels
    for pot, half_width in product_cases(tilted_barrier):
        t_ref, r_ref, _ = reference_transfer_loop(pot, energy, -half_width, half_width, n)
        t, r = transfer_once(pot, energy, -half_width, half_width, n)
        assert t > 0.0
        assert t == pytest.approx(t_ref, rel=1e-12, abs=0.0)
        assert r == pytest.approx(r_ref, rel=0.0, abs=1e-12)


def test_slice_matrices_take_the_three_forms():
    d = 0.5
    m = _slice_matrices(np.array([-4.0, 0.0, 9.0]), d)
    # E = V: exactly [[1, d], [0, 1]]
    assert m[..., 1].tolist() == [[1.0, d], [0.0, 1.0]]
    # E > V with k = 2, and E < V with kappa = 3
    for j, (c, s, k) in ((0, (math.cos(1.0), math.sin(1.0), -2.0)),
                         (2, (math.cosh(1.5), math.sinh(1.5), 3.0))):
        want = [[c, s / abs(k)], [k * s, c]]
        assert m[..., j].ravel().tolist() == pytest.approx(np.ravel(want), rel=1e-15, abs=0)


@pytest.mark.parametrize("energy", [0.1, 0.5, 0.95])
def test_rescaled_tree_product_matches_reference_loop(energy):
    # theta = 860, 368 and 32: entries pass 2**500 at the two lower
    # energies, and T underflows at the lowest, so compare ln T
    pot, n = THICK, 4001
    q = midpoint_samples(pot, -THICK_HALF_WIDTH, THICK_HALF_WIDTH, n)[None, :] - energy
    m = _slice_matrices(q, 2.0 * THICK_HALF_WIDTH / n)
    p, exponent = _tree_product(m, float(np.abs(m).max()))
    (p11, p12), (p21, p22) = p[..., 0]
    k = math.sqrt(energy)
    log_t = -2.0 * (math.log(math.hypot(p11 + p22, p21 / k - k * p12) / 2.0)
                    + int(exponent[0]) * math.log(2.0))
    _, _, log_t_ref = reference_transfer_loop(pot, energy, -THICK_HALF_WIDTH, THICK_HALF_WIDTH, n)
    assert log_t == pytest.approx(log_t_ref, rel=1e-13, abs=0.0)
    assert (exponent[0] > 0) == (energy < 0.9)


@pytest.mark.parametrize("n", [999, 1000])
@pytest.mark.parametrize("energy", [0.1, 0.5, 0.95])
def test_tree_product_matches_mpmath_product(tilted_barrier, energy, n):
    for pot, half_width in product_cases(tilted_barrier):
        t_ref, r_ref = mpmath_transfer(pot, energy, -half_width, half_width, n)
        t, r = transfer_once(pot, energy, -half_width, half_width, n)
        assert t == pytest.approx(t_ref, rel=5e-13, abs=0.0)
        assert r == pytest.approx(r_ref, rel=0.0, abs=5e-13)


def test_energy_at_barrier_height_is_finite():
    # E = V0 across the whole barrier: k = 0 on every interior slice, and
    # the wavefunction there is linear in x
    result = exact_transmission(SquareBarrier(1.0, 2.0), 1.0, (-5.0, 5.0), slices=4000)
    assert result.t_exact == pytest.approx(truth.square_barrier(1.0, 1.0, 2.0), rel=1e-13, abs=0)
    assert result.flux_defect <= 1e-13


def test_energies_equal_single_energy_calls_bit_for_bit(tilted_barrier):
    # 19 energies fill blocks of 16 and 3 at 1000 slices and of 8, 8 and 3
    # at 2000; the thick barrier rescales some energies' products and not
    # others within a block
    energies = np.linspace(0.05, 1.2, 19)
    for pot, half_width in product_cases(tilted_barrier) + [(THICK, THICK_HALF_WIDTH)]:
        domain = (-half_width, half_width)
        batched = exact_transmission(pot, energies, domain, slices=1000)
        assert all(
            entry_matches(batched, i, exact_transmission(pot, e, domain, slices=1000))
            for i, e in enumerate(energies.tolist())
        )


def test_transmissions_end_at_the_first_failing_energy():
    pot = SquareBarrier(1.0, 2.0)
    domain = (-5.0, 5.0)
    result, exc = _transmissions(pot, [0.5, 2.0, -0.5, float("nan")], domain, 100)
    assert result.t_exact.size == 2
    assert isinstance(exc, DomainError) and str(exc).endswith("got -0.5")
    assert entry_matches(result, 0, exact_transmission(pot, 0.5, domain, slices=100))
    assert entry_matches(result, 1, exact_transmission(pot, 2.0, domain, slices=100))
    # exp(kappa d) = exp(1000) per slice leaves double range below the
    # barrier top only; the energy before it in its block is unharmed
    thick = SquareBarrier(1e8, 2.0)
    result, exc = _transmissions(thick, [2e8, 0.5, 3e8], domain, 100)
    assert isinstance(exc, ValueError) and "too coarse for this barrier at E=0.5" in str(exc)
    assert result.t_exact.size == 1
    assert entry_matches(result, 0, exact_transmission(thick, 2e8, domain, slices=100))
    # an error of the call as a whole is that of the first energy, unless
    # the energy rule rejects that one first
    result, exc = _transmissions(pot, [-1.0, 0.5, 0.7], domain, 50)
    assert isinstance(exc, DomainError) and result.t_exact.size == 0
    result, exc = _transmissions(pot, [0.5, 0.7, -1.0], domain, 50)
    assert type(exc) is ValueError and "100 slices" in str(exc) and result.t_exact.size == 0
    result, exc = _transmissions(pot, [], domain, 4000)
    assert result.t_exact.size == 0 and exc is None


def test_an_empty_call_has_the_dtypes_of_a_one_energy_array_call():
    # slices is an int column whether or not any energy ran
    pot = Sech2Barrier(1.0, 1.0)
    one = exact_transmission(pot, [0.5], None, slices=200)
    want = [getattr(one, f.name).dtype for f in fields(one)]
    for empty in (exact_transmission(pot, [], None), rate_report(pot, [], with_oracle=True).oracle):
        assert [getattr(empty, f.name).dtype for f in fields(empty)] == want


@pytest.mark.parametrize("energy", [0.1, 0.5, 0.95])
def test_mirrored_barrier_has_same_transmission(energy):
    x, v = tilted_gaussian_samples()
    pot = TabulatedPotential(x, v)
    mirrored = TabulatedPotential(-x[::-1], v[::-1])
    t = exact_transmission(pot, energy, (-6.0, 6.0)).t_exact
    t_mirrored = exact_transmission(mirrored, energy, (-6.0, 6.0)).t_exact
    assert t_mirrored == pytest.approx(t, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.sampled_from([1.0, 3.0, 8.0]),
    fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6),
)
def test_transmission_is_invariant_under_x_to_minus_x(scale, fractions):
    # the tilted table and its mirror TabulatedPotential(-x[::-1], v[::-1])
    x, v = tilted_gaussian_samples()
    pot, mirrored = TabulatedPotential(scale * x, v), TabulatedPotential(-scale * x[::-1], v[::-1])
    domain = (-6.0 * scale, 6.0 * scale)
    energies = np.array(fractions)
    t = exact_transmission(pot, energies, domain, slices=1000).t_exact
    t_mirrored = exact_transmission(mirrored, energies, domain, slices=1000).t_exact
    assert np.all(np.abs(t_mirrored - t) <= 1e-12 * t)


@settings(max_examples=60, deadline=None)
@given(
    case=truth.barriers(families=("gaussian", "sech2"), v0=(0.1, 20.0), w=(0.3, 3.0), fraction=(0.01, 0.99)),
    slices=st.integers(100, 800),
)
def test_mirrored_pass_equals_the_full_pass(case, slices):
    # An even barrier multiplies the left half's slices and completes the
    # product by parity; the same barrier with even = False multiplies all.
    # An odd slice count mirrors the fine pass only.
    family, params, energy = case
    pot = make_potential(family, **params)
    got = exact_transmission(pot, energy, None, slices=slices)
    want = exact_transmission(not_even(type(pot))(**params), energy, None, slices=slices)
    for name in ("t_exact", "r_exact", "richardson_estimate"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)
    assert got.flux_defect <= 1e-10
    assert got.slices == want.slices == 2 * slices


def test_mirrored_pass_forms_the_left_half_of_the_slices(monkeypatch):
    formed = []
    transfer = oracle._transfer_once

    def spy(v_mid, energies, x_left, x_right, n, **kwargs):
        formed.append((n, v_mid.size, x_right))
        return transfer(v_mid, energies, x_left, x_right, n, **kwargs)

    monkeypatch.setattr(oracle, "_transfer_once", spy)
    pot = Sech2Barrier(1.0, 1.0)
    # the default window (-20, 20) is centred: each pass forms n/2, on [-20, 0]
    exact_transmission(pot, [0.3, 0.6], None, slices=400)
    assert formed == [(200, 200, 0.0), (400, 400, 0.0)]
    # an asymmetric window forms all n
    formed.clear()
    exact_transmission(pot, 0.3, (-20.0, 21.0), slices=400)
    assert formed == [(400, 400, 21.0), (800, 800, 21.0)]
    # an odd count: the coarse pass forms all 401, the fine pass half of 802
    formed.clear()
    exact_transmission(pot, 0.3, None, slices=401)
    assert formed == [(401, 401, 20.0), (401, 401, 0.0)]


def test_the_oracle_shares_only_the_failure_protocol_with_the_package():
    # The oracle grades the approximations, so it imports none of their code:
    # of the package, only the exception types and entry rules of errors.
    tree = ast.parse(open(oracle.__file__).read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("airytunnel")):
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package.update(alias.name for alias in node.names if alias.name.startswith("airytunnel"))
    assert package == {".errors"}
