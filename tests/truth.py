"""The exact values the tests grade against, each written once.

It imports nothing from airytunnel, so no reference shares the package's
mistakes. Values are mpmath numbers at 34 digits, or at the caller's
precision for a table's spline, so a float under test differs from them
by its own error only. Families go by make_potential's names: "parabolic"
(v0 - x**2), "sech2" (v0 sech(x/w)**2) and "gaussian" (v0 exp(-(x/w)**2)).
Poschl-Teller's T is from Landau & Lifshitz, Quantum Mechanics, section 25,
and the parabola's from Kemble, Phys. Rev. 48, 549 (1935).
"""

import math

import mpmath
import numpy as np
from hypothesis import strategies as st

_DPS = 34


def turning_point(family, energy, v0, w=None):
    """The right turning point b of a family at the energy; a = -b."""
    with mpmath.workdps(_DPS):
        e, v0 = mpmath.mpf(energy), mpmath.mpf(v0)
        if family == "parabolic":
            return mpmath.sqrt(v0 - e)
        if family == "sech2":  # sinh(b/w)**2 = (v0 - E)/E
            return w * mpmath.asinh(mpmath.sqrt((v0 - e) / e))
        if family == "gaussian":
            return w * mpmath.sqrt(mpmath.log(v0 / e))
        raise ValueError("no closed forms for %r" % family)


def theta(family, energy, v0, w=None):
    """The action of sqrt(V - E) over [-b, b]."""
    with mpmath.workdps(_DPS):
        e, v0 = mpmath.mpf(energy), mpmath.mpf(v0)
        if family == "parabolic":  # half a disc of radius b
            return mpmath.pi * (v0 - e) / 2
        if family == "sech2":  # pi w (sqrt v0 - sqrt E), without its cancellation
            return mpmath.pi * w * (v0 - e) / (mpmath.sqrt(v0) + mpmath.sqrt(e))
        # tanh-sinh crowds its nodes at the square-root end b; V - E as
        # (v0 - E) + v0 expm1(-z**2) keeps its digits next to the top
        b, w = turning_point(family, energy, v0, w), mpmath.mpf(w)
        return 2 * mpmath.quad(
            lambda x: mpmath.sqrt(max((v0 - e) + v0 * mpmath.expm1(-(x / w) ** 2), 0)), [0, b]
        )


def poschl_teller(energy, v0, w):
    """T through sech2(v0, w) at the energy, for 4 v0 w**2 > 1."""
    with mpmath.workdps(_DPS):
        v0, w, e = mpmath.mpf(v0), mpmath.mpf(w), mpmath.mpf(energy)
        s = mpmath.sinh(mpmath.pi * mpmath.sqrt(e) * w) ** 2
        c = mpmath.cosh(mpmath.pi / 2 * mpmath.sqrt(4 * v0 * w * w - 1)) ** 2
        return s / (s + c)


def kemble(energy, v0):
    """T through the parabola v0 - x**2 at the energy: 1 / (1 + e^(2 theta)),
    theta = pi (v0 - E)/2, exact at every energy, above the top included."""
    with mpmath.workdps(_DPS):
        theta = mpmath.pi * (mpmath.mpf(v0) - mpmath.mpf(energy)) / 2
        return 1 / (1 + mpmath.exp(2 * theta))


def square_barrier(energy, v0, length):
    """T through V = v0 on |x| <= length/2, else 0, for 0 < E <= v0:
    1 / (1 + v0**2 (sinh(kappa L)/kappa)**2 / (4 E)), kappa = sqrt(v0 - E),
    and sinh(kappa L)/kappa = L at E = v0, where the wavefunction is linear."""
    if not (length >= 0.0 and 0.0 < energy <= v0):
        raise ValueError("closed form requires L >= 0 and 0 < E <= V0, got E=%g, V0=%g" % (energy, v0))
    with mpmath.workdps(_DPS):
        v0, length, e = mpmath.mpf(v0), mpmath.mpf(length), mpmath.mpf(energy)
        kappa = mpmath.sqrt(v0 - e)
        s = mpmath.sinh(kappa * length) / kappa if kappa else length
        return 1 / (1 + v0 ** 2 * s * s / (4 * e))


def _mp_spline(pot, energy):
    """(k2, piece) of a tabulated barrier in mpmath arithmetic: k2(i) is
    E - V on spline piece i as a function of x, and piece(x) the index of
    x's piece."""
    knots = pot.x_samples
    e = mpmath.mpf(energy)

    def k2(i):
        x0, v, b, c, d = (mpmath.mpf(float(arr[i])) for arr in (knots, pot.v_samples, pot._b, pot._c, pot._d))

        def on_piece(x):
            t = x - x0
            return e - (v + t * (b + t * (c + t * d)))

        return on_piece

    def piece(x):
        return int(np.searchsorted(knots[1:-1], float(x), side="right"))

    return k2, piece


def mp_spline_roots(pot, energy, lo, hi):
    """The zeros of k2 of a tabulated barrier in (lo, hi), each refined in
    mpmath from the crossing the potential finds."""
    k2, piece = _mp_spline(pot, energy)
    return [
        mpmath.findroot(k2(piece(r)), mpmath.mpf(r))
        for r in pot.crossings(np.array([energy]), float(lo), float(hi))[1].tolist()
    ]


def mp_spline_action(pot, energy, x0, points):
    """mpmath action integral of |k| from x0 to each point of a tabulated barrier.

    The spline pieces are cubics in mpmath arithmetic, integrated piece by
    piece between knots and the turning points, and summed outward from x0.
    """
    k2, piece = _mp_spline(pot, energy)
    knots = pot.x_samples
    lo, hi = min(min(points), x0), max(max(points), x0)
    cuts = sorted({mpmath.mpf(x) for x in [x0, *points, *mp_spline_roots(pot, energy, lo, hi)]}
                  | {mpmath.mpf(k) for k in knots if lo < k < hi})
    start = cuts.index(mpmath.mpf(x0))
    action = {cuts[start]: mpmath.mpf(0)}
    for step, stop in ((1, len(cuts)), (-1, -1)):
        for j in range(start + step, stop, step):
            p, q = sorted((cuts[j - step], cuts[j]))
            f = k2(piece((p + q) / 2))
            seg = mpmath.quad(lambda x: mpmath.sqrt(abs(f(x))), [p, q])
            action[cuts[j]] = action[cuts[j - step]] + seg
    return [action[mpmath.mpf(x)] for x in points]


def barriers(families=("gaussian", "parabolic", "sech2"), v0=(0.5, 4.0), w=(0.5, 2.0),
             fraction=(0.01, 0.99), depth=None):
    """Hypothesis strategy of (family, params, energy): params holds the
    family's constructor arguments, v0 and w drawn from their ranges, and
    energy = v0 (E/v0). E/v0 is drawn from the range fraction or, given the
    range depth, is 1 - d with d log-uniform in it, which reaches 1e-14
    next to the top."""
    if depth is None:
        fractions = st.floats(*fraction)
    else:
        fractions = st.floats(math.log10(depth[0]), math.log10(depth[1])).map(lambda u: 1.0 - 10.0 ** u)

    def case(family, v0, w, fraction):
        params = {"v0": v0} if family == "parabolic" else {"v0": v0, "w": w}
        return family, params, v0 * fraction

    return st.builds(case, st.sampled_from(families), st.floats(*v0), st.floats(*w), fractions)
