"""Barrier potentials V(x), their derivatives, and the gap V - E.

Units: hbar**2 / 2m = 1 throughout the package, so the squared local
wavenumber is simply k2(x) = E - V(x), the negated gap. k2 < 0 inside the
classically forbidden region.

Built-in families:

* parabolic : V(x) = V0 - x**2 (inverted parabola, finite window only)
* sech2     : V(x) = V0 * sech(x/w)**2
* gaussian  : V(x) = V0 * exp(-x**2 / w**2)

Tabulated potentials come from two-column text files and are interpolated
with a natural cubic spline, which is C2 and therefore smooth enough for
the turning-point slope limits.

Families write array kernels only: Potential.v and v_prime run a scalar
as an array of size one, so it gets the bits of its array entry. Each
family forms its gap from v0 - E, which is exact next to the top
(Sterbenz's lemma), so V - E keeps its relative accuracy there. All
potential objects are immutable after construction and their evaluation
methods are pure, so they are safe to share across threads.
"""

import inspect
import math
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from .errors import FormatError, RangeError
from .quadrature import _EPS4, solve_bracketed


def _check_positive(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    if value <= 0.0:
        raise ValueError("%s must be > 0, got %g" % (name, value))
    return value


def _mirrored(half, lo, hi):
    """The crossings -half and half of an even barrier inside (lo, hi); none
    where half is nan, or 0: at the top k2 touches 0 without changing sign."""
    x = np.where(half > 0.0, half, np.nan)[:, None] * np.array([-1.0, 1.0])
    which, side = np.nonzero((lo < x) & (x < hi))
    return which, x[which, side]


class Potential(ABC):
    """A 1D barrier potential. Subclasses are immutable and stateless, and
    write suggested_window, crossings and the array kernels _v and _v_prime
    (any shape in, that shape out); v and v_prime run a scalar as an array
    of size one and return a float.

    A subclass that sets ``even`` promises that V(-x) == V(x) bit for bit
    and that crossings returns exact mirrors -b, b. The midpoint search
    then takes c = 0 from symmetry (its balance check still verifies it),
    and the oracle multiplies only the left half of a window [-L, L],
    trusting the promise.
    """

    #: Whether V is mirror-symmetric about x = 0 (see the class docstring).
    even = False

    def v(self, x):
        """V(x): a float for a scalar x, else an array of x's shape."""
        x = np.asarray(x, dtype=float)
        return self._v(x) if x.ndim else float(self._v(x.reshape(1))[0])

    def v_prime(self, x):
        """dV/dx, as v."""
        x = np.asarray(x, dtype=float)
        return self._v_prime(x) if x.ndim else float(self._v_prime(x.reshape(1))[0])

    def gap(self, energies, x):
        """V(x) - E on a float array x with ndim >= 1, the energies broadcast
        against it; positive inside the forbidden region. A family forms it
        without the cancellation of V - E next to its top; this base form,
        which tables keep, subtracts."""
        return self._v(x) - energies

    @abstractmethod
    def _v(self, x):
        """V on a float array x with ndim >= 1."""

    @abstractmethod
    def _v_prime(self, x):
        """dV/dx on a float array x with ndim >= 1."""

    @abstractmethod
    def suggested_window(self):
        """Default (xmin, xmax) bracketing the barrier for this potential."""

    @abstractmethod
    def crossings(self, energies, lo, hi):
        """(which, x): every crossing of k2 = E - V through 0 strictly inside
        (lo, hi) for a 1D array of positive, finite energies, as the energy
        index and the point of each, sorted by energy, then by x."""

    def window(self, window=None):
        """The x-window (lo, hi) as floats, judged once for every entry point.

        None, or an end given as None, takes suggested_window() there.
        Raises ValueError unless both ends and the width hi - lo are
        finite and lo < hi.
        """
        lo, hi = (None, None) if window is None else window
        default_lo, default_hi = self.suggested_window()
        lo = float(default_lo if lo is None else lo)
        hi = float(default_hi if hi is None else hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("window must be finite, got (%g, %g)" % (lo, hi))
        if not lo < hi:
            raise ValueError("window must satisfy xmin < xmax, got (%g, %g)" % (lo, hi))
        if not math.isfinite(hi - lo):
            raise ValueError("window must have a finite width, got (%g, %g)" % (lo, hi))
        return lo, hi


class ParabolicBarrier(Potential):
    """Inverted parabola V(x) = V0 - x**2.

    Unbounded below, so it only makes sense on a finite window around the
    top; the scattering oracle cannot be applied to it.
    """

    even = True

    def __init__(self, v0):
        self.v0 = _check_positive("v0", v0)

    def _v(self, x):
        return self.v0 - x * x

    def _v_prime(self, x):
        return -2.0 * x

    def gap(self, energies, x):
        return (self.v0 - energies) - x * x

    def suggested_window(self):
        half = 1.5 * math.sqrt(self.v0)
        return (-half, half)

    def crossings(self, energies, lo, hi):
        with np.errstate(invalid="ignore"):  # nan above the top
            return _mirrored(np.sqrt(self.v0 - energies), lo, hi)

    def __repr__(self):
        return "ParabolicBarrier(v0=%g)" % self.v0


def _sech(z):
    # 2 e^{-|z|} / (1 + e^{-2|z|}) never overflows, unlike 1/cosh.
    a = np.abs(z)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


class Sech2Barrier(Potential):
    """Poschl-Teller barrier V(x) = V0 * sech(x/w)**2."""

    even = True

    def __init__(self, v0, w):
        self.v0 = _check_positive("v0", v0)
        self.w = _check_positive("w", w)

    def _v(self, x):
        return self.v0 * _sech(x / self.w) ** 2

    def _v_prime(self, x):
        z = x / self.w
        return -2.0 * self.v0 / self.w * _sech(z) ** 2 * np.tanh(z)

    def gap(self, energies, x):
        # sech**2 = 1 - tanh**2; _v keeps sech, whose tails keep their relative accuracy
        return (self.v0 - energies) - self.v0 * np.tanh(x / self.w) ** 2

    def suggested_window(self):
        return (-20.0 * self.w, 20.0 * self.w)

    def crossings(self, energies, lo, hi):
        # sinh(x/w)**2 = (v0 - E)/E; nan above the top, inf past the float range
        with np.errstate(invalid="ignore", over="ignore"):
            ratio = np.sqrt(self.v0 - energies) / np.sqrt(energies)
            return _mirrored(self.w * np.arcsinh(ratio), lo, hi)

    def __repr__(self):
        return "Sech2Barrier(v0=%g, w=%g)" % (self.v0, self.w)


class GaussianBarrier(Potential):
    """Gaussian bump V(x) = V0 * exp(-x**2 / w**2)."""

    even = True

    def __init__(self, v0, w):
        self.v0 = _check_positive("v0", v0)
        self.w = _check_positive("w", w)

    def _v(self, x):
        z = x / self.w
        return self.v0 * np.exp(-z * z)

    def _v_prime(self, x):
        # V (-2 z / w), without w**2, which overflows a float past w ~ 1.3e154
        z = x / self.w
        return self.v0 * np.exp(-z * z) * (-2.0 * z / self.w)

    def gap(self, energies, x):
        z = x / self.w
        return (self.v0 - energies) + self.v0 * np.expm1(-z * z)

    def suggested_window(self):
        return (-20.0 * self.w, 20.0 * self.w)

    def crossings(self, energies, lo, hi):
        # (x/w)**2 = -log(E/v0), from log1p where E/v0 is near 1 (E - v0 is
        # then exact); nan above the top, inf past the float range
        with np.errstate(all="ignore"):
            r = energies / self.v0
            z = np.where(r < 0.5, -np.log(r), -np.log1p((energies - self.v0) / self.v0))
            return _mirrored(self.w * np.sqrt(z), lo, hi)

    def __repr__(self):
        return "GaussianBarrier(v0=%g, w=%g)" % (self.v0, self.w)


def _natural_spline(x, v):
    """Horner coefficients (b, c, d) of the natural cubic spline through (x, v).

    On [x[i], x[i+1]] the spline is v[i] + t (b[i] + t (c[i] + t d[i])) with
    t = x - x[i]. Its second derivatives M, zero at both ends, solve a
    symmetric diagonally dominant tridiagonal system by one Thomas sweep.
    """
    h = np.diff(x)
    slope = np.diff(v) / h
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = (6.0 * np.diff(slope)).tolist()
    off = h[1:].tolist()  # off[i] couples interior unknowns i and i + 1
    d, r = diag[0], rhs[0]
    for i in range(1, len(diag)):
        w = off[i - 1] / d
        d = diag[i] = diag[i] - w * off[i - 1]
        r = rhs[i] = rhs[i] - w * r
    m = [0.0] * (len(diag) + 2)
    for i in reversed(range(len(diag))):
        m[i + 1] = (rhs[i] - off[i] * m[i + 2]) / diag[i]
    m = np.array(m)
    return slope - h * (2.0 * m[:-1] + m[1:]) / 6.0, 0.5 * m[:-1], np.diff(m) / (6.0 * h)


class TabulatedPotential(Potential):
    """Potential defined by (x, V) samples with cubic-spline interpolation.

    Natural boundary conditions; the derivative comes from the spline
    polynomial itself. Evaluation outside the sampled range raises
    RangeError rather than extrapolating, since extrapolated tails would
    silently corrupt action integrals.
    """

    def __init__(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise FormatError("x and V must be 1D arrays of equal length")
        if x.size < 4:
            raise FormatError("tabulated potential needs at least 4 samples, got %d" % x.size)
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
            raise FormatError("tabulated potential contains non-finite values")
        if not np.all(np.diff(x) > 0):
            raise FormatError("tabulated x values must be strictly increasing")
        self.x_samples = x.copy()
        self.v_samples = v.copy()
        self.x_samples.flags.writeable = False
        self.v_samples.flags.writeable = False
        self._b, self._c, self._d = _natural_spline(x, v)
        self._tol = 1e-12 * (x[-1] - x[0])
        # Piece i spans [_lower[i], _upper[i]); the end pieces reach past the
        # end knots, which extends them over the range tolerance.
        self._lower = np.concatenate(([-np.inf], x[1:-1]))
        self._upper = np.concatenate((x[1:-1], [np.inf]))
        self._per_unit = (x.size - 1) / (x[-1] - x[0])
        # Breakpoints: the knots and each piece's stationary points, the roots
        # t in (0, h) of b + 2 c t + 3 d t**2. V is monotone between them.
        breaks, b, c, d = [x], self._b, self._c, self._d
        with np.errstate(all="ignore"):  # no real root, or d = 0: nan or inf
            q = -(c + np.copysign(np.sqrt(c * c - 3.0 * b * d), c))
            for t in (q / (3.0 * d), b / q):
                inside = (0.0 < t) & (t < np.diff(x))
                breaks.append(x[:-1][inside] + t[inside])
        self._breaks = np.sort(np.concatenate(breaks))

    def _piece(self, x):
        """Spline interval index i and offset t = x - x_samples[i] of an array x.

        i is searchsorted(x_samples[1:-1], x, side="right"), found without a
        search for most points: on an evenly spaced table the piece a uniform
        grid gives is off by at most one, so one step down and one up against
        the knots settle it. Only the points still outside their piece, as on
        unevenly spaced tables, are searched for.
        """
        lo, hi = self.x_samples[0], self.x_samples[-1]
        if x.min(initial=lo) < lo - self._tol or x.max(initial=hi) > hi + self._tol:
            raise RangeError("x outside tabulated range [%g, %g]" % (lo, hi))
        interior = self.x_samples[1:-1]
        # fmax/fmin send a nan to a valid piece; its offset stays nan.
        i = np.fmin(np.fmax((x - lo) * self._per_unit, 0.0), interior.size).astype(np.intp)
        i -= x < self._lower[i]
        i += x >= self._upper[i]
        off = (x < self._lower[i]) | (x >= self._upper[i])
        if off.any():
            i[off] = np.searchsorted(interior, x[off], side="right")
        return i, x - self.x_samples[i]

    def _v(self, x):
        i, t = self._piece(x)
        # v + t (b + t (c + t d)), built in place: one temporary per term
        out = self._d[i] * t
        for coef in (self._c, self._b):
            out += coef[i]
            out *= t
        out += self.v_samples[i]
        return out

    def _v_prime(self, x):
        i, t = self._piece(x)
        return self._b[i] + t * (2.0 * self._c[i] + 3.0 * t * self._d[i])

    def suggested_window(self):
        return (float(self.x_samples[0]), float(self.x_samples[-1]))

    def crossings(self, energies, lo, hi):
        # A bracket per sign change of k2 between neighbouring breakpoints or
        # ends, from its regula-falsi point (nan, so the midpoint, on overflow).
        inner = self._breaks[(lo < self._breaks) & (self._breaks < hi)]
        xs = np.concatenate(([lo], inner, [hi]))
        v = self.v(xs)
        change = np.diff(v < energies[:, None])  # k2 > 0, without forming E - V
        # divmod of the flat indices: the pairs of np.nonzero, ~10x faster
        which, j = np.divmod(np.flatnonzero(change), change.shape[1])
        e = energies[which]
        k_lo, k_hi = e - v[j], e - v[j + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = xs[j] + (xs[j + 1] - xs[j]) * (k_lo / (k_lo - k_hi))
        return which, _polish(self, e, xs[j], xs[j + 1], k_lo, k_hi, x0)

    def __repr__(self):
        return "TabulatedPotential(%d samples on [%g, %g])" % (
            self.x_samples.size,
            self.x_samples[0],
            self.x_samples[-1],
        )


def _polish(pot, energies, lo, hi, k_lo, k_hi, x0):
    """Zeros of k2 = E - V in the brackets [lo, hi], each at its own energy,
    from x0, given k2 at the ends as k_lo and k_hi. An iterate where |k2| is within
    4 eps max(|E|, |V|, |x V'(x)|), the rounding noise of E - V and of V at
    a rounded x, counts as a root: a wrong-signed k2 there would start a
    long bisection. The slope is -V' at the iterate."""

    def k2(x, j):
        e = energies[j]
        v, dv = pot.v(x), pot.v_prime(x)
        g = e - v
        noise = np.maximum(np.maximum(np.abs(e), np.abs(v)), np.abs(x * dv))
        g[np.abs(g) <= _EPS4 * noise] = 0.0
        return g, -dv

    return solve_bracketed(k2, lo, hi, k_lo, k_hi, 1e-14, x0)


def load_tabulated(source):
    """Parse a two-column potential file into a TabulatedPotential.

    ``source`` may be a path, a text or byte string, or a file-like
    object; bytes must be UTF-8 text. Format: one ``x V`` pair per line,
    separated by whitespace or commas; lines starting with ``#`` and blank
    lines are ignored; x must be strictly increasing, at least 4 rows.
    """
    try:
        if isinstance(source, (str, Path)) and "\n" not in str(source):
            text = Path(source).read_text(encoding="utf-8")
        elif isinstance(source, str):
            text = source
        elif isinstance(source, bytes):
            text = source.decode("utf-8")
        elif hasattr(source, "read"):
            data = source.read()
            text = data.decode("utf-8") if isinstance(data, bytes) else data
        else:
            raise FormatError("unsupported tabulated-potential source %r" % type(source))
    except UnicodeDecodeError as exc:
        raise FormatError("potential data is not UTF-8 text: %s" % exc) from None

    return TabulatedPotential(*_two_columns(text))


def _two_columns(text):
    """(x, V) arrays of the data lines of a two-column text.

    Its string temporaries are freed on return, before the spline is built.
    """
    rows = [line for line in text.splitlines() if line.strip()[:1] not in ("", "#")]
    # One split of the data rows, each closed by a "|" field. With three
    # tokens per row, a row of other than two fields puts some "|" where a
    # number is parsed, which fails.
    tokens = " | ".join(rows + [""]).replace(",", " ").split()
    try:
        if len(tokens) != 3 * len(rows):
            raise ValueError
        return np.array(tokens[0::3], dtype=float), np.array(tokens[1::3], dtype=float)
    except ValueError:
        raise _malformed(text) from None


def _malformed(text):
    """The FormatError naming the first malformed line of a two-column text."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) != 2:
            return FormatError("line %d: expected two fields, got %d" % (lineno, len(tokens)))
        try:
            float(tokens[0])
            float(tokens[1])
        except ValueError:
            return FormatError("line %d: non-numeric token in %r" % (lineno, line))
    return FormatError("malformed two-column text")


_FAMILIES = {
    "parabolic": ParabolicBarrier,
    "sech2": Sech2Barrier,
    "gaussian": GaussianBarrier,
}
#: Each family's constructor parameters, read once: the CLI's --v0 and --w.
FAMILY_PARAMS = {name: tuple(inspect.signature(cls).parameters) for name, cls in _FAMILIES.items()}


def make_potential(family, **params):
    """Construct a built-in family by name (used by the CLI)."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            "unknown family %r; choose from %s" % (family, sorted(_FAMILIES))
        ) from None
    return cls(**params)
