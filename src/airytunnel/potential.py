"""Barrier potentials V(x), their derivatives, and the local k**2.

Units: hbar**2 / 2m = 1 throughout the package, so the squared local
wavenumber is simply k2(x) = E - V(x). k2 < 0 inside the classically
forbidden region.

Built-in families:

* parabolic : V(x) = V0 - x**2 (inverted parabola, finite window only)
* sech2     : V(x) = V0 * sech(x/w)**2
* gaussian  : V(x) = V0 * exp(-x**2 / w**2)
* square    : V(x) = V0 for |x| <= L/2, else 0 (oracle calibration only;
              it has no derivative at the edges, so every Airy-method
              operation rejects it)

Tabulated potentials come from two-column text files and are interpolated
with a natural cubic spline, which is C2 and therefore smooth enough for
the turning-point slope limits.

Families write array kernels only: Potential.v and v_prime run a scalar
as an array of size one, so it gets the bits of its array entry. All
potential objects are immutable after construction and their evaluation
methods are pure, so they are safe to share across threads.
"""

import io
import math
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from .errors import FormatError, NonSmoothError, RangeError


def _check_param(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return value


def _check_positive(name, value):
    value = _check_param(name, value)
    if value <= 0.0:
        raise ValueError("%s must be > 0, got %g" % (name, value))
    return value


class Potential(ABC):
    """A 1D barrier potential. Subclasses are immutable and stateless, and
    write the array kernels _v and _v_prime (any shape in, that shape out);
    v and v_prime run a scalar as an array of size one and return a float."""

    #: False only for potentials with jump discontinuities.
    smooth = True

    def v(self, x):
        """V(x): a float for a scalar x, else an array of x's shape."""
        x = np.asarray(x, dtype=float)
        return self._v(x) if x.ndim else float(self._v(x.reshape(1))[0])

    def v_prime(self, x):
        """dV/dx, as v; raises NonSmoothError for non-differentiable families."""
        x = np.asarray(x, dtype=float)
        return self._v_prime(x) if x.ndim else float(self._v_prime(x.reshape(1))[0])

    def wavenumber_sq(self, energy, x):
        """k2(x) = E - V(x), negative inside the forbidden region."""
        return energy - self.v(x)

    @abstractmethod
    def _v(self, x):
        """V on a float array x with ndim >= 1."""

    @abstractmethod
    def _v_prime(self, x):
        """dV/dx on a float array x with ndim >= 1."""

    @abstractmethod
    def suggested_window(self):
        """Default (xmin, xmax) bracketing the barrier for this potential."""

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

    def __init__(self, v0):
        self.v0 = _check_positive("v0", v0)

    def _v(self, x):
        return self.v0 - x * x

    def _v_prime(self, x):
        return -2.0 * x

    def suggested_window(self):
        half = 1.5 * math.sqrt(self.v0)
        return (-half, half)

    def __repr__(self):
        return "ParabolicBarrier(v0=%g)" % self.v0


def _sech(z):
    # 2 e^{-|z|} / (1 + e^{-2|z|}) never overflows, unlike 1/cosh.
    a = np.abs(z)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


class Sech2Barrier(Potential):
    """Poschl-Teller barrier V(x) = V0 * sech(x/w)**2."""

    def __init__(self, v0, w):
        self.v0 = _check_positive("v0", v0)
        self.w = _check_positive("w", w)

    def _v(self, x):
        return self.v0 * _sech(x / self.w) ** 2

    def _v_prime(self, x):
        z = x / self.w
        return -2.0 * self.v0 / self.w * _sech(z) ** 2 * np.tanh(z)

    def suggested_window(self):
        return (-20.0 * self.w, 20.0 * self.w)

    def __repr__(self):
        return "Sech2Barrier(v0=%g, w=%g)" % (self.v0, self.w)


class GaussianBarrier(Potential):
    """Gaussian bump V(x) = V0 * exp(-x**2 / w**2)."""

    def __init__(self, v0, w):
        self.v0 = _check_positive("v0", v0)
        self.w = _check_positive("w", w)

    def _v(self, x):
        z = x / self.w
        return self.v0 * np.exp(-z * z)

    def _v_prime(self, x):
        return self._v(x) * (-2.0 * x / self.w ** 2)

    def suggested_window(self):
        return (-20.0 * self.w, 20.0 * self.w)

    def __repr__(self):
        return "GaussianBarrier(v0=%g, w=%g)" % (self.v0, self.w)


class SquareBarrier(Potential):
    """Rectangular barrier V = V0 on |x| <= L/2.

    Exists to calibrate the exact solver against the textbook closed form;
    the slope limits at its edges do not exist, so the Airy-method
    operations reject it via NonSmoothError.
    """

    smooth = False

    def __init__(self, v0, length):
        self.v0 = _check_positive("v0", v0)
        self.length = _check_positive("length", length)

    def _v(self, x):
        return np.where(np.abs(x) <= 0.5 * self.length, self.v0, 0.0)

    def _v_prime(self, x):
        raise NonSmoothError("square barrier has no derivative at its edges")

    def suggested_window(self):
        return (-2.5 * self.length, 2.5 * self.length)

    def __repr__(self):
        return "SquareBarrier(v0=%g, length=%g)" % (self.v0, self.length)


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

    def __repr__(self):
        return "TabulatedPotential(%d samples on [%g, %g])" % (
            self.x_samples.size,
            self.x_samples[0],
            self.x_samples[-1],
        )


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
        elif isinstance(source, io.IOBase) or hasattr(source, "read"):
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
    "square": SquareBarrier,
}


def make_potential(family, **params):
    """Construct a built-in family by name (used by the CLI)."""
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            "unknown family %r; choose from %s" % (family, sorted(_FAMILIES))
        ) from None
    return cls(**params)
