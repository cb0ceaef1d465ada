"""In-memory spans around airytunnel's layer boundaries, for traced runs.

The tracer replaces each layer's entry points at the point where the
calling code looks them up: module-level functions in every airytunnel
module namespace that holds them (``from .geometry import ...`` copies the
reference), and the evaluation methods on each potential class. Nothing
under ``src/`` changes, and an untraced pass runs the original functions.

A span is (name, start_ns, end_ns, parent index, op id). A layer's self
time is the duration of its spans minus the part covered by their direct
children. The layer is the first dotted part of the span name, which is
the defining module's name.
"""

import sys
import time
from collections import Counter, defaultdict

#: Module -> functions wrapped wherever they are looked up. Private helpers
#: stay inside their caller's span, except one transfer-matrix pass.
FUNCTIONS = {
    "cli": ("main",),
    "rates": ("rate_report", "t_wkb", "t_asymptotic", "t_uniform"),
    "geometry": ("analyze_barrier", "find_turning_points", "action_integral",
                 "find_midpoint", "alpha_limit"),
    "quadrature": ("integrate_endpoint_singular",),
    "potential": ("load_tabulated", "make_potential"),
    "specfun": ("airy", "log_bi_over_ai"),
    "oracle": ("exact_transmission", "_transfer_once"),
    "wavefunction": ("sample_grid", "psi_basis", "superpose", "ode_residual"),
}
POTENTIAL_METHODS = ("v", "v_prime", "wavenumber_sq")
_RENAMED = {"oracle._transfer_once": "oracle.transfer_pass",
            "quadrature.integrate_endpoint_singular": "quadrature.integrate"}

LAYERS = ("cli", "rates", "geometry", "quadrature", "potential", "specfun",
          "oracle", "wavefunction")


def _size(x):
    return getattr(x, "size", 1)


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.op_id = 0
        self._patched = []
        self.reset()

    def reset(self):
        """Drop the spans and counts of the previous traced cycle."""
        self.spans = []
        self.counts = Counter()
        self.flux_defect_max = 0.0
        self._stack = []

    def _observe(self, name, args):
        """Counts taken at the boundary; may return replacement args."""
        if name == "potential.v":
            self.counts["potential.v.points"] += _size(args[1])
        elif name == "quadrature.integrate":
            f = args[0]

            def counted(x):
                self.counts["quadrature.integrand_points"] += _size(x)
                return f(x)

            args = (counted,) + tuple(args[1:])
        elif name == "oracle.transfer_pass":
            self.counts["oracle.slices"] += int(args[4])
        elif name == "wavefunction.sample_grid":
            self.counts["wavefunction.points"] += int(args[3])
        return args

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            spans = self.spans
            args = self._observe(name, args)
            idx = len(spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter_ns(), 0, parent, self.op_id]
            spans.append(record)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._stack.pop()
            if name == "oracle.exact_transmission":
                self.flux_defect_max = max(self.flux_defect_max, result.flux_defect)
            return result

        return traced

    def install(self):
        """Wrap every boundary in the loaded airytunnel modules."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "airytunnel" or n.startswith("airytunnel.")}
        wrappers = {}
        for layer, names in FUNCTIONS.items():
            mod = modules["airytunnel." + layer]
            for fname in names:
                span = "%s.%s" % (layer, fname)
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(_RENAMED.get(span, span), fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

        from airytunnel.potential import Potential

        classes = [Potential] + _subclasses(Potential)
        for cls in classes:
            for meth in POTENTIAL_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                self._patch(cls, meth, fn, self.wrap("potential." + meth, fn))

    def _patch(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


def summarise(spans):
    """Calls, inclusive and self nanoseconds per span name and self per layer."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = Counter()
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    layer_self_ns = defaultdict(int)
    for (name, start, end, _, _), children in zip(spans, child_ns):
        calls[name] += 1
        total_ns[name] += end - start
        own = end - start - children
        self_ns[name] += own
        layer_self_ns[name.split(".", 1)[0]] += own
    return calls, total_ns, self_ns, layer_self_ns


def write_spans(spans, path):
    with open(path, "w") as handle:
        handle.write("name,start_ns,end_ns,parent,op\n")
        for name, start, end, parent, op in spans:
            handle.write("%s,%d,%d,%d,%d\n" % (name, start, end, parent, op))
