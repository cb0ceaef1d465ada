"""airytunnel benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 airybench/run.py --workload rates_sweep --seed 1 --seconds 20 --trace 0
    python3 airybench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client in one process, no threads,
each op a call of ``airytunnel.cli.main(argv)`` in-process, the next op
sent when the previous one returns. One cycle is the workload's whole
catalogue in the seed's order (see ``workloads.py``); the loop runs one
untimed warm-up cycle, then whole timed cycles until ``--seconds`` have
passed. Every op's CSV is checked
(``check.py``) outside its timed interval; a non-zero exit, a crash or a
failed check counts as a failed op.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing airytunnel plus
  the cycle's first op (``probe.py``), what a one-shot CLI user pays;
* ``ops_per_s``: ops per second of one cycle, each op at its fastest time
  over the run's timed cycles;
* ``op_ms_p50``: median over the cycle's ops of that fastest time;
* ``op_ms_p95``: 95th percentile of all timed op latencies;
* ``ok_frac``: 1 - failed / attempted, over probes, warm-up and timed ops;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced cycles for ``--seconds`` and
reports per-layer metrics from the spans (``spans.py``): counts per cycle,
which must repeat exactly, and the median per-cycle self times. The spans
of the first traced cycle are written to ``spans.csv`` in the run's work
directory. The last line of output is always one JSON object.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: The package under test and the benchmark's scratch space, relative to
#: the repository root the benchmark runs from.
SRC = "src"
WORK_ROOT = ".airybench_work"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def import_path():
    """Put ``src`` on sys.path; exit non-zero when the package is missing."""
    if not os.path.isfile(os.path.join(SRC, "airytunnel", "cli.py")):
        sys.exit("airybench: %s/airytunnel not found under %s; run from the "
                 "repository root" % (SRC, os.getcwd()))
    sys.path.insert(0, os.path.abspath(SRC))


def call_cli(cli, argv):
    """Run ``cli.main(argv)``, capturing its output; a crash returns rc None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # a crashing op is a failed op, not a harness error
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.problems = []  # harness-level faults, not tied to one op

    def record(self, op, rc, out, err):
        self.attempted += 1
        try:
            if rc != 0:
                raise check.CheckError("exit %r: %s" % (rc, err.strip()[-300:]))
            check.check_op(op.spec, out, self.reference)
        except check.CheckError as exc:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append("%s: %s" % (op.spec.key, exc))


def run_cycle(cli, ops, tally, tracer=None):
    """One pass over ``ops``; returns per-op latencies in seconds."""
    latencies = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        rc, out, err = call_cli(cli, op.argv)
        latencies.append(time.perf_counter() - t0)
        tally.record(op, rc, out, err)
    return latencies


def run_probes(op, tally):
    """Fresh-interpreter set-up runs of ``op``; returns their timing records."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), os.path.abspath(SRC),
           json.dumps(op.argv)]
    results = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            tally.record(op, None, "", "set-up probe failed")
            continue
        tally.record(op, result["rc"], result["out"], result["err"])
        results.append(result)
    return results


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(cli, ops, tally, seconds):
    probes = run_probes(ops[0], tally)
    run_cycle(cli, ops, tally)  # warm-up: lazy caches fill, untimed
    # On a shared host the same code runs up to ~40% slower for seconds at a
    # time, in varying proportion from run to run. The two ends of the
    # latency distribution stay put: each op's fastest time over the run,
    # which gives ops_per_s and op_ms_p50, and the contended tail, p95 of
    # all timed samples. Mixtures of the two, such as the mean or the
    # median sample, do not.
    best = [math.inf] * len(ops)
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        latencies = run_cycle(cli, ops, tally)
        samples += latencies
        best = [min(b, t) for b, t in zip(best, latencies)]
    p95 = statistics.quantiles(samples, n=20)[18]
    info = ["%d timed cycles of %d ops; p95 over %d samples, %d beyond it"
            % (len(samples) // len(ops), len(ops), len(samples),
               sum(1 for t in samples if t > p95))]
    metrics = {
        "setup_s": _median(p["import_s"] + p["first_s"] for p in probes),
        "ops_per_s": len(best) / sum(best),
        "op_ms_p50": 1e3 * statistics.median(best),
        "op_ms_p95": 1e3 * p95,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def _safe_div(num, den):
    return num / den if den else 0.0


def cycle_layer_metrics(tracer):
    """Per-layer metrics of one traced cycle: (counts, times)."""
    calls, total_ns, self_ns, layer_ns = spans.summarise(tracer.spans)
    c = tracer.counts
    reports = calls["rates.rate_report"]
    quad_calls = calls["quadrature.integrate"]
    spec_calls = calls["specfun.airy"] + calls["specfun.log_bi_over_ai"]
    passes = calls["oracle.transfer_pass"]
    points = c["wavefunction.points"]
    counts = {
        "cli.calls": (calls["cli.main"], "count"),
        "rates.rate_report.calls": (reports, "count"),
        "geometry.find_turning_points.calls": (calls["geometry.find_turning_points"], "count"),
        "geometry.action_integral.calls": (calls["geometry.action_integral"], "count"),
        "geometry.action_integrals_per_report": (
            _safe_div(calls["geometry.action_integral"], reports), "count/report"),
        "quadrature.calls": (quad_calls, "count"),
        "quadrature.integrand_points": (c["quadrature.integrand_points"], "count"),
        "quadrature.points_per_call": (
            _safe_div(c["quadrature.integrand_points"], quad_calls), "count/call"),
        "potential.v.calls": (calls["potential.v"], "count"),
        "potential.v.points": (c["potential.v.points"], "count"),
        "specfun.airy.calls": (calls["specfun.airy"], "count"),
        "specfun.log_bi_over_ai.calls": (calls["specfun.log_bi_over_ai"], "count"),
        "oracle.exact_transmission.calls": (calls["oracle.exact_transmission"], "count"),
        "oracle.transfer_pass.calls": (passes, "count"),
        "oracle.slices": (c["oracle.slices"], "count"),
        "wavefunction.sample_grid.calls": (calls["wavefunction.sample_grid"], "count"),
        "wavefunction.points": (points, "count"),
    }
    times = {layer + ".self_s": (layer_ns[layer] / 1e9, "s") for layer in spans.LAYERS}
    times.update({
        "geometry.find_turning_points.self_s": (
            self_ns["geometry.find_turning_points"] / 1e9, "s"),
        "geometry.find_midpoint.self_s": (self_ns["geometry.find_midpoint"] / 1e9, "s"),
        "specfun.us_per_call": (_safe_div(layer_ns["specfun"] / 1e3, spec_calls), "us"),
        "oracle.transfer_pass_ms": (
            _safe_div(total_ns["oracle.transfer_pass"] / 1e6, passes), "ms"),
        "wavefunction.us_per_point": (
            _safe_div(total_ns["wavefunction.sample_grid"] / 1e3, points), "us"),
    })
    return counts, times


def per_layer(cli, ops, tally, seconds, work_dir):
    probes = run_probes(ops[0], tally)
    tracer = spans.Tracer()
    run_cycle(cli, ops, tally)  # warm-up
    overheads, counts_seen, times_seen = [], [], []
    first_spans = None
    flux_max = 0.0
    deadline = time.perf_counter() + seconds
    while not overheads or time.perf_counter() < deadline:
        plain = sum(run_cycle(cli, ops, tally))
        tracer.reset()
        tracer.install()
        try:
            traced = sum(run_cycle(cli, ops, tally, tracer))
        finally:
            tracer.uninstall()
        overheads.append(1.0 - plain / traced)
        counts, times = cycle_layer_metrics(tracer)
        counts_seen.append(counts)
        times_seen.append(times)
        flux_max = max(flux_max, tracer.flux_defect_max)
        if first_spans is None:
            first_spans = tracer.spans

    spans.write_spans(first_spans, os.path.join(work_dir, "spans.csv"))
    if any(c != counts_seen[0] for c in counts_seen):
        tally.problems.append("per-layer counts differ between traced cycles")
    metrics = dict(counts_seen[0])
    for name, (_, unit) in times_seen[0].items():
        metrics[name] = (statistics.median(t[name][0] for t in times_seen), unit)
    metrics["oracle.flux_defect_max"] = (flux_max, "1")
    metrics["setup.import_s"] = (_median(p["import_s"] for p in probes), "s")
    metrics["setup.first_op_s"] = (_median(p["first_s"] - p["warm_s"] for p in probes), "s")
    # Throughput lost to tracing, from alternating untraced and traced cycles.
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "fraction")

    layer_s = {layer: metrics[layer + ".self_s"][0] for layer in spans.LAYERS}
    all_s = sum(layer_s.values()) or 1.0
    info = ["%d untraced and %d traced cycles of %d ops; %d spans in the first "
            "traced cycle" % (len(overheads), len(overheads), len(ops), len(first_spans)),
            "self-time share: " + ", ".join(
                "%s %.1f%%" % (layer, 100.0 * t / all_s)
                for layer, t in sorted(layer_s.items(), key=lambda kv: -kv[1]))]
    return metrics, info


def run_workload(args):
    import_path()
    work_dir = os.path.join(WORK_ROOT, "%s-s%d" % (args.workload, args.seed))
    ops = workloads.generate(args.workload, args.seed, work_dir)
    tally = Tally(check.load_reference(args.workload))
    from airytunnel import cli

    if args.trace:
        metrics, info = per_layer(cli, ops, tally, args.seconds, work_dir)
    else:
        metrics, info = end_to_end(cli, ops, tally, args.seconds)

    print("workload %s, seed %d, %s" % (args.workload, args.seed,
                                        "traced" if args.trace else "untraced"))
    for line in info:
        print("  " + line)
    print("  fail_frac = %.6g (%d of %d ops failed)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    for msg in tally.messages + tally.problems:
        print("  FAILED " + msg)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; metrics keyed workload/metric."""
    import_path()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("airybench: %s failed: %s" % (workload, proc.stderr.strip()))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
