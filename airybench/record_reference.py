"""Record reference outputs for every catalogue entry of every workload.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 airybench/record_reference.py

Every entry must pass the invariant checks; the script stops at the first
that does not. It rewrites ``airybench/reference/<workload>.json``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(workload, cli, work_dir):
    lines = []
    for op in workloads.generate(workload, 0, work_dir):
        rc, out, err = run.call_cli(cli, op.argv)
        if rc != 0:
            raise SystemExit("%s: exit %r: %s" % (op.spec.key, rc, err.strip()))
        _, rows = check.parse_csv(out)
        entry = {"spec": check.spec_record(op.spec)}
        entry.update(check.reference_rows(op.spec, rows))
        # Invariants must hold on the reference itself.
        check.check_op(op.spec, out, {"entries": {op.spec.key: entry}})
        lines.append("%s: %s" % (json.dumps(op.spec.key), json.dumps(entry)))
    path = os.path.join(check.REFERENCE_DIR, workload + ".json")
    with open(path, "w") as handle:
        handle.write('{"entries": {\n%s\n}}\n' % ",\n".join(lines))
    print("%s: %d entries -> %s" % (workload, len(lines), path))


def main():
    run.import_path()
    from airytunnel import cli

    work_dir = os.path.join(run.WORK_ROOT, "reference")
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        record(workload, cli, work_dir)


if __name__ == "__main__":
    main()
