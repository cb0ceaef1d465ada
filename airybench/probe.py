"""Set-up probe, run in a fresh interpreter: import airytunnel, run one op twice.

    python3 airybench/probe.py SRC_DIR ARGV_JSON

Prints one JSON line with ``import_s`` (importing airytunnel and its CLI),
``first_s`` and ``warm_s`` (the op cold, then again warm), the op's exit
code and its output.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import call_cli  # noqa: E402


def main():
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from airytunnel import cli

    t1 = time.perf_counter()
    rc, out, err = call_cli(cli, argv)
    t2 = time.perf_counter()
    call_cli(cli, argv)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_s": t2 - t1, "warm_s": t3 - t2,
                      "rc": rc, "out": out, "err": err}))


if __name__ == "__main__":
    main()
