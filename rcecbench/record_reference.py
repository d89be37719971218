"""Record the output digests the benchmark checks against.

    python3 rcecbench/record_reference.py

Sets up every workload once, at full and tiny size, in workers pinned like
the benchmark's, and writes the digests of their warm-up calls on the
reference seed to reference.json.  Run it on the commit whose outputs define
correct; the CLI promises byte-identical outputs across commits, so a later
commit whose bytes differ fails the benchmark's output check.
"""

import json
import sys
import time

from run import REFERENCE, run_worker, worker_options
from workloads import REFERENCE_SEED, WORKLOADS


def record(name: str, tiny: bool) -> dict:
    options = worker_options(name, REFERENCE_SEED, 1, 0, REFERENCE, tiny)
    result = run_worker(options, "setup", time.monotonic() + 600)
    # The digests are None when the warm-up call failed its invariants; a
    # mismatch with the digests being replaced is expected and ignored.
    if result["reference_digests"] is None:
        raise SystemExit(f"{name}: reference call failed: {result['problems']}")
    return result["reference_digests"]


def main() -> int:
    table = {"seed": REFERENCE_SEED}
    for size in ("full", "tiny"):
        table[size] = {name: record(name, size == "tiny") for name in WORKLOADS}
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
