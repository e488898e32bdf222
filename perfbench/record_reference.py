#!/usr/bin/env python3
"""Rewrite reference.json: exit code and payload hash of every benchmark call.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
fails every call whose output differs from what this records.  Each call runs
in its own fresh child, so no call's result depends on cache state.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, TINY_WORKLOADS, WORKLOADS, call_key, run_child


def main() -> int:
    calls = sorted({argv for table in (WORKLOADS, TINY_WORKLOADS)
                    for workload in table.values()
                    for argv in workload.job})
    reference = {}
    for argv in calls:
        res = run_child([argv])
        if res is None:
            print(f"error: {call_key(argv)} did not complete", file=sys.stderr)
            return 1
        (record,) = res["job"]
        reference[call_key(argv)] = {"exit": record["exit"],
                                     "sha256": record["sha256"]}
        print(f"{record['exit']} {record['sha256'][:12]} {call_key(argv)}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
