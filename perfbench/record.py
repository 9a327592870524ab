"""Record the stdout digest of every fixed benchmark command.

    python3 perfbench/record.py

Writes ``perfbench/references.json``. The CLI's output over the benchmark's
command matrix is meant to stay byte-identical, so re-record only for a
change that is meant to alter output, and say so where the change is
described.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from run import REFERENCES, WORKLOADS, cli_argv, spawn


def main() -> int:
    digests = {}
    for workload in WORKLOADS.values():
        for cmd in workload.make(random.Random(0)):
            if cmd.check != "digest":
                continue
            res = spawn(cli_argv(cmd))
            if res.rc != 0:
                print(f"error: {cmd.key} exited {res.rc}", file=sys.stderr)
                return 1
            digests[cmd.key] = hashlib.sha256(res.out).hexdigest()
            print(f"{res.wall_s:8.2f}s  {cmd.key}")
    REFERENCES.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
