"""Write golden.json: the stdout digest of every command of every workload.

    python3 bench/capture_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference: the digests in the repo come from ``src/`` as it was before
any optimisation, at the commit recorded in ``source``.  Each command
runs once, untraced, in a fresh process; a nonzero exit aborts without
writing.
"""

import hashlib
import json
import os
import sys
import time

import run
import workloads


def main():
    workdir = run.make_workdir("golden")
    digests = {}
    try:
        runner = run.Runner(workdir, {}, time.monotonic() + 3600)
        for name in workloads.WORKLOADS:
            for argv in workloads.all_commands(name):
                key = " ".join(argv)
                cache = os.path.join(workdir, "cache")
                os.makedirs(cache, exist_ok=True)
                rc, out, _ = runner.child([cache if a == workloads.CACHE else a for a in argv])
                if rc != 0:
                    print(f"exit {rc}: {key}", file=sys.stderr)
                    return 1
                digests[key] = hashlib.sha256(out).hexdigest()
                print(f"{digests[key][:12]} {key}")
    finally:
        run.remove_workdir(workdir)
    golden = {"source": run.git_sha(run.ROOT), "digests": digests}
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
