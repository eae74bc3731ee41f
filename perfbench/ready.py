"""Set-up probe: import, build the workload's inputs, warm up, print "ready".

Started as a fresh process by run.py, which times process start to the
"ready" line as the workload's set-up time.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports vauf, numpy and scipy)

if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".perfbench") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp), args.smoke)
        workload.warm_up()
        print("ready", flush=True)
