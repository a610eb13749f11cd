"""One fresh start for ``setup_s``: import ``tempora.cli``, build the
workload's inputs, print one JSON line, then time the reference kernel
(``calibrate``), print a second line and exit.

    python3 bench/probe.py --workload W --seed N --workdir DIR

``run.py`` starts this with the same pinned environment as itself and
times it from spawn to the first line and scales that by the kernel.
"""

import argparse
import json
import shutil
import time


def main() -> None:
    t0 = time.perf_counter()
    import tempora.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workloads.build(args.workload, args.seed, args.workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "inputs_ms": (t2 - t1) * 1e3}), flush=True)
    import calibrate

    print(json.dumps({"kernel_s": calibrate.settled()}), flush=True)
    shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
