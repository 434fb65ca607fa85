"""Time one benchmark set-up in a fresh interpreter.

The set-up is importing the engine, generating and parsing the workload's
scenario, and writing any run directory the workload needs before its first
operation.  Prints {"setup_s": seconds} as the last line of standard output.

    python3 perfbench/setup_child.py --workload NAME --seed N --out DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory the set-up may write")
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    import workloads

    out = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](out.parent, args.seed)
    workload.setup(out)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
