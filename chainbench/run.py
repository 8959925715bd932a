"""Chain benchmark entry point: gen -> ingest -> build-kb -> load -> detect -> query.

    python3 chainbench/run.py --workload reference-5k --seed 42 --seconds 30 --trace 0

Run it from anywhere inside a cargokg source tree: the package is imported
from ``src/`` next to this directory, so nothing needs installing. See
chain.py for what a run does and README.md for the workloads and metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed check makes ``correct``
false and the exit code 1.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "cargokg", "__init__.py")):
        print("error: no cargokg sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import chain

    parser = argparse.ArgumentParser(description="cargokg chain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(chain.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = chain.run(chain.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
