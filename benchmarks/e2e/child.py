"""Entry point of the per-workload subprocess ``run.py`` starts.

Prints one JSON object on the last line of standard output and exits 0
when every answer was the expected one, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The program under test, from this checkout and nowhere else.
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))


def main() -> int:
    import shapes
    import workload
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workload.SPECS))
    parser.add_argument("--mode", required=True,
                        choices=("e2e", "layers", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--expect-wrong", action="store_true")
    args = parser.parse_args()
    cpus = shapes.pin_to_one_cpu()
    if args.mode == "e2e":
        result = workload.run_e2e(args.workload, args.seed, args.rounds,
                                  args.scale, args.workdir,
                                  args.expect_wrong)
    else:
        import layers
        result = layers.run(args.workload, args.seed, args.rounds,
                            args.scale, args.workdir,
                            traced=args.mode == "trace", cpus=cpus)
    result["pinned_cpu"] = cpus[0]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
