"""Record the default-seed outputs that the checks compare against.

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

Each workload runs once in this process; caches do not change outputs.
Re-record only at a commit whose outputs are meant to become the reference.
"""

import json

from worker import execute
from workloads import DEFAULT_SEED, REFERENCE_PATH, REFERENCED, make_inputs


def main() -> None:
    ref = {}
    for name in REFERENCED:
        inputs = make_inputs(name, DEFAULT_SEED)
        ref[name] = {"inputs": inputs, **execute(name, inputs)["output"]}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
