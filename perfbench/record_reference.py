"""Record the reference statistics of the default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every round of each workload's cycle once at the default seed and
writes each campaign point's exact statistics to ``reference.json``, which
``run.py`` compares against whenever it runs the default seed.  Re-record
only when a change is meant to alter campaign results.
"""

import json
import sys

from run import FIELDS, OUT, REFERENCE, check_points, measure
from workloads import DEFAULT_SEED, WORKLOADS


def main(names) -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        out_dir = OUT / f"reference-{name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        result, _ = measure(workload, DEFAULT_SEED, 0.0, 0, out_dir, rounds=workload.cycle)
        failures = check_points(result["points"], None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        reference[name] = {p["key"]: {k: p["stats"][k] for k in FIELDS}
                           for p in result["points"]}
        print(f"{name}: {len(reference[name])} points over {workload.cycle} rounds")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
