"""Record the payload digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py [FIRST_SEED] [LAST_SEED]

Run once at a commit whose output is trusted. For each workload and seed it
generates the inputs of a run (run.INPUTS_PER_RUN of them), runs `mixbar`
once on each, requires every output check to pass, and stores the SHA-256
of each payload without `params` in perfbench/digests.json, as a list in
input order. run.py then fails any invocation whose payload differs from
the digest recorded for its seed and input. Defaults: seeds 0 to 31.
"""

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 31)
    path = os.path.join(run.HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    bad = 0
    for workload in WORKLOADS.values():
        for seed in range(first, last + 1):
            found = []
            for j in range(run.INPUTS_PER_RUN):
                work = os.path.join(run.ROOT, ".bench_work", f"record-{workload.name}-{seed}-{j}")
                os.makedirs(work, exist_ok=True)
                try:
                    inputs = workload.generate(run.input_rng(seed, j), work)
                    sample = run.invoke(inputs.argv, False, work)
                    run.check_output(sample, workload, inputs, {"recorded": None})
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                if sample.problems:
                    print(f"{workload.name} seed {seed} input {j}: NOT recorded: {sample.problems}")
                    break
                found.append(sample.digest)
            if len(found) < run.INPUTS_PER_RUN:
                bad += 1
                continue
            table.setdefault(workload.name, {})[str(seed)] = found
            print(f"{workload.name} seed {seed}: {' '.join(d[:16] for d in found)}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
