"""Capture the default-seed reference outputs of the workloads.

    python3 perfbench/capture_reference.py [WORKLOAD...]

Run this at a commit whose outputs are known to be right.  For each
workload it computes the output of every input of the default seed,
checks each one, and writes them to ``reference/<workload>.json``; runs
at the default seed then compare their outputs with these byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DEFAULT_SEED, HERE, WORK, environment, import_package, make_workload


def main(names: list[str]) -> int:
    import_package()
    from workloads import WORKLOADS

    env = environment()
    for name in names or list(WORKLOADS):
        workload = make_workload(name, tiny=False)
        workdir = WORK / f"capture-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            state = workload.setup(DEFAULT_SEED, workdir)
            outputs = []
            for i in range(workload.period):
                result = workload.run_op(state, i)
                problems = workload.check(state, i, result)
                if problems:
                    print(f"{name} input {i} fails its check: {problems}", file=sys.stderr)
                    return 1
                outputs.append(workload.canonical(result))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc = {"workload": name, "seed": DEFAULT_SEED, "commit": env["commit"], "dirty": env["dirty"], "outputs": outputs}
        (HERE / "reference").mkdir(exist_ok=True)
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: {len(outputs)} outputs captured")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
