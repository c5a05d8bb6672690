"""Record the reference digests in bench/references.json.

    python3 bench/record.py

Runs the first PASSES passes of every workload for the default seed and
for one held-out seed, checks that each verdict passes, and stores the
digests with the Python, numpy and scipy versions that produced them.
Rerun it only when a change alters seeded outputs on purpose.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, CHECKOUT, THREAD_ENV

os.environ.update(THREAD_ENV)

from worker import _import_mfsde, _versions  # noqa: E402

REFERENCE_SEEDS = (0, 1000)   # the default seed, and one not used in tuning
PASSES = 10


def main() -> int:
    _import_mfsde()
    import workloads
    tmp_root = CHECKOUT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=tmp_root))
    digests = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            digests[name] = {}
            for seed in REFERENCE_SEEDS:
                workload = cls(seed, scratch)
                row = digests[name][str(seed)] = []
                for index in range(PASSES):
                    result = workload.run(index)
                    if not result.ok:
                        raise SystemExit(f"record: {name} seed {seed} pass {index}"
                                         f" failed its verdict ({result.detail})")
                    row.append(result.digest)
                    print(name, seed, index, result.digest[:16], result.detail, flush=True)
    finally:
        shutil.rmtree(scratch)
        tmp_root.rmdir()
    refs = {"versions": _versions(), "digests": digests}
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
