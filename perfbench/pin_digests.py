"""Regenerate perfbench/digests.json, the pinned pooled output digests.

For every workload and every seed block 0 .. PINNED_BLOCKS-1, pools the
block's first PINNED_SEEDS replications with `merge` and records
`output_digest` of the pooled report. Regenerate only when the model changes on purpose.

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rachsim import merge  # noqa: E402

from workloads import (  # noqa: E402
    DIGESTS_PATH,
    PINNED_BLOCKS,
    PINNED_SEEDS,
    WORKLOADS,
    block_seed,
    output_digest,
    replicate,
)


def main() -> None:
    digests = {}
    for workload, base in WORKLOADS.items():
        digests[workload] = [
            output_digest(
                merge(
                    replicate(base, block_seed(b, i)).report
                    for i in range(PINNED_SEEDS)
                )
            )
            for b in range(PINNED_BLOCKS)
        ]
        print(workload, "pinned", PINNED_BLOCKS, "blocks", flush=True)
    DIGESTS_PATH.write_text(
        json.dumps({"pinned_seeds": PINNED_SEEDS, "digests": digests}, indent=1)
        + "\n"
    )


if __name__ == "__main__":
    main()
