"""Record the digests of ``ring_large``'s records into ``digests.json``.

Run from the root of a checkout whose results are known to be right::

    python3 perfbench/record_digests.py

It runs the workload on the bitset and bank engines, each in a fresh
interpreter, and refuses to write unless both engines agree on every
cell. The digests depend only on the trials' master seed, which is
fixed, so they need recording again only if the workload's cells
change.
"""

import json
import sys
import time

from run import DIGESTS_PATH, spawn


def main() -> int:
    passes = [
        spawn(["pass", "--workload", "ring_large", "--engine", engine],
              time.monotonic() + 600)["digests"]
        for engine in ("bitset", "bank")
    ]
    if passes[0] != passes[1]:
        print(f"bitset and bank disagree; nothing written: {passes}", file=sys.stderr)
        return 1
    DIGESTS_PATH.write_text(json.dumps(passes[0], indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(passes[0])} digests to {DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
