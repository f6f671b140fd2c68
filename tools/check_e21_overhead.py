#!/usr/bin/env python3
"""CI guard for the self-observability overhead (E21).

Reads e21_self_obs --json output and fails (exit 1) if the
self_metrics-ON tick costs more than --threshold (default 1.05) times
the OFF tick — the acceptance bar for the "__sys/" layer: 3 histogram
records per tick, plus 29 extra registry entries in the collect pass
(24 of them exact views of the counters the server keeps either way),
must amortize to noise against a 1024-entry collect. A ratio past the
bar means the instrument started perturbing the experiment (a lock on
the tick path, a per-tick allocation, an accidental page render per
tick).

The bench already defends the measurement itself: collector CPU (not
wall clock), medians over interleaved A/B repetitions so a noisy CI
neighbor taxes both configs alike. The guard therefore applies the 5%
bar directly rather than re-deriving noise tolerances here.

Usage: check_e21_overhead.py [e21.json] [--threshold=1.05]
Reads stdin when no file is given.
"""

import json
import sys

RATIO_COLUMN = "on/off ratio"
ON_ROW = "self_metrics on"


def main(argv):
    threshold = 1.05
    path = None
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            path = arg
    doc = json.load(open(path) if path else sys.stdin)

    for section in doc.get("sections", []):
        columns = section.get("columns", [])
        if RATIO_COLUMN not in columns:
            continue
        ratio_idx = columns.index(RATIO_COLUMN)
        for row in section.get("rows", []):
            if row[0] != ON_ROW:
                continue
            ratio = float(row[ratio_idx])
            if ratio > threshold:
                print(
                    f"check_e21_overhead: self_metrics ON costs "
                    f"{ratio:.3f}x the OFF tick > {threshold:.2f}x bar "
                    f"— the observability layer is perturbing the "
                    f"pipeline it measures"
                )
                return 1
            print(
                f"check_e21_overhead: OK — self_metrics ON is "
                f"{ratio:.3f}x the OFF tick (bar {threshold:.2f}x)"
            )
            return 0
    print(
        "check_e21_overhead: no 'self_metrics on' ratio row found — "
        "wrong input, or the bench produced no ticks?"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
