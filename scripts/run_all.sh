#!/usr/bin/env bash
# Run every sample config under scripts/configs/ into runs/<tag>/, then
# write runs/SHA256SUMS with one line per artifact.  The run reports are
# left out because they carry wall_clock_seconds, so two checkouts made
# the same artifacts exactly when their SHA256SUMS files do not differ.
# Must be run from the repository root (the reduce config uses a
# relative matrix path).  Takes about half a minute in total; the
# heavy runs are tree-loglaw and kg-mc.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for cfg in scripts/configs/*.cfg; do
    tag="$(basename "$cfg" .cfg)"
    echo "== $tag"
    if python3 -m ffdyn "$tag" --config "$cfg" --out "runs/$tag"; then
        :
    else
        echo "$tag exited with $?" >&2
        status=1
    fi
done
(cd runs && find . -type f ! -name '*-report.json' ! -name SHA256SUMS \
    | LC_ALL=C sort | xargs sha256sum) > runs/SHA256SUMS
exit "$status"
