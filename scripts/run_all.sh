#!/usr/bin/env bash
# Run every sample config under scripts/configs/ into runs/<tag>/, then
# write runs/SHA256SUMS with one line per artifact.  The run reports are
# left out because they carry wall_clock_seconds, so two checkouts made
# the same artifacts exactly when their SHA256SUMS files do not differ.
#
#   scripts/run_all.sh [--check FILE]
#
# With --check FILE (for example another checkout's runs/SHA256SUMS), the
# new runs/SHA256SUMS is compared with FILE afterwards; any difference is
# printed and the script exits non-zero.  Each run first deletes its old
# runs/<tag>/, so a run that fails leaves no artifact and shows up as a
# difference.  Must be run from the repository root (the reduce config uses
# a relative matrix path), with ffdyn importable by python3: PYTHONPATH=src
# or an installed package.  Takes about 4.2 s in total on a 2-CPU Xeon
# with Python 3.11.7, about half of it interpreter start and imports; by
# their reports the longest runs are tree-loglaw and strong-bc (about
# 0.5 s each), then kg-mc and xi-decay (about 0.2 s each; the exact sums
# are about 0.01 s of xi-decay, the rest is Monte Carlo) and mult-mc
# (about 0.15 s).
set -euo pipefail

expected=""
if [[ $# -gt 0 ]]; then
    if [[ $# -ne 2 || "$1" != "--check" ]]; then
        echo "usage: $0 [--check FILE]" >&2
        exit 2
    fi
    # read now: FILE may be a relative path, or runs/SHA256SUMS itself
    expected="$(cat "$2")"
fi
cd "$(dirname "$0")/.."

status=0
mkdir -p runs
for cfg in scripts/configs/*.cfg; do
    tag="$(basename "$cfg" .cfg)"
    echo "== $tag"
    rm -rf "runs/$tag"
    if python3 -m ffdyn "$tag" --config "$cfg" --out "runs/$tag"; then
        :
    else
        echo "$tag exited with $?" >&2
        status=1
    fi
done
(cd runs && find . -type f ! -name '*-report.json' ! -name SHA256SUMS \
    | LC_ALL=C sort | xargs -r sha256sum) > runs/SHA256SUMS
if [[ $# -gt 0 ]]; then
    if diff <(printf '%s\n' "$expected") runs/SHA256SUMS; then
        echo "runs/SHA256SUMS matches $2"
    else
        echo "runs/SHA256SUMS differs from $2" >&2
        status=1
    fi
fi
exit "$status"
