#!/bin/sh
# Write the CSV of every figure preset, as computed by this checkout, into
# OUTDIR, with two more outputs: the drive sweep F = 0.5..2 at g = 0.867 and
# cutoffs (8,4) (D = 45) as strong_drive.csv, and fig5 at 21 points with
# --convergence-check (doubled cutoffs) as fig5_convergence.json.  Run it on
# two checkouts and compare them:
#
#   /path/to/old/scripts/preset_parity.sh /tmp/old
#   /path/to/new/scripts/preset_parity.sh /tmp/new
#   python3 /path/to/new/scripts/compare_presets.py /tmp/old /tmp/new
#
# The JSON's created_utc differs between runs by design; every other byte
# should match.  fig4a, fig4b and fig6 run at 21 x 21, the other presets at
# their default resolution.  Every BLAS runs on one thread, so the bits do not depend on
# the thread count.  A preset that exits non-zero (2: a solver failure,
# whose rows are still written) does not stop the rest; the script then
# exits with the last non-zero status.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 1
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$1
mkdir -p "$out" || exit 1
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
status=0
run() {
    name=$1
    shift
    python3 -m rotcav.cli "$@" --out "$out/$name" || status=$?
}
for name in fig4a fig4b fig6; do
    run "$name.csv" figure --name "$name" --count1 21 --count2 21
done
for name in fig5 fig7a fig7b fig8a fig8b; do
    run "$name.csv" figure --name "$name"
done
run strong_drive.csv sweep --axis1 drive_strength:0.5:2:8 --g 0.867 --na-cut 8 --nb-cut 4
run fig5_convergence.json figure --name fig5 --count1 21 --convergence-check --format json
exit $status
