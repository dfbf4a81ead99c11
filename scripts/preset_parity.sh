#!/bin/sh
# Write the CSV of every figure preset, as computed by this checkout, into
# OUTDIR.  Run it on two checkouts and compare them byte for byte:
#
#   /path/to/old/scripts/preset_parity.sh /tmp/old
#   /path/to/new/scripts/preset_parity.sh /tmp/new
#   diff -r /tmp/old /tmp/new
#
# fig4a, fig4b and fig6 run at 21 x 21, the other presets at their default
# resolution.  Every BLAS runs on one thread, so the bits do not depend on
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
    python3 -m rotcav.cli figure --name "$name" "$@" --out "$out/$name.csv" || status=$?
}
for name in fig4a fig4b fig6; do
    run "$name" --count1 21 --count2 21
done
for name in fig5 fig7a fig7b fig8a fig8b; do
    run "$name"
done
exit $status
