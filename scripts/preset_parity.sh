#!/bin/sh
# Write the CSV of every figure preset, as computed by this checkout, into
# OUTDIR, with six more outputs: the drive sweep F = 0.5..2 at g = 0.867 and
# cutoffs (8,4) (D = 45) as strong_drive.csv, and the same sweep at
# delta = 1 as strong_drive_detuned.csv; delta in {-5, -4} x F in {2, 3} at
# g = 2 and cutoffs (12,6) (D = 91) as hard_strong_drive.csv, whose points
# contract so slowly that the solver finishes them in its Krylov phase
# (delta = -4, F = 2 and delta = -5, F = 3 ran out of the fixed-point loop's
# budget before it); fig5 at 21 points with
# --convergence-check (doubled cutoffs) as fig5_convergence.json; a drive
# sweep from F = 0, whose first point is undriven (the vacuum is returned
# without iterating), as undriven.csv; and two points at F ~ 1e-13 on the
# exceptional point g = 1/(4 sqrt 2) at cutoffs (10,5), where the
# eigenvectors of H' are too close to dependent and the solver factors S^-1
# from H' with its loss rates scaled by 1 + sqrt(eps), as ill_conditioned.csv.
# No preset reaches either of the last two paths.  fig5, fig6, strong_drive
# and ill_conditioned lie on the mirror line delta + delta_f = 0, which the
# solver factors in real arithmetic; strong_drive_detuned is the strong-drive
# check of the complex path.  Run it on two checkouts and compare them:
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
run strong_drive_detuned.csv sweep --axis1 drive_strength:0.5:2:8 --g 0.867 --delta 1 --na-cut 8 --nb-cut 4
run hard_strong_drive.csv sweep --axis1 delta:-5:-4:2 --axis2 drive_strength:2:3:2 --g 2 --na-cut 12 --nb-cut 6
run fig5_convergence.json figure --name fig5 --count1 21 --convergence-check --format json
run undriven.csv sweep --axis1 drive_strength:0:0.1:3 --g 0.867
run ill_conditioned.csv sweep --axis1 drive_strength:1e-13:2e-13:2 --g 0.17677669529663687 --na-cut 10 --nb-cut 5
exit $status
