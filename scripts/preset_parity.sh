#!/bin/sh
# Write every figure preset and ten more outputs, as computed by this
# checkout's src/, into OUTDIR: one NAME.csv (or .json) each, with its
# stderr as NAME.err, so the solver's exit messages are compared too.
# Compare two checkouts with:
#
#   /path/to/old/scripts/preset_parity.sh /tmp/old
#   /path/to/new/scripts/preset_parity.sh /tmp/new
#   python3 /path/to/new/scripts/compare_presets.py /tmp/old /tmp/new
#
# Every byte should match except the JSON's created_utc.  Every BLAS runs on
# one thread, so the bits do not depend on the thread count.  A run that
# exits non-zero (2: a solver failure, whose rows are still written) does
# not stop the rest, and the script exits with the last non-zero status;
# extreme_g exits 2 by design.
#
# fig4a, fig4b and fig6 run at 21 x 21, the other presets at their default
# resolution.  The other outputs, and the solver path each covers:
#   fig7a_10_5            fig7a at 41 points, (10,5): the per-point population floor
#   strong_drive          F = 0.5..2 at g = 0.867, (8,4), on the mirror line: real path
#   strong_drive_detuned  the same at delta = 1: complex path
#   hard_strong_drive     delta {-5,-4} x F {2,3} at g = 2, (12,6): Krylov phase
#   stalled_strong_drive  delta {-6,-5,-4} x F {0.5,1} at g = 0.3, (8,4): Krylov phase,
#                         entered flat (F = 0.5 at delta -6, -5) or at iteration 8
#   fig5_convergence      fig5 at 21 points with --convergence-check (doubled cutoffs)
#   undriven              F = 0..0.1: the undriven vacuum, returned without iterating
#   ill_conditioned       F ~ 1e-13 at g = 1/(4 sqrt 2), (10,5): the decay-scaled retry
#   weak_off_line         F = 1e-17..1e-15 at delta = 1: the middle step's floor
#   extreme_g             g in {1e199, 1e200}: two certificate failures
# No preset reaches the last four paths.
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
    python3 -m rotcav.cli "$@" --out "$out/$name" 2>"$out/${name%.*}.err" || status=$?
}
for name in fig4a fig4b fig6; do
    run "$name.csv" figure --name "$name" --count1 21 --count2 21
done
for name in fig5 fig7a fig7b fig8a fig8b; do
    run "$name.csv" figure --name "$name"
done
run fig7a_10_5.csv figure --name fig7a --count1 41 --na-cut 10 --nb-cut 5
run strong_drive.csv sweep --axis1 drive_strength:0.5:2:8 --g 0.867 --na-cut 8 --nb-cut 4
run strong_drive_detuned.csv sweep --axis1 drive_strength:0.5:2:8 --g 0.867 --delta 1 --na-cut 8 --nb-cut 4
run hard_strong_drive.csv sweep --axis1 delta:-5:-4:2 --axis2 drive_strength:2:3:2 --g 2 --na-cut 12 --nb-cut 6
run stalled_strong_drive.csv sweep --axis1 delta:-6:-4:3 --axis2 drive_strength:0.5:1:2 --g 0.3 --na-cut 8 --nb-cut 4
run fig5_convergence.json figure --name fig5 --count1 21 --convergence-check --format json
run undriven.csv sweep --axis1 drive_strength:0:0.1:3 --g 0.867
run ill_conditioned.csv sweep --axis1 drive_strength:1e-13:2e-13:2 --g 0.17677669529663687 --na-cut 10 --nb-cut 5
run weak_off_line.csv sweep --axis1 drive_strength:1e-17:1e-15:3 --delta 1 --g 0.867
run extreme_g.csv sweep --axis1 g:1e199:1e200:2 --drive-strength 0.05
exit $status
