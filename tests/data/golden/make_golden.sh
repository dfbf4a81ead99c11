#!/bin/sh
# Writes the golden CLI outputs compared byte for byte by
# tests/test_golden.py.  Run from the repository root:
#
#     sh tests/data/golden/make_golden.sh
#
# These files pin the CLI's output; regenerate them only for a stated
# change of physics or format, never to make a change pass.
set -e
here=tests/data/golden
export PYTHONPATH=src
python3 -m rotcav.cli figure --name fig5 --count1 9 --na-cut 4 --nb-cut 2 --out $here/fig5.csv
python3 -m rotcav.cli figure --name fig7a --count1 9 --na-cut 4 --nb-cut 2 --out $here/fig7a.csv
python3 -m rotcav.cli point --delta -0.5 --g 0.867 --kappa2 1.2 --delta-f 0.3 \
    --na-cut 4 --nb-cut 2 --out $here/point.json > /dev/null
python3 -m rotcav.cli sweep --config $here/sweep_config.json --delta-f -0.2 \
    --drive-strength 0.1 --out $here/sweep_override.csv
