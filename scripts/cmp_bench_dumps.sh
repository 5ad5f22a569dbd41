#!/usr/bin/env bash
# Compare the registry and timeline dumps of two bench suite runs byte for
# byte.
#
# Usage: scripts/cmp_bench_dumps.sh <dir-a> <dir-b>
#
# Every *.metrics.json and *.timeline.json in either directory must exist in
# both and be identical. Exit status is non-zero on any difference or on a
# dump present on one side only. The reports (*.report.json) are left out:
# they carry wall-clock info rows.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 <dir-a> <dir-b>" >&2
  exit 2
fi

status=0
compared=0
dumps() { (cd "$1" && ls -- *.metrics.json *.timeline.json 2>/dev/null); }
for name in $({ dumps "$1"; dumps "$2"; } | sort -u); do
  if [ ! -f "$1/$name" ]; then
    echo "only in $2: $name"
    status=1
  elif [ ! -f "$2/$name" ]; then
    echo "only in $1: $name"
    status=1
  elif ! cmp "$1/$name" "$2/$name"; then
    status=1
  fi
  compared=$((compared + 1))
done
if [ "$compared" -eq 0 ]; then
  echo "no *.metrics.json or *.timeline.json dumps in $1 or $2" >&2
  exit 1
fi
echo "$compared dumps compared: $([ $status -eq 0 ] && echo identical || echo DIFFERENT)"
exit $status
