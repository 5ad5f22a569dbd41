#!/usr/bin/env bash
# Nightly chaos sweep: replay every seeded chaos/churn schedule under many
# seeds. The chaos tests read DIESEL_CHAOS_SEED and re-derive their whole
# fault/churn timelines from it, so each iteration is a genuinely different
# deterministic run — same invariants, fresh schedule.
#
# Usage: scripts/chaos_sweep.sh [-B build_dir] [-n seeds] [-s first_seed]
#                               [-o out_dir] [-t "test1 test2 ..."]
#
# Logs are kept only for failing seeds (they become the CI artifact);
# exit status is non-zero iff any seed failed.
set -u

BUILD=build
SEEDS=32
FIRST=1
OUT=chaos-sweep-out
TESTS="integration_chaos_equivalence_test membership_churn_test integration_rescale_test integration_telemetry_determinism_test tenant_chaos_test cache_batched_read_equivalence_test"

while getopts "B:n:s:o:t:h" opt; do
  case "$opt" in
    B) BUILD="$OPTARG" ;;
    n) SEEDS="$OPTARG" ;;
    s) FIRST="$OPTARG" ;;
    o) OUT="$OPTARG" ;;
    t) TESTS="$OPTARG" ;;
    *) echo "usage: $0 [-B build_dir] [-n seeds] [-s first_seed]" \
            "[-o out_dir] [-t tests]" >&2
       exit 2 ;;
  esac
done

for t in $TESTS; do
  if [ ! -x "$BUILD/tests/$t" ]; then
    echo "error: $BUILD/tests/$t not built" >&2
    exit 2
  fi
done

mkdir -p "$OUT"
failed_seeds=""
for ((i = 0; i < SEEDS; i++)); do
  seed=$((FIRST + i))
  seed_ok=1
  # Failing tests auto-dump the flight recorder here (see
  # tests/testutil/flightrec_listener.h); empty dirs are pruned below so
  # only failures leave black boxes in the artifact.
  flightdir="$OUT/seed${seed}_flightrec"
  mkdir -p "$flightdir"
  for t in $TESTS; do
    log="$OUT/seed${seed}_${t}.log"
    if DIESEL_CHAOS_SEED=$seed DIESEL_FLIGHTREC_DIR="$flightdir" \
        "$BUILD/tests/$t" >"$log" 2>&1; then
      rm -f "$log"
    else
      seed_ok=0
      echo "FAIL seed=$seed $t (log kept: $log)"
    fi
  done
  rmdir "$flightdir" 2>/dev/null || true
  if [ "$seed_ok" -eq 1 ]; then
    echo "seed $seed OK"
  else
    failed_seeds="$failed_seeds $seed"
  fi
done

if [ -n "$failed_seeds" ]; then
  echo "failed seeds:$failed_seeds" | tee "$OUT/FAILED_SEEDS.txt"
  echo "re-run one locally with: DIESEL_CHAOS_SEED=<seed> $BUILD/tests/<test>"
  exit 1
fi
echo "all $SEEDS seeds passed"
