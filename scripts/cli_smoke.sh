#!/usr/bin/env bash
# End-to-end CLI smoke test: generate -> build -> info -> skyline -> topk.
set -euo pipefail
PCUBE_BIN="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$PCUBE_BIN" generate --rows 5000 --bool 2 --pref 2 --card 6 --out "$TMP/d.csv"
"$PCUBE_BIN" build --csv "$TMP/d.csv" --spec bbpp --header --db "$TMP/d.pcube"
"$PCUBE_BIN" info --db "$TMP/d.pcube" | grep -q "tuples:           5000"
"$PCUBE_BIN" skyline --db "$TMP/d.pcube" --where "0=v1" | grep -q "result(s)"
"$PCUBE_BIN" topk --db "$TMP/d.pcube" --k 5 --where "0=v1" --target 0.5,0.5 | grep -q "top 5"
# Unknown flags exit 2 instead of being ignored (a removed --shards, a typo).
rc=0; "$PCUBE_BIN" skyline --db "$TMP/d.pcube" --shards 2 2>/dev/null || rc=$?; [ "$rc" -eq 2 ]
rc=0; "$PCUBE_BIN" skyline --db "$TMP/d.pcube" --wher 0=v1 2>/dev/null || rc=$?; [ "$rc" -eq 2 ]
echo "cli smoke: OK"
