#!/usr/bin/env bash
# End-to-end lifecycle smoke for the resolution server, driven entirely
# through the CLI: start `minoan serve` on an ephemeral port (one sweep
# worker, which also runs the universe token pass), discover
# the address via --addr-file, fire a mixed burst of RESOLVE / INGEST /
# STATS through `minoan query`, and shut the server down cleanly. Fails
# if any query errors, if the cache counters or the ingest's cleared
# count break the one-version rule, or if the server does not exit after
# SHUTDOWN.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p minoan-cli
MINOAN=target/release/minoan

workdir="$(mktemp -d)"
serve_pid=""
# A failed check exits early: stop the server it would leave behind.
trap '[ -z "$serve_pid" ] || kill "$serve_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
addr_file="$workdir/addr.txt"
serve_log="$workdir/serve.log"

"$MINOAN" serve --profile center --entities 400 --seed 9 \
  --weighting js --pruning wnp --cache 256 --preload 300 \
  --workers 2 --sweep-workers 1 --port 0 --addr-file "$addr_file" \
  >"$serve_log" 2>&1 &
serve_pid=$!

# The server writes its ephemeral address (newline-terminated) before
# it starts accepting; poll for it with a deadline.
for _ in $(seq 1 200); do
  if [ -s "$addr_file" ] && grep -q . "$addr_file"; then
    break
  fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "serve exited before binding:" >&2
    cat "$serve_log" >&2
    exit 1
  fi
  sleep 0.05
done
addr="$(tr -d '[:space:]' <"$addr_file")"
[ -n "$addr" ] || { echo "no address in $addr_file" >&2; exit 1; }
echo "serve listening on $addr"

# Mixed burst: resolves on hot + cold entities, an ingest that bumps the
# corpus version, resolves again (now at the new version), then stats.
# The cache holds one corpus version: the repeat of 7 hits, the ingest
# clears both cached answers, and 7 misses again after it. The --preload
# is the first ingest STATS counts.
expect() { # what, want, got
  case "$3" in
    *"$2"*) ;;
    *) echo "$1: expected '$2' in: $3" >&2; exit 1 ;;
  esac
}
"$MINOAN" query --addr "$addr" --entity 7 --show 3
"$MINOAN" query --addr "$addr" --entity 7 --show 3
"$MINOAN" query --addr "$addr" --entity 42
stats="$("$MINOAN" query --addr "$addr" --stats)"
echo "$stats"
expect "a repeat within one version" "resolves 3 hits 1 misses 2 ingests 1" "$stats"
ingested="$("$MINOAN" query --addr "$addr" --ingest 300,301,302,303)"
echo "$ingested"
expect "the ingest clears the cache" "invalidated 2" "$ingested"
"$MINOAN" query --addr "$addr" --entity 7 --show 3
stats="$("$MINOAN" query --addr "$addr" --stats)"
echo "$stats"
expect "the first read after an ingest" "resolves 4 hits 1 misses 3 ingests 2" "$stats"

# A rejected ingest (already-arrived entity) must not kill the server.
if "$MINOAN" query --addr "$addr" --ingest 300 2>/dev/null; then
  echo "duplicate ingest unexpectedly succeeded" >&2
  exit 1
fi
"$MINOAN" query --addr "$addr" --stats >/dev/null

"$MINOAN" query --addr "$addr" --shutdown

# SHUTDOWN must terminate the serve process (bounded wait).
for _ in $(seq 1 200); do
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    break
  fi
  sleep 0.05
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "server still running after SHUTDOWN" >&2
  kill "$serve_pid"
  exit 1
fi
wait "$serve_pid"

grep -q "listening on" "$serve_log"
grep -q "served" "$serve_log"
echo "serve smoke: lifecycle OK"
echo "--- serve log ---"
cat "$serve_log"
