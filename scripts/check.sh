#!/bin/sh
# Full verification gate: build, vet, race-checked tests, and an HTTP
# smoke test of the levad serving daemon end to end (generate data,
# build a bundle, serve it, featurize over the wire, drain on SIGTERM).
# The race run is slow (the experiment suites re-run under -race);
# expect several minutes on a small machine.
set -eux
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test -race ./...
# Benchmark bodies compile under `go test` but never run there; one
# iteration of each ANN benchmark keeps them from breaking silently.
go test -run xxx -bench 'ANN' -benchtime 1x ./internal/ann ./internal/serve

# --- levad smoke test -------------------------------------------------
# Exercises the real binaries, not the in-process test harness: a
# levagen-generated dataset goes through `leva embed -bundle`, levad
# serves the bundle on an ephemeral port, and curl drives the API.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

go build -o "$SMOKE/bin/" ./cmd/leva ./cmd/levad ./cmd/levagen

"$SMOKE/bin/levagen" -dataset student -scale 0.05 -seed 7 -out "$SMOKE/csv"
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 \
    -out "$SMOKE/embedding.tsv" -bundle "$SMOKE/bundle"

"$SMOKE/bin/levad" -bundle "$SMOKE/bundle" -addr 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$SMOKE/levad.log" &
LEVAD_PID=$!

# Wait for the daemon to publish its bound address.
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad never became ready" >&2
        cat "$SMOKE/levad.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz"
curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' \
    -d '{"table":"expenses","rows":[{"name":"student_00001","gender":"female","school_name":"school_1"}],"exclude":["total_expenses"]}' \
    | grep -q '"features"'
# /metrics serves Prometheus text by default and the legacy JSON
# snapshot behind ?format=json; both must render from one registry.
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_http_requests_total{endpoint="featurize"} 1$'
curl -fsS "http://$ADDR/metrics?format=json" | grep -q '"requests"'

# The -debug-addr listener: pprof and the registry as JSON.
DEBUG_ADDR=$(cat "$SMOKE/addr.debug")
curl -fsS "http://$DEBUG_ADDR/debug/vars" | grep -q '"leva_http_requests_total"'
curl -fsS "http://$DEBUG_ADDR/debug/pprof/cmdline" > /dev/null

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "levad smoke test passed"

# --- corruption smoke test --------------------------------------------
# A single flipped byte in a published bundle must be refused — by the
# daemon at startup and by `leva apply` — with an error that names the
# integrity check, never silently served. Bundles are one binary file
# (bundle.bin, formatVersion 5) sealed by MANIFEST.json.
cp -r "$SMOKE/bundle" "$SMOKE/bundle_corrupt"
printf '\377' | dd of="$SMOKE/bundle_corrupt/bundle.bin" \
    bs=1 count=1 seek=12 conv=notrunc 2>/dev/null

if "$SMOKE/bin/leva" apply -bundle "$SMOKE/bundle_corrupt" -data "$SMOKE/csv" \
    -table expenses -out "$SMOKE/never.tsv" 2>"$SMOKE/apply_corrupt.log"; then
    echo "leva apply accepted a corrupt bundle" >&2
    exit 1
fi
grep -q 'bundle.bin' "$SMOKE/apply_corrupt.log"
grep -qi 'MANIFEST\|SHA-256' "$SMOKE/apply_corrupt.log"

if "$SMOKE/bin/levad" -bundle "$SMOKE/bundle_corrupt" -addr 127.0.0.1:0 \
    2>"$SMOKE/levad_corrupt.log"; then
    echo "levad served a corrupt bundle" >&2
    exit 1
fi
grep -q 'bundle.bin' "$SMOKE/levad_corrupt.log"

echo "corruption smoke test passed"

# --- live hot-reload smoke test ---------------------------------------
# Republish the bundle (new seed, same dim) while the daemon serves
# continuous traffic, SIGHUP it, and require: zero non-200 responses
# across the swap, the new embedding actually served, and a reload
# recorded on /metrics.
rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle" -addr 127.0.0.1:0 \
    -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_reload.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (reload run) never became ready" >&2
        cat "$SMOKE/levad_reload.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

FEAT_BODY='{"table":"expenses","rows":[{"name":"student_00001","gender":"female","school_name":"school_1"}],"exclude":["total_expenses"]}'
BEFORE=$(curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY")

: > "$SMOKE/codes"
(
    while [ ! -f "$SMOKE/stop_traffic" ]; do
        curl -s -o /dev/null -w '%{http_code}\n' -X POST "http://$ADDR/v1/featurize" \
            -H 'Content-Type: application/json' -d "$FEAT_BODY" >> "$SMOKE/codes" || true
    done
) &
TRAFFIC_PID=$!

# Atomically publish a different embedding (new seed, same dim) into
# the same directory, then hot-reload under the concurrent traffic.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 8 \
    -out "$SMOKE/embedding2.tsv" -bundle "$SMOKE/bundle"
kill -HUP "$LEVAD_PID"

i=0
until curl -fsS "http://$ADDR/healthz" | grep -q '"generation":2'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reload never completed" >&2
        cat "$SMOKE/levad_reload.log" >&2
        exit 1
    fi
    sleep 0.1
done

touch "$SMOKE/stop_traffic"
wait "$TRAFFIC_PID"

# Zero dropped or failed requests across the swap.
test -s "$SMOKE/codes"
if grep -qv '^200$' "$SMOKE/codes"; then
    echo "non-200 responses during hot reload:" >&2
    sort "$SMOKE/codes" | uniq -c >&2
    exit 1
fi

# The new embedding is actually serving (seed changed, so features
# must differ), and /metrics shows the reload.
AFTER=$(curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY")
if [ "$BEFORE" = "$AFTER" ]; then
    echo "featurization unchanged after reload" >&2
    exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reloads_total 1$'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_bundle_generation 2$'
curl -fsS "http://$ADDR/metrics?format=json" | grep -q '"reload"'

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "hot-reload smoke test passed"

# --- stage-cache smoke test -------------------------------------------
# Exercises the content-addressed incremental pipeline through the real
# binary: two identical builds against one cache must be all-stage hits
# with byte-identical output; mutating one CSV must re-tokenize only
# that table (textify=partial) and rebuild only the downstream stages.
CACHE="$SMOKE/stage-cache"

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_cold.tsv" > "$SMOKE/cache_cold.log"
grep -q 'cache: textify=rebuilt tables=0/3 graph=rebuilt embed=rebuilt' "$SMOKE/cache_cold.log"

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_warm.tsv" -metrics-dump \
    > "$SMOKE/cache_warm.log" 2> "$SMOKE/cache_warm_metrics.log"
grep -q 'cache: textify=cached tables=3/3 graph=cached embed=cached' "$SMOKE/cache_warm.log"
cmp "$SMOKE/cache_cold.tsv" "$SMOKE/cache_warm.tsv"

# -metrics-dump prints the build registry (Prometheus text) on stderr,
# and its cache counters agree with the report line: a fully warm build
# is two hits, zero misses.
grep -q '^# TYPE leva_build_stage_duration_seconds histogram$' "$SMOKE/cache_warm_metrics.log"
grep -q '^leva_builds_total 1$' "$SMOKE/cache_warm_metrics.log"
grep -q '^leva_build_cache_lookups_total{stage="embed",outcome="hit"} 1$' "$SMOKE/cache_warm_metrics.log"

# Mutate a single table: append a copy of the last data row.
LAST_ROW=$(tail -n 1 "$SMOKE/csv/price_info.csv")
printf '%s\n' "$LAST_ROW" >> "$SMOKE/csv/price_info.csv"

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_mut.tsv" > "$SMOKE/cache_mut.log"
grep -q 'cache: textify=partial tables=2/3 graph=rebuilt embed=rebuilt' "$SMOKE/cache_mut.log"

echo "stage-cache smoke test passed"

# --- ANN index smoke test ---------------------------------------------
# The HNSW index artifact end to end: `leva embed -index` publishes it
# (durably, content-addressed in the stage cache), `leva neighbors`
# queries it from the shell, levad serves it behind /v1/neighbors, and
# one SIGHUP hot-reloads bundle and index together without dropping the
# endpoint.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/ann_emb.tsv" -bundle "$SMOKE/bundle_ann" \
    -index "$SMOKE/index" > "$SMOKE/ann_embed.log"
grep -q 'saved ANN index' "$SMOKE/ann_embed.log"
test -s "$SMOKE/index/index.bin"
test -s "$SMOKE/index/MANIFEST.json"

# Rebuilding with the same inputs serves the index from the stage cache.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/ann_emb2.tsv" -index "$SMOKE/index2" \
    > "$SMOKE/ann_embed2.log"
grep -q 'vectors, cached' "$SMOKE/ann_embed2.log"
cmp "$SMOKE/index/index.bin" "$SMOKE/index2/index.bin"

# Shell query: row entities are keyed "table:rowIdx".
"$SMOKE/bin/leva" neighbors -index "$SMOKE/index" -token "expenses:0" -k 5 \
    > "$SMOKE/neighbors.tsv"
test "$(wc -l < "$SMOKE/neighbors.tsv")" -eq 5

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index" \
    -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_ann.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (ann run) never became ready" >&2
        cat "$SMOKE/levad_ann.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz" | grep -q '"annVectors"'
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
    | grep -q '"neighbors"'
curl -fsS -X POST "http://$ADDR/v1/neighbors" \
    -H 'Content-Type: application/json' \
    -d '{"token":"expenses:0","k":3}' | grep -q '"neighbors"'
# An unknown token is a clean 404, not an error page.
CODE=$(curl -s -o /dev/null -w '%{http_code}' \
    "http://$ADDR/v1/neighbors?token=definitely-not-indexed")
test "$CODE" = "404"
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_ann_index_size [1-9]'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_ann_queries_total'

# Republish bundle AND index with a new seed, hot-reload, and query the
# swapped-in index.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 9 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/ann_emb3.tsv" -bundle "$SMOKE/bundle_ann" \
    -index "$SMOKE/index" > /dev/null
kill -HUP "$LEVAD_PID"
i=0
until curl -fsS "http://$ADDR/healthz" | grep -q '"generation":2'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ann hot reload never completed" >&2
        cat "$SMOKE/levad_ann.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
    | grep -q '"neighbors"'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reloads_total 1$'

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "ann index smoke test passed"

# --- chaos / resilience smoke test ------------------------------------
# Arm the chaos harness against the ANN dependency (30% injected errors,
# 400ms injected latency on half the calls, against a 200ms dependency
# budget) and require: every neighbor query still answers a complete 200
# within the curl budget (degraded answers fall back to the exact scan,
# never a hung or hybrid response), the breaker transitions are visible
# on /metrics, a saturation burst sheds 429s carrying Retry-After, and
# disabling chaos at runtime recovers full, non-degraded service.
rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index" \
    -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" \
    -chaos 'seed=1;ann:err=0.3,lat=400ms,latrate=0.5' \
    -dep-timeout 200ms -breaker-failures 3 -breaker-open-for 1s \
    -max-inflight 2 -queue 0 2>"$SMOKE/levad_chaos.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (chaos run) never became ready" >&2
        cat "$SMOKE/levad_chaos.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz" | grep -q '"chaosEnabled":true'
curl -fsS "http://$ADDR/admin/chaos" | grep -q '"ann"'

: > "$SMOKE/chaos_codes"
i=0
while [ "$i" -lt 100 ]; do
    i=$((i + 1))
    curl -s --max-time 2 -o "$SMOKE/chaos_body" -w '%{http_code}\n' \
        "http://$ADDR/v1/neighbors?token=expenses:0&k=5" >> "$SMOKE/chaos_codes"
    # Hybrid guard: a degraded answer must never claim a cache hit.
    if grep -q '"degraded":true' "$SMOKE/chaos_body" \
        && grep -q '"cacheHit":true' "$SMOKE/chaos_body"; then
        echo "hybrid response: degraded and cacheHit both true" >&2
        exit 1
    fi
done
# Bounded tail latency: --max-time 2 turns a hang into a non-200 line.
if grep -qv '^200$' "$SMOKE/chaos_codes"; then
    echo "non-200 responses under ANN chaos (fallback must keep serving):" >&2
    sort "$SMOKE/chaos_codes" | uniq -c >&2
    exit 1
fi
curl -fsS "http://$ADDR/metrics" > "$SMOKE/chaos_metrics"
grep -q 'leva_resilience_degraded_total{endpoint="neighbors"} [1-9]' "$SMOKE/chaos_metrics"
grep -q 'leva_resilience_chaos_injections_total{target="ann"' "$SMOKE/chaos_metrics"
grep -q 'leva_resilience_breaker_transitions_total{dep="ann",to="open"} [1-9]' "$SMOKE/chaos_metrics"

# Saturation burst: 12 concurrent queries against 2 admission slots and
# no queue must shed — with 429s that carry Retry-After. Re-arm the
# harness with pure sub-budget latency first (no errors), so the breaker
# closes and every admitted request holds its slot for ~150ms.
curl -fsS -X POST "http://$ADDR/admin/chaos" -H 'Content-Type: application/json' \
    -d '{"rules": {"ann": {"errRate": 0, "latencyMs": 150, "latencyRate": 1}}}' \
    > /dev/null
i=0
until curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ann breaker never closed under success-only chaos" >&2
        curl -fsS "http://$ADDR/healthz" >&2 || true
        exit 1
    fi
    curl -s -o /dev/null "http://$ADDR/v1/neighbors?token=expenses:0&k=5"
    sleep 0.1
done
: > "$SMOKE/burst_codes"
rm -f "$SMOKE"/chaos_hdr_*
# Subshell so the bare wait sees only the burst curls, not the daemon.
(
    i=0
    while [ "$i" -lt 12 ]; do
        i=$((i + 1))
        curl -s --max-time 2 -o /dev/null -D "$SMOKE/chaos_hdr_$i" \
            -w '%{http_code}\n' "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
            >> "$SMOKE/burst_codes" &
    done
    wait
)
grep -q '^429$' "$SMOKE/burst_codes"
SHED=0
for f in "$SMOKE"/chaos_hdr_*; do
    if grep -q ' 429' "$f"; then
        SHED=1
        grep -qi '^retry-after:' "$f"
    fi
done
test "$SHED" = "1"
curl -fsS "http://$ADDR/metrics" | grep -q 'leva_shed_total{reason='

# Recovery: disable chaos at runtime, drive traffic until the breaker
# probes its way closed, then require clean (non-degraded) service.
curl -fsS -X POST "http://$ADDR/admin/chaos" -H 'Content-Type: application/json' \
    -d '{"enabled": false}' | grep -q '"enabled":false'
i=0
until curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "breaker never recovered after chaos was disabled" >&2
        curl -fsS "http://$ADDR/healthz" >&2 || true
        exit 1
    fi
    curl -s -o /dev/null "http://$ADDR/v1/neighbors?token=expenses:0&k=5"
    sleep 0.1
done
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" > "$SMOKE/chaos_clean"
grep -q '"neighbors"' "$SMOKE/chaos_clean"
if grep -q '"degraded":true' "$SMOKE/chaos_clean"; then
    echo "still degraded after recovery" >&2
    exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q 'leva_resilience_chaos_enabled 0'

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "chaos resilience smoke test passed"

# --- bundle migration smoke test --------------------------------------
# The binary (formatVersion 5) and legacy JSON (formatVersion 3)
# layouts must be interchangeable on the wire: convert the ann bundle
# to the legacy layout with `leva bundle convert`, serve both against
# the same index (the v5 daemon with -mmap, exercising the zero-copy
# fast path), and require byte-identical /v1/featurize and
# /v1/neighbors responses. The legacy load must warn but still serve.
"$SMOKE/bin/leva" bundle info "$SMOKE/bundle_ann" > "$SMOKE/info_v4.log"
grep -q 'version 5' "$SMOKE/info_v4.log"
grep -q 'bundle.bin' "$SMOKE/info_v4.log"

"$SMOKE/bin/leva" bundle convert -in "$SMOKE/bundle_ann" \
    -out "$SMOKE/bundle_legacy" -format legacy > "$SMOKE/convert.log"
"$SMOKE/bin/leva" bundle info "$SMOKE/bundle_legacy" > "$SMOKE/info_v3.log"
grep -q 'version 3' "$SMOKE/info_v3.log"
grep -q 'legacy JSON' "$SMOKE/info_v3.log"

FEAT_BODY='{"table":"expenses","rows":[{"name":"student_00001","gender":"female","school_name":"school_1"}],"exclude":["total_expenses"]}'

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index" -mmap \
    -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_v4.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (v4 migration run) never became ready" >&2
        cat "$SMOKE/levad_v4.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")
curl -fsS "http://$ADDR/healthz" | grep -q '"bundleFormat":5'
curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY" > "$SMOKE/v4_features.json"
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" > "$SMOKE/v4_neighbors.json"
kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_legacy" -index "$SMOKE/index" \
    -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_v3.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (legacy migration run) never became ready" >&2
        cat "$SMOKE/levad_v3.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")
grep -q 'legacy JSON bundle' "$SMOKE/levad_v3.log"
curl -fsS "http://$ADDR/healthz" | grep -q '"bundleFormat":3'
curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY" > "$SMOKE/v3_features.json"
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" > "$SMOKE/v3_neighbors.json"
kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

cmp "$SMOKE/v4_features.json" "$SMOKE/v3_features.json"
cmp "$SMOKE/v4_neighbors.json" "$SMOKE/v3_neighbors.json"

echo "bundle migration smoke test passed"

# --- int8 quantization smoke test -------------------------------------
# `leva embed -quantize` publishes a bundle with the v5 quant section
# (and the same float index artifact — quantization is a serving-time
# transform), levad -quantize serves neighbors from the int8 arena while
# /v1/featurize stays byte-identical to the float daemon, and 10 SIGHUP
# hot reloads under -mmap leave the daemon's bundle mapping count flat
# (the retired-generation munmap regression guard).
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 9 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/quant_emb.tsv" -bundle "$SMOKE/bundle_quant" \
    -index "$SMOKE/index_quant" -quantize > "$SMOKE/quant_embed.log"
grep -q 'quantized: int8 arena' "$SMOKE/quant_embed.log"
"$SMOKE/bin/leva" bundle info "$SMOKE/bundle_quant" > "$SMOKE/info_quant.log"
grep -q 'version 5' "$SMOKE/info_quant.log"
grep -q 'quantized:' "$SMOKE/info_quant.log"
# The saved index artifact is the same float index either way; the
# quant arena never changes what is published.
cmp "$SMOKE/index/index.bin" "$SMOKE/index_quant/index.bin"

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_quant" -index "$SMOKE/index_quant" \
    -quantize -mmap -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" \
    2>"$SMOKE/levad_quant.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (quant run) never became ready" >&2
        cat "$SMOKE/levad_quant.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz" | grep -q '"quantized":true'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_enabled 1$'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_arena_bytes [1-9]'
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
    | grep -q '"neighbors"'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_queries_total [1-9]'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_reranked_total [1-9]'

# Featurization is untouched by quantization: the bundle shares its
# float arena with the seed-9 bundle the migration test served, so the
# responses must be byte-identical.
curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY" > "$SMOKE/quant_features.json"
cmp "$SMOKE/v4_features.json" "$SMOKE/quant_features.json"

# Reload-leak guard: every SIGHUP remaps the bundle; the retired
# generation must be munmap'd once its requests drain, so the mapping
# count in /proc/<pid>/maps stays exactly where it started.
if [ -r "/proc/$LEVAD_PID/maps" ]; then
    MAPS_BEFORE=$(grep -c 'bundle_quant' "/proc/$LEVAD_PID/maps" || true)
    i=0
    while [ "$i" -lt 10 ]; do
        i=$((i + 1))
        kill -HUP "$LEVAD_PID"
        j=0
        until curl -fsS "http://$ADDR/healthz" | grep -q "\"generation\":$((i + 1))"; do
            j=$((j + 1))
            if [ "$j" -gt 100 ]; then
                echo "quant reload $i never completed" >&2
                cat "$SMOKE/levad_quant.log" >&2
                exit 1
            fi
            sleep 0.1
        done
    done
    MAPS_AFTER=$(grep -c 'bundle_quant' "/proc/$LEVAD_PID/maps" || true)
    if [ "$MAPS_BEFORE" != "$MAPS_AFTER" ]; then
        echo "mmap leak: $MAPS_BEFORE bundle mappings before reloads, $MAPS_AFTER after" >&2
        grep 'bundle_quant' "/proc/$LEVAD_PID/maps" >&2 || true
        exit 1
    fi
    # Quantized serving still healthy after the reload storm.
    curl -fsS "http://$ADDR/healthz" | grep -q '"quantized":true'
    curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
        | grep -q '"neighbors"'
fi

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "int8 quantization smoke test passed"
