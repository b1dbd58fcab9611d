#!/usr/bin/env bash
# Runs the kernel microbenchmarks (sphere scan and leaf-intersection
# count, d=16 and d=60) and writes BENCH_kernels.json with the best
# ns/op of each benchmark and the flat-vs-reference speedups the
# acceptance criteria track. At d=60 the sphere scan is also timed
# streamed in 1,000-row chunks (sphere_scanner_d60, the resampled
# predictor's scan) and, on amd64, on the portable group kernel
# (compute_spheres_portable_d60); both speedups are over the same
# reference. Interleaved -count runs and per-benchmark minima keep the
# ratios robust against machine noise.
#
# Also runs the parallel-build and concurrent-sweep benchmarks
# (BenchmarkBuildWorkers in internal/rtree, BenchmarkSweepWorkers at
# the root) across pool widths 1/2/4/8 and writes BENCH_build.json
# with the best ns/op of each width and the w1/wN speedups. The
# speedups scale with the host's CPU count; on a single-CPU runner
# they sit at ~1.0 by construction (host_cpus records the context).
#
# The same file records R* insertion (BenchmarkDynamicInsert in
# internal/rtree: d60 grows the TEXTURE60 x 0.02 tree the serving
# benchmark's knn-read workload sets up, d4 a 4-d tree of height 6)
# under "dynamic_insert": the best ns and allocations per insert of
# each. One op grows a whole tree (5,509 or 20,000 inserts), so these
# run one op per -count run whatever BENCHTIME says.
#
# Also runs the pointer-vs-flat k-NN traversal benchmarks
# (BenchmarkKNNPointer / BenchmarkKNNFlat in internal/query, d=16 and
# d=60) and writes BENCH_knn.json with the best ns/op of each path and
# the pointer/flat speedup per dimensionality. The same file's "forest"
# block records BenchmarkKNNForest: one k-NN over S = 1/2/4/8 R* shards
# of TEXTURE60 x 0.02 — best ns/op, and the leaf and directory pages
# per query of the one-frontier search beside the leaf pages of a
# search per shard (scatter_leaf_per_q).
#
# Also runs the concurrent-serving benchmarks (BenchmarkServe and
# BenchmarkServeShards at the root: readers querying the live snapshot
# while a writer ingests and republishes, the latter sweeping the
# serving shard count) and writes BENCH_serve.json with the per-query
# latency quantiles, the sustained throughput, and the shard sweep —
# per-publication flatten time and durable bytes at S=1/4/8 plus the
# S=8-over-S=1 reduction ratios that dirty-shard-only republication
# buys.
#
# Also runs the persistence benchmark (BenchmarkPager at the root:
# indexes saved to real page-aligned snapshot files and searched again
# once reopened) and writes BENCH_pager.json with the predicted and
# measured leaf accesses, the file pages read per query of each
# (dataset, page size) cell, derived from the file layout, and the
# count of cells whose results over the opened file matched the
# in-memory search bit for bit.
#
# Every BENCH_*.json records host_cpus (the machine's CPU count) and
# gomaxprocs (the GOMAXPROCS the benchmarks actually ran at, taken
# from the benchmark-name suffix) so numbers are never compared across
# incomparable hosts unawares.
#
# Usage: scripts/bench.sh  [env: COUNT=3 BENCHTIME=20x OUT=BENCH_kernels.json BUILDOUT=BENCH_build.json KNNOUT=BENCH_knn.json SERVEOUT=BENCH_serve.json PAGEROUT=BENCH_pager.json]
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
BENCHTIME="${BENCHTIME:-20x}"
OUT="${OUT:-BENCH_kernels.json}"
BUILDOUT="${BUILDOUT:-BENCH_build.json}"
KNNOUT="${KNNOUT:-BENCH_knn.json}"
SERVEOUT="${SERVEOUT:-BENCH_serve.json}"
PAGEROUT="${PAGEROUT:-BENCH_pager.json}"
PROCS="$(nproc 2>/dev/null || echo 1)"

raw="$(go test -run='^$' -bench='^BenchmarkKernel' -benchtime="$BENCHTIME" -count="$COUNT" \
	./internal/query/ ./internal/mbr/)"
echo "$raw"

echo "$raw" | awk -v out="$OUT" -v count="$COUNT" -v benchtime="$BENCHTIME" -v procs="$PROCS" '
/^BenchmarkKernel/ {
	name = $1
	if (match(name, /-[0-9]+$/)) gm = substr(name, RSTART + 1, RLENGTH - 1)
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	ns = $3 + 0
	if (!(name in best) || ns < best[name]) best[name] = ns
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	printf "{\n" > out
	printf "  \"generated_by\": \"scripts/bench.sh\",\n" > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"count\": %d,\n", count > out
	printf "  \"host_cpus\": %d,\n", procs > out
	printf "  \"gomaxprocs\": %d,\n", (gm + 0 < 1 ? 1 : gm + 0) > out
	printf "  \"best_ns_per_op\": {\n" > out
	for (i = 1; i <= n; i++) {
		printf "    \"%s\": %.0f%s\n", order[i], best[order[i]], (i < n ? "," : "") > out
	}
	printf "  },\n" > out
	printf "  \"speedups\": {\n" > out
	m = split("compute_spheres_d16:KernelComputeSpheresFlat:KernelComputeSpheresRef " \
	          "compute_spheres_d60:KernelComputeSpheresFlat60:KernelComputeSpheresRef60 " \
	          "sphere_scanner_d60:KernelSphereScanner60:KernelComputeSpheresRef60 " \
	          "compute_spheres_portable_d60:KernelComputeSpheresPortable60:KernelComputeSpheresRef60 " \
	          "leaf_intersect_d16:KernelLeafIntersectFlat:KernelLeafIntersectRef " \
	          "leaf_intersect_d60:KernelLeafIntersectFlat60:KernelLeafIntersectRef60", pairs, " ")
	for (i = 1; i <= m; i++) {
		split(pairs[i], p, ":")
		flat = best["Benchmark" p[2]]; ref = best["Benchmark" p[3]]
		if (flat > 0 && ref > 0)
			printf "    \"%s\": %.2f%s\n", p[1], ref / flat, (i < m ? "," : "") > out
	}
	printf "  }\n}\n" > out
}'

echo "wrote $OUT:"
cat "$OUT"

buildraw="$(go test -run='^$' -bench='^BenchmarkBuildWorkers' -benchtime="$BENCHTIME" -count="$COUNT" \
	./internal/rtree/)"
echo "$buildraw"
sweepraw="$(go test -run='^$' -bench='^BenchmarkSweepWorkers' -benchtime="$BENCHTIME" -count="$COUNT" .)"
echo "$sweepraw"
insertraw="$(go test -run='^$' -bench='^BenchmarkDynamicInsert$' -benchtime=1x -count="$COUNT" ./internal/rtree/)"
echo "$insertraw"

printf '%s\n%s\n%s\n' "$buildraw" "$sweepraw" "$insertraw" | awk -v out="$BUILDOUT" -v count="$COUNT" -v benchtime="$BENCHTIME" -v procs="$PROCS" '
/^BenchmarkDynamicInsert\// {
	# custom metric columns come as "<value> <unit>" pairs; keep the
	# lowest of each per-insert figure across the -count runs.
	name = $1
	if (match(name, /-[0-9]+$/)) gm = substr(name, RSTART + 1, RLENGTH - 1)
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkDynamicInsert\//, "", name)
	for (i = 4; i < NF; i++) {
		u = $(i + 1); v = $i + 0
		if (u != "ns/insert" && u != "allocs/insert") continue
		key = name SUBSEP u
		if (!(key in ins) || v < ins[key]) ins[key] = v
	}
	if (!(name in iseen)) { iorder[++ni] = name; iseen[name] = 1 }
	next
}
/^Benchmark(Build|Sweep)Workers\// {
	name = $1
	if (match(name, /-[0-9]+$/)) gm = substr(name, RSTART + 1, RLENGTH - 1)
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	sub(/^Benchmark(Build|Sweep)Workers\//, "", name)
	ns = $3 + 0
	if (!(name in best) || ns < best[name]) best[name] = ns
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	printf "{\n" > out
	printf "  \"generated_by\": \"scripts/bench.sh\",\n" > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"count\": %d,\n", count > out
	printf "  \"host_cpus\": %d,\n", procs > out
	printf "  \"gomaxprocs\": %d,\n", (gm + 0 < 1 ? 1 : gm + 0) > out
	printf "  \"best_ns_per_op\": {\n" > out
	for (i = 1; i <= n; i++) {
		printf "    \"%s\": %.0f%s\n", order[i], best[order[i]], (i < n ? "," : "") > out
	}
	printf "  },\n" > out
	# Speedups are sequential-width time over each wider pool; on a
	# single-CPU host they sit at ~1.0 by construction.
	printf "  \"speedups_vs_w1\": {\n" > out
	m = split("d16 d60 table3", groups, " ")
	first = 1
	for (i = 1; i <= m; i++) {
		g = groups[i]
		base = best[g "/w1"]
		if (base <= 0) continue
		for (w = 2; w <= 8; w *= 2) {
			t = best[g "/w" w]
			if (t <= 0) continue
			if (!first) printf ",\n" > out
			printf "    \"%s_w%d\": %.2f", g, w, base / t > out
			first = 0
		}
	}
	printf "\n  }" > out
	if (ni > 0) {
		printf ",\n  \"dynamic_insert\": {\n" > out
		for (i = 1; i <= ni; i++) {
			name = iorder[i]
			printf "    \"%s\": {\"ns_per_insert\": %.0f, \"allocs_per_insert\": %.2f}%s\n", \
				name, ins[name, "ns/insert"], ins[name, "allocs/insert"], (i < ni ? "," : "") > out
		}
		printf "  }" > out
	}
	printf "\n}\n" > out
}'

echo "wrote $BUILDOUT:"
cat "$BUILDOUT"

knnraw="$(go test -run='^$' -bench='^BenchmarkKNN(Pointer|Flat)/' -benchtime="$BENCHTIME" -count="$COUNT" \
	./internal/query/)"
echo "$knnraw"
# One op of the forest benchmark is one query of its 400-query pool:
# 400x times each query once, whatever BENCHTIME says.
forestraw="$(go test -run='^$' -bench='^BenchmarkKNNForest/' -benchtime=400x -count="$COUNT" ./internal/query/)"
echo "$forestraw"

printf '%s\n%s\n' "$knnraw" "$forestraw" | awk -v out="$KNNOUT" -v count="$COUNT" -v benchtime="$BENCHTIME" -v procs="$PROCS" '
/^BenchmarkKNN(Pointer|Flat)\// {
	name = $1
	if (match(name, /-[0-9]+$/)) gm = substr(name, RSTART + 1, RLENGTH - 1)
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	ns = $3 + 0
	if (!(name in best) || ns < best[name]) best[name] = ns
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
/^BenchmarkKNNForest\// {
	# The page counts are fixed per sub-benchmark; only ns/op varies.
	s = $1
	sub(/-[0-9]+$/, "", s)
	sub(/^BenchmarkKNNForest\//, "", s)
	ns = $3 + 0
	if (!(s in fbest) || ns < fbest[s]) fbest[s] = ns
	if (!(s in fseen)) { forder[++fn] = s; fseen[s] = 1 }
	for (i = 5; i < NF; i += 2) {
		if ($(i + 1) == "leaf/q") fleaf[s] = $i
		if ($(i + 1) == "dir/q") fdir[s] = $i
		if ($(i + 1) == "scatter_leaf/q") fscatter[s] = $i
	}
}
END {
	printf "{\n" > out
	printf "  \"generated_by\": \"scripts/bench.sh\",\n" > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"count\": %d,\n", count > out
	printf "  \"host_cpus\": %d,\n", procs > out
	printf "  \"gomaxprocs\": %d,\n", (gm + 0 < 1 ? 1 : gm + 0) > out
	printf "  \"best_ns_per_op\": {\n" > out
	for (i = 1; i <= n; i++) {
		printf "    \"%s\": %.0f%s\n", order[i], best[order[i]], (i < n ? "," : "") > out
	}
	printf "  },\n" > out
	printf "  \"speedups_pointer_over_flat\": {\n" > out
	m = split("d16 d60", dims, " ")
	first = 1
	for (i = 1; i <= m; i++) {
		d = dims[i]
		ptr = best["BenchmarkKNNPointer/" d]
		flat = best["BenchmarkKNNFlat/" d]
		if (ptr <= 0 || flat <= 0) continue
		if (!first) printf ",\n" > out
		printf "    \"%s\": %.2f", d, ptr / flat > out
		first = 0
	}
	printf "\n  },\n" > out
	printf "  \"forest\": {\n" > out
	for (i = 1; i <= fn; i++) {
		s = forder[i]
		printf "    \"%s\": {\"best_ns_per_op\": %.0f, \"leaf_per_q\": %s, \"dir_per_q\": %s, \"scatter_leaf_per_q\": %s}%s\n", \
			s, fbest[s], fleaf[s], fdir[s], fscatter[s], (i < fn ? "," : "") > out
	}
	printf "  }\n}\n" > out
}'

echo "wrote $KNNOUT:"
cat "$KNNOUT"

serveraw="$(go test -run='^$' -bench='^BenchmarkServe(Shards)?$' -benchtime="$BENCHTIME" -count="$COUNT" .)"
echo "$serveraw"

echo "$serveraw" | awk -v out="$SERVEOUT" -v count="$COUNT" -v benchtime="$BENCHTIME" -v procs="$PROCS" '
/^BenchmarkServeShards\// {
	# The shard sweep: per-publication flatten time and durable bytes
	# at each shard count, best (lowest-cost / lowest-latency) of the
	# -count runs per cell.
	name = $1
	if (match(name, /-[0-9]+$/)) gm = substr(name, RSTART + 1, RLENGTH - 1)
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkServeShards\//, "", name)
	for (i = 4; i < NF; i++) {
		u = $(i + 1); v = $i + 0
		key = name SUBSEP u
		if (u == "flatten_ms_gen" || u == "kb_gen" || u == "p50_us" || u == "p95_us" || u == "p99_us") {
			if (!(key in sw) || v < sw[key]) sw[key] = v
		}
		if (u == "generations" && v > sw[key]) sw[key] = v
	}
	if (!(name in sseen)) { sorder[++sn] = name; sseen[name] = 1 }
	next
}
/^BenchmarkServe/ {
	if (match($1, /-[0-9]+$/)) gm = substr($1, RSTART + 1, RLENGTH - 1)
	# custom metric columns come as "<value> <unit>" pairs; keep the
	# best (lowest-latency / highest-throughput) run of each.
	for (i = 4; i < NF; i++) {
		u = $(i + 1); v = $i + 0
		if (u == "p50_us" && (!("p50" in m) || v < m["p50"])) m["p50"] = v
		if (u == "p95_us" && (!("p95" in m) || v < m["p95"])) m["p95"] = v
		if (u == "p99_us" && (!("p99" in m) || v < m["p99"])) m["p99"] = v
		if (u == "queries/s" && v > m["qps"]) m["qps"] = v
		if (u == "generations" && v > m["gen"]) m["gen"] = v
	}
}
END {
	printf "{\n" > out
	printf "  \"generated_by\": \"scripts/bench.sh\",\n" > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"count\": %d,\n", count > out
	printf "  \"host_cpus\": %d,\n", procs > out
	printf "  \"gomaxprocs\": %d,\n", (gm + 0 < 1 ? 1 : gm + 0) > out
	printf "  \"knn_latency_us\": {\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f},\n", \
		m["p50"], m["p95"], m["p99"] > out
	printf "  \"throughput_qps\": %.1f,\n", m["qps"] > out
	printf "  \"snapshot_generations\": %.0f,\n", m["gen"] > out
	printf "  \"shard_sweep\": {\n" > out
	for (i = 1; i <= sn; i++) {
		s = sorder[i]
		printf "    \"%s\": {\"flatten_ms_gen\": %.3f, \"kb_gen\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, \"generations\": %.0f}%s\n", \
			s, sw[s, "flatten_ms_gen"], sw[s, "kb_gen"], sw[s, "p50_us"], sw[s, "p95_us"], sw[s, "p99_us"], sw[s, "generations"], (i < sn ? "," : "") > out
	}
	printf "  }" > out
	# The publication-cost reductions sharding buys: S=1 cost over S=N
	# cost, per publication event (>= 2x at S=8 is the acceptance bar).
	if (sw["s1", "flatten_ms_gen"] > 0 && sw["s8", "flatten_ms_gen"] > 0) {
		printf ",\n  \"flatten_reduction_s8_vs_s1\": %.2f", \
			sw["s1", "flatten_ms_gen"] / sw["s8", "flatten_ms_gen"] > out
		printf ",\n  \"bytes_reduction_s8_vs_s1\": %.2f", \
			sw["s1", "kb_gen"] / sw["s8", "kb_gen"] > out
	}
	printf "\n}\n" > out
}'

echo "wrote $SERVEOUT:"
cat "$SERVEOUT"

pagerraw="$(go test -run='^$' -bench='^BenchmarkPager$' -benchtime="$BENCHTIME" -count="$COUNT" .)"
echo "$pagerraw"

echo "$pagerraw" | awk -v out="$PAGEROUT" -v count="$COUNT" -v benchtime="$BENCHTIME" -v procs="$PROCS" '
/^BenchmarkPager/ {
	if (match($1, /-[0-9]+$/)) gm = substr($1, RSTART + 1, RLENGTH - 1)
	# custom metric columns come as "<value> <unit>" pairs; the run is
	# seeded so repeats agree — keep the first value of each unit.
	for (i = 4; i < NF; i++) {
		u = $(i + 1); v = $i + 0
		if (u ~ /_(pred_leaf|meas_leaf|pages_q)$/ || u == "identical_rows") {
			if (!(u in seen)) { order[++n] = u; seen[u] = 1; m[u] = v }
		}
	}
}
END {
	printf "{\n" > out
	printf "  \"generated_by\": \"scripts/bench.sh\",\n" > out
	printf "  \"benchtime\": \"%s\",\n", benchtime > out
	printf "  \"count\": %d,\n", count > out
	printf "  \"host_cpus\": %d,\n", procs > out
	printf "  \"gomaxprocs\": %d,\n", (gm + 0 < 1 ? 1 : gm + 0) > out
	printf "  \"metrics\": {\n" > out
	for (i = 1; i <= n; i++) {
		printf "    \"%s\": %.2f%s\n", order[i], m[order[i]], (i < n ? "," : "") > out
	}
	printf "  }\n}\n" > out
}'

echo "wrote $PAGEROUT:"
cat "$PAGEROUT"
