#!/usr/bin/env bash
# Paired comparison of a change against its parent:
#
#   bench/pairs.sh PARENT CHANGE N [SECONDS [WORKLOAD...]]
#
# PARENT and CHANGE are checkouts of the repository (each is built once
# from its own bench/ directory) or already built benchmark binaries.
# Pair i runs every workload with seed i on both sides, the parent first
# in odd pairs and the change first in even ones, so a drift of the
# host during the comparison does not favour one side. Result files go to
# $PAIRS_OUT (default .bench_build/pairs)/{parent,change}; the script
# ends by printing bench/compare's verdict for every (workload, metric)
# and exits with its status. N should be at least 10.
set -euo pipefail

if (($# < 3)); then
	sed -n '2,13p' "$0" >&2
	exit 2
fi
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
parent=$1 change=$2 n=$3
seconds=${4:-15}
shift $(($# < 4 ? $# : 4))
workloads=("$@")
if ((${#workloads[@]} == 0)); then
	workloads=(knn-read knn-sharded mixed-durable predict)
fi
out=${PAIRS_OUT:-$here/../.bench_build/pairs}
mkdir -p "$out/parent" "$out/change"

binary() { # side source -> path of the side's benchmark binary
	if [[ -d $2 ]]; then
		(cd "$2/bench" && go build -o "$out/$1.bin" .)
		echo "$out/$1.bin"
	else
		echo "$2"
	fi
}
declare -A bin
bin[parent]=$(binary parent "$parent")
bin[change]=$(binary change "$change")

for ((i = 1; i <= n; i++)); do
	order=(parent change)
	if ((i % 2 == 0)); then
		order=(change parent)
	fi
	for w in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			echo "pair $i/$n: $w on $side" >&2
			"${bin[$side]}" -workload "$w" -seed "$i" -seconds "$seconds" -out "$out/$side" >/dev/null
		done
	done
done
cd "$here" && go run ./compare "$out/parent" "$out/change"
