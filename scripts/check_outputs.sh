#!/usr/bin/env bash
# Checks that every experiment command pinned in
# cmd/experiments/testdata/outputs.sha256 prints the bytes whose sha256
# is recorded there, once at -workers 1 and once at the default width
# (GOMAXPROCS), and that every example pinned in examples/outputs.sha256
# and every idxpredict command pinned in cmd/idxpredict/testdata/
# outputs.sha256 does, once at GOMAXPROCS=1 and once at the default:
#
#   scripts/check_outputs.sh
#
# It builds cmd/experiments, each example, cmd/datagen and
# cmd/idxpredict once, prints one line per command and width, and exits
# non-zero if any digest differs, or if an idxpredict command measured
# on a saved snapshot (-load) prints other measured accesses than in
# memory. The five experiment commands take about 50 s over both widths
# on a 2-vCPU VM, the four examples and idxpredict a few seconds.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/experiments" ./cmd/experiments)

status=0
# check <want> <label> <command...> runs the command and compares the
# sha256 of what it prints with want.
check() {
	local want=$1 label=$2 got
	shift 2
	got=$("$@" | sha256sum | cut -d' ' -f1)
	if [[ $got == "$want" ]]; then
		echo "ok   $label"
	else
		echo "FAIL $label: sha256 $got, want $want" >&2
		status=1
	fi
}

while read -r want args; do
	[[ -z $want || $want == "#"* ]] && continue
	for width in "-workers 1" ""; do
		# Word splitting of $args and $width is intended: they are flags.
		# shellcheck disable=SC2086
		check "$want" "$args ${width:-(default width)}" "$tmp/experiments" $args $width
	done
done <"$root/cmd/experiments/testdata/outputs.sha256"

while read -r want example; do
	[[ -z $want || $want == "#"* ]] && continue
	(cd "$root" && go build -o "$tmp/$example" "./examples/$example")
	check "$want" "examples/$example GOMAXPROCS=1" env GOMAXPROCS=1 "$tmp/$example"
	check "$want" "examples/$example (default GOMAXPROCS)" "$tmp/$example"
done <"$root/examples/outputs.sha256"

(cd "$root" && go build -o "$tmp/datagen" ./cmd/datagen && go build -o "$tmp/idxpredict" ./cmd/idxpredict)
"$tmp/datagen" -spec texture60 -scale 0.02 -out "$tmp/t60.hdx" >/dev/null
predict=("$tmp/idxpredict" -data "$tmp/t60.hdx")
"${predict[@]}" -method basic -q 10 -save "$tmp/t60.hdsn" >/dev/null
while read -r want args; do
	[[ -z $want || $want == "#"* ]] && continue
	# shellcheck disable=SC2086
	check "$want" "idxpredict $args GOMAXPROCS=1" env GOMAXPROCS=1 "${predict[@]}" $args
	# shellcheck disable=SC2086
	check "$want" "idxpredict $args (default GOMAXPROCS)" "${predict[@]}" $args
	# Only the measured line is compared: the loaded run also prints
	# which read path (mapped or resident) the platform served from.
	# shellcheck disable=SC2086
	mem=$("${predict[@]}" $args | grep '^measured accesses:' || true)
	# shellcheck disable=SC2086
	loaded=$("${predict[@]}" $args -load "$tmp/t60.hdsn" | grep '^measured accesses:' || true)
	if [[ -n $mem && $loaded == "$mem" ]]; then
		echo "ok   idxpredict $args -load"
	else
		echo "FAIL idxpredict $args -load: \"$loaded\", in memory \"$mem\"" >&2
		status=1
	fi
done <"$root/cmd/idxpredict/testdata/outputs.sha256"
exit $status
