#!/usr/bin/env bash
# Checks that every experiment command pinned in
# cmd/experiments/testdata/outputs.sha256 prints the bytes whose sha256
# is recorded there, once at -workers 1 and once at the default width
# (GOMAXPROCS):
#
#   scripts/check_outputs.sh
#
# It builds cmd/experiments once, prints one line per command and
# width, and exits non-zero if any digest differs. The five commands
# take about 50 s over both widths on a 2-vCPU VM.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/experiments" ./cmd/experiments)

status=0
while read -r want args; do
	[[ -z $want || $want == "#"* ]] && continue
	for width in "-workers 1" ""; do
		# Word splitting of $args and $width is intended: they are flags.
		# shellcheck disable=SC2086
		got=$("$tmp/experiments" $args $width | sha256sum | cut -d' ' -f1)
		if [[ $got == "$want" ]]; then
			echo "ok   $args ${width:-(default width)}"
		else
			echo "FAIL $args ${width:-(default width)}: sha256 $got, want $want" >&2
			status=1
		fi
	done
done <"$root/cmd/experiments/testdata/outputs.sha256"
exit $status
