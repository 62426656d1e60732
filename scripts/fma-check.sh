#!/usr/bin/env bash
# fma-check: count fused multiply-add instructions in an arm64 build.
#
# The Go spec lets a compiler fuse x*y + z into one instruction with a
# single rounding; amd64 never does, arm64 does. A fused product in the
# simulation packages makes their outputs differ by architecture, so
# this script cross-builds cmd/pvcbench with GOARCH=arm64, disassembles
# it with `go tool objdump` and counts FMADD, FMSUB, FNMADD and FNMSUB
# per function. It fails if a function of internal/{sim,fabric,mpirt,
# gpusim,topology} has one, and prints the counts for every other pvcsim
# package as information. An explicit conversion of the product,
# float64(x*y) or units.Seconds(x*y), prevents the fusion. Only the
# local toolchain is needed.
#
#   bash scripts/fma-check.sh
set -euo pipefail
export LC_ALL=C

GO="${GO:-go}"
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

GOOS=linux GOARCH=arm64 CGO_ENABLED=0 "$GO" build -o "$tmp/pvcbench" ./cmd/pvcbench
"$GO" tool objdump -s '^pvcsim/' "$tmp/pvcbench" >"$tmp/dis.txt"

# One "count function" line per function with a fused instruction.
awk '
	/^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn); next }
	$4 ~ /^FN?M(ADD|SUB)[DS]$/ { n[fn]++ }
	END { for (f in n) print n[f], f }
' "$tmp/dis.txt" | sort -k2 >"$tmp/counts.txt"

gated='^pvcsim/internal/(sim|fabric|mpirt|gpusim|topology)\.'
fail=0
while read -r count fn; do
	if [[ "$fn" =~ $gated ]]; then
		echo "FAIL $count fused multiply-add in $fn"
		fail=1
	else
		echo "info $count fused multiply-add in $fn"
	fi
done <"$tmp/counts.txt"

if [ "$fail" -ne 0 ]; then
	echo "fma-check: fused multiply-add in a simulation package; convert the product explicitly"
	exit 1
fi
echo "fma-check: no fused multiply-add in internal/{sim,fabric,mpirt,gpusim,topology}"
