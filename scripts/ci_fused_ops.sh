#!/usr/bin/env bash
# The Go spec lets the compiler fuse x*y + z into one multiply-add that
# rounds once, and on arm64, ppc64le, riscv64 and s390x it does. A build
# there would then score, rank and write state files with other bits than
# the amd64 build every golden pins. This cross-compiles the commands and
# the benchmark for each of those arches and fails on any fused instruction
# in a function of this module, listing the functions. Keep a product that
# feeds a sum unfused by writing it float64(a*b) + c, which the spec says
# rounds (and which compiles to the same instructions on amd64).
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
status=0
for spec in "arm64 FMADDD|FMSUBD|FNMADDD|FNMSUBD" \
    "riscv64 FMADDD|FMSUBD|FNMADDD|FNMSUBD" \
    "ppc64le FMADD|FMSUB|FNMADD|FNMSUB" \
    "s390x MADBR|MSDBR"; do
    arch="${spec%% *}" ops="${spec#* }"
    mkdir "$out/$arch"
    GOOS=linux GOARCH="$arch" go build -o "$out/$arch/" ./cmd/... ./bench/...
    for bin in "$out/$arch"/*; do
        # objdump prints "TEXT <symbol>(SB) <file>" per function, then one
        # tab-separated line per instruction with the mnemonic first in its
        # own field.
        go tool objdump "$bin" | awk -v ops="^($ops)\$" -v where="$arch $(basename "$bin")" '
            /^TEXT / { fn = $2; next }
            fn ~ /^ctxsearch[\/.]/ {
                n = split($0, f, "\t")
                for (i = 1; i <= n; i++) {
                    split(f[i], w, " ")
                    if (w[1] ~ ops) { sub(/^ +/, "", f[1]); print where ": " w[1] " in " fn " at " f[1]; break }
                }
            }'
    done
done | sort -u | tee "$out/found"
if [[ -s "$out/found" ]]; then
    echo "ci_fused_ops: fused multiply-adds in module code (write the product as float64(a*b))" >&2
    status=1
fi
exit $status
