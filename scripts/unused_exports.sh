#!/usr/bin/env bash
# Exported surface with no caller is carried for nothing. This takes every
# exported function and method defined under internal/ and in ctxsearch.go
# and fails unless its name occurs somewhere in the module's non-test Go —
# bench/, examples/ and cmd/ count as callers — outside comments and outside
# its own definition line. Matching is by name alone, so two methods sharing
# a name hide each other: a name the scan reports is certainly caller-less,
# one it passes may still be.
set -euf -o pipefail
cd "$(dirname "$0")/.."

# name<TAB>why it may stay without a caller. Only these reasons hold: an
# interface method, a reference implementation tests compare against, an
# input an open ROADMAP item names, the root ctxsearch facade's public API.
allow="
Unwrap	interface method: errors.Is/As reach the shard error's cause through it
BibliographicCoupling	test oracle: prestige/text_ref_test.go scores text prestige against the pairwise form
CoCitation	test oracle: prestige/text_ref_test.go, as above
NDCGAtK	ROADMAP item 9(a): the served-page metrics cmd/experiments search-level is to call
MeanAveragePrecision	ROADMAP item 9(a), as above
PrecisionRecallAtK	ROADMAP item 9(a), as above
InDegreeHistogram	ROADMAP item 8(a): the exponent fit of the skewed corpus is to call it
"

def='^func (\([^)]*\) )?'
files=$(find internal ctxsearch.go -name '*.go' ! -name '*_test.go')
src=$(mktemp)
trap 'rm -f "$src"' EXIT
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 sed -e 's://.*$::' >"$src"

status=0
# shellcheck disable=SC2086 # files is a word list
while IFS= read -r name; do
    uses=$(grep -cw -- "$name" "$src" || true)
    defs=$(grep -cE -- "$def$name[\[(]" "$src" || true)
    if ((uses <= defs)) && ! grep -q "^$name	" <<<"$allow"; then
        echo "unused_exports: $name has no caller outside tests ($(grep -lE -- "$def$name[\[(]" $files | tr '\n' ' '))" >&2
        status=1
    fi
done < <(grep -hoE -- "$def[A-Z][A-Za-z0-9_]*" $files | sed -E "s/$def//" | sort -u)
exit $status
