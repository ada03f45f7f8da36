#!/usr/bin/env bash
# A `go test -run '<pattern>'` (or -bench) that matches nothing passes
# silently, so a renamed or deleted test can quietly drop out of CI. This
# takes every quoted -run/-bench pattern in the workflow and the Makefile and
# fails unless each of its |-alternatives still names a test, benchmark or
# fuzz target in the packages on its line (`go test -list`).
set -euf -o pipefail
cd "$(dirname "$0")/.."

declare -A listed
status=0
while IFS= read -r line; do
    pkgs=""
    for tok in $line; do
        [[ "$tok" == ./* || "$tok" == . ]] && pkgs+=" $tok"
    done
    if [[ -z "${listed[$pkgs]:-}" ]]; then
        # shellcheck disable=SC2086 # pkgs is a word list
        listed[$pkgs]="$(go test -list '.*' $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')"
    fi
    while IFS= read -r alt; do
        if ! grep -qE -- "$alt" <<<"${listed[$pkgs]}"; then
            echo "ci_run_patterns: '$alt' selects nothing in$pkgs — $line" >&2
            status=1
        fi
    done < <(grep -oE -- "-(run|bench) '[^']*'" <<<"$line" | cut -d"'" -f2 | tr '|' '\n')
done < <(grep -hE -- "(go|\(GO\)) test .*-(run|bench) '" .github/workflows/verify.yml Makefile)
exit $status
