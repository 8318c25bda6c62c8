#!/usr/bin/env bash
# Lines of Rust per crate and in total, outside ledger/ (the benchmark
# package) — the number ROADMAP tracks — and beside it the non-test
# lines: the same count less files under tests/ and crates/*/tests/ and
# less every `#[cfg(test)]` item whose next line opens a block, from the
# attribute through the `}` that closes it at the attribute's indent.
# Counts tracked files only; it reports, it does not gate.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z '*.rs' ':!ledger' | xargs -0 awk '
    FNR == 1 {
        split(FILENAME, p, "/"); crate = p[1] == "crates" ? p[1] "/" p[2] : p[1]
        testfile = p[1] == "tests" || (p[1] == "crates" && p[3] == "tests")
        held = 0; close_at = ""
    }
    { n[crate]++ }
    testfile { next }
    close_at != "" { if ($0 == close_at) close_at = ""; next }
    held {
        held = 0
        if ($0 ~ /\{$/) { match(attr, /^[ \t]*/); close_at = substr(attr, 1, RLENGTH) "}"; next }
        own[crate]++
    }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; attr = $0; next }
    { own[crate]++ }
    END {
        printf "%7s %9s\n", "lines", "non-test"
        for (c in n) { printf "%7d %9d  %s\n", n[c], own[c], c | "sort -k3"; total += n[c]; nontest += own[c] }
        close("sort -k3")
        printf "%7d %9d  total\n", total, nontest
    }'
