#!/usr/bin/env bash
# Lines of Rust per crate and in total, outside ledger/ (the benchmark
# package) — the number ROADMAP tracks. Counts tracked files only; it
# reports, it does not gate.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z '*.rs' ':!ledger' | xargs -0 wc -l | awk '
    $2 == "total" { next }
    { split($2, p, "/"); crate = p[1] == "crates" ? p[1] "/" p[2] : p[1]; n[crate] += $1; total += $1 }
    END { for (c in n) printf "%7d  %s\n", n[c], c | "sort -k2"; close("sort -k2")
          printf "%7d  total\n", total }'
