#!/usr/bin/env bash
# Time the experiment suite: build the 22 `crates/bench/src/bin`
# binaries in release mode, run them one after another, and print each
# binary's wall-clock and peak RSS, then the totals. This is the
# suite's end-to-end number (ROADMAP.md); it only reports and gates
# nothing.
#
# Every binary writes its `results/*.json` into one directory through
# `FPK_RESULTS_DIR`: a temporary directory that is removed afterwards,
# or <results-dir> when given, which is kept. Two runs into two kept
# directories can be compared with `diff -r`.
#
# Peak RSS is the child's own `ru_maxrss`, read with Python 3's
# `os.wait4` (the per-child form of `resource.getrusage(RUSAGE_CHILDREN)`),
# so the script needs neither `/usr/bin/time` nor `bc`. Linux carries the
# launcher's resident set at fork into that figure, so the first line
# reports this floor (the same measurement of `true`): a binary shown at
# the floor used no more than it.
#
# Usage: ./scripts/suite_time.sh [results-dir]

set -euo pipefail
keep="${1:+$(realpath -m "$1")}"
cd "$(dirname "$0")/.."

cargo build --release -q -p fpk-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"

if [[ -n "$keep" ]]; then
    out="$keep"
    mkdir -p "$out"
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi

FPK_RESULTS_DIR="$out" python3 - "$bin_dir" crates/bench/src/bin/*.rs <<'EOF'
import os
import subprocess
import sys
import time

bin_dir, sources = sys.argv[1], sys.argv[2:]
names = sorted(os.path.splitext(os.path.basename(s))[0] for s in sources)


def run(argv):
    """Run argv to completion: (wall seconds, peak RSS MiB, exit code)."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return time.perf_counter() - start, usage.ru_maxrss / 1024.0, child.returncode


total_wall, peak_rss, failed = 0.0, 0.0, []
print(f"{'binary':<32} {'wall_s':>9} {'peak_rss_mb':>12}")
print(f"{'(launcher floor: true)':<32} {'':>9} {run(['true'])[1]:>12.1f}")
for name in names:
    wall, rss_mb, code = run([os.path.join(bin_dir, name)])
    total_wall += wall
    peak_rss = max(peak_rss, rss_mb)
    mark = "" if code == 0 else f"  FAILED (exit {code})"
    if code != 0:
        failed.append(name)
    print(f"{name:<32} {wall:>9.2f} {rss_mb:>12.1f}{mark}", flush=True)
print(f"{'total (' + str(len(names)) + ' binaries)':<32} {total_wall:>9.2f} {peak_rss:>12.1f}")
sys.exit(1 if failed else 0)
EOF
