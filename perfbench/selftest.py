"""Self-test of the benchmark: two runs of each workload at one seed must
report identical counts, in the untraced report and in the traced per-layer
metrics, and every run must pass its output checks.

    python3 perfbench/selftest.py [--seed 7] [--workload NAME ...]

Runs one benchmark process at a time.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

# counts that depend only on the inputs, never on timing or the number of
# rounds a run fits in
COUNTS = {
    0: ("detections", "emit_lag_max_pos"),
    1: (
        "builder.models_ok", "backend.calls", "backend.positions", "backend.madds",
        "backend.bytes_read", "runtime.crossings", "runtime.detections",
        "runtime.gate_yield", "runtime.push_calls",
    ),
}


def report(workload, seed, trace):
    """The run's report lines as {key: value}."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr}")
    out = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == workload:
            out[fields[1]] = float(fields[2])
    return {k: v for k, v in out.items() if k in COUNTS[trace]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workload:
        for trace in (0, 1):
            a = report(w, args.seed, trace)
            b = report(w, args.seed, trace)
            diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
            verdict = "identical" if not diff else f"DIFFER {diff}"
            print(f"{w:<15} trace={trace} {len(a)} counts {verdict}")
            ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
