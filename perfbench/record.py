"""Regenerate perfbench/recorded.json, the reference outputs that the
benchmark's output checks compare against:

    python3 perfbench/record.py

Run it only on a commit whose outputs are known good, and only when a change
is meant to alter detection outputs; the file pins them otherwise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    pkg = run.load_package()
    stream = {}
    for k in range(run.StreamChunked.table // run.StreamChunked.draws):
        wl = run.StreamChunked(pkg, k)
        wl.setup()
        for s, y in zip(wl.noise_seeds, wl.signals):
            _, dets = pkg.runtime.detect_samples(wl.dd, y, wl.cfg)
            stream[str(s)] = [[d.kind, d.position] for d in dets]
    push = {}
    for k in range(run.PushMad.table // run.PushMad.draws):
        wl = run.PushMad(pkg, k)
        wl.setup()
        for s, ref in zip(wl.noise_seeds, wl.chunk_reference()):
            push[str(s)] = len(ref)
    campaigns = {}
    for k in range(run.CampaignMix.bases):
        wl = run.CampaignMix(pkg, k)
        campaigns[str(wl.base)] = wl.round(lambda: None)["results"]
    grid = run.DeriveGrid(pkg, 0).round(lambda: None)["hashes"]
    recorded = {"stream_chunked": stream, "push_mad": push, "campaign_mix": campaigns, "derive_grid": grid}
    with open(run.RECORDED, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
