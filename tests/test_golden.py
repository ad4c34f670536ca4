"""Pinned outputs of the exact layer: sha256 digests in tests/golden.json.

Each model of the grid below is one case. Its digests cover the built
operator's text, the verification report, the symbolic kernels and, at two
windows, the float weight rows and the exact integer rows they come from, plus
the weight rows of the Simpson rule at W 385 and of the unprojected
(``project=False``) trapezoid rule at W 64. A change that moves any of them
fails under the model's label and names the fields that moved.

The stream cases pin what a StreamDetector emits on pc5 at 10 dB normal noise
(W 96, step detector, kappa 3), noise seeds 0-3: the event list of every call
(call index, position, kind, repr of score and time; finalize is the call after
the last push), fed one sample per push() and seven per push_chunk(), under a
fixed scale and under the trailing MAD. The sine3 stream cases pin the same
event lists on sine3 at 25 dB normal noise under the trailing MAD, the scale
its reference setup gates with. The min_separation=0 stream cases pin pc5 at
10 dB again under the trailing MAD with no merge distance, so a stream drains
every few positions and the engine runs its smallest calls. The noisy samples
are a case of their own, so a mismatch there reads as signal drift, not
detector drift.

The campaign cases pin run_campaign on three reference campaigns (pc5 normal
at 0 dB, poly6 perlin at 20 dB, sine3 normal at 25 dB), with enough trials
that each crosses a boundary between groups of trials evaluated together:
each trial's detections (position, kind, repr of score and time) and the
summary (histogram, exact, within-one, repr of the mean absolute error). The
noisy signal of every trial is again a case of its own.

The clean cases pin the gate on noise-free inputs, the ones where the dust
floor rejects crossings that noise would carry past it: each reference suite
rendered without noise through its reference setup's detector, and hard_signal(5000, 64, 3) of
tests/test_engine_oracle.py through the W-64 step detector at kappa 3. Each
pins the bytes of trace.d and, under a fixed scale W**-0.5 and under the MAD,
the batch detections (position, kind, repr of score and time) and the stream
event lists at chunks 1 and 7. The clean samples are a case of their own.

The pipeline cases pin each artifact of acceptance criterion 7's seeded CLI
pipeline (run_pipeline in tests/test_acceptance.py) by its sha256, one case
per artifact; sig.csv, the simulated signal, is one of them.

The short cases pin the window engine's short path (_eval_short) on real
inputs: the bytes of vnu, sigma and rms from eval_windows_raw with the W-96
step detector's weights, over a slice of the pc5 10 dB noisy signal (noise
seed 0) and over a (3, n) block of seeds 0-2, each slice starting at
SHORT_START and long enough for a given number of positions, every call under
SHORT positions over all rows.

Regenerate the file after a deliberate change with

    python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from algcpd._engine import SHORT, eval_windows_raw  # noqa: E402
from algcpd._exact import Polynomial, RationalFunction as RF  # noqa: E402
from algcpd.bench import REFERENCE_SETUPS, DetectorSetup, reference_campaign, run_campaign  # noqa: E402
from algcpd.builder import ModelSpec, build_detector, verify_detector  # noqa: E402
from algcpd.kernels import discretize, kernelize  # noqa: E402
from algcpd.noise import apply_noise  # noqa: E402
from algcpd.runtime import DetectConfig, StreamDetector, detect, eval_windows  # noqa: E402
from algcpd.signals import builtin_suite, render  # noqa: E402
from test_acceptance import run_pipeline  # noqa: E402
from test_engine_oracle import hard_signal  # noqa: E402

WINDOWS = (64, 385)
STREAM_SEEDS = range(4)
STREAM_WINDOW = 96
# (suite, SNR dB, gate scales, min_separation s): each stream case's signal,
# the scales it runs and its merge distance (None: the default, one window)
STREAMS = (
    ("pc5", 10.0, (("fixed", STREAM_WINDOW ** -0.5), ("mad", None)), None),
    ("sine3", 25.0, (("mad", None),), None),
    ("pc5", 10.0, (("mad", None),), 0.0),
)
# (rows, positions) of each short-path call: rows 1 is noise seed 0 alone,
# rows 3 the block of seeds 0-2
SHORT_CALLS = ((1, 1), (1, 2), (1, 10), (1, 107), (1, 255), (3, 1), (3, 10), (3, 85))
# first sample of each short-path slice; pc5's first change (6.405 s at dt
# 0.01) lies under every window of every slice
SHORT_START = 600
# (suite, noise kind, SNR dB, trials): one group of trials and a part of the next
CAMPAIGNS = (("pc5", "normal", 0.0, 7), ("poly6", "perlin", 20.0, 8), ("sine3", "normal", 25.0, 16))
# noise-free inputs and their detector setups: the reference suites, and
# hard_signal(*HARD) at dt 0.01 through the W-64 step detector at kappa 3
HARD = (5000, 64, 3)
CLEAN = {**REFERENCE_SETUPS, "hard_signal": DetectorSetup(n1=0, window=64, kappa=3.0)}
# every file criterion 7's pipeline writes
PIPELINE = (
    "sig.csv", "truth.csv", "det.csv", "trace.csv", "weights.csv", "plot.svg",
    "bench/report.txt", "bench/report.csv",
    "bench/hist_c00_sine3_normal_20dB.csv", "bench/hist_c01_pc5_mult_uniform_10dB.csv",
    *(f"bench/trials/c00_t{i:03d}.csv" for i in range(3)),
    *(f"bench/trials/c01_t{i:03d}.csv" for i in range(2)),
)


def model_grid():
    models = [ModelSpec.monomial(n1, n2) for n1 in range(9) for n2 in range(3)]
    models += [ModelSpec.polynomial(n1, n2) for n1 in range(4) for n2 in range(3)]
    models.append(ModelSpec.monomial(2, 3))
    # the rational jumps of tests/test_builder.py: 1/(s+1) takes the Euclid path
    models.append(ModelSpec.rational(1, RF(Polynomial.one(), Polynomial([Fraction(1), Fraction(1)]))))
    models.append(ModelSpec.rational(0, RF.s_power(-2)))
    return {m.label(): m for m in models}


MODELS = model_grid()


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digests(model: ModelSpec) -> dict:
    det = build_detector(model)
    out = {
        "text": sha(det.text()),
        "verify": sha(repr(verify_detector(det))),
        "kernel": sha("\n".join(f"K_{v}(T,u): {k.text()}" for v, k in enumerate(kernelize(det)))),
    }
    for w in WINDOWS:
        dd = discretize(det, window=w)
        out[f"weights_W{w}"] = sha(dd.weights.tobytes())
        out[f"rows_W{w}"] = sha(repr(dd.exact_rows))
    out["weights_simpson_W385"] = sha(discretize(det, window=385, rule="simpson").weights.tobytes())
    out["weights_unprojected_W64"] = sha(discretize(det, window=64, project=False).weights.tobytes())
    return out


def noisy(suite: str, snr_db: float, seed: int):
    spec = builtin_suite(suite)
    _, clean = render(spec)
    return spec.dt, apply_noise(clean, "normal", snr_db, seed)


def signal_digests(suite: str, snr_db: float, seed: int) -> dict:
    return {"samples": sha(noisy(suite, snr_db, seed)[1].tobytes())}


def stream_events(dd, y, cfg: DetectConfig, chunk: int) -> list:
    sd = StreamDetector(dd, cfg)
    if chunk == 1:
        calls = [sd.push(x) for x in y.tolist()]
    else:
        calls = [sd.push_chunk(y[i : i + chunk]) for i in range(0, y.size, chunk)]
    calls.append(sd.finalize())
    return [
        (i, d.position, d.kind, repr(d.score), repr(d.time))
        for i, got in enumerate(calls)
        for d in got
    ]


def stream_digests(suite: str, snr_db: float, scales, min_separation, seed: int) -> dict:
    dt, y = noisy(suite, snr_db, seed)
    dd = discretize(build_detector(ModelSpec.monomial(0, 0)), window=STREAM_WINDOW, dt=dt)
    out = {}
    for name, scale in scales:
        cfg = DetectConfig(kappa=3.0, scale=scale, min_separation=min_separation)
        for chunk in (1, 7):
            out[f"events_{name}_chunk{chunk}"] = sha(repr(stream_events(dd, y, cfg, chunk)))
    return out


def short_digests(rows: int, npos: int) -> dict:
    assert rows * npos < SHORT
    signals = [noisy("pc5", 10.0, seed) for seed in range(rows)]
    dd = discretize(build_detector(ModelSpec.monomial(0, 0)), window=STREAM_WINDOW, dt=signals[0][0])
    stop = SHORT_START + STREAM_WINDOW + npos - 1
    block = np.stack([y[SHORT_START:stop] for _, y in signals])
    out = eval_windows_raw(dd.weights, block[0] if rows == 1 else block)
    return {name: sha(a.tobytes()) for name, a in zip(("vnu", "sigma", "rms"), out)}


def campaign_signal_digests(suite, noise_kind, snr_db, trials) -> dict:
    c = reference_campaign(suite, noise_kind, snr_db, trials=trials)
    _, clean = render(builtin_suite(suite))
    return {
        f"trial{i}": sha(apply_noise(clean, noise_kind, snr_db, c.base_seed + i).tobytes())
        for i in range(trials)
    }


def campaign_digests(suite, noise_kind, snr_db, trials) -> dict:
    per_trial = []
    r = run_campaign(
        reference_campaign(suite, noise_kind, snr_db, trials=trials),
        on_trial=lambda i, dets: per_trial.append(
            [(d.position, d.kind, repr(d.score), repr(d.time)) for d in dets]
        ),
    )
    summary = [sorted(r.histogram.items()), r.exact, r.within_one, repr(r.mean_abs_err)]
    return {"trials": sha(repr(per_trial)), "summary": sha(repr(summary))}


def clean_input(name: str):
    """(detector, samples) of a noise-free case."""
    setup = CLEAN[name]
    if name == "hard_signal":
        dt, y = 0.01, hard_signal(*HARD)
    else:
        spec = builtin_suite(name)
        dt, y = spec.dt, render(spec)[1]
    det = build_detector(setup.model(), method=setup.method)
    return discretize(det, window=setup.window, dt=dt, rule=setup.rule), y


def clean_signal_digests(name: str) -> dict:
    return {"samples": sha(clean_input(name)[1].tobytes())}


def clean_digests(name: str) -> dict:
    dd, y = clean_input(name)
    trace = eval_windows(dd, y)
    out = {"d": sha(trace.d.tobytes())}
    setup = CLEAN[name]
    for label, scale in (("fixed", setup.window ** -0.5), ("mad", None)):
        cfg = dataclasses.replace(setup.config(), scale=scale)
        batch = [(d.position, d.kind, repr(d.score), repr(d.time)) for d in detect(trace, cfg)]
        out[f"batch_{label}"] = sha(repr(batch))
        for chunk in (1, 7):
            out[f"events_{label}_chunk{chunk}"] = sha(repr(stream_events(dd, y, cfg, chunk)))
    return out


@lru_cache(maxsize=1)
def pipeline_digests() -> dict:
    """sha256 of each artifact of one run of criterion 7's pipeline."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        artifacts = run_pipeline(Path(tmp) / "run")
    assert sorted(artifacts) == sorted(PIPELINE), sorted(artifacts)
    return {name: sha(data) for name, data in artifacts.items()}


def artifact_digests(name: str) -> dict:
    return {"sha256": pipeline_digests()[name]}


def cases() -> dict:
    """Every golden case: label -> the function making its digests."""
    table = {label: partial(digests, m) for label, m in MODELS.items()}
    for suite, db, scales, sep in STREAMS:
        tail = "" if sep is None else f",min_separation={sep:g}"
        for seed in STREAM_SEEDS:
            label = f"{suite},normal,snr_db={db:g},seed={seed}"
            table[f"signal({label})"] = partial(signal_digests, suite, db, seed)
            table[f"stream({label},W={STREAM_WINDOW}{tail})"] = partial(
                stream_digests, suite, db, scales, sep, seed
            )
    for rows, npos in SHORT_CALLS:
        seeds = "seed=0" if rows == 1 else f"seeds=0-{rows - 1}"
        table[f"short(pc5,normal,snr_db=10,{seeds},W={STREAM_WINDOW},positions={npos})"] = partial(
            short_digests, rows, npos
        )
    for suite, kind, db, trials in CAMPAIGNS:
        label = f"{suite},{kind},snr_db={db:g},trials={trials}"
        table[f"campaign_signal({label})"] = partial(campaign_signal_digests, suite, kind, db, trials)
        table[f"campaign({label})"] = partial(campaign_digests, suite, kind, db, trials)
    for name, setup in CLEAN.items():
        table[f"clean_signal({name})"] = partial(clean_signal_digests, name)
        table[f"clean({name},n1={setup.n1},W={setup.window},kappa={setup.kappa:g})"] = partial(
            clean_digests, name
        )
    for name in PIPELINE:
        table[f"pipeline({name})"] = partial(artifact_digests, name)
    return table


CASES = cases()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_grid():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("label", list(CASES))
def test_golden(label):
    want = load_golden()[label]
    got = CASES[label]()
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{label}: digests moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    table = {label: make() for label, make in CASES.items()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
