"""Pipeline benchmark for algcpd: derivation, window engine, gate, stream and
Monte Carlo campaigns, measured end to end and layer by layer.

Run one workload (the last line of output is one JSON result object):

    python3 perfbench/run.py --workload stream_chunked --seed 1 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` reports the per-layer metrics from spans recorded around the
calls into the package. `--workload all` runs every workload in turn, each in
a process of its own, and prints each one's report. See perfbench/README.md
for what each workload and metric is for.

The package is imported from the `src/` directory next to this one, never
from an installed copy. The command exits with code 1 when an output check
fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import os

# One thread per native library, set before NumPy loads its thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RECORDED = Path(__file__).resolve().parent / "recorded.json"

# Setups are repeated for this share of --seconds, and at least
# SETUP_MIN_REPEATS times; the rounds get the rest of the time.
SETUP_SHARE = 0.15
SETUP_MIN_REPEATS = 5
# setup_s is a setup's cost in reference units (see RefClock) times this:
# about the reference job's time on a 2.1 GHz Xeon.
REF_NOMINAL_S = 0.040


def load_package():
    """Import algcpd from this checkout's src/ and nowhere else."""
    if not (SRC / "algcpd" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import algcpd
    import algcpd.bench
    import algcpd.builder
    import algcpd.kernels
    import algcpd.noise
    import algcpd.runtime
    import algcpd.signals

    if Path(algcpd.__file__).resolve().parent != (SRC / "algcpd").resolve():
        print(f"error: algcpd imported from {algcpd.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return algcpd


def det_key(dets):
    return [(d.time, d.score, d.kind, d.position) for d in dets]


def crossings_of(d):
    """Sign changes of d between neighbouring positions, as the gate counts them."""
    import numpy as np

    s = np.sign(d)
    return int(np.count_nonzero(s[:-1] * s[1:] < 0))


@functools.cache
def load_recorded():
    with open(RECORDED) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Workloads. Each builds its inputs from the seed in __init__ (untimed) and
# derives its detectors in setup(). round(tick) is repeated for the measured
# time; it calls tick() between its steps, where the runner times the
# reference job (see RefClock), and returns its outputs plus any timings it
# takes inside a step. check() lists the mismatches of one round's outputs.
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    trials_per_round = 0
    #: True when deriving detectors is the workload's whole job, so that
    #: setup_s is measured on the rounds instead of a separate setup phase.
    setup_is_round = False

    def __init__(self, pkg, seed: int):
        self.pkg = pkg

    def derive(self, spec, window, dt, method=None, rule="trapezoid"):
        """build_detector + verify_detector + discretize: everything the
        program does for a detector before it sees a sample."""
        det = self.pkg.builder.build_detector(spec, method=method)
        ok = self.pkg.builder.verify_detector(det).ok
        dd = self.pkg.kernels.discretize(det, window=window, dt=dt, rule=rule)
        return ok, dd

    def setup(self):
        """Derive the workload's detectors; returns the list of verify flags."""
        raise NotImplementedError

    def round(self, tick):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError

    def samples_per_round(self) -> int:
        return 0

    def report(self, outs, round_times):
        """The workload's own named metrics, for the human-readable report."""
        return {}


class StreamChunked(Workload):
    """Criterion-6 signal shape, four noise draws per round, each streamed in
    8192-sample chunks and also detected in one batch call; the two outputs
    must be equal bit for bit, and the batch detections must sit where
    recorded.json says."""

    name = "stream_chunked"
    n = 16384
    # Every call is one step between two reference-job samples (RefClock), so
    # no call may run for seconds in the pure-Python engine: 8192 samples take
    # about 0.4 s. Two chunks per draw still carry a tail between calls.
    chunk = 8192
    draws = 4
    window = 128
    dt = 0.001
    table = 64  # noise seeds 4*(seed mod 16) + 0..3; recorded.json holds each

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        import numpy as np

        k = np.arange(self.n)
        steps = np.where(k >= int(0.3 * self.n), 1.0, 0.0)
        steps = steps + np.where(k >= int(0.7 * self.n), -1.5, 0.0)
        base = self.draws * (seed % (self.table // self.draws))
        self.noise_seeds = [base + j for j in range(self.draws)]
        self.signals = [
            steps + 0.15 * np.random.default_rng(s).standard_normal(self.n) for s in self.noise_seeds
        ]
        self.cfg = pkg.runtime.DetectConfig(scale=self.window ** -0.5, kappa=4.0)

    def setup(self):
        ok, self.dd = self.derive(self.pkg.builder.ModelSpec.monomial(0, 0), self.window, self.dt)
        return [ok]

    def round(self, tick):
        rt = self.pkg.runtime
        stream_s = batch_s = 0.0
        stream, batch, lags = [], [], []
        for j, y in enumerate(self.signals):
            if j:
                tick()
            sd = rt.StreamDetector(self.dd, self.cfg)
            for i in range(0, self.n, self.chunk):
                t0 = time.perf_counter()
                got = sd.push_chunk(y[i : i + self.chunk])
                if i + self.chunk >= self.n:
                    got = got + sd.finalize()
                stream_s += time.perf_counter() - t0
                lags += [sd.samples_seen - self.window - d.position for d in got]
                tick()
            t0 = time.perf_counter()
            _, dets = rt.detect_samples(self.dd, y, self.cfg)
            batch_s += time.perf_counter() - t0
            stream.append(det_key(sd.detections))
            batch.append(det_key(dets))
        return {"stream": stream, "batch": batch, "stream_s": stream_s, "batch_s": batch_s, "lags": lags}

    def check(self, out):
        bad = []
        recorded = load_recorded()["stream_chunked"]
        for s, got, ref in zip(self.noise_seeds, out["stream"], out["batch"]):
            if got != ref:
                bad.append(f"noise seed {s}: stream detections {got} != batch {ref}")
            # kind and position only: a faster engine may round scores differently
            where = [[kind, pos] for _, _, kind, pos in ref]
            if where != recorded[str(s)]:
                bad.append(f"noise seed {s}: batch detections at {where}, recorded {recorded[str(s)]}")
        return bad

    def samples_per_round(self):
        return 2 * self.n * self.draws

    def report(self, outs, round_times):
        n = self.n * self.draws
        return {
            "stream_sps": (n / statistics.median(o["stream_s"] for o in outs), "samples/s"),
            "batch_sps": (n / statistics.median(o["batch_s"] for o in outs), "samples/s"),
            "emit_lag_max_pos": (max(outs[0]["lags"], default=0), "positions"),
            "detections": (sum(len(b) for b in outs[0]["batch"]), "count"),
        }


class PushMad(Workload):
    """pc5 at 10 dB normal noise, four noise draws per round, each fed one
    sample per push() call with the trailing-MAD scale; each must equal one
    push_chunk over the same samples."""

    name = "push_mad"
    window = 96
    draws = 4
    table = 64  # noise seeds 4*(seed mod 16) + 0..3; recorded.json holds each

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        spec = pkg.signals.builtin_suite("pc5")
        _, clean = pkg.signals.render(spec)
        self.dt = spec.dt
        base = self.draws * (seed % (self.table // self.draws))
        self.noise_seeds = [base + j for j in range(self.draws)]
        self.signals = [pkg.noise.apply_noise(clean, "normal", 10.0, s) for s in self.noise_seeds]
        self.cfg = pkg.runtime.DetectConfig(kappa=3.0)

    def setup(self):
        ok, self.dd = self.derive(self.pkg.builder.ModelSpec.monomial(0, 0), self.window, self.dt)
        self.reference = None
        return [ok]

    def chunk_reference(self):
        """Detections of one push_chunk over each draw (untimed, untraced)."""
        if self.reference is None:
            self.reference = []
            for y in self.signals:
                sd = self.pkg.runtime.StreamDetector(self.dd, self.cfg)
                sd.push_chunk(y)
                sd.finalize()
                self.reference.append(det_key(sd.detections))
        return self.reference

    def round(self, tick):
        lat, lags, dets = [], [], []
        clock = time.perf_counter_ns
        for j, y in enumerate(self.signals):
            if j:
                tick()
            samples = y.tolist()
            sd = self.pkg.runtime.StreamDetector(self.dd, self.cfg)
            push = sd.push
            for i, x in enumerate(samples):
                c0 = clock()
                got = push(x)
                lat.append(clock() - c0)
                for d in got:
                    lags.append(i + 1 - self.window - d.position)
            for d in sd.finalize():
                lags.append(len(samples) - self.window - d.position)
            dets.append(det_key(sd.detections))
        # percentiles per round keep memory flat however many rounds run
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return {"dets": dets, "pushes": len(lat), "p50_ns": q[49], "p99_ns": q[98], "lags": lags}

    def check(self, out):
        bad = []
        recorded = load_recorded()["push_mad"]
        for s, got, ref in zip(self.noise_seeds, out["dets"], self.chunk_reference()):
            if got != ref:
                bad.append(f"noise seed {s}: push() detections {got} != push_chunk {ref}")
            if len(got) != recorded[str(s)]:
                bad.append(f"noise seed {s}: {len(got)} detections, recorded {recorded[str(s)]}")
        return bad

    def samples_per_round(self):
        return sum(y.size for y in self.signals)

    def report(self, outs, round_times):
        return {
            "push_p50_us": (statistics.median(o["p50_ns"] for o in outs) / 1e3, "us"),
            "push_p99_us": (statistics.median(o["p99_ns"] for o in outs) / 1e3, "us"),
            "push_samples": (sum(o["pushes"] for o in outs), "count"),
            "emit_lag_max_pos": (max(outs[0]["lags"], default=0), "positions"),
            "detections": (sum(len(d) for d in outs[0]["dets"]), "count"),
        }


class CampaignMix(Workload):
    """run_campaign on three reference campaigns, 4 trials each per round."""

    name = "campaign_mix"
    trials = 4
    bases = 16  # base_seed = trials * (seed mod bases); recorded.json holds each
    grid = (("pc5", "normal", 0.0), ("poly6", "perlin", 20.0), ("sine3", "normal", 25.0))

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.base = self.trials * (seed % self.bases)
        self.campaigns = [
            pkg.bench.reference_campaign(s, k, db, trials=self.trials, base_seed=self.base)
            for s, k, db in self.grid
        ]

    def setup(self):
        oks = []
        for c in self.campaigns:
            s = c.setup
            dt = self.pkg.signals.builtin_suite(c.suite).dt
            ok, _ = self.derive(s.model(), s.window, dt, method=s.method, rule=s.rule)
            oks.append(ok)
        return oks

    def round(self, tick):
        results = []
        for i, c in enumerate(self.campaigns):
            if i:
                tick()
            results.append(summarize_campaign(self.pkg.bench.run_campaign(c)))
        return {"results": results}

    def check(self, out):
        want = load_recorded()["campaign_mix"][str(self.base)]
        if out["results"] != want:
            return [f"campaign results {out['results']} != recorded {want}"]
        return []

    @property
    def trials_per_round(self):
        return self.trials * len(self.campaigns)

    def samples_per_round(self):
        return self.trials * sum(
            self.pkg.signals.builtin_suite(c.suite).n_samples for c in self.campaigns
        )

    def report(self, outs, round_times):
        return {"trials_per_s": (self.trials_per_round / statistics.median(round_times), "trials/s")}


def summarize_campaign(r):
    hist = {str(k): v for k, v in sorted(r.histogram.items())}
    return [hist, r.exact, r.within_one, repr(r.mean_abs_err)]


class DeriveGrid(Workload):
    """Build, verify and discretize a grid of models at two windows."""

    name = "derive_grid"
    setup_is_round = True
    windows = (384, 4096)
    dt = 0.01

    def models(self):
        ms = self.pkg.builder.ModelSpec
        return [ms.monomial(n1, 0) for n1 in (0, 4, 8)] + [ms.polynomial(3, 2)]

    def setup(self):
        return []

    def round(self, tick):
        b, k = self.pkg.builder, self.pkg.kernels
        oks, hashes = [], {}
        for i, spec in enumerate(self.models()):
            if i:
                tick()
            det = b.build_detector(spec)
            oks.append(b.verify_detector(det).ok)
            for w in self.windows:
                tick()
                dd = k.discretize(det, window=w, dt=self.dt)
                hashes[f"{spec.label()} W={w}"] = hashlib.sha256(dd.weights.tobytes()).hexdigest()
        return {"oks": oks, "hashes": hashes}

    def check(self, out):
        bad = [f"verify failed on model {i}" for i, ok in enumerate(out["oks"]) if not ok]
        want = load_recorded()["derive_grid"]
        if out["hashes"] != want:
            bad.append(f"weight hashes {out['hashes']} != recorded {want}")
        return bad

    def report(self, outs, round_times):
        return {"models": (len(self.models()) * len(self.windows), "count")}


WORKLOADS = {w.name: w for w in (StreamChunked, PushMad, CampaignMix, DeriveGrid)}


# ---------------------------------------------------------------------------
# Tracing: spans recorded from this file around calls into package modules.
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start_ns, end_ns, parent index) and counters.

    A parent span is always appended before its children, so one pass in
    index order sees every ancestor before its descendants."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            self.stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                self.spans[idx] = (name, t0, t1, self.stack[-1] if self.stack else -1)
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self, pkg):
        """Wrap the package entry points; returns the originals to restore."""
        rt = pkg.runtime

        def backend_done(args, out):
            weights, signal = args[0], args[1]
            npos = out[0].shape[1]
            self.count("backend.calls", 1)
            self.count("backend.positions", npos)
            self.count("backend.madds", npos * weights.shape[1] * (weights.shape[0] + 3))
            self.count("backend.bytes_read", weights.nbytes + signal.nbytes)

        def detect_done(args, out):
            self.count("runtime.crossings", crossings_of(args[0].d))
            self.count("runtime.detections", len(out))

        def verify_done(args, out):
            self.count("builder.verified", 1)
            self.count("builder.verified_ok", int(out.ok))

        def push_done(args, out):
            self.count("runtime.push_calls", 1)

        # runtime and bench bind these names at import, so each module's own
        # binding is the one its callers look up
        patches = [
            (rt, "eval_windows_raw", "backend", backend_done),
            (rt, "eval_windows", "runtime.eval_windows", None),
            (rt, "detect", "runtime.detect", detect_done),
            (rt.StreamDetector, "push", "runtime.push", push_done),
            (rt.StreamDetector, "push_chunk", "runtime.push_chunk", None),
            (rt.StreamDetector, "finalize", "runtime.finalize", None),
            (pkg.builder, "build_detector", "builder.build", None),
            (pkg.builder, "verify_detector", "builder.verify", verify_done),
            (pkg.kernels, "discretize", "kernels.discretize", None),
            (pkg.bench, "build_detector", "builder.build", None),
            (pkg.bench, "discretize", "kernels.discretize", None),
            (pkg.bench, "apply_noise", "noise.apply_noise", None),
            (pkg.bench, "render", "signals.render", None),
            (pkg.bench, "run_campaign", "bench.run_campaign", None),
        ]
        undo = []
        for owner, attr, name, after in patches:
            orig = owner.__dict__[attr]
            undo.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, after))
        return undo

    def call(self, pkg, fn):
        """fn() with the package entry points wrapped, restored afterwards."""
        undo = self.install(pkg)
        try:
            return fn()
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def time_s(self, names, minus=None):
        """Time in the outermost spans named in `names`, less the time of the
        spans named `minus` inside them."""
        top = []
        ns = 0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            outer = top[parent] if parent >= 0 else -1
            if outer < 0 and name in names:
                outer = i
                ns += t1 - t0
            elif outer >= 0 and name == minus:
                ns -= t1 - t0
            top.append(outer)
        return ns / 1e9

    def self_s(self, name):
        """Duration of the spans named `name` less their direct children."""
        ns = 0
        for name_i, t0, t1, parent in self.spans:
            if name_i == name:
                ns += t1 - t0
            if parent >= 0 and self.spans[parent][0] == name:
                ns -= t1 - t0
        return ns / 1e9


def per_layer(tr, rounds, round_s, setups, trials, overhead_pct):
    """Per-layer metrics: times and counts per round, derivation per setup.
    round_s is the total wall time of the traced rounds."""
    c = tr.counts
    backend_s = tr.time_s({"backend"})
    madds = c.get("backend.madds", 0)
    crossings = c.get("runtime.crossings", 0)
    detections = c.get("runtime.detections", 0)
    verified = c.get("builder.verified", 0)
    pushes = c.get("runtime.push_calls", 0)
    stream = {"runtime.push", "runtime.push_chunk", "runtime.finalize"}
    return {
        "builder.build_s": (tr.time_s({"builder.build"}) / setups, "s"),
        "builder.verify_s": (tr.time_s({"builder.verify"}) / setups, "s"),
        "builder.models_ok": (c.get("builder.verified_ok", 0) / verified if verified else 0.0, "ratio"),
        "kernels.discretize_s": (tr.time_s({"kernels.discretize"}) / setups, "s"),
        "backend.busy_s": (backend_s / rounds, "s"),
        "backend.calls": (c.get("backend.calls", 0) / rounds, "count"),
        "backend.positions": (c.get("backend.positions", 0) / rounds, "count"),
        "backend.madds": (madds / rounds, "count"),
        "backend.bytes_read": (c.get("backend.bytes_read", 0) / rounds, "B"),
        "backend.ns_per_madd": (backend_s * 1e9 / madds if madds else 0.0, "ns"),
        "backend.wall_share": (backend_s / round_s, "ratio"),
        "runtime.eval_windows_self_s": (tr.time_s({"runtime.eval_windows"}, "backend") / rounds, "s"),
        "runtime.detect_s": (tr.time_s({"runtime.detect"}) / rounds, "s"),
        "runtime.crossings": (crossings / rounds, "count"),
        "runtime.detections": (detections / rounds, "count"),
        "runtime.gate_yield": (detections / crossings if crossings else 0.0, "ratio"),
        "runtime.stream_self_s": (tr.time_s(stream, "backend") / rounds, "s"),
        "runtime.push_calls": (pushes / rounds, "count"),
        "runtime.push_self_us": (
            tr.time_s({"runtime.push"}, "backend") * 1e6 / pushes if pushes else 0.0, "us"
        ),
        "noise.apply_noise_s": (tr.time_s({"noise.apply_noise"}) / rounds, "s"),
        "signals.render_s": (tr.time_s({"signals.render"}) / rounds, "s"),
        "bench.trial_self_s": (tr.self_s("bench.run_campaign") / trials if trials else 0.0, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a failure is an exception or a
    mismatch in an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"MISMATCH: {p}", file=sys.stderr)

    def error(self):
        self.attempted += 1
        self.failed += 1
        traceback.print_exc()


def run_setups(wl, tally, clock, seconds, min_repeats):
    """Derive the workload's detectors again and again, for `seconds` and at
    least `min_repeats` times, each setup one RefClock step; returns the
    (seconds, reference units) of each setup."""
    got = []
    start = time.perf_counter()
    while len(got) < min_repeats or time.perf_counter() - start < seconds:
        clock.start()
        oks = wl.setup()
        clock.tick()
        got.append((clock.seconds, clock.ref_units))
        for i, ok in enumerate(oks):
            tally.check([] if ok else [f"verify_detector failed on detector {i}"])
    return got


class RefClock:
    """Times a round step by step, and each setup as one step, against a
    fixed reference job.

    The job is a pure-Python windowed dot product plus a few NumPy array
    passes, about 40 ms on a 2.1 GHz Xeon. On a shared host the CPU's speed
    drifts by 15 % or more over a few seconds, and a round's own time drifts
    with it. Each step of a round (the stretch between two tick() calls) is
    divided by the mean reference time measured just before and just after
    it, which cancels most of that drift. The job calls no package code, so a
    change to the package cannot move it, and its own time is not counted in
    the round.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.w = [0.001 * i for i in range(64)]
        self.x = [0.5 * ((i * 7919) % 101) for i in range(4096)]
        self.a = ((np.arange(1 << 16) * 7919) % (1 << 16)).astype(np.float64)
        self.last_ref = self.job_s()
        self.refs = []

    def job_s(self):
        w, x, np = self.w, self.x, self.np
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(len(x) - len(w)):
            s = 0.0
            for i in range(len(w)):
                s = s + w[i] * x[k + i]
            acc += s
        for _ in range(20):
            np.sort(self.a * 0.5 + acc)
        return time.perf_counter() - t0

    def start(self):
        """Begin a round: reset its totals and start timing its first step."""
        self.seconds = 0.0
        self.ref_units = 0.0
        gc.collect()
        self.t0 = time.perf_counter()

    def tick(self):
        """End the current step and start the next one."""
        dt = time.perf_counter() - self.t0
        ref = self.job_s()
        self.seconds += dt
        self.ref_units += dt / ((self.last_ref + ref) / 2.0)
        self.refs.append(ref)
        self.last_ref = ref
        gc.collect()
        self.t0 = time.perf_counter()


def run_round(wl, tally, clock, tracer=None):
    """One checked round; returns (seconds, reference units, outputs), or
    None if it raised."""
    try:
        clock.start()
        if tracer is None:
            out = wl.round(clock.tick)
        else:
            out = tracer.call(wl.pkg, lambda: wl.round(clock.tick))
        clock.tick()
        tally.check(wl.check(out))
    except Exception:
        tally.error()
        return None
    return clock.seconds, clock.ref_units, out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(wl, seconds):
    """Untraced run: setup repeats, a warm-up round, then rounds for the rest
    of `seconds`."""
    tally = Tally()
    clock = RefClock()
    setups, outs, times, rels = [], [], [], []
    try:
        if not wl.setup_is_round:
            setups = run_setups(wl, tally, clock, SETUP_SHARE * seconds, SETUP_MIN_REPEATS)
            seconds -= SETUP_SHARE * seconds
    except Exception:
        tally.error()
    if not tally.failed:
        run_round(wl, tally, clock)  # warm-up: first-call and allocator costs
        start = time.perf_counter()
        while not tally.failed and (not times or time.perf_counter() - start < seconds):
            got = run_round(wl, tally, clock)
            if got is not None:
                times.append(got[0])
                rels.append(got[1])
                outs.append(got[2])
    if not times:
        return tally, {}, {}
    # on derive_grid the round is the setup
    setups = setups or list(zip(times, rels))
    metrics = {
        "round_ref": (statistics.median(rels), "ref"),
        "setup_s": (statistics.median(r for _, r in setups) * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "round_s": (statistics.median(times), "s"),
        "setup_raw_s": (statistics.median(t for t, _ in setups), "s"),
        "ref_job_s": (statistics.median(clock.refs), "s"),
        "rounds": (len(times), "count"),
        "setups": (len(setups), "count"),
    }
    if wl.samples_per_round():
        detail["samples_per_s"] = (wl.samples_per_round() / statistics.median(times), "samples/s")
    detail.update(wl.report(outs, times))
    return tally, metrics, detail


def measure_traced(wl, seconds):
    """Traced run: rounds alternate between untraced and traced, at least one
    each; per-layer numbers come from the traced rounds."""
    tally = Tally()
    tr = Tracer()
    clock = RefClock()
    setups = 0
    try:
        if not wl.setup_is_round:
            tr.call(wl.pkg, lambda: run_setups(wl, tally, clock, 0.0, 1))
            setups = 1
    except Exception:
        tally.error()
    plain, traced = [], []
    if not tally.failed:
        run_round(wl, tally, clock)  # warm-up, as in measure()
        start = time.perf_counter()
        while not tally.failed and (not traced or time.perf_counter() - start < seconds):
            for tracer, rounds in ((None, plain), (tr, traced)):
                got = run_round(wl, tally, clock, tracer)
                if got is not None:
                    rounds.append(got)
    if not traced or not plain:
        return tally, {}, {}
    trials = wl.trials_per_round * len(traced)
    ref_units = lambda rounds: statistics.median(r[1] for r in rounds)
    overhead = (ref_units(traced) / ref_units(plain) - 1.0) * 100.0
    traced_s = sum(r[0] for r in traced)
    metrics = per_layer(tr, len(traced), traced_s, setups or len(traced), trials, overhead)
    detail = {"traced_rounds": (len(traced), "count"), "spans": (len(tr.spans), "count")}
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def source_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "algcpd").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_record(pkg, args, workload):
    import numpy as np

    sha, dirty = git_state()
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "default_backend": pkg.DEFAULT_BACKEND,
        "have_compiled": pkg.HAVE_COMPILED,
        # the Tier-1 baseline is the pure-Python core; compiled runs are not
        # comparable with it
        "comparable_to_tier1": not pkg.HAVE_COMPILED,
    }


def run_workload(pkg, args, name):
    wl = WORKLOADS[name](pkg, args.seed)
    print(json.dumps({"run": run_record(pkg, args, name)}))
    if args.trace:
        tally, metrics, detail = measure_traced(wl, args.seconds)
    else:
        tally, metrics, detail = measure(wl, args.seconds)
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    for key, (value, unit) in {**metrics, **detail, "error_rate": (rate, "failed/attempted")}.items():
        text = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
        print(f"{name:<15} {key:<28} {text:>16} {unit}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_each(args):
    """--workload all: each workload in a process of its own, one after the
    other, so that peak_rss_mb and the caches belong to that workload alone.
    Forwards each child's report lines; returns {workload: result}."""
    results = {}
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} exited {proc.returncode} without a result", file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    pkg = load_package()
    if args.workload == "all":
        results = run_each(args)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(pkg, args, args.workload)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
