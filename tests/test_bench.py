"""Monte Carlo campaign driver and report serialization."""

import dataclasses
import io
import math

import pytest

import algcpd
from algcpd import bench, runtime
from algcpd.bench import (
    HIST_MAX,
    Campaign,
    CampaignResult,
    DetectorSetup,
    format_report,
    read_report_csv,
    reference_campaign,
    run_campaign,
    run_trial,
    write_histogram_csv,
    write_report_csv,
)


def test_public_names_resolve():
    for mod in (algcpd, bench):
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], mod.__name__


def small_campaign(noise_kind="none", snr_db=math.inf, trials=3):
    setup = DetectorSetup(n1=0, window=96, kappa=3.0)
    return Campaign(
        suite="sine3", noise_kind=noise_kind, snr_db=snr_db,
        setup=setup, trials=trials, base_seed=100,
    )


def test_noise_free_campaign_is_exact():
    res = run_campaign(small_campaign())
    assert res.true_segments == 3
    assert res.histogram == {3: 3}
    assert res.exact == 3
    assert res.within_one == 3
    assert res.exact_fraction() == 1.0
    assert res.mode_segments() == 3
    assert res.mean_abs_err < 0.02


def test_campaign_reproducible():
    c = small_campaign(noise_kind="normal", snr_db=20.0, trials=5)
    a = run_campaign(c)
    b = run_campaign(c)
    assert a.histogram == b.histogram
    assert a.exact == b.exact
    assert a.mean_abs_err == b.mean_abs_err


def test_trial_seed_changes_noise():
    from algcpd.builder import ModelSpec, build_detector
    from algcpd.kernels import discretize
    from algcpd.signals import builtin_suite, render

    spec = builtin_suite("sine3")
    _, clean = render(spec)
    dd = discretize(build_detector(ModelSpec.monomial(0, 0)), window=96, dt=spec.dt)
    cfg = small_campaign().setup.config()
    d1 = run_trial(dd, clean, "normal", 0.0, 100, cfg)
    d2 = run_trial(dd, clean, "normal", 0.0, 101, cfg)
    assert [x.time for x in d1] != [x.time for x in d2]


def test_on_trial_callback():
    seen = []
    c = small_campaign(trials=3)
    run_campaign(c, on_trial=lambda i, dets: seen.append((i, len(dets))))
    assert seen == [(0, 2), (1, 2), (2, 2)]


def test_mode_segments_tie_breaks_low():
    c = small_campaign()
    res = CampaignResult(campaign=c, true_segments=3, histogram={2: 4, 5: 4, 3: 1})
    assert res.mode_segments() == 2


def test_binned_overflow_column():
    c = small_campaign()
    res = CampaignResult(
        campaign=c, true_segments=3,
        histogram={1: 2, HIST_MAX: 3, HIST_MAX + 4: 7},
    )
    cols = res.binned()
    assert len(cols) == HIST_MAX + 1
    assert cols[0] == 2
    assert cols[HIST_MAX - 1] == 3
    assert cols[HIST_MAX] == 7


def test_format_report_stars_truth():
    res = run_campaign(small_campaign())
    text = format_report([res])
    assert "sine3" in text
    assert "3*" in text  # the true-count column is starred
    assert "exact" in text


def off_default_result():
    """A result whose setup has every field off its default."""
    setup = DetectorSetup(
        n1=1, n2=1, method="general", window=97, rule="simpson",
        kappa=2.25, scale=0.1,
    )
    for f in dataclasses.fields(DetectorSetup):
        if f.default is not dataclasses.MISSING:
            assert getattr(setup, f.name) != f.default, f.name
    c = Campaign(suite="poly6", noise_kind="perlin", snr_db=-3.5, setup=setup,
                 trials=7, base_seed=9)
    return CampaignResult(campaign=c, true_segments=7, histogram={1: 2, 7: 5},
                          exact=5, within_one=6, mean_abs_err=0.0125)


def test_report_csv_round_trip():
    a = run_campaign(small_campaign())
    b = run_campaign(small_campaign(noise_kind="normal", snr_db=10.0, trials=4))
    c = off_default_result()
    buf = io.StringIO()
    write_report_csv([a, b, c], buf)
    buf.seek(0)
    back = read_report_csv(buf)
    assert len(back) == 3
    for orig, rt in zip([a, b, c], back):
        assert rt.campaign == orig.campaign
        assert rt.histogram == orig.histogram
        assert rt.true_segments == orig.true_segments
        assert rt.exact == orig.exact
        assert rt.within_one == orig.within_one
        assert rt.mean_abs_err == orig.mean_abs_err or (
            math.isnan(rt.mean_abs_err) and math.isnan(orig.mean_abs_err)
        )
        # the one setup schema, field by field, with each field's type
        for f in dataclasses.fields(DetectorSetup):
            got, want = getattr(rt.campaign.setup, f.name), getattr(orig.campaign.setup, f.name)
            assert got == want and type(got) is type(want), f.name
    again = io.StringIO()
    write_report_csv(back, again)
    assert again.getvalue() == buf.getvalue()


@pytest.mark.parametrize("old", [
    "suite,noise,snr_db,trials,base_seed,n1,n2,order,method,window,rule,kappa,scale,mode,"
    "true_segments,exact,within_one,mean_abs_err,histogram\n"
    "sine3,none,inf,3,100,0,0,0,linear,96,trapezoid,3.0,,zero_crossing,3,3,3,0.0,3:3\n",
    "suite,noise,snr_db,trials,base_seed,n1,n2,order,method,window,rule,kappa,scale,"
    "true_segments,exact,within_one,mean_abs_err,histogram\n"
    "sine3,none,inf,3,100,0,0,0,linear,96,trapezoid,3.0,,3,3,3,0.0,3:3\n",
], ids=["mode", "order"])
def test_report_csv_with_a_retired_column_is_rejected(old):
    """A report.csv written while DetectorSetup had a decision mode (a mode
    column after scale) or a derivative order (an order column after n2) has
    a header that no longer matches."""
    with pytest.raises(ValueError, match="expected header"):
        read_report_csv(io.StringIO(old))


def test_campaign_rejects_too_few_trials():
    """trials is an int of at least 1, and base_seed an int: a float or a
    bool is not truncated."""
    for trials in (0, -1, 2.5, 1.9, True, "3"):
        with pytest.raises(ValueError, match="trials"):
            small_campaign(trials=trials)
    for seed in (1.5, True, None):
        with pytest.raises(ValueError, match="base_seed"):
            dataclasses.replace(small_campaign(), base_seed=seed)


@pytest.mark.parametrize("group", [1, 3, 7, 20])
def test_campaign_trials_in_groups_match_one_at_a_time(monkeypatch, group):
    """run_campaign runs BLOCK // positions trials per engine call (never
    more than are left); each trial's detections are run_trial's on its
    seed, and each engine call gets one row per trial of its group."""
    c = small_campaign(noise_kind="normal", snr_db=10.0, trials=7)
    spec = bench.builtin_suite("sine3")
    dd = bench._cached_detector(0, 0, "linear", 96, "trapezoid", spec.dt)
    _, clean = bench.render(spec)
    one_at_a_time = [
        run_trial(dd, clean, c.noise_kind, c.snr_db, c.base_seed + i, c.setup.config())
        for i in range(c.trials)
    ]
    npos = clean.shape[0] - 96 + 1
    monkeypatch.setattr(bench._engine, "BLOCK", group * npos + npos - 1)
    rows = []
    real = runtime.eval_windows_raw

    def spy(weights, signal):
        rows.append(signal.shape[0])
        return real(weights, signal)

    monkeypatch.setattr(runtime, "eval_windows_raw", spy)
    got = []
    run_campaign(c, on_trial=lambda i, dets: got.append((i, dets)))
    assert [i for i, _ in got] == list(range(c.trials))
    assert [dets for _, dets in got] == one_at_a_time
    assert rows == [min(group, c.trials - lo) for lo in range(0, c.trials, group)]


def test_histogram_csv():
    res = run_campaign(small_campaign())
    buf = io.StringIO()
    write_histogram_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "segments,count"
    assert "3,3" in lines[1:]


def test_setup_label_and_config():
    s = DetectorSetup(n1=2, window=384, kappa=2.2, scale=384 ** -0.5)
    assert s.model().label() == "monomial(n1=2,n2=0,order=0)"
    assert s.config().kappa == 2.2
    assert "fix" in s.label()
    assert "mad" in DetectorSetup(n1=0).label()
    with pytest.raises(TypeError):  # a derivative order is written as raised degrees
        DetectorSetup(n1=0, order=0)


def test_setup_integers_are_read_not_truncated():
    """An integer setup field reads an int or an integer string (a report.csv
    cell) and rejects a bool, a float or any other string; a setup is
    rejected where its model or quadrature rule would be."""
    read = bench.SETUP_FIELDS["window"]
    assert read(96) == 96 and read("96") == 96
    for bad in (96.9, 96.0, True, "96.5", None):
        with pytest.raises(ValueError):
            read(bad)
    sine3 = bench.REFERENCE_SETUPS["sine3"]
    for bad in ({"window": 96.9}, {"n1": True}, {"n1": 9}, {"n2": -1},
                {"rule": "simpson"}, {"window": 1}):
        with pytest.raises(ValueError):
            dataclasses.replace(sine3, **bad)
    assert dataclasses.replace(sine3, rule="simpson", window=97).window == 97


def test_reference_campaign_validation():
    c = reference_campaign("pc5", "normal", 0.0, trials=7, base_seed=1)
    assert c.trials == 7
    assert c.setup.window == 384
    with pytest.raises(ValueError):
        reference_campaign("steps9")
