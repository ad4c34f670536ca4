"""Monte Carlo campaign driver and report serialization."""

import io
import math

import pytest

import algcpd
from algcpd import bench
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


def test_report_csv_round_trip():
    a = run_campaign(small_campaign())
    b = run_campaign(small_campaign(noise_kind="normal", snr_db=10.0, trials=4))
    buf = io.StringIO()
    write_report_csv([a, b], buf)
    buf.seek(0)
    back = read_report_csv(buf)
    assert len(back) == 2
    for orig, rt in zip([a, b], back):
        assert rt.campaign == orig.campaign
        assert rt.histogram == orig.histogram
        assert rt.true_segments == orig.true_segments
        assert rt.exact == orig.exact
        assert rt.within_one == orig.within_one
        assert rt.mean_abs_err == orig.mean_abs_err or (
            math.isnan(rt.mean_abs_err) and math.isnan(orig.mean_abs_err)
        )


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


def test_reference_campaign_validation():
    c = reference_campaign("pc5", "normal", 0.0, trials=7, base_seed=1)
    assert c.trials == 7
    assert c.setup.window == 384
    with pytest.raises(ValueError):
        reference_campaign("steps9")
