import dataclasses
import math

import numpy as np
import pytest

from cogrelay.analytics import MOST_NEGATIVE_MARGIN, closed_forms
from cogrelay.config import channel_from_config, parse_config_text
from cogrelay.model import ChannelProfile, OperatingPoint, Policy


def test_valid_channel_profiles():
    ch = ChannelProfile(0.3, 0.8, 0.4)
    assert (ch.f_pd, ch.f_sd, ch.f_ps) == (0.3, 0.8, 0.4)
    boundary = ChannelProfile(0.0, 1.0, 0.0)
    assert boundary.f_pd == 0.0 and boundary.f_sd == 1.0


def test_channel_rejects_ordering_violations():
    with pytest.raises(ValueError):
        ChannelProfile(0.8, 0.3, 0.4)
    with pytest.raises(ValueError):
        ChannelProfile(0.5, 0.5, 0.4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.1, -1e-12])
def test_channel_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        ChannelProfile(bad, 0.8, 0.4)
    with pytest.raises(ValueError):
        ChannelProfile(0.3, 0.8, bad)
    if not (0.0 <= bad <= 1.0) or math.isnan(bad):
        with pytest.raises(ValueError):
            ChannelProfile(0.3, bad, 0.4)


@pytest.mark.parametrize("bad", [float("nan"), -0.5, 1.5])
def test_policy_and_point_reject_out_of_range(bad):
    with pytest.raises(ValueError):
        Policy(bad, 0.5)
    with pytest.raises(ValueError):
        Policy(0.5, bad)
    with pytest.raises(ValueError):
        OperatingPoint(bad, 0.1)
    with pytest.raises(ValueError):
        OperatingPoint(0.1, bad)


def test_policy_and_point_accept_boundaries():
    assert Policy(0.0, 1.0).p_a == 1.0
    assert OperatingPoint(1.0, 0.0).lambda_p == 1.0


def test_types_are_immutable():
    ch = ChannelProfile(0.3, 0.8, 0.4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.f_pd = 0.5


def test_verdict_flag_must_match_margins():
    # a stable point; no cooperation at lambda_p = mu, whose primary margin is
    # exactly 0; and lambda_p above mu, whose secondary margin is the sentinel
    p_q, p_a, lambda_p, lambda_s = np.array([[0.5, 1.0, 0.5], [1.0, 0.0, 1.0], [0.1, 0.3, 0.6], [0.1, 0.0, 0.0]])
    cf = closed_forms(0.3, 0.8, 0.4, p_q, p_a, lambda_p, lambda_s)
    assert cf.margin_p[1] == 0.0
    assert cf.margin_s[1] == cf.margin_s[2] == MOST_NEGATIVE_MARGIN
    assert cf.stable.tolist() == [True, False, False]
    np.testing.assert_array_equal(cf.stable, (cf.margin_p > 0.0) & (cf.margin_s > 0.0))


@pytest.mark.parametrize(
    "ch,pol,pt",
    [
        (ChannelProfile(0.3, 0.8, 0.4), Policy(0.5, 1.0), OperatingPoint(0.1, 0.1)),
        (ChannelProfile(0.0, 1.0, 0.0), Policy(0.0, 0.0), OperatingPoint(0.0, 0.0)),
        (ChannelProfile(1 / 3, 2 / 3, 1 / 7), Policy(0.1, 0.9), OperatingPoint(0.05, 0.2)),
    ],
)
def test_config_round_trip(ch, pol, pt):
    # the lines a sweep step overlays: each key with the repr of its float
    values = {**dataclasses.asdict(ch), **dataclasses.asdict(pol), **dataclasses.asdict(pt)}
    cfg = parse_config_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    assert channel_from_config(cfg) == ch
    assert Policy(cfg["p_q"], cfg["p_a"]) == pol
    assert OperatingPoint(cfg["lambda_p"], cfg["lambda_s"]) == pt
