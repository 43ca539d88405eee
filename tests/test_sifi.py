import warnings

import pytest

from ecopull import fidelity_distance, load_config, run_round


def test_fidelity_distance_values():
    assert fidelity_distance(1.0) == pytest.approx(0.0725, rel=1e-12)
    assert fidelity_distance(0.0) == 1.0
    assert fidelity_distance(2.0) == pytest.approx(0.00525625, rel=1e-12)
    with pytest.raises(ValueError):
        fidelity_distance(-0.1)


def test_no_actual_relevant_scores_one():
    cfg = load_config({"truth_threshold": 1.0})
    for index in range(5):
        out = run_round(cfg, (1, index))
        assert out.actual_relevant_count == 0
        assert out.sifi == 1.0


def test_all_delivered_at_negligible_distance_scores_one():
    # one device never collides; every image is actually relevant
    cfg = load_config({"device_count": 1, "images_per_device": 10,
                       "relevance_threshold": 0.0, "truth_threshold": 0.0,
                       "model_noise": 1e-12, "compression_rate": 200.0})
    out = run_round(cfg, 4)
    assert out.delivered_count == 10
    assert out.sifi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:penalty")
def test_score_stays_in_unit_interval():
    for gamma in (0.0, 0.2, 1.0):
        for rate in (0.1, 1.0, 3.0):
            cfg = load_config({"penalty": gamma, "compression_rate": rate,
                               "images_per_device": 20})
            for index in range(10):
                assert 0.0 <= run_round(cfg, (2, index)).sifi <= 1.0


def test_delivering_more_never_hurts_when_penalty_dominates():
    # the slot draws come last, so both configs share every other draw;
    # with many slots nothing collides and every relevant image arrives
    spec = {"device_count": 3, "images_per_device": 8,
            "slot_coefficient": None}
    crowded = load_config(dict(spec, slots_per_frame=2))
    roomy = load_config(dict(spec, slots_per_frame=10_000))
    for index in range(20):
        few = run_round(crowded, (3, index))
        many = run_round(roomy, (3, index))
        assert (many.delivered == many.relevant).all()
        assert many.sifi >= few.sifi


def test_score_nondecreasing_in_rate_at_fixed_outcomes():
    # an explicit slot count makes the outcomes independent of the rate
    for index in range(10):
        values = []
        for rate in (0.5, 1.0, 2.0, 4.0):
            cfg = load_config({"compression_rate": rate, "slots_per_frame": 4,
                               "slot_coefficient": None})
            values.append(run_round(cfg, (5, index)).sifi)
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_penalty_below_distance_warns():
    with pytest.warns(UserWarning, match="penalty"):
        load_config({"penalty": 0.01, "compression_rate": 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_config()
