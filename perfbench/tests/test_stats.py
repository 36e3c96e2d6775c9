"""Tests of the benchmark's own arithmetic (perfbench/stats.py).

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


# -- percentile and sample count ----------------------------------------------


def test_percentile_is_nearest_rank_with_its_count():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 90) == (90, 100)
    assert stats.percentile(values, 50) == (50, 100)


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1, 101), 90) == (90, 100)  # 10 beyond
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(1, 100), 90)  # rank 90 of 99: 9 beyond
    assert stats.percentile(range(1, 21), 50) == (10, 20)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(1, 20), 50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_lower_quartile_is_inclusive_and_ignores_slow_outliers():
    # inclusive quartiles of 1..9: q1 = 3
    assert stats.lower_quartile(range(9, 0, -1)) == 3.0
    assert stats.lower_quartile([2.0, 2.1, 2.0, 9.0, 9.5]) == 2.0
    assert stats.lower_quartile([4.0]) == 4.0


def test_seed_balanced_weighs_every_seed_the_same():
    # seed 0 ran five times, seed 1 once: (lower quartile 1.0 + 5.0) / 2
    runs = [(0, 1.0), (0, 0.8), (0, 1.2), (0, 4.0), (0, 1.1), (1, 5.0)]
    assert stats.seed_balanced(runs) == 3.0
    assert stats.seed_balanced([(3, 2.5)]) == 2.5


def test_quartile_spread_is_a_share_of_the_median():
    # statistics.quantiles (exclusive) of 1..9: q1 = 2.5, q3 = 7.5
    assert stats.quartile_spread(range(1, 10)) == pytest.approx(5 / 5)
    assert stats.quartile_spread([2.0] * 10) == 0.0


# -- hypervolume -----------------------------------------------------------------


def test_hypervolume_of_a_hand_computed_staircase():
    front = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    # Columns left to right against reference (4, 4): 3x1 + 2x1 + 1x1.
    assert stats.hypervolume_2d(front, (4.0, 4.0)) == 6.0


def test_hypervolume_ignores_dominated_points_and_points_past_the_reference():
    points = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 3.0), (2.0, 2.0), (5.0, 0.0)]
    assert stats.hypervolume_2d(points, (4.0, 4.0)) == 6.0
    assert stats.hypervolume_2d([(4.0, 1.0)], (4.0, 4.0)) == 0.0
    assert stats.hypervolume_2d([], (4.0, 4.0)) == 0.0


def test_pareto_front_keeps_only_non_dominated_points():
    assert stats.pareto_front([(2, 2), (1, 3), (3, 1), (3, 3), (1, 4)]) == [
        (1.0, 3.0), (2.0, 2.0), (3.0, 1.0),
    ]


# -- span self time --------------------------------------------------------------
# (id, parent, layer, start, end, thread, key)

SPANS = [
    (1, 0, "dispatch", 0.0, 10.0, 7, None),
    (2, 1, "sampler", 1.0, 3.0, 7, None),
    (3, 2, "storage", 1.5, 2.0, 7, None),
    (4, 1, "storage", 6.0, 7.0, 7, None),
    (5, 0, "storage", 11.0, 11.5, 7, None),
]


def test_self_time_subtracts_nested_children():
    selfs = stats.self_times(SPANS)
    assert selfs[1] == 10.0 - 2.0 - 1.0  # grandchild lies inside a child
    assert selfs[2] == 2.0 - 0.5
    assert selfs[3] == 0.5
    assert selfs[4] == 1.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, 0, "a", 0.0, 10.0, 1, None),
        (2, 1, "b", 1.0, 4.0, 1, None),
        (3, 1, "b", 3.0, 5.0, 1, None),
    ]
    assert stats.self_times(spans)[1] == 6.0


def test_self_time_is_clipped_to_the_window():
    selfs = stats.self_times(SPANS, window=(2.0, 8.0))
    assert selfs[1] == 6.0 - 1.0 - 1.0  # [2, 8] minus sampler [2, 3] and storage [6, 7]
    assert selfs[2] == 1.0  # its [2, 3] part; the child [1.5, 2] is outside
    assert selfs[3] == 0.0


def test_layer_table_partitions_the_window():
    layers, unattributed = stats.layer_table(SPANS, (0.0, 12.0))
    assert layers == {"dispatch": 7.0, "sampler": 1.5, "storage": 0.5 + 1.0 + 0.5}
    assert unattributed == 12.0 - 10.0 - 0.5
    assert sum(layers.values()) + unattributed == 12.0


def test_outermost_drops_spans_nested_in_their_own_layer():
    spans = [
        (1, 0, "storage", 0.0, 2.0, 1, "write"),
        (2, 1, "storage", 0.5, 1.0, 1, "read"),
        (3, 0, "sampler", 3.0, 4.0, 1, None),
        (4, 3, "storage", 3.2, 3.4, 1, "write"),
    ]
    assert [s[0] for s in stats.outermost(spans, "storage")] == [1, 4]
    assert stats.busy(stats.outermost(spans, "storage"), (0.0, 10.0)) == pytest.approx(2.2)


# -- open-loop accounting --------------------------------------------------------


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    # Polls due every 100 ms; the first takes 250 ms, so the second is
    # sent 150 ms late and the third 60 ms late.
    samples = [(0.0, 0.0, 0.25), (0.1, 0.25, 0.26), (0.2, 0.26, 0.27)]
    latency, lateness = stats.open_loop(samples)
    assert latency == pytest.approx([250.0, 160.0, 70.0])
    assert lateness == pytest.approx([0.0, 150.0, 60.0])


def test_open_loop_on_schedule_has_no_lateness():
    samples = [(i / 10, i / 10, i / 10 + 0.01) for i in range(5)]
    latency, lateness = stats.open_loop(samples)
    assert latency == pytest.approx([10.0] * 5)
    assert lateness == [0.0] * 5
