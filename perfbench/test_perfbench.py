"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Span, covered, self_times  # noqa: E402
from stats import tail_percentile  # noqa: E402
from workloads import Replication, check_counts  # noqa: E402


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(1, 61)]  # 60 samples, shuffled below
    samples = samples[::2] + samples[1::2]
    level, value, beyond = tail_percentile(samples)
    assert (level, value, beyond) == (100.0 * 50 / 60, 50.0, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    level, value, beyond = tail_percentile([5.0] + [9.0] * 10)
    assert (level, value, beyond) == (100.0 / 11, 5.0, 10)


def test_tail_is_nearest_rank_percentile():
    samples = [float(v) for v in range(1, 1001)]
    level, value, beyond = tail_percentile(samples)
    assert level == 99.0
    assert value == 990.0
    assert beyond == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        tail_percentile([1.0] * n)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(2.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 4.0
    assert covered([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
    assert covered([(1.0, 2.0), (1.5, 1.8), (5.0, 7.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "replication", 0.0, 10.0, -1, 0),
        Span(1, "engine.run", 1.0, 7.0, 0, 0),
        Span(2, "inner", 2.0, 5.0, 1, 0),
        Span(3, "kpi.build_report", 7.0, 9.0, 0, 0),
        Span(4, "kpi.merge", 11.0, 12.5, -1, -1),
    ]
    assert self_times(spans) == [2.0, 3.0, 3.0, 2.0, 1.5]


def test_self_times_sum_to_root_duration():
    spans = [
        Span(0, "replication", 0.0, 8.0, -1, 0),
        Span(1, "a", 0.5, 3.0, 0, 0),
        Span(2, "b", 3.0, 7.5, 0, 0),
        Span(3, "c", 4.0, 4.25, 2, 0),
    ]
    assert sum(self_times(spans)) == 8.0


def _counted(n_devices, n_success, n_failed):
    report = SimpleNamespace(
        n_devices=n_devices, n_success=n_success, n_failed=n_failed)
    return Replication(7, None, report, "", [])


def test_counts_pass_when_every_device_is_resolved():
    scenario = SimpleNamespace(n_devices=100)
    assert check_counts(scenario, _counted(100, 60, 40)) is None


@pytest.mark.parametrize("report", [
    (99, 60, 39),   # the engine dropped a device, and the report agrees
    (100, 60, 39),  # a device resolved neither way
    (100, 60, 41),  # a device counted twice
])
def test_counts_flag_a_missing_or_extra_device(report):
    scenario = SimpleNamespace(n_devices=100)
    problem = check_counts(scenario, _counted(*report))
    assert problem is not None and "seed 7" in problem
