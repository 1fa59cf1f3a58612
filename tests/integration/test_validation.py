"""Integration: Figures 9, 10, 11 at reduced (test-sized) scale."""

import pytest

from repro.common.timebase import seconds
from repro.experiments.figures_validation import figure_09, figure_10, figure_11


@pytest.fixture(scope="module")
def fig09():
    return figure_09(workload=1500, duration=seconds(5))


def test_fig09_monitors_match_sysviz(fig09):
    for tier in ("apache", "tomcat", "cjdbc", "mysql"):
        assert fig09.mean_abs_error(tier) < 0.5, tier


def test_fig09_queues_are_nontrivial(fig09):
    # The agreement must be over real traffic, not two flat zero lines.
    assert fig09.peak_queue("apache") >= 2


@pytest.fixture(scope="module")
def fig10():
    return figure_10(workloads=(1000, 2000), duration=seconds(5))


def test_fig10_cpu_overhead_within_paper_band(fig10):
    for row in fig10.rows:
        assert -0.5 < row.cpu_overhead_pct < 5.0
    # Tomcat's extra logging thread costs the most, as in the paper.
    tomcat = fig10.max_cpu_overhead("tomcat")
    for tier in ("apache", "cjdbc", "mysql"):
        assert fig10.max_cpu_overhead(tier) <= tomcat


def test_fig10_disk_writes_up_to_double(fig10):
    for row in fig10.rows:
        assert 1.3 < row.disk_write_ratio < 3.0


def test_fig10_overhead_positive_at_load(fig10):
    at_2000 = [r for r in fig10.rows if r.workload == 2000]
    assert all(r.cpu_overhead_pct > 0 for r in at_2000)


@pytest.fixture(scope="module")
def fig11():
    return figure_11(workloads=(1000, 2000), duration=seconds(5))


def test_fig11_throughput_unchanged(fig11):
    assert fig11.max_throughput_delta_pct() < 2.0


def test_fig11_response_time_cost_about_2ms(fig11):
    for row in fig11.rows:
        assert 0.3 < row.response_delta_ms < 4.0


def test_markov_workload_runs_at_scale():
    """The Markov session model holds up under an evaluation-size run."""
    from collections import Counter

    from repro.common.timebase import ms
    from repro.ntier.system import NTierSystem, SystemConfig
    from repro.rubbos.workload import WorkloadSpec

    config = SystemConfig(
        workload=WorkloadSpec(
            users=800,
            think_time_us=ms(1_000),
            session_model="markov",
        ),
        seed=7,
    )
    markov = NTierSystem(config).run(seconds(4))
    assert len(markov.traces) > 500
    names = Counter(t.interaction for t in markov.traces)
    # Hub-heavy distribution, and write flows remain a small minority.
    assert names.most_common(1)[0][0] in ("Home", "ViewStory", "StoriesOfTheDay")
    writes = sum(c for n, c in names.items() if n.startswith("Store"))
    assert writes / len(markov.traces) < 0.15
