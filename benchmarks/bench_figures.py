"""The paper's tables and figures: golden rows and paper-shape assertions.

Every experiment in :data:`repro.analysis.experiments.EXPERIMENTS` runs
once per session, on its quick sweep grid at a reduced geometric scale
(``SCALES`` in ``tests/integration/test_figure_golden.py``; see
``scaled()`` in repro/config.py: saturation rates and crossovers are
scale-invariant).  ``test_golden`` times the run through
pytest-benchmark, prints the series and compares it with its committed
rows; the ``test_<experiment>`` cases below assert the paper's
qualitative shape on the same result.

Run with::

    pytest benchmarks/bench_figures.py --benchmark-disable
"""

import functools

import pytest

from repro.analysis.experiments import EXPERIMENTS, base_config
from repro.core.system import JoinSystem
from tests.integration.test_figure_golden import assert_golden, run

#: One run per experiment per session, shared by its golden comparison
#: and its shape assertions.
figure = functools.cache(run)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_golden(benchmark, name):
    exp = benchmark.pedantic(figure, args=(name,), iterations=1, rounds=1)
    print()
    print(exp.render())
    benchmark.extra_info["rows"] = exp.rows
    assert_golden(name, exp)


def test_fig05():
    """Figure 5: average production delay vs arrival rate, 1-2 slaves.

    Paper shape: each curve is flat at low rates and rises sharply at its
    saturation point; 2 slaves saturate at roughly twice the rate of 1.
    """
    exp = figure("fig05")

    one = exp.series("avg_delay_s", where={"slaves": 1})
    two = exp.series("avg_delay_s", where={"slaves": 2})
    rates_1 = exp.series("rate", where={"slaves": 1})

    # One slave saturates within the swept range: the delay at the top
    # rate dwarfs the delay at the bottom.
    assert one[-1] > 3 * one[0]
    # Two slaves stay comfortable at rates that overwhelm one.
    top = rates_1[-1]
    two_at_top = exp.series(
        "avg_delay_s", where={"slaves": 2, "rate": top}
    )[0]
    assert two_at_top < one[-1] / 2
    assert len(two) == len(one)


def test_fig06():
    """Figure 6: average production delay vs arrival rate, 3-5 slaves.

    Paper shape: below saturation all curves sit near a couple of seconds;
    capacity grows with the slave count (more slaves keep the delay flat to
    higher rates).
    """
    exp = figure("fig06")

    rates = sorted(set(exp.series("rate")))
    top = rates[-1]
    d3 = exp.series("avg_delay_s", where={"slaves": 3, "rate": top})[0]
    d5 = exp.series("avg_delay_s", where={"slaves": 5, "rate": top})[0]
    # At the top rate (~8000 t/s) 3 slaves are deep in overload while 5
    # are near their capacity edge.
    assert d5 < d3
    # At the bottom rate everyone is comfortable (delay ~ an epoch or two).
    bottom = rates[0]
    for n in (3, 4, 5):
        d = exp.series("avg_delay_s", where={"slaves": n, "rate": bottom})[0]
        assert d < 5.0


def test_fig07():
    """Figure 7: average CPU time vs rate, fine tuning on/off (4 slaves).

    Paper shape: without fine tuning CPU time rises much faster with rate;
    with fine tuning the curve stays well below (about half at high rates).
    """
    exp = figure("fig07")

    rates = sorted(set(exp.series("rate")))
    ratios = []
    for rate in rates:
        tuned = exp.series(
            "avg_cpu_s", where={"rate": rate, "fine_tuning": True}
        )[0]
        untuned = exp.series(
            "avg_cpu_s", where={"rate": rate, "fine_tuning": False}
        )[0]
        # Tuning never costs CPU...
        assert tuned <= 1.05 * untuned
        ratios.append(untuned / max(tuned, 1e-9))
    # ...and wins clearly somewhere in the swept range.  (At the very
    # top both hit the 100%-utilization ceiling; at the very bottom
    # partitions sit below 2*theta and the curves coincide.)
    assert max(ratios) > 1.2

    # At the lowest rate the two coincide (partitions near 2*theta).
    assert ratios[0] < 1.35

    # Both curves increase with rate.
    tuned_series = exp.series("avg_cpu_s", where={"fine_tuning": True})
    assert tuned_series == sorted(tuned_series)


def test_fig08():
    """Figure 8: average delay vs rate *without* fine tuning (4 slaves).

    Paper shape: delay explodes near 4000 t/s (tens of seconds), while the
    fine-tuned system at the same rate sits near 2 s (compare Figure 6).
    """
    exp = figure("fig08")

    delays = exp.series("avg_delay_s")
    rates = exp.series("rate")
    # Saturation blow-up within the sweep (the paper reports ~48 s at
    # 4000 t/s over its 10-minute measurement; our shorter window shows
    # the same divergence at smaller magnitude).
    assert delays == sorted(delays)
    assert delays[-1] > 3 * delays[0]

    # The paper's headline comparison: at the rate that melts the
    # untuned system, the tuned system still answers in ~epoch time.
    tuned = JoinSystem(
        base_config(0.05).with_(num_slaves=4, rate=float(rates[-1]))
    ).run()
    assert tuned.avg_delay < delays[-1] / 2


def test_fig09():
    """Figure 9: idle time & communication overhead vs rate
    (no fine tuning, 4 slaves).

    Paper shape: idle time falls towards zero as the rate approaches the
    ~4000 t/s saturation point; communication overhead grows mildly and
    monotonically.
    """
    exp = figure("fig09")

    idle = exp.series("idle_s")
    comm = exp.series("comm_s")
    assert idle == sorted(idle, reverse=True)  # monotone decreasing
    assert idle[-1] < 0.25 * idle[0]  # near-saturation at 4000
    assert comm == sorted(comm)  # monotone increasing
    assert comm[-1] < idle[0]  # comm stays a minor cost


def test_fig10():
    """Figure 10: idle time & communication overhead vs rate
    (fine tuning, 4 slaves).

    Paper shape: with fine tuning, idle time reaches zero only near
    6000 t/s — 50% more capacity than Figure 9's no-tuning system — and
    fine tuning itself adds no communication overhead.
    """
    exp = figure("fig10")

    rows_by_rate = {row["rate"]: row for row in exp.rows}
    rates = sorted(rows_by_rate)
    idle = [rows_by_rate[r]["idle_s"] for r in rates]
    assert idle == sorted(idle, reverse=True)
    assert idle[-1] < 0.25 * idle[0]  # saturation reached near 6000

    # "Fine tuning incurs no communication overhead": at rates both
    # figures cover, the comm curves agree.
    noft = figure("fig09")
    for row in noft.rows:
        if row["rate"] in rows_by_rate:
            ft_comm = rows_by_rate[row["rate"]]["comm_s"]
            assert abs(ft_comm - row["comm_s"]) < 0.1 * max(row["comm_s"], 1e-9)


def test_fig11():
    """Figure 11: communication overhead vs total nodes (rate 1500 t/s).

    Paper shape: per-node communication time decreases with the degree of
    declustering; the aggregate over all slaves increases roughly linearly;
    the adaptive variant's aggregate stays low (it refuses to spread a
    light load over needless nodes).
    """
    exp = figure("fig11")

    nodes = exp.series("nodes")
    per_node = exp.series("per_node_s")
    aggregate = exp.series("aggregate_s")
    adaptive = exp.series("adaptive_aggregate_s")

    assert per_node == sorted(per_node, reverse=True)
    assert aggregate == sorted(aggregate)
    # Adaptive aggregate at the largest cluster stays below the
    # non-adaptive aggregate (it uses fewer nodes at 1500 t/s).
    assert adaptive[-1] < aggregate[-1]
    assert nodes[0] == 1


def test_fig12():
    """Figure 12: communication overhead vs rate, min/max/avg over the 4
    slaves.

    Paper shape: communication time grows with the arrival rate, and the
    serial distribution order makes it non-uniform across slaves, with the
    divergence widening as the rate grows.
    """
    exp = figure("fig12")

    avg = exp.series("avg_s")
    assert avg == sorted(avg)  # grows with rate

    spread_low = exp.rows[0]["max_s"] - exp.rows[0]["min_s"]
    spread_high = exp.rows[-1]["max_s"] - exp.rows[-1]["min_s"]
    assert spread_high >= spread_low  # divergence widens
    for row in exp.rows:
        assert row["min_s"] <= row["avg_s"] <= row["max_s"]


def test_fig13():
    """Figure 13: average production delay vs distribution epoch (3 slaves).

    Paper shape: delay decreases roughly linearly as the epoch shrinks —
    tuples wait about half an epoch in the master's buffer.
    """
    exp = figure("fig13")

    epochs = exp.series("dist_epoch_s")
    delays = exp.series("avg_delay_s")
    assert delays == sorted(delays)  # monotone in the epoch
    # Roughly linear: delay grows by at least a third of the epoch
    # increase (the master-side wait component is epoch/2).
    assert (delays[-1] - delays[0]) > 0.3 * (epochs[-1] - epochs[0])


def test_fig14():
    """Figure 14: communication overhead vs distribution epoch (3 slaves).

    Paper shape: the overhead rises steeply as the epoch shrinks (more
    messages for the same payload) — the tradeoff against Figure 13.
    """
    exp = figure("fig14")

    comm = exp.series("comm_s")
    assert comm == sorted(comm, reverse=True)  # shrinking epoch costs more
    assert comm[0] > 2 * comm[-1]  # steep, not marginal


def test_subgroup_buffer():
    """Section V-B: sub-group communication and the master's peak buffer.

    Paper equation: ``M_buf = (r*t_d/2)(1 + 1/ng)`` per stream — with many
    groups the peak buffer approaches half the single-group value.
    """
    exp = figure("subgroup_buffer")

    measured = exp.series("measured_peak_bytes")
    bound = exp.series("analytic_bound_bytes")
    # Peak shrinks as groups are added.
    assert measured == sorted(measured, reverse=True)
    # Measured peaks track the analytic bound within a factor ~2
    # (Poisson fluctuations and block rounding on top of the formula).
    for got, expect in zip(measured, bound):
        assert 0.4 * expect < got < 2.5 * expect
    # ng=4 saves a third or more of the ng=1 peak.
    assert measured[-1] < 0.75 * measured[0]


def test_ablation_theta():
    """Ablation A1: sensitivity to the tuning parameter theta.

    Expectation: a huge theta behaves like no tuning (probes scan whole
    partitions, CPU rises); the paper's 1.5 MB sits in the flat optimum.
    """
    exp = figure("ablation_theta")

    rows = {row["theta_mb_fullscale"]: row for row in exp.rows}
    thetas = sorted(rows)
    # The largest theta approaches no-tuning behaviour: more CPU than
    # the paper's default.
    assert rows[thetas[-1]]["avg_cpu_s"] > rows[1.5]["avg_cpu_s"]
    # Smaller thetas split more.
    assert rows[thetas[0]]["splits"] >= rows[thetas[-1]]["splits"]


def test_ablation_npart():
    """Ablation A2: the level of indirection (number of hash partitions).

    Expectation: delay is flat over a wide middle range — the paper's 60
    partitions is an uncritical choice; fine tuning bounds probe scans
    regardless of the partition count.
    """
    exp = figure("ablation_npart")

    delays = exp.series("avg_delay_s")
    # No pathological configuration: all delays within 3x of the best.
    best = min(delays)
    assert max(delays) < 3 * best


def test_ablation_thresholds():
    """Ablation A3: supplier threshold sensitivity.

    Expectation: lower thresholds trigger rebalancing earlier (at least as
    many moves as high thresholds); the default 0.5 performs on par with
    the best setting.
    """
    exp = figure("ablation_thresholds")

    rows = {row["th_sup"]: row for row in exp.rows}
    sups = sorted(rows)
    assert rows[sups[0]]["moves"] >= rows[sups[-1]]["moves"]
    best = min(row["avg_delay_s"] for row in exp.rows)
    default = rows[0.5]["avg_delay_s"] if 0.5 in rows else best
    assert default < 2.5 * best


def test_ablation_beta():
    """Ablation A5: the degree-of-declustering granularity parameter beta.

    Expectation (Section V-A): growth triggers when ``N_sup > beta *
    N_con``, so eager (small) betas recruit spare nodes sooner than
    reluctant (large) betas.  The observable is the time at which the
    cluster reaches its final size.
    """
    exp = figure("ablation_beta")

    betas = exp.series("beta")
    t_growth = exp.series("t_last_growth_s")
    finals = exp.series("final_active")
    assert betas == sorted(betas)
    # Eager growth finishes no later than reluctant growth.
    assert t_growth[0] <= t_growth[-1]
    # Everybody eventually absorbs the load (growth is about timing).
    assert min(finals) >= 4


def test_ablation_memory():
    """Memory-limited slaves: the paper's disk-I/O future-work extension.

    Expectation: with per-slave memory at or above the window share nothing
    spills and performance matches the in-memory system; shrinking memory
    spills a growing fraction to disk, inflating probe time (busy seconds)
    and, once the node saturates, the production delay.
    """
    exp = figure("ablation_memory")

    rows = exp.rows
    unlimited = rows[0]
    assert unlimited["memory_over_window"] == float("inf")
    assert unlimited["disk_gb_read"] == 0.0

    tightest = rows[-1]
    assert tightest["disk_gb_read"] > 0.0
    assert tightest["avg_busy_s"] > unlimited["avg_busy_s"]
    assert tightest["avg_delay_s"] >= unlimited["avg_delay_s"]

    # Disk traffic grows monotonically as memory shrinks.
    disk = [r["disk_gb_read"] for r in rows]
    assert disk == sorted(disk)


def _row(exp, rate, system):
    return next(
        r for r in exp.rows if r["rate"] == rate and r["system"] == system
    )


def test_baselines_skew():
    """Ablation A4: our system vs ATR vs CTR (Section VII's comparison).

    Expectations:

    * at a per-node-absorbable rate, ATR concentrates ~the full two-stream
      window on the segment node (multiples of our per-node max window);
    * at a rate that needs the whole cluster, ATR's one-node-at-a-time
      processing saturates and its delay dwarfs ours;
    * CTR forwards every tuple to every node: its slaves receive ~N times
      our payload bytes at any rate.
    """
    exp = figure("baselines_skew")

    for b in sorted(set(exp.series("b_skew"))):
        rows = [r for r in exp.rows if r["b_skew"] == b]
        fair, stress = 1200.0, 3000.0

        ours_fair = _row(exp, fair, "ours")
        atr_fair = _row(exp, fair, "atr")
        assert atr_fair["max_window_mb"] > 2.0 * ours_fair["max_window_mb"]

        ours_stress = _row(exp, stress, "ours")
        atr_stress = _row(exp, stress, "atr")
        assert atr_stress["avg_delay_s"] > 2.0 * ours_stress["avg_delay_s"]

        for rate in (fair, stress):
            ctr = _row(exp, rate, "ctr")
            ours = _row(exp, rate, "ours")
            assert ctr["slave_bytes_mb"] > 2.0 * ours["slave_bytes_mb"]
        assert rows  # non-empty per skew
