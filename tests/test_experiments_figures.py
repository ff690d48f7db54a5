"""End-to-end tests of the figure/table experiments at test scale.

These assert structural correctness (series present, values bounded,
renderings complete) and the *shape* assertions against the paper that
hold at test scale. The two that need the bench-scale horizon (Figure 5's
diversity gain, Figure 8's near-optimal capacity) are strict ``xfail``s:
the day a change makes one hold at test scale, the suite says so.
"""

import pytest

from repro.experiments import TEST_SCALE
from repro.experiments.ablations import run_ablations
from repro.experiments.figure5 import SERIES_ORDER, run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.gridsearch import run_gridsearch
from repro.experiments.scionlab import run_scionlab
from repro.experiments.table1 import (
    PAPER_TABLE,
    classify_frequency,
    run_table1,
)
from repro.control.messages import Component


@pytest.fixture(scope="module")
def figure5():
    return run_figure5(TEST_SCALE)


@pytest.fixture(scope="module")
def figure6():
    return run_figure6(TEST_SCALE)


@pytest.fixture(scope="module")
def scionlab():
    return run_scionlab(TEST_SCALE)


class TestTable1:
    def test_matches_paper_classification(self):
        result = run_table1(TEST_SCALE)
        assert result.matches_paper(), result.render()
        assert len(result.rows) == len(PAPER_TABLE)

    def test_classify_frequency(self):
        assert classify_frequency(5.0) == "Seconds"
        assert classify_frequency(600.0) == "Minutes"
        assert classify_frequency(7200.0) == "Hours"
        with pytest.raises(ValueError):
            classify_frequency(-1.0)

    def test_row_lookup(self):
        result = run_table1(TEST_SCALE)
        row = result.row(Component.CORE_BEACONING)
        assert row.messages > 0
        with pytest.raises(KeyError):
            result.rows.clear() or result.row(Component.CORE_BEACONING)


class TestFigure5:
    def test_all_series_present(self, figure5):
        series = figure5.series()
        assert set(series) == set(SERIES_ORDER)
        for cdf in series.values():
            assert len(cdf) >= TEST_SCALE.num_monitors // 2

    def test_ratios_positive(self, figure5):
        for name in SERIES_ORDER:
            assert figure5.median_relative(name) > 0

    def test_diversity_cheaper_than_baseline(self, figure5):
        assert figure5.median_relative(
            "scion-core-diversity"
        ) < figure5.median_relative("scion-core-baseline")

    def test_intra_isd_cheapest_scion_component(self, figure5):
        assert figure5.median_relative(
            "scion-intra-isd-baseline"
        ) < figure5.median_relative("scion-core-diversity")

    def test_bgpsec_an_order_above_bgp_and_baseline_in_its_band(self, figure5):
        """§5.2: BGPsec about an order of magnitude above BGP, core
        baseline beaconing in or above BGPsec's band, intra-ISD beaconing
        below both."""
        med = figure5.median_relative
        assert 3.0 <= med("bgpsec") <= 100.0
        assert med("scion-core-baseline") > med("bgpsec") / 3.0
        assert med("scion-intra-isd-baseline") < med("bgpsec")

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3a: the hard-coded 4x diversity gain reads "
        "3.2x at test scale; replace it by the gain DESIGN §5 predicts",
    )
    def test_diversity_gain_and_orderings(self, figure5):
        med = figure5.median_relative
        gain = med("scion-core-baseline") / med("scion-core-diversity")
        assert gain >= 4.0, f"diversity gain only {gain:.1f}x"
        assert figure5.orderings_hold()

    def test_render_mentions_every_series(self, figure5):
        text = figure5.render()
        for name in SERIES_ORDER:
            assert name in text


class TestFigure6:
    def test_series_and_pair_alignment(self, figure6):
        names = figure6.series_names()
        assert names[0] == "bgp"
        assert names[-1] == "optimum"
        for name in names:
            assert len(figure6.values[name]) == len(figure6.pairs)

    def test_values_bounded_by_optimum(self, figure6):
        for name in figure6.series_names():
            for value, optimum in zip(
                figure6.values[name], figure6.values["optimum"]
            ):
                assert 0 <= value <= optimum

    def test_quality_orderings(self, figure6):
        assert figure6.orderings_hold(), figure6.render()

    def test_capped_fraction_at_least_uncapped(self, figure6):
        for limit in (15, 30, 60):
            name = f"diversity({limit})"
            assert figure6.capped_fraction_of_optimum(
                name, limit
            ) >= figure6.mean_fraction_of_optimum(name) - 1e-9

    def test_baseline_clearly_more_resilient_than_bgp(self, figure6):
        """§5.3: over the <=15-failing-links region the baseline "on
        average more than doubles the link failure resilience compared to
        BGP"; the factor is topology-dependent, a clear gap is required."""
        def mean_over_prefix(series):
            selected = [
                value
                for value, optimum in zip(
                    figure6.values[series], figure6.values["optimum"]
                )
                if optimum <= 15
            ]
            return sum(selected) / len(selected)

        bgp = mean_over_prefix("bgp")
        baseline = mean_over_prefix("baseline(60)")
        assert baseline >= 1.5 * bgp, f"baseline {baseline:.2f} vs BGP {bgp:.2f}"

    def test_capacity_shape(self, figure6):
        """Figure 6b: BGP multipath has the lowest capacity of all series,
        unlimited diversity approaches the optimum, and small storage
        limits are near-optimal against the storage-capped optimum (the
        paper's 99/97/95 % reading)."""
        bgp = figure6.mean_fraction_of_optimum("bgp")
        for name in figure6.series_names():
            assert figure6.mean_fraction_of_optimum(name) >= bgp
        assert figure6.mean_fraction_of_optimum("diversity(inf)") >= 0.8
        for limit in (15, 30, 60):
            capped = figure6.capped_fraction_of_optimum(
                f"diversity({limit})", limit
            )
            assert capped >= 0.65, f"storage {limit}: {capped:.0%} of capped opt"

    def test_render(self, figure6):
        text = figure6.render()
        assert "Figure 6a" in text
        assert "Figure 6b" in text


class TestScionlab:
    def test_measurement_proxy_is_baseline5(self, scionlab):
        assert scionlab.values["measurement"] == scionlab.values["baseline(5)"]

    def test_all_420_pairs_evaluated(self, scionlab):
        assert len(scionlab.pairs) == 21 * 20

    def test_bandwidths_positive_and_small(self, scionlab):
        bandwidths = scionlab.interface_bandwidths
        assert bandwidths
        # Idle interfaces legitimately report 0 Bps; nothing goes negative.
        assert all(bps >= 0 for bps in bandwidths)
        assert any(bps > 0 for bps in bandwidths)
        assert scionlab.fraction_below_bandwidth(4096) >= 0.8
        assert scionlab.bandwidth_cdf().median < 4096

    def test_diversity_not_worse_than_measurement(self, scionlab):
        for k in (5, 10, 15, 60):
            assert scionlab.mean_fraction_of_optimum(
                f"diversity({k})"
            ) >= scionlab.mean_fraction_of_optimum("measurement") - 0.02

    def test_diversity_improves_on_measurement_with_diminishing_returns(
        self, scionlab
    ):
        """Figure 7: diversity beats the measurement proxy in a meaningful
        share of pairs, growing with the storage limit (paper: 17-55 %);
        Appendix B: limits above ~15 add little. Figure 8: capacity does
        not shrink as the limit grows."""
        improved = [
            scionlab.improved_over_measurement(f"diversity({k})")
            for k in (5, 10, 15, 60)
        ]
        assert improved[0] >= 0.05
        assert improved[-1] >= improved[0]
        assert all(0.0 <= frac <= 1.0 for frac in improved)
        assert (
            scionlab.mean_fraction_of_optimum("diversity(60)")
            - scionlab.mean_fraction_of_optimum("diversity(15)")
        ) <= 0.05
        assert scionlab.mean_fraction_of_optimum(
            "diversity(60)"
        ) >= scionlab.mean_fraction_of_optimum("diversity(5)") - 0.02

    @pytest.mark.xfail(
        strict=True,
        reason="needs the bench-scale horizon: six test-scale intervals "
        "leave diversity(60) at 0.75 of the optimum (1.00 at bench)",
    )
    def test_diversity_near_optimal_on_the_sparse_testbed(self, scionlab):
        assert scionlab.mean_fraction_of_optimum("diversity(60)") >= 0.9

    def test_render(self, scionlab):
        text = scionlab.render()
        for fig in ("Figure 7", "Figure 8", "Figure 9"):
            assert fig in text


class TestGridSearch:
    def test_coarse_search_runs(self):
        result = run_gridsearch(TEST_SCALE, coarse_only=True, num_ases=8)
        assert result.num_evaluations == 8  # 2 x 2 x 1 x 2
        result.best_params.validate()
        scores = [score for _, score in result.evaluations]
        assert result.best_score == max(scores)
        # Quality (<= 1) minus an overhead penalty: a sane optimum keeps
        # most of the quality.
        assert result.best_score > 0.3


class TestAblations:
    def test_design_decisions_hold(self):
        result = run_ablations(TEST_SCALE)
        # Per-interface dissemination re-sends redundant copies over
        # parallel links: strictly more bytes than the paper's per-neighbor
        # limit when the limit (2) binds.
        assert result.per_interface_bytes > result.per_neighbor_bytes
        # Diverse eviction preserves path quality under storage limit 10.
        quality = result.eviction_quality
        assert quality["diverse"] >= quality["shortest"] - 0.02
        assert "per-interface" in result.render()
