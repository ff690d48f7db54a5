"""Tests for the scoring functions (Equations 1-3) and their objectives."""

import math
import pickle
import struct
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DiversityParams,
    LinkHistoryTable,
    diversity_score,
    exponent_f,
    exponent_g,
    final_score,
)


class TestDiversityScore:
    def test_unused_links_score_one(self):
        params = DiversityParams()
        assert diversity_score(0.0, params) == 1.0

    def test_saturated_links_score_zero(self):
        params = DiversityParams(max_acceptable_gm=5.0)
        assert diversity_score(5.0, params) == 0.0
        assert diversity_score(10.0, params) == 0.0

    def test_linear_in_between(self):
        params = DiversityParams(max_acceptable_gm=4.0)
        assert diversity_score(1.0, params) == pytest.approx(0.75)
        assert diversity_score(2.0, params) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            diversity_score(-1.0, DiversityParams())


class TestExponents:
    def test_f_proportional_to_relative_age(self):
        params = DiversityParams(alpha=2.0)
        assert exponent_f(0.0, 100.0, params) == 0.0
        assert exponent_f(50.0, 100.0, params) == pytest.approx(1.0)
        assert exponent_f(100.0, 100.0, params) == pytest.approx(2.0)

    def test_f_clamps_negative_age(self):
        assert exponent_f(-5.0, 100.0, DiversityParams()) == 0.0

    def test_f_rejects_bad_lifetime(self):
        with pytest.raises(ValueError):
            exponent_f(1.0, 0.0, DiversityParams())

    def test_g_power_of_remaining_ratio(self):
        params = DiversityParams(beta=2.0, gamma=3.0)
        # ratio 1 -> (2*1)^3 = 8
        assert exponent_g(100.0, 100.0, params) == pytest.approx(8.0)
        # ratio 0 -> 0
        assert exponent_g(0.0, 100.0, params) == 0.0

    def test_g_rejects_nonpositive_current(self):
        with pytest.raises(ValueError):
            exponent_g(10.0, 0.0, DiversityParams())

    def test_g_clamps_negative_sent_remaining(self):
        assert exponent_g(-10.0, 100.0, DiversityParams()) == 0.0


class TestFinalScore:
    def test_identity_exponent(self):
        assert final_score(0.7, 1.0) == pytest.approx(0.7)

    def test_zero_exponent_gives_one(self):
        assert final_score(0.3, 0.0) == 1.0
        # Boundary convention 0 ** 0 == 1: an expiring saturated path must
        # still be refreshable.
        assert final_score(0.0, 0.0) == 1.0

    def test_zero_ds_positive_exponent_is_zero(self):
        assert final_score(0.0, 2.0) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            final_score(-0.1, 1.0)
        with pytest.raises(ValueError):
            final_score(0.5, -1.0)


class TestPaperObjectives:
    """The three objectives of Section 4.2 as behavioural checks."""

    params = DiversityParams(alpha=1.0, beta=2.0, gamma=4.0, score_threshold=0.05)

    def _sent_score(self, ds, sent_remaining, current_remaining):
        g = exponent_g(sent_remaining, current_remaining, self.params)
        return final_score(ds, g)

    def test_preserve_connectivity_refresh_wins_near_expiry(self):
        """A previously-sent PCB about to expire outranks fresh candidates."""
        about_to_expire = self._sent_score(0.5, sent_remaining=60.0,
                                           current_remaining=21600.0)
        fresh_f = exponent_f(600.0, 21600.0, self.params)
        fresh = final_score(0.4, fresh_f)
        assert about_to_expire > 0.9
        assert about_to_expire > self.params.score_threshold
        assert about_to_expire >= fresh * 0.9  # competitive with fresh paths

    def test_discover_new_paths_fresh_beats_recently_sent(self):
        """While the sent instance is far from expiry, unseen paths win."""
        recently_sent = self._sent_score(
            0.8, sent_remaining=21000.0, current_remaining=21600.0
        )
        fresh = final_score(0.8, exponent_f(600.0, 21600.0, self.params))
        assert fresh > recently_sent

    def test_save_bandwidth_recently_sent_below_threshold(self):
        recently_sent = self._sent_score(
            0.8, sent_remaining=21000.0, current_remaining=21600.0
        )
        assert recently_sent <= self.params.score_threshold


class TestLinkHistoryGeometricMean:
    def test_empty_path_is_zero(self):
        assert LinkHistoryTable().geometric_mean(()) == 0.0

    def test_unseen_link_zeroes_the_mean(self):
        table = LinkHistoryTable()
        table.increment([1, 2])
        assert table.geometric_mean((1, 2, 3)) == 0.0

    def test_matches_direct_computation(self):
        table = LinkHistoryTable()
        for _ in range(2):
            table.increment([1])
        for _ in range(8):
            table.increment([2])
        expected = math.sqrt(2 * 8)
        assert table.geometric_mean((1, 2)) == pytest.approx(expected)

    def test_decrement_and_underflow(self):
        table = LinkHistoryTable()
        table.increment([1])
        table.decrement([1])
        assert table.counter(1) == 0
        with pytest.raises(ValueError):
            table.decrement([1])

    def test_version_changes_only_on_touched_links(self):
        table = LinkHistoryTable()
        v0 = table.version((1, 2))
        table.increment([3])
        assert table.version((1, 2)) == v0
        table.increment([1])
        assert table.version((1, 2)) != v0


class TestLinkHistoryMemo:
    """``row`` answers from a memo of the per-path part of a candidate row;
    whatever was asked before, and however the table was touched since, it
    must equal the scalar calls on the concatenated row bit for bit."""

    LINKS = range(1, 13)

    @staticmethod
    def assert_rows_fresh(table, rows):
        for path_links, egress in rows:
            counted = path_links + (egress,)
            counter_sum, gm = table.row(path_links, egress)
            assert counter_sum == sum(table.counter(l) for l in counted)
            assert struct.pack("<d", gm) == struct.pack(
                "<d", table.geometric_mean(counted)
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_interleavings_stay_bitwise_fresh(self, seed):
        rng = Random(seed)
        table = LinkHistoryTable()
        # Rows of 1-10 links (0-9 path links + the egress link); the first
        # two share nothing but the egress link, the next two a whole path.
        rows = [((1, 2, 3), 12), ((4, 5), 12), ((6, 7, 8), 9), ((6, 7, 8), 10)]
        rows += [
            (tuple(rng.sample(self.LINKS, rng.randint(0, 9))), rng.choice(self.LINKS))
            for _ in range(12)
        ]
        live = []  # incremented rows not yet released
        for _ in range(120):
            if live and rng.random() < 0.45:
                table.decrement(live.pop(rng.randrange(len(live))))
            else:
                path_links, egress = rng.choice(rows)
                live.append(path_links + (egress,))
                table.increment(live[-1])
            self.assert_rows_fresh(table, rng.sample(rows, 6))
        # Down to zero and up again: the memo must not remember a zero.
        while live:
            table.decrement(live.pop())
            self.assert_rows_fresh(table, rows)
        assert len(table) == 0
        table.increment((6, 7, 8, 9))
        self.assert_rows_fresh(table, rows)

    def test_memo_is_not_pickled(self):
        table = LinkHistoryTable()
        table.increment((1, 2, 3))
        bare = pickle.dumps(table)
        assert table.row((1, 2), 3) == (3, 1.0)
        assert table._memo
        assert pickle.dumps(table) == bare
        restored = pickle.loads(bare)
        assert restored._memo == {}
        assert restored.row((1, 2), 3) == (3, 1.0)
        assert restored.version((1, 2, 3)) == table.version((1, 2, 3))


class TestParamsValidation:
    def test_defaults_valid(self):
        DiversityParams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"beta": -1.0},
            {"gamma": 0.0},
            {"score_threshold": 1.0},
            {"score_threshold": -0.1},
            {"max_acceptable_gm": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiversityParams(**kwargs).validate()


@given(
    gm=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    age=st.floats(min_value=0.0, max_value=21600.0, allow_nan=False),
)
def test_score_always_in_unit_interval(gm, age):
    """Property: Eq. 1 scores stay in [0, 1] for all valid inputs."""
    params = DiversityParams()
    ds = diversity_score(gm, params)
    assert 0.0 <= ds <= 1.0
    score = final_score(ds, exponent_f(age, 21600.0, params))
    assert 0.0 <= score <= 1.0


@given(
    ds=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    rem1=st.floats(min_value=0.0, max_value=21600.0, allow_nan=False),
    rem2=st.floats(min_value=0.0, max_value=21600.0, allow_nan=False),
)
def test_sent_score_monotone_in_remaining_lifetime(ds, rem1, rem2):
    """Property: the closer the sent instance is to expiry, the higher the
    refresh score (holding everything else fixed)."""
    params = DiversityParams()
    lo, hi = sorted((rem1, rem2))
    score_hi_remaining = final_score(ds, exponent_g(hi, 21600.0, params))
    score_lo_remaining = final_score(ds, exponent_g(lo, 21600.0, params))
    assert score_lo_remaining >= score_hi_remaining
