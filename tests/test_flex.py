import math

from hypothesis import given, settings
from hypothesis import strategies as st

from flexcbs.flex import (FlexMode, cfd_flex, conflict_share, dfd_flex,
                          gfd_flex, max_allowed_flex, mfd_flex, threshold)


class TestMaxAllowedFlex:
    def test_positive_slack(self):
        lbs = [50.0, 100.0, 200.0]
        costs = [60.0, 100.0, 202.0]
        assert math.isclose(max_allowed_flex(1.05, lbs, costs, 0), 13.0)

    def test_tight_paths_give_zero(self):
        lbs = [10.0, 20.0]
        costs = [1.05 * 10.0, 1.05 * 20.0]
        assert math.isclose(max_allowed_flex(1.05, lbs, costs, 0), 0.0,
                            abs_tol=1e-12)

    def test_negative_when_costs_exceed_bounds_at_w1(self):
        assert max_allowed_flex(1.0, [5.0, 5.0], [5.0, 7.0], 0) < 0


class TestConflictShare:
    def test_fraction(self):
        assert conflict_share(3, 9) == 3 / 9

    def test_zero_conflicts(self):
        assert conflict_share(0, 0) == 0.0

    def test_full_share(self):
        assert conflict_share(4, 4) == 1.0


class TestGfd:
    def test_hands_out_everything(self):
        fc = gfd_flex(12.0)
        assert fc.delta == 12.0
        assert fc.mode_used == "gfd"

    def test_negative_passthrough(self):
        assert gfd_flex(-2.0).delta == -2.0


class TestCfd:
    def test_proportional_share(self):
        fc = cfd_flex(12.0, 3, 9)
        assert math.isclose(fc.rho, 1 / 3)
        assert math.isclose(fc.delta, 4.0)

    def test_negative_falls_back_to_gfd(self):
        fc = cfd_flex(-2.0, 3, 9)
        assert fc.delta == -2.0
        assert fc.mode_used == "gfd"

    def test_agent_in_every_conflict_gets_all(self):
        assert cfd_flex(12.0, 5, 5).delta == 12.0


class TestDfd:
    def test_delay_portion_plus_share(self):
        fc = dfd_flex(10.0, 1, 2, 2.0)
        assert fc.delta_d == 2.0
        assert math.isclose(fc.delta, 2.0 + 0.5 * 8.0)

    def test_zero_delay_reduces_to_cfd(self):
        assert dfd_flex(10.0, 1, 4, 0.0).delta == cfd_flex(10.0, 1, 4).delta

    def test_delay_clamped_at_delta_max(self):
        for x_i, x_total in ((0, 4), (2, 4), (4, 4)):
            assert dfd_flex(10.0, x_i, x_total, 25.0).delta == 10.0

    def test_negative_falls_back_to_gfd(self):
        assert dfd_flex(-1.0, 1, 2, 5.0).delta == -1.0


class TestMfd:
    # shared scenario: w=1.05, lb_i=20, sum of other costs 980, frontier LB 960
    W, LB_I, SUM_COST, LB_GLOBAL = 1.05, 20.0, 980.0, 960.0

    def run(self, delta_max, x_i, x_total, delay_sum, sum_lb_other=950.0,
            nf_sum=940.0):
        return mfd_flex(self.W, self.LB_I, delta_max, x_i, x_total, delay_sum,
                        self.SUM_COST, sum_lb_other, self.LB_GLOBAL, nf_sum)

    def test_dfd_candidate_accepted(self):
        # DFD delta: 2 + 0.5 * (10 - 2) = 6; 21 + 6 + 980 <= 1008
        fc = self.run(10.0, 1, 2, 2.0)
        assert math.isclose(fc.delta, 6.0)
        assert fc.mode_used == "mfd-dfd"

    def test_falls_back_to_cfd_candidate(self):
        # DFD delta: 7 + 0.4 * 3 = 8.2 (1009.2 > 1008); CFD delta: 4 (1005)
        fc = self.run(10.0, 2, 5, 7.0)
        assert math.isclose(fc.delta, 4.0)
        assert fc.mode_used == "mfd-cfd"

    def test_frontier_branch_rebuilds_delta_max(self):
        # CFD delta 8 > 7 fails the test; frontier conditions hold:
        # 940 < 950 and 980 < 1.05 * 940 = 987, so delta_max becomes 7
        fc = self.run(16.0, 1, 2, 16.0)
        assert math.isclose(fc.delta_max, 7.0)
        assert math.isclose(fc.delta, 3.5)
        assert fc.mode_used == "mfd-frontier"

    def test_zero_when_frontier_conditions_fail(self):
        fc = self.run(16.0, 1, 2, 16.0, nf_sum=950.0)
        assert fc.delta == 0.0
        assert fc.mode_used == "mfd-zero"

    def test_negative_falls_back_to_gfd(self):
        fc = self.run(-3.0, 1, 2, 0.0)
        assert fc.delta == -3.0
        assert fc.mode_used == "gfd"


class TestThreshold:
    def test_basic(self):
        assert math.isclose(threshold(1.05, 40.0, 30.0, 6.0), 48.0)

    def test_w1_no_flex_is_lower_bound(self):
        assert threshold(1.0, 7.0, 5.0, 0.0) == 7.0

    def test_negative_flex(self):
        assert math.isclose(threshold(1.02, 200.0, 100.0, -3.0), 201.0)

    def test_parent_bound_floor(self):
        assert threshold(1.0, 4.0, 9.0, 0.0) == 9.0


class TestFlexMode:
    def test_values(self):
        assert [m.value for m in FlexMode] == ["none", "gfd", "cfd", "dfd",
                                               "mfd"]


flex_state = st.tuples(
    st.floats(min_value=-50, max_value=50, allow_nan=False),  # delta_max
    st.integers(min_value=0, max_value=20),                   # x_i offset
    st.integers(min_value=0, max_value=20),                   # extra conflicts
    st.floats(min_value=0, max_value=60, allow_nan=False),    # delay sum
)


@settings(max_examples=300, deadline=None)
@given(flex_state)
def test_cfd_dfd_bounds(state):
    delta_max, x_i, extra, delay_sum = state
    x_total = x_i + extra
    for fc in (cfd_flex(delta_max, x_i, x_total),
               dfd_flex(delta_max, x_i, x_total, delay_sum)):
        assert 0.0 <= fc.rho <= 1.0
        if delta_max < 0:
            assert fc.delta == delta_max
        else:
            assert -1e-9 <= fc.delta <= delta_max + 1e-9
            assert fc.delta_d <= max(0.0, delta_max) + 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=20),
       st.floats(min_value=0, max_value=60, allow_nan=False),
       st.floats(min_value=0, max_value=100, allow_nan=False),
       st.floats(min_value=0, max_value=2000, allow_nan=False),
       st.floats(min_value=0, max_value=2000, allow_nan=False),
       st.floats(min_value=0, max_value=2000, allow_nan=False),
       st.floats(min_value=1, max_value=2, allow_nan=False))
def test_mfd_bounds(x_i, extra, delay_sum, lb_i, sum_cost, sum_lb, nf_sum, w):
    x_total = x_i + extra
    # delta_max must be consistent with the other-agent aggregates
    delta_max = w * sum_lb - sum_cost
    fc = mfd_flex(w, lb_i, delta_max, x_i, x_total, delay_sum, sum_cost,
                  sum_lb, nf_sum + lb_i, nf_sum)
    assert 0.0 <= fc.rho <= 1.0
    if delta_max < 0:
        assert fc.delta == delta_max
    else:
        assert -1e-9 <= fc.delta <= delta_max + 1e-9
