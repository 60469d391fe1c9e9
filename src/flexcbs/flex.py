"""Flex distribution strategies for the replan threshold.

The flex of a replan is the slack other agents leave between w times their
lower bounds and their current costs. GFD hands all of it to the replanned
agent; CFD scales it by the agent's share of conflicts; DFD reserves a
delay-based portion first; MFD layers a global-boundedness check on top.
All functions are pure over plain numbers so they can be property-tested
without solver state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class FlexMode(Enum):
    NONE = "none"
    GFD = "gfd"
    CFD = "cfd"
    DFD = "dfd"
    MFD = "mfd"


@dataclass(frozen=True)
class FlexComputation:
    delta_max: float
    rho: float
    delta_d: float
    delta: float
    mode_used: str


def max_allowed_flex(w: float, lbs: list[float], costs: list[float],
                     i: int) -> float:
    """Slack contributed by all agents other than i; may be negative."""
    return sum(w * lbs[j] - costs[j] for j in range(len(lbs)) if j != i)


def conflict_share(x_i: int, x_total: int) -> float:
    """Fraction of conflicts involving the agent; 0 for a conflict-free node."""
    if x_total <= 0:
        return 0.0
    return x_i / x_total


def gfd_flex(delta_max: float) -> FlexComputation:
    return FlexComputation(delta_max, 1.0, 0.0, delta_max, "gfd")


def cfd_flex(delta_max: float, x_i: int, x_total: int) -> FlexComputation:
    if delta_max < 0:
        return gfd_flex(delta_max)
    rho = conflict_share(x_i, x_total)
    return FlexComputation(delta_max, rho, 0.0, rho * delta_max, "cfd")


def dfd_flex(delta_max: float, x_i: int, x_total: int,
             delay_sum: float) -> FlexComputation:
    if delta_max < 0:
        return gfd_flex(delta_max)
    rho = conflict_share(x_i, x_total)
    delta_d = max(0.0, min(delta_max, delay_sum))
    delta = delta_d + rho * (delta_max - delta_d)
    return FlexComputation(delta_max, rho, delta_d, delta, "dfd")


def mfd_flex(w: float, lb_i_parent: float, delta_max: float, x_i: int,
             x_total: int, delay_sum: float, sum_cost_other: float,
             sum_lb_other: float, lb: float,
             sum_lb_other_frontier: float) -> FlexComputation:
    """Hierarchical flex choice: DFD, then CFD, then frontier-derived, else 0.

    A candidate flex is accepted when the implied threshold plus the other
    agents' costs stays within w times the global lower bound `lb`, the
    minimum SOLB over all open CT nodes. `sum_lb_other_frontier` is the sum
    of lb_j over j != i in that minimum-SOLB node.
    """
    if delta_max < 0:
        return gfd_flex(delta_max)

    def globally_bounded(delta: float) -> bool:
        return w * lb_i_parent + delta + sum_cost_other <= w * lb + 1e-9

    cand = dfd_flex(delta_max, x_i, x_total, delay_sum)
    if globally_bounded(cand.delta):
        return replace(cand, mode_used="mfd-dfd")
    cand = cfd_flex(delta_max, x_i, x_total)
    if globally_bounded(cand.delta):
        return replace(cand, mode_used="mfd-cfd")
    if (sum_lb_other_frontier < sum_lb_other
            and sum_cost_other < w * sum_lb_other_frontier):
        new_max = w * sum_lb_other_frontier - sum_cost_other
        rho = conflict_share(x_i, x_total)
        return FlexComputation(new_max, rho, 0.0, rho * new_max, "mfd-frontier")
    return FlexComputation(delta_max, conflict_share(x_i, x_total), 0.0, 0.0,
                           "mfd-zero")


def threshold(w: float, f_min_start: float, lb_parent: float,
              delta: float) -> float:
    """Replan cost cap: w times the best-known lower bound plus the flex."""
    return w * max(f_min_start, lb_parent) + delta
