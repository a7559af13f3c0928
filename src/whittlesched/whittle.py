"""Whittle indices for the truncated belief lattice.

Each lattice point gets a subsidy level at which scheduling and idling are
equally attractive in the single-channel average-reward problem ("subsidy
problem": idling earns the subsidy omega, scheduling earns the current belief
and reveals the channel).  The closed forms below come from solving the
threshold stationary equations; ``whittle_index_oracle`` recomputes the same
quantity numerically from the subsidy MDP and is kept as an independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .belief import (
    OFF,
    BeliefState,
    ChannelClass,
    ClassMix,
    belief_value,
    belief_vector,
    lattice_position,
    lattice_states,
    off_age,
    step_idle,
)

# Ladder rungs closer than this are treated as one rung (exact ties in
# practice: within-class values are strictly separated, cross-class ties only
# happen for deliberately identical classes).
TIE_TOL = 1e-12

ORACLE_SPAN_TOL = 1e-10
ORACLE_MAX_ITERS = 10**6


def stationary_index(cls: ChannelClass) -> float:
    """Common index of the stationary state and every ON lattice point."""
    p, r = cls.p, cls.r
    return r / ((1.0 - p) * (1.0 + r - p) + r)


def _off_index(p: float, l: int, b_l: float, b_next: float) -> float:
    """Index of OffAge(l) from its belief b_l and the next age's b_next."""
    gap = b_l - b_next  # negative: OFF beliefs rise with age
    num = gap * (l + 1) + b_next
    den = (1.0 - p) + gap * l + b_next
    return num / den


def whittle_index(cls: ChannelClass, s: BeliefState) -> float:
    """Whittle index of lattice point s.

    OFF states sit strictly below the stationary belief and get strictly
    increasing indices in age; every state at or above the stationary belief
    (stationary itself and all ON ages) shares ``stationary_index``.
    """
    if s.kind != OFF:
        return stationary_index(cls)
    l = s.age
    return _off_index(cls.p, l, belief_value(cls, off_age(l)),
                      belief_value(cls, off_age(l + 1)))


def subsidy_value(cls: ChannelClass, omega: float, threshold_age: int) -> float:
    """Average reward of the single-channel threshold policy that idles at OFF
    ages < threshold_age and schedules everything else, under subsidy omega."""
    if threshold_age < 1:
        raise ValueError("threshold age must be >= 1")
    p = cls.p
    l = threshold_age
    b = belief_value(cls, off_age(l))
    return (b + omega * (1.0 - p) * (l - 1)) / (b + (1.0 - p) * l)


# ---------------------------------------------------------------------------
# numerical oracle: relative value iteration on the subsidy MDP


@lru_cache(maxsize=None)
def _subsidy_mdp(cls: ChannelClass):
    """Static arrays of the subsidy MDP on the truncated lattice: beliefs,
    the idle successor map, and the two feedback target indices."""
    tau = cls.tau
    states = lattice_states(tau)
    beliefs = belief_vector(cls)
    idle_next = np.empty(len(states), dtype=np.intp)
    for i, s in enumerate(states):
        idle_next[i] = lattice_position(step_idle(cls, s), tau)
    i_on1 = lattice_position(BeliefState("on", 1), tau)
    i_off1 = 0
    return beliefs, idle_next, i_on1, i_off1


def solve_subsidy(cls: ChannelClass, omega: float, h0: np.ndarray | None = None,
                  span_tol: float = ORACLE_SPAN_TOL, max_iters: int = ORACLE_MAX_ITERS):
    """Relative value iteration for the subsidy problem.

    Returns (h, gain, active) where h is the relative value function (zero at
    the stationary state), gain the long-run average reward, and active the
    boolean mask of states where scheduling beats idling.

    Raises RuntimeError if the span has not contracted below span_tol within
    max_iters sweeps (diagnostic, should not happen for valid parameters).
    """
    beliefs, idle_next, i_on1, i_off1 = _subsidy_mdp(cls)
    n = beliefs.shape[0]
    h = np.zeros(n) if h0 is None else np.array(h0, dtype=float)
    ref = cls.tau  # stationary state anchors the relative values
    for _ in range(max_iters):
        t_pass = omega + h[idle_next]
        t_act = beliefs * (1.0 + h[i_on1]) + (1.0 - beliefs) * h[i_off1]
        t_new = np.maximum(t_pass, t_act)
        diff = t_new - h
        if np.ptp(diff) < span_tol:
            gain = 0.5 * (diff.max() + diff.min())
            return t_new - t_new[ref], gain, t_act > t_pass
        h = t_new - t_new[ref]
    raise RuntimeError(
        f"value iteration did not contract to span {span_tol} in {max_iters} sweeps "
        f"(p={cls.p}, r={cls.r}, omega={omega})")


def oracle_idle_set(cls: ChannelClass, omega: float) -> frozenset[BeliefState]:
    """States where the subsidy-omega problem prefers idling (oracle policy)."""
    _, _, active = solve_subsidy(cls, omega)
    states = lattice_states(cls.tau)
    return frozenset(s for s, a in zip(states, active) if not a)


def whittle_index_oracle(cls: ChannelClass, s: BeliefState, tol: float = 1e-6) -> float:
    """Index of s recovered by bisecting the subsidy level at which the
    optimal action at s flips, with no use of the closed forms."""
    pos = lattice_position(s, cls.tau)
    lo, hi = 0.0, 1.0  # active everywhere at 0, passive everywhere at 1
    h = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        h, _, active = solve_subsidy(cls, mid, h0=h)
        if active[pos]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# index tables over a mix


@dataclass(frozen=True)
class Rung:
    """One level of the merged index ladder: a value and the (class, state)
    pairs attaining it, together with their full-layout positions."""

    value: float
    members: tuple[tuple[int, BeliefState], ...]
    positions: tuple[int, ...]


@dataclass(frozen=True)
class IndexTable:
    """Whittle indices for every (class, lattice state) of a mix.

    values holds the full-layout vector (class 0 block then class 1 block,
    each block in lattice layout order); ladder is the merged descending list
    of distinct index values with ties grouped at TIE_TOL.
    """

    mix: ClassMix
    values: np.ndarray
    ladder: tuple[Rung, ...]

    def value(self, class_idx: int, s: BeliefState) -> float:
        tau = self.mix.tau
        return float(self.values[class_idx * (2 * tau + 1) + lattice_position(s, tau)])


def build_index_table(mix: ClassMix) -> IndexTable:
    """Index of every (class, lattice state), one pass per class over the OFF
    beliefs b_1..b_{tau+1}, and the ladder merged from them."""
    tau = mix.tau
    values = []  # full layout: OFF ages 1..tau, then stationary and ON ages
    for cls in mix.classes:
        b = belief_vector(cls)[:tau].tolist() + [belief_value(cls, off_age(tau + 1))]
        values += [_off_index(cls.p, l, b[l - 1], b[l]) for l in range(1, tau + 1)]
        values += [stationary_index(cls)] * (tau + 1)
    rungs = []  # (value, positions), values descending, ties at TIE_TOL
    for i in sorted(range(len(values)), key=values.__getitem__, reverse=True):  # stable
        if rungs and rungs[-1][0] - values[i] <= TIE_TOL:
            rungs[-1][1].append(i)
        else:
            rungs.append((values[i], [i]))
    members = [(k, s) for k in range(mix.n_classes) for s in lattice_states(tau)]
    ladder = tuple(
        Rung(value=w, members=tuple([members[i] for i in pos]), positions=tuple(pos))
        for w, pos in rungs
    )
    values = np.array(values)
    values.flags.writeable = False
    return IndexTable(mix=mix, values=values, ladder=ladder)
