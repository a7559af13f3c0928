"""Index ladder values for the truncated belief lattice.

A state's subsidy index is the subsidy level at which scheduling and idling
are equally attractive in the single-channel average-reward problem ("subsidy
problem": idling earns the subsidy omega, scheduling earns the current belief
and reveals the channel).  Each OFF age gets its subsidy index, in closed form
from the threshold stationary equations; ``whittle_index_oracle`` recomputes
the subsidy index numerically from the subsidy MDP and is kept as an
independent cross-check.

The ladder ties the stationary state and every ON age at the stationary index
by convention.  That is coarser than the subsidy index, which at a belief b
above the stationary one is b / (1 - p + b) (Liu & Zhao, IEEE Trans. Inf.
Theory 2010): 0.8 at OnAge(1) of class (0.8, 0.2), against the ladder's
0.714286.  The tie only orders the states inside the top rung.  Its cost, by
an exact solve of the N = 4 population on (0.8, 0.2) at tau = 4 and
alpha = 0.75: the index policy earns 0.4399652 against the optimum 0.4410662.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import (
    OFF,
    BeliefState,
    ChannelClass,
    ClassMix,
    belief_value,
    belief_vector,
    lattice_moves,
    lattice_position,
    lattice_states,
    off_age,
)

ORACLE_SPAN_TOL = 1e-10
ORACLE_MAX_ITERS = 10**6


def stationary_index(cls: ChannelClass) -> float:
    """Subsidy index of the stationary state, which the ladder also gives every
    ON lattice point by convention (their subsidy index is higher; see the
    module docstring)."""
    p, r = cls.p, cls.r
    return r / ((1 - p) * (1 + r - p) + r)


def _off_indices(cls: ChannelClass) -> list:
    """Indices of OffAge(1..tau) in one pass: with d = p - r, w_l =
    r S1_l / (1 + r S2_l), S1_l = sum_{m<l} (m+1) d^m, S2_l = sum_{m<l} m d^m.
    No term cancels and w_1 = r.  The exact values climb strictly toward the
    stationary index; the rounded ones are capped by a running minimum from
    it down through ages tau..1, so they never contradict that order.  The
    int constants let it run exactly on fractions.Fraction inputs."""
    p, r = cls.p, cls.r
    d = p - r
    dm, s1, s2 = 1, 0, 0
    w = []
    for m in range(cls.tau):
        s1 += (m + 1) * dm
        s2 += m * dm
        dm *= d
        w.append(r * s1 / (1 + r * s2))
    cap = stationary_index(cls)
    for l in range(cls.tau - 1, -1, -1):
        cap = w[l] = min(w[l], cap)
    return w


def whittle_index(cls: ChannelClass, s: BeliefState) -> float:
    """Ladder value of lattice point s.

    OFF states sit below the stationary belief and get their subsidy indices,
    nondecreasing in age (strictly increasing in exact arithmetic).  Every
    state at or above the stationary belief (stationary itself and all ON
    ages) shares ``stationary_index`` by convention: coarser than the ON ages'
    subsidy index b / (1 - p + b) (see the module docstring).
    """
    if s.kind != OFF:
        return stationary_index(cls)
    return _off_indices(cls)[s.age - 1]


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


def solve_subsidy(cls: ChannelClass, omega: float, h0: np.ndarray | None = None):
    """Relative value iteration for the subsidy problem.

    Returns (h, gain, active) where h is the relative value function (zero at
    the stationary state), gain the long-run average reward, and active the
    boolean mask of states where scheduling beats idling.

    Raises RuntimeError if the span has not contracted below ORACLE_SPAN_TOL
    within ORACLE_MAX_ITERS sweeps (diagnostic, should not happen for valid
    parameters).
    """
    beliefs = belief_vector(cls)
    idle_next, i_on1, i_off1 = lattice_moves(cls)
    n = beliefs.shape[0]
    h = np.zeros(n) if h0 is None else np.array(h0, dtype=float)
    ref = cls.tau  # stationary state anchors the relative values
    for _ in range(ORACLE_MAX_ITERS):
        t_pass = omega + h[idle_next]
        t_act = beliefs * (1.0 + h[i_on1]) + (1.0 - beliefs) * h[i_off1]
        t_new = np.maximum(t_pass, t_act)
        diff = t_new - h
        if np.ptp(diff) < ORACLE_SPAN_TOL:
            gain = 0.5 * (diff.max() + diff.min())
            return t_new - t_new[ref], gain, t_act > t_pass
        h = t_new - t_new[ref]
    raise RuntimeError(
        f"value iteration did not contract to span {ORACLE_SPAN_TOL} in "
        f"{ORACLE_MAX_ITERS} sweeps (p={cls.p}, r={cls.r}, omega={omega})")


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
    each block in lattice layout order).  ladder sorts the positions by
    (value, depth) descending, depth being l for OffAge(l) and tau + 1 for
    the stationary and ON states, and a rung is one run of equal (value,
    depth): inside a class, the exact index order.
    """

    mix: ClassMix
    values: np.ndarray
    ladder: tuple[Rung, ...]

    def value(self, class_idx: int, s: BeliefState) -> float:
        tau = self.mix.tau
        return float(self.values[class_idx * (2 * tau + 1) + lattice_position(s, tau)])


def build_index_table(mix: ClassMix) -> IndexTable:
    """Index of every (class, lattice state), one pass per class, and the
    ladder merged from them."""
    tau = mix.tau
    keys = []  # (value, depth) in full layout: OFF ages 1..tau, stationary, ON ages
    for cls in mix.classes:
        keys += zip(_off_indices(cls), range(1, tau + 1))
        keys += [(stationary_index(cls), tau + 1)] * (tau + 1)
    rungs = []  # (key, positions), keys descending
    for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):  # stable
        if rungs and rungs[-1][0] == keys[i]:
            rungs[-1][1].append(i)
        else:
            rungs.append((keys[i], [i]))
    members = [(k, s) for k in range(mix.n_classes) for s in lattice_states(tau)]
    ladder = tuple(
        Rung(value=w, members=tuple([members[i] for i in pos]), positions=tuple(pos))
        for (w, _), pos in rungs
    )
    values = np.array([w for w, _ in keys])
    values.flags.writeable = False
    return IndexTable(mix=mix, values=values, ladder=ladder)
