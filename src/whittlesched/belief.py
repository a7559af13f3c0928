"""Belief lattice for Gilbert-Elliott channels under per-slot scheduling feedback.

A channel alternates between ON and OFF following a two-state Markov chain with
P(OFF->ON) = r and P(ON->ON) = p, observed only in slots where the user is
scheduled.  The scheduler's posterior P(channel ON) then lives on a countable
lattice indexed by the last observation and the time since it was made.  We
truncate that lattice at age tau: after tau unobserved slots the belief is
collapsed to the stationary probability r / (1 + r - p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

OFF = "off"
ON = "on"
STAT = "stationary"


@dataclass(frozen=True)
class BeliefState:
    """One point of the truncated belief lattice.

    kind is "off" or "on" with age = slots since that observation (1-based:
    age 1 means the observation was made in the previous slot), or
    "stationary" (age 0) once the age exceeds the truncation depth.
    """

    kind: str
    age: int = 0

    def __post_init__(self):
        if self.kind not in (OFF, ON, STAT):
            raise ValueError(f"unknown belief kind {self.kind!r}")
        if self.kind == STAT:
            if self.age != 0:
                raise ValueError("stationary state carries no age")
        elif self.age < 1:
            raise ValueError("observation age must be >= 1")


def off_age(age: int) -> BeliefState:
    return BeliefState(OFF, age)


def on_age(age: int) -> BeliefState:
    return BeliefState(ON, age)


STATIONARY = BeliefState(STAT)


@dataclass(frozen=True)
class ChannelClass:
    """Channel parameters for one user class.

    p = P(ON stays ON), r = P(OFF turns ON), with 0 < r < p < 1 (positively
    correlated channel), and tau the belief truncation depth.
    """

    p: float
    r: float
    tau: int = 16

    def __post_init__(self):
        if not (0.0 < self.r < self.p < 1.0):
            raise ValueError(f"need 0 < r < p < 1, got r={self.r}, p={self.p}")
        if self.tau < 2:
            raise ValueError("truncation depth tau must be >= 2")


def stationary_belief(cls: ChannelClass):
    """Long-run P(channel ON), the fixed point of the idle belief recursion."""
    return cls.r / (1.0 + cls.r - cls.p)


def _off_belief(p, r, age):
    # Closed form for the belief age slots after an OFF observation.  Written
    # over +,-,*,/ and integer powers only so it also evaluates exactly on
    # fractions.Fraction inputs.
    return (r - (p - r) ** age * r) / (1 + r - p)


def _on_belief(p, r, age):
    return (r + (1 - p) * (p - r) ** age) / (1 + r - p)


def belief_value(cls: ChannelClass, s: BeliefState) -> float:
    """Posterior P(channel ON) at lattice point s.

    Ages may exceed tau here (the closed form is still well defined); the
    lattice itself only contains ages 1..tau.
    """
    if s.kind == OFF:
        return _off_belief(cls.p, cls.r, s.age)
    if s.kind == ON:
        return _on_belief(cls.p, cls.r, s.age)
    return stationary_belief(cls)


def belief_value_by_iteration(cls: ChannelClass, last_obs: int, age: int) -> float:
    """Reference implementation: iterate pi' = pi*p + (1-pi)*r from the
    observation age times.  Used to pin the closed forms down in tests."""
    if age < 1:
        raise ValueError("age must be >= 1")
    pi = cls.p if last_obs else cls.r
    for _ in range(age - 1):
        pi = pi * cls.p + (1.0 - pi) * cls.r
    return pi


def step_idle(cls: ChannelClass, s: BeliefState) -> BeliefState:
    """Lattice successor after an unobserved slot (ages advance, tau collapses
    to stationary, stationary is absorbing)."""
    if s.kind == STAT:
        return s
    if s.age >= cls.tau:
        return STATIONARY
    return BeliefState(s.kind, s.age + 1)


def step_feedback(observed_on: bool) -> BeliefState:
    """Lattice successor after a scheduled slot with the given observation."""
    return on_age(1) if observed_on else off_age(1)


@lru_cache(maxsize=None)
def lattice_states(tau: int) -> tuple[BeliefState, ...]:
    """All 2*tau + 1 lattice points in canonical layout order: OFF ages
    ascending, then stationary, then ON ages descending (so belief is
    nondecreasing along the layout within each class block)."""
    off = [off_age(a) for a in range(1, tau + 1)]
    on = [on_age(a) for a in range(tau, 0, -1)]
    return tuple(off) + (STATIONARY,) + tuple(on)


def lattice_position(s: BeliefState, tau: int) -> int:
    """Index of s within the canonical per-class layout."""
    if s.kind == OFF:
        if not 1 <= s.age <= tau:
            raise ValueError(f"OFF age {s.age} outside lattice (tau={tau})")
        return s.age - 1
    if s.kind == STAT:
        return tau
    if not 1 <= s.age <= tau:
        raise ValueError(f"ON age {s.age} outside lattice (tau={tau})")
    return 2 * tau + 1 - s.age


@lru_cache(maxsize=None)
def belief_vector(cls: ChannelClass) -> np.ndarray:
    """Beliefs of all lattice states in layout order (cached per class)."""
    vals = [belief_value(cls, s) for s in lattice_states(cls.tau)]
    out = np.array(vals, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ClassMix:
    """A population mix: one or two channel classes with fractions gamma
    (summing to 1) and a per-slot activation budget alpha (fraction of the
    population that can be scheduled each slot)."""

    classes: tuple[ChannelClass, ...]
    gamma: tuple[float, ...]
    alpha: float

    def __post_init__(self):
        if not 1 <= len(self.classes) <= 2:
            raise ValueError("mix must contain one or two classes")
        if len(self.gamma) != len(self.classes):
            raise ValueError("gamma length must match number of classes")
        if any(g <= 0.0 for g in self.gamma):
            raise ValueError("class fractions must be positive")
        if abs(sum(self.gamma) - 1.0) > 1e-9:
            raise ValueError("class fractions must sum to 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        taus = {c.tau for c in self.classes}
        if len(taus) != 1:
            raise ValueError("all classes in a mix must share tau")

    @property
    def tau(self) -> int:
        return self.classes[0].tau

    @property
    def n_classes(self) -> int:
        return len(self.classes)
