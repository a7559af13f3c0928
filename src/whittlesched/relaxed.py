"""Solver for the relaxed scheduling problem (activation constraint in
time-average rather than per slot).

The optimal relaxed policy is a per-class belief threshold with randomization
on at most one index rung: walk the merged index ladder downward, tracking the
population fraction that would be scheduled if every state strictly above the
current rung were activated, until the budget alpha is bracketed; then solve
for the randomization weight rho on the bracketing rung.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .belief import (
    BeliefState,
    ChannelClass,
    ClassMix,
    belief_value,
    lattice_position,
    off_age,
    on_age,
)
from .whittle import TIE_TOL, IndexTable, build_index_table, stationary_index

# slack for "activation exactly meets alpha at rho = 1" and budget comparisons
EQ_TOL = 1e-14


def activation_fraction(cls: ChannelClass, threshold_age: int | None, rho: float) -> float:
    """Long-run scheduled fraction of a single channel under the threshold
    policy: idle at OFF ages < threshold_age, schedule the threshold age with
    probability rho, schedule everything above.

    threshold_age None means the threshold sits at or above the stationary
    belief; such a policy never leaves the idle ladder and activates nothing.
    """
    if threshold_age is None:
        return 0.0
    if not 1 <= threshold_age <= cls.tau:
        raise ValueError(f"threshold age {threshold_age} outside 1..tau")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    p = cls.p
    h = threshold_age
    b_h = belief_value(cls, off_age(h))
    b_next = belief_value(cls, off_age(h + 1))
    den = rho * b_h + (1.0 - rho) * b_next + (1.0 - p) * (h + 1.0 - rho)
    return 1.0 - (1.0 - p) * (h - rho) / den


def activation_fraction_oracle(cls: ChannelClass, threshold_age: int, rho: float) -> float:
    """Same quantity from first principles: build the single-channel belief
    chain under the threshold policy, solve for its stationary distribution,
    and add up the scheduled mass.

    The chain is built on the policy's recurrent set {OnAge(1),
    OffAge(1..h+1)} of the untruncated lattice, which the closed form
    describes; transient states do not affect the stationary distribution.
    """
    if not 1 <= threshold_age <= cls.tau:
        raise ValueError(f"threshold age {threshold_age} outside 1..tau")
    p = cls.p
    h = threshold_age
    # state order: OnAge(1), OffAge(1), ..., OffAge(h+1)
    n = h + 2
    beliefs = np.empty(n)
    beliefs[0] = p
    for l in range(1, h + 2):
        beliefs[l] = belief_value(cls, off_age(l))
    active = np.zeros(n)
    active[0] = 1.0
    active[h] = rho          # OffAge(h) sits at slot index h
    active[h + 1] = 1.0
    T = np.zeros((n, n))
    for i in range(n):
        a = active[i]
        b = beliefs[i]
        # scheduled with prob a: feedback resets to OnAge(1) or OffAge(1)
        T[i, 0] += a * b
        T[i, 1] += a * (1.0 - b)
        # idle with prob 1-a: age along the OFF ladder (OnAge(1) idles to
        # OffAge... never happens: OnAge(1) is always scheduled here)
        if a < 1.0:
            if i == 0:
                raise AssertionError("OnAge(1) is always active under a threshold policy")
            T[i, i + 1] += 1.0 - a
    # stationary distribution: solve mu (T - I) = 0 with sum(mu) = 1
    A = np.vstack([(T - np.eye(n)).T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    mu, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return float(mu @ active)


@dataclass(frozen=True)
class ClassPolicy:
    """Threshold policy of one class at the relaxed optimum.

    threshold_age is the lowest OFF age the class ever schedules (None if the
    class never schedules: its whole ladder sits below the optimal subsidy).
    randomized marks the class as attaining the crossing rung, in which case
    the threshold age is scheduled with probability rho_star only.
    """

    threshold_age: int | None
    randomized: bool
    activation: float

    @property
    def threshold_state(self) -> BeliefState | None:
        return None if self.threshold_age is None else off_age(self.threshold_age)


@dataclass(frozen=True)
class RelaxedSolution:
    mix: ClassMix
    table: IndexTable
    omega_star: float
    rho_star: float
    policies: tuple[ClassPolicy, ...]
    activation: float
    degenerate: bool = False
    degenerate_reason: str | None = None
    silent_classes: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()
    throughput_per_user: float | None = None
    zeta: np.ndarray | None = field(default=None, repr=False)


def _rung_ages(off_values: np.ndarray, omegas: np.ndarray) -> tuple[list, list]:
    """Threshold of one class at every rung of the ladder: the first OFF age
    whose index is within TIE_TOL of the rung (the class attains the rung),
    else the first age above it, else 0 (the class never schedules).

    Returns (ages, attains), one entry per rung.
    """
    tie = np.abs(off_values - omegas[:, None]) <= TIE_TOL
    above = off_values > omegas[:, None]
    attains = tie.any(axis=1)
    ages = np.where(attains, tie.argmax(axis=1), above.argmax(axis=1)) + 1
    ages[~(attains | above.any(axis=1))] = 0
    return ages.tolist(), attains.tolist()


def _rho_for_activation(cls: ChannelClass, h: int, target: float) -> float:
    """The rho at which activation_fraction(cls, h, rho) equals target: the
    activation is linear-fractional in rho, so this is one linear equation."""
    p = cls.p
    b_h = belief_value(cls, off_age(h))
    b_next = belief_value(cls, off_age(h + 1))
    t = 1.0 - target
    return ((t * (b_next + (1.0 - p) * (h + 1)) - (1.0 - p) * h)
            / (t * (1.0 - p) - (1.0 - p) - t * (b_h - b_next)))


def solve_relaxed(mix: ClassMix, table: IndexTable | None = None) -> RelaxedSolution:
    """Walk the merged index ladder down to the rung where total activation
    reaches alpha, then solve for the randomization weight on that rung.

    Each class's threshold at every rung comes from one comparison of its OFF
    indices with the rung values, and each (class, threshold) activation is
    evaluated once.  On the crossing rung the attaining classes randomize with
    one weight rho*; their activation is linear-fractional in rho, so rho*
    has a closed form.  Attaining classes with the same (p, r, threshold)
    pool their fractions.  Distinct classes tied on the crossing rung could
    split the budget between them in many ways, so that solution is
    degenerate.
    """
    if table is None:
        table = build_index_table(mix)
    tau = mix.tau
    block = 2 * tau + 1
    omegas = np.array([rung.value for rung in table.ladder])
    ages, attains = zip(*(_rung_ages(table.values[k * block: k * block + tau], omegas)
                          for k in range(mix.n_classes)))

    @cache
    def full(k: int, h: int) -> float:
        # activation of class k scheduling OFF ages >= h (none when h is 0)
        return activation_fraction(mix.classes[k], h, 1.0) if h else 0.0

    warnings: list[str] = []
    prev_f1 = 0.0
    for i, rung in enumerate(table.ladder):
        f1 = sum(g * full(k, ages[k][i]) for k, g in enumerate(mix.gamma))
        if f1 >= mix.alpha - EQ_TOL:
            break
        prev_f1 = f1
    else:
        # not even full activation of everything below reaches alpha
        return _degenerate(
            mix, table, table.ladder[-1].value,
            reason=f"total activation saturates at {prev_f1:.6g} < alpha={mix.alpha}",
        )
    omega_star = rung.value
    h_of = [ages[k][i] for k in range(mix.n_classes)]
    att = [k for k in range(mix.n_classes) if attains[k][i]]
    f0 = sum(g * (activation_fraction(mix.classes[k], h_of[k], 0.0) if k in att
                  else full(k, h_of[k]))
             for k, g in enumerate(mix.gamma))
    if f0 > mix.alpha + EQ_TOL:
        # jump across the truncation gap: the needed threshold lies beyond
        # the lattice depth
        return _degenerate(
            mix, table, omega_star,
            reason="threshold beyond truncation depth: activation jumps from "
                   f"{prev_f1:.6g} to {f0:.6g} across rung {omega_star:.6g} "
                   f"while alpha={mix.alpha}",
        )

    if f1 <= mix.alpha + EQ_TOL:
        rho_star = 1.0
        warnings.append("activation meets alpha exactly at rho = 1")
    elif len({(mix.classes[k].p, mix.classes[k].r, h_of[k]) for k in att}) > 1:
        return _degenerate(
            mix, table, omega_star,
            reason=f"crossing rung {omega_star:.6g} is tied across distinct classes "
                   f"{att}: the split of the budget between them is not unique",
        )
    else:
        rest = sum(mix.gamma[k] * full(k, h_of[k])
                   for k in range(mix.n_classes) if k not in att)
        pooled = sum(mix.gamma[k] for k in att)
        rho_star = _rho_for_activation(mix.classes[att[0]], h_of[att[0]],
                                       (mix.alpha - rest) / pooled)
        if not 0.0 <= rho_star <= 1.0:
            warnings.append(f"rho* = {rho_star!r} rounded outside [0, 1]; clamped")
            rho_star = min(max(rho_star, 0.0), 1.0)

    policies = []
    silent = []
    boundary = False
    for k, cls in enumerate(mix.classes):
        h = h_of[k] or None
        attains_k = k in att
        a = activation_fraction(cls, h, rho_star) if attains_k else full(k, h_of[k])
        policies.append(ClassPolicy(threshold_age=h, randomized=attains_k, activation=a))
        if attains_k and h == cls.tau and rho_star < 1.0 - TIE_TOL:
            boundary = True
        if h is None:
            silent.append(k)
            if omega_star >= stationary_index(cls) - TIE_TOL:
                warnings.append(
                    f"class {k} is transient at the relaxed optimum (its whole ladder "
                    f"sits at or below omega* = {omega_star:.6g})")
            else:
                warnings.append(
                    f"class {k} never activates at omega* = {omega_star:.6g} "
                    "(threshold at the stationary belief)")

    if boundary:
        warnings.append(
            "randomized threshold at the truncation boundary: the truncated lattice "
            "cannot represent the idle overflow state, fixed point unavailable")
    activation = sum(g * pol.activation for g, pol in zip(mix.gamma, policies))
    degenerate = bool(silent) or boundary
    reason = None
    if silent:
        reason = "transient class present"
    elif boundary:
        reason = "randomized threshold at truncation boundary"
    sol = RelaxedSolution(
        mix=mix,
        table=table,
        omega_star=omega_star,
        rho_star=rho_star,
        policies=tuple(policies),
        activation=activation,
        degenerate=degenerate,
        degenerate_reason=reason,
        silent_classes=tuple(silent),
        warnings=tuple(warnings),
    )
    if degenerate:
        return sol
    zeta = compute_zeta(sol)
    return replace(sol, throughput_per_user=per_user_throughput(sol), zeta=zeta)


def _degenerate(mix, table, omega, reason):
    policies = tuple(
        ClassPolicy(threshold_age=None, randomized=False, activation=0.0)
        for _ in mix.classes
    )
    return RelaxedSolution(
        mix=mix, table=table, omega_star=omega, rho_star=0.0,
        policies=policies, activation=0.0, degenerate=True,
        degenerate_reason=reason, silent_classes=tuple(range(mix.n_classes)),
        warnings=(reason,),
    )


def _class_chain(cls: ChannelClass, h: int, rho: float):
    """Stationary masses of one class under its threshold policy, in closed
    form: mu0 on OffAge(1..h), (1-rho)*mu0 on OffAge(h+1), the rest ON."""
    p = cls.p
    b_h = belief_value(cls, off_age(h))
    b_next = belief_value(cls, off_age(h + 1))
    den = rho * b_h + (1.0 - rho) * b_next + (1.0 - p) * (h + 1.0 - rho)
    mu0 = (1.0 - p) / den
    mu_on = 1.0 - (h + 1.0 - rho) * mu0
    return mu0, mu_on, b_h, b_next


def per_user_throughput(sol: RelaxedSolution) -> float:
    """Expected per-user service rate of the relaxed optimum (scheduled slots
    that find the channel ON)."""
    if sol.degenerate:
        raise ValueError("throughput undefined for a degenerate solution: "
                         + (sol.degenerate_reason or ""))
    total = 0.0
    for cls, g, pol in zip(sol.mix.classes, sol.mix.gamma, sol.policies):
        rho = sol.rho_star if pol.randomized else 1.0
        h = pol.threshold_age
        mu0, mu_on, b_h, b_next = _class_chain(cls, h, rho)
        served = cls.p * mu_on + rho * b_h * mu0 + (1.0 - rho) * b_next * mu0
        total += g * served
    return total


def compute_zeta(sol: RelaxedSolution) -> np.ndarray:
    """Population fixed point of the relaxed optimum in full layout order,
    scaled by the class fractions (entries of class k sum to gamma_k)."""
    if sol.degenerate:
        raise ValueError("zeta undefined for a degenerate solution: "
                         + (sol.degenerate_reason or ""))
    tau = sol.mix.tau
    block = 2 * tau + 1
    z = np.zeros(sol.mix.n_classes * block)
    for k, (cls, g, pol) in enumerate(zip(sol.mix.classes, sol.mix.gamma, sol.policies)):
        rho = sol.rho_star if pol.randomized else 1.0
        h = pol.threshold_age
        mu0, mu_on, _, _ = _class_chain(cls, h, rho)
        base = k * block
        for l in range(1, h + 1):
            z[base + lattice_position(off_age(l), tau)] = g * mu0
        if rho < 1.0 and h + 1 <= tau:
            z[base + lattice_position(off_age(h + 1), tau)] = g * (1.0 - rho) * mu0
        z[base + lattice_position(on_age(1), tau)] = g * mu_on
    return z
