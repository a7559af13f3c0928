"""Solver for the relaxed scheduling problem (activation constraint in
time-average rather than per slot).

The optimal relaxed policy is a per-class belief threshold with randomization
on at most one index rung: walk the merged index ladder downward, tracking the
population fraction that would be scheduled if every state strictly above the
current rung were activated, until the budget alpha is bracketed; then solve
for the randomization weight rho on the bracketing rung.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .belief import (
    OFF,
    BeliefState,
    ChannelClass,
    ClassMix,
    _off_belief,
    belief_value,
    lattice_position,
    off_age,
    on_age,
)
from .whittle import IndexTable, build_index_table

# slack for "activation exactly meets alpha at rho = 1" and budget comparisons
EQ_TOL = 1e-14
# a rho* this close to 1 schedules the truncation boundary in full
BOUNDARY_RHO_TOL = 1e-12


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
    _, _, den = _threshold_chain(cls, threshold_age, rho)
    return 1.0 - (1.0 - cls.p) * (threshold_age - rho) / den


def _threshold_chain(cls: ChannelClass, h: int, rho: float) -> tuple[float, float, float]:
    """Beliefs b_h, b_{h+1} at OFF ages h and h + 1, and the normaliser den of
    the single-class chain under the threshold policy (h, rho): it holds
    mu0 = (1 - p) / den on each of OffAge(1..h), (1 - rho) * mu0 on
    OffAge(h + 1) and the rest on OnAge(1)."""
    b_h = _off_belief(cls.p, cls.r, h)
    b_next = _off_belief(cls.p, cls.r, h + 1)
    den = rho * b_h + (1.0 - rho) * b_next + (1.0 - cls.p) * (h + 1.0 - rho)
    return b_h, b_next, den


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
    """The relaxed optimum; throughput_per_user and zeta are None exactly when
    it is degenerate (degenerate_reason says why)."""

    mix: ClassMix
    table: IndexTable
    omega_star: float
    crossing_rung: int  # ladder index of the rung valued omega_star
    rho_star: float
    policies: tuple[ClassPolicy, ...]
    activation: float
    degenerate_reason: str | None = None
    warnings: tuple[str, ...] = ()
    throughput_per_user: float | None = None
    zeta: np.ndarray | None = field(default=None, repr=False)

    @property
    def degenerate(self) -> bool:
        return self.degenerate_reason is not None


def _rho_for_activation(cls: ChannelClass, h: int, target: float) -> float:
    """The rho at which activation_fraction(cls, h, rho) equals target: the
    activation is linear-fractional in rho, so this is one linear equation."""
    p = cls.p
    b_h, b_next, _ = _threshold_chain(cls, h, 1.0)
    t = 1.0 - target
    return ((t * (b_next + (1.0 - p) * (h + 1)) - (1.0 - p) * h)
            / (t * (1.0 - p) - (1.0 - p) - t * (b_h - b_next)))


def solve_relaxed(mix: ClassMix, table: IndexTable | None = None) -> RelaxedSolution:
    """Walk the merged index ladder down to the rung where total activation
    reaches alpha, then solve for the randomization weight on that rung.

    Walking down, each class's threshold is its lowest OFF age on the rungs
    walked so far, and each (class, threshold) activation is evaluated once.
    The classes with an OFF state on the crossing rung attain it and
    randomize there with one weight rho*; their activation is
    linear-fractional in rho, so rho* has a closed form.  Attaining classes
    with the same (p, r, threshold) pool their fractions.  Distinct classes
    tied on the crossing rung could split the budget between them in many
    ways, so that solution is degenerate.
    """
    if table is None:
        table = build_index_table(mix)

    @cache
    def full(k: int, h: int) -> float:
        # activation of class k scheduling OFF ages >= h (none when h is 0)
        return activation_fraction(mix.classes[k], h, 1.0) if h else 0.0

    warnings: list[str] = []
    h_of = [0] * mix.n_classes  # lowest OFF age walked so far, 0 for none
    above = set()  # classes with a state on a rung above the current one
    prev_f1 = 0.0
    for i, rung in enumerate(table.ladder):
        att = [k for k, s in rung.members if s.kind == OFF]
        for k, s in rung.members:
            if s.kind == OFF:
                h_of[k] = s.age
        f1 = sum(g * full(k, h_of[k]) for k, g in enumerate(mix.gamma))
        if f1 >= mix.alpha - EQ_TOL:
            break
        prev_f1 = f1
        above.update(k for k, _ in rung.members)
    else:
        # not even full activation of everything below reaches alpha
        return _degenerate(
            mix, table, i,
            reason=f"total activation saturates at {prev_f1:.6g} < alpha={mix.alpha}",
        )
    omega_star = rung.value
    f0 = sum(g * (activation_fraction(mix.classes[k], h_of[k], 0.0) if k in att
                  else full(k, h_of[k]))
             for k, g in enumerate(mix.gamma))
    if f0 > mix.alpha + EQ_TOL:
        # jump across the truncation gap: the needed threshold lies beyond
        # the lattice depth
        return _degenerate(
            mix, table, i,
            reason="threshold beyond truncation depth: activation jumps from "
                   f"{prev_f1:.6g} to {f0:.6g} across rung {omega_star:.6g} "
                   f"while alpha={mix.alpha}",
        )

    if f1 <= mix.alpha + EQ_TOL:
        rho_star = 1.0
        warnings.append("activation meets alpha exactly at rho = 1")
    elif len({(mix.classes[k].p, mix.classes[k].r, h_of[k]) for k in att}) > 1:
        return _degenerate(
            mix, table, i,
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
    boundary = False
    for k, cls in enumerate(mix.classes):
        h = h_of[k] or None
        attains_k = k in att
        a = activation_fraction(cls, h, rho_star) if attains_k else full(k, h_of[k])
        policies.append(ClassPolicy(threshold_age=h, randomized=attains_k, activation=a))
        if attains_k and h == cls.tau and rho_star < 1.0 - BOUNDARY_RHO_TOL:
            boundary = True
        if h is None:
            if k not in above:
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
    reason = throughput = zeta = None
    if any(pol.threshold_age is None for pol in policies):
        reason = "transient class present"
    elif boundary:
        reason = "randomized threshold at truncation boundary"
    else:
        throughput, zeta = _throughput_and_zeta(mix, policies, rho_star)
    return RelaxedSolution(
        mix=mix,
        table=table,
        omega_star=omega_star,
        crossing_rung=i,
        rho_star=rho_star,
        policies=tuple(policies),
        activation=sum(g * pol.activation for g, pol in zip(mix.gamma, policies)),
        degenerate_reason=reason,
        warnings=tuple(warnings),
        throughput_per_user=throughput,
        zeta=zeta,
    )


def _degenerate(mix, table, rung_idx, reason):
    silent = ClassPolicy(threshold_age=None, randomized=False, activation=0.0)
    return RelaxedSolution(
        mix=mix, table=table, omega_star=table.ladder[rung_idx].value,
        crossing_rung=rung_idx, rho_star=0.0, policies=(silent,) * mix.n_classes,
        activation=0.0, degenerate_reason=reason, warnings=(reason,),
    )


def _throughput_and_zeta(mix: ClassMix, policies: list[ClassPolicy],
                         rho_star: float) -> tuple[float, np.ndarray]:
    """Per-user service rate (scheduled slots that find the channel ON) and
    population fixed point zeta of a non-degenerate relaxed optimum, in one
    pass over the classes.  zeta is in full layout order, scaled by the class
    fractions (entries of class k sum to gamma_k)."""
    tau = mix.tau
    block = 2 * tau + 1
    on1 = lattice_position(on_age(1), tau)
    z = np.zeros(mix.n_classes * block)
    total = 0.0
    for k, (cls, g, pol) in enumerate(zip(mix.classes, mix.gamma, policies)):
        rho = rho_star if pol.randomized else 1.0
        h = pol.threshold_age
        b_h, b_next, den = _threshold_chain(cls, h, rho)
        mu0 = (1.0 - cls.p) / den
        mu_on = 1.0 - (h + 1.0 - rho) * mu0
        total += g * (cls.p * mu_on + rho * b_h * mu0 + (1.0 - rho) * b_next * mu0)
        base = k * block
        # OFF ages 1..tau lead the layout, OffAge(l) at position l - 1
        z[base:base + h] = g * mu0
        if rho < 1.0 and h + 1 <= tau:
            z[base + h] = g * (1.0 - rho) * mu0
        z[base + on1] = g * mu_on
    return total, z
