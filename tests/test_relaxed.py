"""Relaxed (subsidy-constrained) problem: activation fractions, the ladder
walk for (omega*, rho*), per-user throughput and the population fixed point."""

import math
from fractions import Fraction

import numpy as np
import pytest

from whittlesched import relaxed
from whittlesched.belief import ChannelClass, ClassMix, off_age, on_age
from whittlesched.relaxed import (
    EQ_TOL,
    activation_fraction,
    activation_fraction_oracle,
    solve_relaxed,
)
from whittlesched.whittle import build_index_table

ORACLE_TOL = 1e-10
RHO_TOL = 1e-9
CONSTRAINT_TOL = 1e-12

# exact rationals for the two-class fixture, derived by hand from the
# activation closed form and confirmed in exact arithmetic
TWO_CLASS_OMEGA = 360 / 491
TWO_CLASS_RHO = 151157 / 203835
TWO_CLASS_THROUGHPUT = 3397089 / 6832265
TWO_CLASS_EXACT_RHO = Fraction(151157, 203835)

PAIRS = [(0.6, 0.2), (0.7, 0.35), (0.8, 0.2), (0.85, 0.6), (0.95, 0.3)]


def test_activation_frozen_values():
    cls = ChannelClass(0.8, 0.2)
    assert activation_fraction(cls, 1, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert activation_fraction(cls, 2, 1.0) == pytest.approx(13 / 18, abs=1e-14)
    assert activation_fraction(cls, 1, 1 / 6) == pytest.approx(0.75, abs=1e-14)
    assert activation_fraction(cls, None, 0.5) == 0.0


def test_activation_continuity_seam():
    # rho = 0 at threshold h is the same policy as rho = 1 at h + 1
    for p, r in PAIRS:
        cls = ChannelClass(p, r)
        for h in range(1, cls.tau):
            assert activation_fraction(cls, h, 0.0) == pytest.approx(
                activation_fraction(cls, h + 1, 1.0), abs=1e-14)


def test_activation_validation():
    cls = ChannelClass(0.8, 0.2)
    with pytest.raises(ValueError):
        activation_fraction(cls, 0, 0.5)
    with pytest.raises(ValueError):
        activation_fraction(cls, 17, 0.5)
    with pytest.raises(ValueError):
        activation_fraction(cls, 3, 1.5)


@pytest.mark.parametrize("p,r", PAIRS)
def test_activation_matches_stationary_chain_oracle(p, r):
    cls = ChannelClass(p, r)
    for h in (1, 2, 5, 9):
        for rho in (0.0, 0.25, 2 / 3, 1.0):
            got = activation_fraction(cls, h, rho)
            want = activation_fraction_oracle(cls, h, rho)
            assert got == pytest.approx(want, abs=ORACLE_TOL)


def test_activation_decreases_with_deeper_threshold():
    cls = ChannelClass(0.8, 0.2)
    values = [activation_fraction(cls, h, 1.0) for h in range(1, 17)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_single_class_solution(single_mix, single_solution):
    sol = single_solution
    assert not sol.degenerate
    assert sol.omega_star == pytest.approx(0.2, abs=1e-12)
    assert sol.rho_star == pytest.approx(1 / 6, abs=RHO_TOL)
    assert sol.activation == pytest.approx(0.75, abs=CONSTRAINT_TOL)
    assert sol.throughput_per_user == pytest.approx(0.45, abs=RHO_TOL)
    (pol,) = sol.policies
    assert pol.threshold_age == 1
    assert pol.randomized


def test_single_class_zeta(single_mix, single_solution):
    z = single_solution.zeta
    tau = single_mix.tau
    expected = np.zeros(2 * tau + 1)
    expected[0] = 0.3          # OffAge(1)
    expected[1] = 0.25         # OffAge(2)
    expected[2 * tau] = 0.45   # OnAge(1)
    assert np.allclose(z, expected, atol=1e-12)
    assert z.sum() == pytest.approx(1.0, abs=1e-14)


def test_two_class_solution(two_mix, two_solution):
    sol = two_solution
    assert not sol.degenerate
    assert sol.omega_star == pytest.approx(TWO_CLASS_OMEGA, abs=1e-12)
    assert sol.rho_star == pytest.approx(TWO_CLASS_RHO, abs=RHO_TOL)
    assert abs(sol.activation - two_mix.alpha) < CONSTRAINT_TOL
    assert sol.throughput_per_user == pytest.approx(TWO_CLASS_THROUGHPUT, abs=1e-10)
    pol1, pol2 = sol.policies
    assert pol1.threshold_age == 3 and not pol1.randomized
    assert pol2.threshold_age == 6 and pol2.randomized


def test_two_class_zeta_structure(two_mix, two_solution):
    z = two_solution.zeta
    tau = two_mix.tau
    block = 2 * tau + 1
    for k, g in enumerate(two_mix.gamma):
        assert z[k * block: (k + 1) * block].sum() == pytest.approx(g, abs=1e-13)
    assert z.min() >= 0.0
    # class 1 idles below age 3: equal masses on OFF ages 1..3, nothing deeper
    assert z[0] == pytest.approx(z[1], abs=1e-14)
    assert z[1] == pytest.approx(z[2], abs=1e-14)
    assert z[3] == 0.0
    # class 2 randomizes at age 6: leftover mass on age 7, nothing deeper
    assert z[block + 6] == pytest.approx(z[block] * (1 - TWO_CLASS_RHO), rel=1e-9)
    assert z[block + 7] == 0.0


def test_alpha_one_runs_everything(single_mix):
    mix = ClassMix(classes=single_mix.classes, gamma=(1.0,), alpha=1.0)
    sol = solve_relaxed(mix)
    assert sol.rho_star == 1.0
    assert any("rho = 1" in w for w in sol.warnings)
    assert sol.activation == pytest.approx(1.0, abs=1e-12)
    # always-active service rate is the stationary ON fraction
    assert sol.throughput_per_user == pytest.approx(0.5, abs=1e-12)


def test_throughput_never_exceeds_alpha():
    for alpha in (0.2, 0.5, 0.75, 1.0):
        mix = ClassMix(classes=(ChannelClass(0.8, 0.2),), gamma=(1.0,), alpha=alpha)
        sol = solve_relaxed(mix)
        if sol.degenerate:
            continue
        assert sol.throughput_per_user <= alpha + 1e-12


def test_transient_class_is_degenerate():
    mix = ClassMix(classes=(ChannelClass(0.9, 0.8), ChannelClass(0.6, 0.1)),
                   gamma=(0.5, 0.5), alpha=0.4)
    sol = solve_relaxed(mix)
    assert sol.degenerate
    assert sol.degenerate_reason == "transient class present"
    assert sol.policies[1].threshold_age is None
    assert sol.throughput_per_user is None
    assert sol.zeta is None


def test_truncation_gap_is_degenerate():
    # At tau=4 the deepest usable threshold still activates ~0.45 of the
    # class, so a tiny budget cannot be met by any lattice threshold.
    mix = ClassMix(classes=(ChannelClass(0.8, 0.2, tau=4),), gamma=(1.0,), alpha=0.05)
    sol = solve_relaxed(mix)
    assert sol.degenerate
    assert "truncation depth" in sol.degenerate_reason


def test_randomized_threshold_at_truncation_boundary_is_degenerate():
    # alpha between A(tau, 0) and A(tau, 1) forces randomization on the last
    # rung, whose idle overflow state does not exist on the lattice.
    mix = ClassMix(classes=(ChannelClass(0.8, 0.2, tau=4),), gamma=(1.0,), alpha=0.48)
    sol = solve_relaxed(mix)
    assert sol.degenerate
    assert sol.degenerate_reason == "randomized threshold at truncation boundary"


def test_rho_moves_monotonically_with_alpha(single_mix):
    sols = [
        solve_relaxed(ClassMix(classes=single_mix.classes, gamma=(1.0,), alpha=a))
        for a in (0.74, 0.75, 0.76)
    ]
    assert all(s.omega_star == pytest.approx(0.2, abs=1e-12) for s in sols)
    rhos = [s.rho_star for s in sols]
    assert rhos[0] < rhos[1] < rhos[2]


def _chain_throughput(cls, h, rho):
    """Independent oracle: stationary distribution of the policy chain on
    {OnAge(1), OffAge(1..h+1)}, then sum of scheduled belief mass."""
    from whittlesched.belief import belief_value

    n = h + 2
    beliefs = np.array([belief_value(cls, on_age(1))]
                       + [belief_value(cls, off_age(l)) for l in range(1, h + 2)])
    active = np.zeros(n)
    active[0] = 1.0
    active[h] = rho
    active[h + 1] = 1.0
    T = np.zeros((n, n))
    for i in range(n):
        a, b = active[i], beliefs[i]
        T[i, 0] += a * b
        T[i, 1] += a * (1.0 - b)
        if a < 1.0:
            T[i, i + 1] += 1.0 - a
    A = np.vstack([(T - np.eye(n)).T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    mu, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return float(mu @ (active * beliefs))


def test_throughput_matches_chain_oracle(two_solution):
    sol = two_solution
    want = sum(
        g * _chain_throughput(cls, pol.threshold_age,
                              sol.rho_star if pol.randomized else 1.0)
        for cls, g, pol in zip(sol.mix.classes, sol.mix.gamma, sol.policies)
    )
    assert sol.throughput_per_user == pytest.approx(want, abs=1e-10)


def test_solution_reuses_prebuilt_table(two_mix, two_table):
    sol = solve_relaxed(two_mix, two_table)
    assert sol.table is two_table


# ---------------------------------------------------------------------------
# the one-pass ladder walk and the closed-form rho*


def _off_belief(p, r, l):
    return (r - (p - r) ** l * r) / (1 + r - p)


def _exact_activation(p, r, h, rho):
    b_h, b_next = _off_belief(p, r, h), _off_belief(p, r, h + 1)
    return 1 - (1 - p) * (h - rho) / (rho * b_h + (1 - rho) * b_next + (1 - p) * (h + 1 - rho))


def _exact_rho(p, r, h, target):
    """Solve _exact_activation(p, r, h, rho) = target for rho: with t = 1 -
    target, (1 - p)(h - rho) = t (d0 + d1 rho) is linear in rho."""
    b_h, b_next = _off_belief(p, r, h), _off_belief(p, r, h + 1)
    t = 1 - target
    d0 = b_next + (1 - p) * (h + 1)
    d1 = b_h - b_next - (1 - p)
    return ((1 - p) * h - t * d0) / ((1 - p) + t * d1)


def _ulps(x, exact):
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


def test_rho_star_against_exact_rationals(single_solution, two_solution):
    # single class (4/5, 1/5), h = 1, alpha = 3/4
    single = Fraction(1, 6)
    assert _exact_rho(Fraction(4, 5), Fraction(1, 5), 1, Fraction(3, 4)) == single
    # two-class: class 1 fully active from age 3, class 2 randomizes at age 6
    rest = Fraction(9, 20) * _exact_activation(Fraction(9, 10), Fraction(9, 20), 3, 1)
    two = _exact_rho(Fraction(4, 5), Fraction(3, 10), 6, (Fraction(3, 5) - rest) / Fraction(11, 20))
    assert two == TWO_CLASS_EXACT_RHO
    # 9.3 and 59.2 ulps off; the bisection was 341 and 39.8 ulps off
    assert _ulps(single_solution.rho_star, single) < 10
    assert _ulps(two_solution.rho_star, two) < 60
    # of which rounding the inputs (0.8, 0.45, ...) to floats accounts for 6.3
    # and 34.2 ulps: the exact rho* of the float inputs is 2.7 and 24.8 ulps
    # from the computed one
    f = Fraction
    on_inputs = _exact_rho(f(0.8), f(0.2), 1, f(0.75))
    assert _ulps(single_solution.rho_star, on_inputs) < 3
    rest = f(0.45) * _exact_activation(f(0.9), f(0.45), 3, 1)
    on_inputs = _exact_rho(f(0.8), f(0.3), 6, (f(0.6) - rest) / f(0.55))
    assert _ulps(two_solution.rho_star, on_inputs) < 25


# the presets single-class, two-class and fig5, and one- and two-class mixes
# at tau 16 and 32
RESIDUAL_MIXES = [
    ([(0.8, 0.2)], [1.0], 0.75, 16),
    ([(0.9, 0.45), (0.8, 0.3)], [0.45, 0.55], 0.6, 16),
    ([(0.9, 0.1), (0.7, 0.3)], [0.5, 0.5], 0.6, 16),
    *[(classes, gamma, alpha, tau) for tau in (16, 32) for classes, gamma, alpha in (
        ([(0.9, 0.3)], [1.0], 0.45),
        ([(0.85, 0.3)], [1.0], 0.5),
        ([(0.75, 0.2)], [1.0], 0.5),
        ([(0.9, 0.45), (0.8, 0.3)], [0.45, 0.55], 0.5),
        ([(0.9, 0.2), (0.8, 0.35)], [0.5, 0.5], 0.5),
        ([(0.95, 0.4), (0.7, 0.1)], [0.3, 0.7], 0.4))],
]


@pytest.mark.parametrize("classes,gamma,alpha,tau", RESIDUAL_MIXES)
def test_activation_residual_within_two_ulps_of_alpha(classes, gamma, alpha, tau):
    mix = ClassMix(tuple(ChannelClass(p, r, tau) for p, r in classes), tuple(gamma), alpha)
    sol = solve_relaxed(mix)
    assert not sol.degenerate
    assert abs(sol.activation - mix.alpha) <= 2 * math.ulp(mix.alpha)


def _random_mixes(n, seed):
    rng = np.random.default_rng(seed)
    mixes = []
    while len(mixes) < n:
        tau = int(rng.choice([2, 3, 4, 8, 16, 32]))
        classes = []
        for _ in range(int(rng.integers(1, 3))):
            p = float(rng.uniform(0.05, 0.99))
            classes.append(ChannelClass(p, float(rng.uniform(0.01, 0.99)) * p, tau))
        if len(classes) == 2 and rng.random() < 0.2:
            classes[1] = classes[0]
        g = float(rng.uniform(0.05, 0.95))
        gamma = (1.0,) if len(classes) == 1 else (g, 1.0 - g)
        alpha = float(rng.choice([0.25, 0.5, 0.6, 0.75, 1.0, rng.uniform(0.02, 1.0)]))
        mixes.append(ClassMix(tuple(classes), gamma, alpha))
    return mixes


def _slow_walk(mix, table):
    """The ladder walk the long way: at every rung, every class scans its OFF
    ages for the one on the rung (the class attains it), else for the first
    one on a rung above it, and activation_fraction is called for each.
    Returns the crossing rung's index, the thresholds, the randomized flags
    and the degenerate reason."""
    tau = mix.tau
    rung_of = {m: j for j, rung in enumerate(table.ladder) for m in rung.members}

    def threshold(k, j):
        for l in range(1, tau + 1):
            if rung_of[k, off_age(l)] == j:
                return l, True
        for l in range(1, tau + 1):
            if rung_of[k, off_age(l)] < j:
                return l, False
        return None, False

    def total(j, rho):
        out = 0
        for k, (cls, g) in enumerate(zip(mix.classes, mix.gamma)):
            h, tie = threshold(k, j)
            out += g * (activation_fraction(cls, h, rho if tie else 1.0) if h else 0.0)
        return out

    none = ([None] * mix.n_classes, [False] * mix.n_classes)
    prev = 0.0
    for j, rung in enumerate(table.ladder):
        f1 = total(j, 1.0)
        if f1 >= mix.alpha - EQ_TOL:
            break
        prev = f1
    else:
        return (j, *none, f"total activation saturates at {prev:.6g} < alpha={mix.alpha}")
    omega = rung.value
    f0 = total(j, 0.0)
    if f0 > mix.alpha + EQ_TOL:
        return (j, *none, "threshold beyond truncation depth: activation jumps from "
                f"{prev:.6g} to {f0:.6g} across rung {omega:.6g} while alpha={mix.alpha}")
    pols = [threshold(k, j) for k in range(mix.n_classes)]
    att = [k for k, (_, tie) in enumerate(pols) if tie]
    randomizing = f1 > mix.alpha + EQ_TOL
    if randomizing and len({(mix.classes[k].p, mix.classes[k].r, pols[k][0]) for k in att}) > 1:
        return (j, *none, f"crossing rung {omega:.6g} is tied across distinct classes "
                f"{att}: the split of the budget between them is not unique")
    reason = None
    if any(h is None for h, _ in pols):
        reason = "transient class present"
    elif randomizing and any(pols[k][0] == tau for k in att):
        reason = "randomized threshold at truncation boundary"
    return j, [h for h, _ in pols], [tie for _, tie in pols], reason


def test_ladder_walk_matches_the_slow_walk():
    mixes = _random_mixes(240, seed=20261019)
    # distinct classes tied on their bottom rung (every OffAge(1) index is r)
    mixes.append(ClassMix((ChannelClass(0.8, 0.2), ChannelClass(0.6, 0.2)), (0.5, 0.5), 0.9))
    kinds = set()
    for mix in mixes:
        table = build_index_table(mix)
        sol = solve_relaxed(mix, table)
        j, thresholds, randomized, reason = _slow_walk(mix, table)
        assert sol.crossing_rung == j
        assert sol.omega_star == table.ladder[j].value
        assert [pol.threshold_age for pol in sol.policies] == thresholds
        assert [pol.randomized for pol in sol.policies] == randomized
        assert sol.degenerate_reason == reason
        assert sol.degenerate == (reason is not None)
        assert (sol.zeta is None) == (sol.throughput_per_user is None) == sol.degenerate
        if not sol.degenerate:
            assert abs(sol.activation - mix.alpha) <= 2 * math.ulp(1.0)
        kinds.add(reason.split(":")[0].split(" ")[0] if reason else None)
    # every outcome of the walk is exercised
    assert kinds == {None, "threshold", "crossing", "transient", "randomized"}


def test_identical_classes_pool_their_fractions(single_solution):
    cls = ChannelClass(0.8, 0.2)
    for gamma in ((0.5, 0.5), (0.25, 0.75)):
        sol = solve_relaxed(ClassMix((cls, cls), gamma, 0.75))
        assert not sol.degenerate
        assert [(pol.threshold_age, pol.randomized) for pol in sol.policies] == [(1, True)] * 2
        # the pooled fraction is 1, so rho* is the single class's
        assert sol.rho_star == single_solution.rho_star
        assert abs(sol.activation - 0.75) <= 2 * math.ulp(0.75)


def test_distinct_classes_tied_on_the_crossing_rung_are_degenerate():
    # every OffAge(1) index is r: both classes attain the bottom rung, and the
    # budget can be split between them in many ways
    mix = ClassMix((ChannelClass(0.8, 0.2), ChannelClass(0.6, 0.2)), (0.5, 0.5), 0.9)
    sol = solve_relaxed(mix)
    assert sol.degenerate
    assert sol.degenerate_reason == ("crossing rung 0.2 is tied across distinct classes "
                                     "[0, 1]: the split of the budget between them is "
                                     "not unique")
    assert sol.omega_star == 0.2


@pytest.mark.parametrize("raw,clamped", [(-1e-17, 0.0), (1.0 + 2 ** -52, 1.0)])
def test_rho_star_rounded_outside_the_unit_interval_is_clamped(monkeypatch, single_mix,
                                                                raw, clamped):
    # The bracket keeps the exact rho* at least about EQ_TOL inside (0, 1), so
    # no mix tried rounds it outside; the closed form is replaced to reach the
    # clamp.
    monkeypatch.setattr(relaxed, "_rho_for_activation", lambda cls, h, target: raw)
    sol = solve_relaxed(single_mix)
    assert sol.rho_star == clamped
    assert f"rho* = {raw!r} rounded outside [0, 1]; clamped" in sol.warnings
    assert sol.activation == activation_fraction(single_mix.classes[0], 1, clamped)
