"""Whittle indices: closed forms, the subsidy-MDP oracle, and ladder
construction over a mix."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whittlesched.belief import (
    STATIONARY,
    ChannelClass,
    ClassMix,
    belief_value,
    lattice_states,
    off_age,
    on_age,
)
from whittlesched.whittle import (
    build_index_table,
    oracle_idle_set,
    solve_subsidy,
    stationary_index,
    subsidy_value,
    whittle_index,
    whittle_index_oracle,
)

EXACT_TOL = 1e-12
INDIFF_TOL = 1e-10
ORACLE_TOL = 1e-3

GRID = [(p, round(p * f, 6)) for p in (0.6, 0.6875, 0.775, 0.8625, 0.95)
        for f in (0.125, 0.3125, 0.5, 0.6875, 0.875)]

channel_params = st.tuples(
    st.floats(min_value=0.1, max_value=0.99),
    st.floats(min_value=0.1, max_value=0.9),
).map(lambda t: (t[0], round(t[0] * t[1], 9)))


def test_frozen_indices():
    cls = ChannelClass(0.8, 0.2)
    assert whittle_index(cls, off_age(1)) == pytest.approx(0.2, abs=EXACT_TOL)
    assert whittle_index(cls, off_age(2)) == pytest.approx(11 / 28, abs=EXACT_TOL)
    assert whittle_index(cls, on_age(3)) == pytest.approx(5 / 7, abs=EXACT_TOL)
    assert stationary_index(cls) == pytest.approx(5 / 7, abs=EXACT_TOL)


def test_stationary_rung_values_for_two_class_mix():
    assert stationary_index(ChannelClass(0.9, 0.45)) == pytest.approx(90 / 101, abs=EXACT_TOL)
    assert stationary_index(ChannelClass(0.8, 0.3)) == pytest.approx(0.75, abs=EXACT_TOL)


@pytest.mark.parametrize("p,r", GRID)
def test_off_age_one_index_is_r(p, r):
    cls = ChannelClass(p, r)
    assert whittle_index(cls, off_age(1)) == pytest.approx(r, abs=EXACT_TOL)


@pytest.mark.parametrize("p,r", GRID)
def test_off_indices_increase_toward_stationary_index(p, r):
    # Strict growth is asserted over the first eight ages; deeper ages close
    # on the stationary index like (p-r)^age and can saturate in floats.
    cls = ChannelClass(p, r)
    w_stat = stationary_index(cls)
    values = [whittle_index(cls, off_age(l)) for l in range(1, cls.tau + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(a < b for a, b in zip(values[:8], values[1:8]))
    assert values[-1] <= w_stat
    for age in range(1, cls.tau + 1):
        assert whittle_index(cls, on_age(age)) == w_stat
    assert whittle_index(cls, STATIONARY) == w_stat


def test_subsidy_value_frozen():
    cls = ChannelClass(0.8, 0.2)
    # threshold at age 1 never idles, so the value is omega-independent
    assert subsidy_value(cls, 0.7, 1) == pytest.approx(0.5, abs=EXACT_TOL)
    assert subsidy_value(cls, 0.3, 1) == pytest.approx(0.5, abs=EXACT_TOL)
    assert subsidy_value(cls, 0.5, 2) == pytest.approx(7 / 12, abs=EXACT_TOL)


def test_subsidy_value_rejects_bad_threshold():
    with pytest.raises(ValueError):
        subsidy_value(ChannelClass(0.8, 0.2), 0.5, 0)


@pytest.mark.parametrize("p,r", GRID)
def test_indifference_at_the_index(p, r):
    # At omega = W(b_{0,l}) the threshold policies at l and l+1 tie: the
    # defining property of the index.
    cls = ChannelClass(p, r)
    for l in range(1, cls.tau):
        w = whittle_index(cls, off_age(l))
        assert subsidy_value(cls, w, l) == pytest.approx(
            subsidy_value(cls, w, l + 1), abs=INDIFF_TOL)


def test_solve_subsidy_extremes():
    cls = ChannelClass(0.8, 0.2)
    _, gain0, active0 = solve_subsidy(cls, 0.0)
    assert active0.all()
    assert gain0 == pytest.approx(0.5, abs=1e-8)  # always-active earns b_s
    _, gain1, active1 = solve_subsidy(cls, 1.0)
    assert not active1.any()
    assert gain1 == pytest.approx(1.0, abs=1e-8)


def test_oracle_policy_is_a_belief_threshold():
    # Along the layout (belief ascending) the active mask must be a suffix.
    # The subsidy levels stay away from the stationary index: in a band of
    # width O((p-r)^tau) below it, the truncated lattice genuinely breaks the
    # threshold structure at the seam (see the seam test below).
    cls = ChannelClass(0.8, 0.2)
    for omega in (0.1, 0.2, 0.35, 0.5, 0.7, 0.9):
        _, _, active = solve_subsidy(cls, omega)
        flips = np.diff(active.astype(int))
        assert np.all(flips >= 0), f"active set not a belief threshold at omega={omega}"


def test_truncation_seam_confines_threshold_violations():
    # Idling at OffAge(tau) lands on the absorbing stationary state, which is
    # worth slightly more than the untruncated continuation, so for subsidies
    # just below the stationary index the oracle may idle the last OFF ages
    # out of belief order.  That artifact must stay confined to the seam.
    cls = ChannelClass(0.8, 0.2)
    tau = cls.tau
    _, _, active = solve_subsidy(cls, 5 / 7 - 1e-3)
    flips = np.diff(active.astype(int))
    bad = np.where(flips < 0)[0]
    assert all(tau - 4 <= i <= tau for i in bad)


def test_oracle_idle_set_grows_with_omega():
    cls = ChannelClass(0.9, 0.45)
    idle_sets = [oracle_idle_set(cls, w) for w in (0.05, 0.3, 0.6, 0.95)]
    for smaller, larger in zip(idle_sets, idle_sets[1:]):
        assert smaller <= larger


def test_oracle_recovers_closed_form_smoke():
    cls = ChannelClass(0.8, 0.2)
    got1 = whittle_index_oracle(cls, off_age(1), tol=1e-4)
    got2 = whittle_index_oracle(cls, off_age(2), tol=1e-4)
    assert got1 == pytest.approx(0.2, abs=ORACLE_TOL)
    assert got2 == pytest.approx(0.3929, abs=ORACLE_TOL)


@pytest.mark.parametrize("p,r,age", [(0.8, 0.2, 1), (0.8, 0.2, 4), (0.8, 0.2, 16),
                                      (0.9, 0.45, 1)])
def test_on_age_ladder_value_is_the_stationary_index_not_the_subsidy_index(p, r, age):
    # The oracle's subsidy index at an ON age is Liu & Zhao's b / (1 - p + b);
    # the ladder ties every ON age at the stationary index, which is no higher.
    cls = ChannelClass(p, r)
    tol = 1e-6
    b = belief_value(cls, on_age(age))
    oracle = whittle_index_oracle(cls, on_age(age), tol=tol)
    assert oracle == pytest.approx(b / (1 - p + b), abs=tol)
    assert whittle_index(cls, on_age(age)) == stationary_index(cls)
    assert whittle_index(cls, on_age(age)) <= oracle + tol


@settings(max_examples=25, deadline=None)
@given(channel_params, st.integers(min_value=1, max_value=16))
def test_index_bounded_and_monotone(params, age):
    # Strict order holds for the exact values: whittle_index evaluated on
    # Fraction inputs.  The float values can only keep it non-strictly: at
    # (0.9, 0.85), age 16, the exact index is 3.4e-21 below the stationary
    # one and rounds onto it.
    p, r = params
    exact = ChannelClass(Fraction(p), Fraction(r))
    w = whittle_index(exact, off_age(age))
    assert 0 < w < stationary_index(exact)
    if age < exact.tau:
        assert w < whittle_index(exact, off_age(age + 1))
    cls = ChannelClass(p, r)
    w = whittle_index(cls, off_age(age))
    assert 0.0 < w <= stationary_index(cls)
    if age < cls.tau:
        assert w <= whittle_index(cls, off_age(age + 1))


# classes where (p - r)^l falls below float resolution within the lattice; the
# indices of their deep OFF ages are within 1e-16 to 1e-21 of the stationary
# index and of each other
DEEP_PAIRS = [(0.109375, 0.095703125), (0.5, 0.4453125), (0.3125, 0.2734375),
              (0.25, 0.21875), (0.125, 0.109375), (0.9, 0.85)]


def _belief_index(p, r, l):
    """Index of OffAge(l) from the OFF beliefs b_l and b_{l+1}, the form the
    threshold stationary equations give; exact on Fraction inputs."""
    b_l, b_next = ((r - (p - r) ** a * r) / (1 + r - p) for a in (l, l + 1))
    gap = b_l - b_next
    return (gap * (l + 1) + b_next) / ((1 - p) + gap * l + b_next)


def test_float_indices_within_16_ulps_of_the_exact_values():
    # whittle_index on Fraction inputs is exactly the index the beliefs give,
    # and the float index is within 16 ulps of it: 4.0 at most here, and 8.0
    # over 3,000 random classes at ages 1..32
    worst = 0.0
    for p, r in GRID + DEEP_PAIRS:
        cls, exact = ChannelClass(p, r), ChannelClass(Fraction(p), Fraction(r))
        for l in range(1, cls.tau + 1):
            want = _belief_index(Fraction(p), Fraction(r), l)
            assert whittle_index(exact, off_age(l)) == want
            w = whittle_index(cls, off_age(l))
            worst = max(worst, abs(Fraction(w) - want) / Fraction(math.ulp(float(want))))
    assert worst <= 16


def _table_mixes():
    rng = np.random.default_rng(12)
    mixes = [
        ClassMix((ChannelClass(0.9, 0.45, 32), ChannelClass(0.8, 0.3, 32)), (0.45, 0.55), 0.6),
        ClassMix((ChannelClass(0.8, 0.2), ChannelClass(0.8, 0.2)), (0.5, 0.5), 0.5),
        ClassMix((ChannelClass(0.9, 0.85),), (1.0,), 0.5),  # deep OFF ages near stationary
        ClassMix((ChannelClass(0.8, 0.2), ChannelClass(0.6, 0.2)), (0.5, 0.5), 0.9),
    ]
    for _ in range(30):
        tau = int(rng.choice([2, 4, 16, 32]))
        classes = []
        for _ in range(int(rng.integers(1, 3))):
            p = float(rng.uniform(0.05, 0.99))
            classes.append(ChannelClass(p, float(rng.uniform(0.01, 0.99)) * p, tau))
        gamma = (1.0,) if len(classes) == 1 else (0.5, 0.5)
        mixes.append(ClassMix(tuple(classes), gamma, 0.5))
    return mixes


def _reference_ladder(mix):
    """The ladder from whittle_index state by state: one rung per distinct
    (value, depth), depth being l for OffAge(l) and tau + 1 for the
    stationary and ON states, rungs in descending (value, depth) order, and
    the members of a rung in layout order."""
    states = lattice_states(mix.tau)
    rungs = {}
    for k, cls in enumerate(mix.classes):
        for i, s in enumerate(states):
            depth = s.age if s.kind == "off" else mix.tau + 1
            rungs.setdefault((whittle_index(cls, s), depth), []).append(
                (k, s, k * len(states) + i))
    return [(w, tuple((k, s) for k, s, _ in rung), tuple(pos for *_, pos in rung))
            for (w, _), rung in sorted(rungs.items(), reverse=True)]


def test_index_table_matches_pointwise(two_mix, two_table):
    for mix, table in [(two_mix, two_table)] + [(m, build_index_table(m)) for m in _table_mixes()]:
        for k, cls in enumerate(mix.classes):
            for s in lattice_states(mix.tau):
                assert table.value(k, s) == whittle_index(cls, s)
        ladder = [(rung.value, rung.members, rung.positions) for rung in table.ladder]
        assert ladder == _reference_ladder(mix)
        assert all(type(rung.value) is float for rung in table.ladder)
        # inside a class the ladder is the exact index order: the stationary
        # and ON states on one rung, then OFF ages tau down to 1, one rung each
        rung_of = {m: j for j, rung in enumerate(table.ladder) for m in rung.members}
        for k in range(mix.n_classes):
            top = {rung_of[k, s] for s in lattice_states(mix.tau) if s.kind != "off"}
            order = [rung_of[k, off_age(l)] for l in range(mix.tau, 0, -1)]
            assert len(top) == 1 and [*top, *order] == sorted(set([*top, *order]))


def test_index_table_ladder_descends_and_covers_everything(two_table):
    values = [rung.value for rung in two_table.ladder]
    assert all(a > b + 1e-12 for a, b in zip(values, values[1:]))
    positions = [p for rung in two_table.ladder for p in rung.positions]
    assert sorted(positions) == list(range(two_table.values.shape[0]))
    for rung in two_table.ladder:
        assert len(rung.members) == len(rung.positions)


def test_identical_classes_tie_on_every_rung():
    mix = ClassMix(classes=(ChannelClass(0.8, 0.2), ChannelClass(0.8, 0.2)),
                   gamma=(0.5, 0.5), alpha=0.5)
    table = build_index_table(mix)
    for rung in table.ladder:
        classes = {k for k, _ in rung.members}
        assert classes == {0, 1}


def test_top_rung_pools_on_and_stationary_states(single_table):
    top = single_table.ladder[0]
    kinds = {s.kind for _, s in top.members}
    assert kinds == {"on", "stationary"}
    assert len(top.members) == single_table.mix.tau + 1
