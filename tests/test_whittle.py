"""Whittle indices: closed forms, the subsidy-MDP oracle, and ladder
construction over a mix."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whittlesched.belief import (
    STATIONARY,
    ChannelClass,
    ClassMix,
    lattice_states,
    off_age,
    on_age,
)
from whittlesched.whittle import (
    TIE_TOL,
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


@settings(max_examples=25, deadline=None)
@given(channel_params, st.integers(min_value=1, max_value=16))
def test_index_bounded_and_monotone(params, age):
    p, r = params
    cls = ChannelClass(p, r)
    w = whittle_index(cls, off_age(age))
    assert 0.0 < w < stationary_index(cls)
    if age < cls.tau:
        assert w < whittle_index(cls, off_age(age + 1))


def _table_mixes():
    rng = np.random.default_rng(12)
    mixes = [
        ClassMix((ChannelClass(0.9, 0.45, 32), ChannelClass(0.8, 0.3, 32)), (0.45, 0.55), 0.6),
        ClassMix((ChannelClass(0.8, 0.2), ChannelClass(0.8, 0.2)), (0.5, 0.5), 0.5),
        ClassMix((ChannelClass(0.9, 0.85),), (1.0,), 0.5),  # OFF ages tie stationary
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
    """The ladder from whittle_index state by state: entries in layout order,
    stably sorted by descending value, grouped while within TIE_TOL of the
    group's first value."""
    states = lattice_states(mix.tau)
    entries = [(whittle_index(cls, s), k, s, k * len(states) + i)
               for k, cls in enumerate(mix.classes) for i, s in enumerate(states)]
    entries.sort(key=lambda e: -e[0])
    groups = [[entries[0]]]
    for e in entries[1:]:
        if groups[-1][0][0] - e[0] <= TIE_TOL:
            groups[-1].append(e)
        else:
            groups.append([e])
    return [(g[0][0], tuple((k, s) for _, k, s, _ in g), tuple(pos for *_, pos in g))
            for g in groups]


def test_index_table_matches_pointwise(two_mix, two_table):
    for mix, table in [(two_mix, two_table)] + [(m, build_index_table(m)) for m in _table_mixes()]:
        for k, cls in enumerate(mix.classes):
            for s in lattice_states(mix.tau):
                assert table.value(k, s) == whittle_index(cls, s)
        ladder = [(rung.value, rung.members, rung.positions) for rung in table.ladder]
        assert ladder == _reference_ladder(mix)
        assert all(type(rung.value) is float for rung in table.ladder)


def test_index_table_ladder_descends_and_covers_everything(two_table):
    values = [rung.value for rung in two_table.ladder]
    assert all(a > b + TIE_TOL for a, b in zip(values, values[1:]))
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
