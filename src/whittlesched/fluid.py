"""Deterministic population dynamics of the priority scheduler.

The empirical distribution of users over (class, belief state) evolves, in the
large-population limit, by a piecewise-affine map: each slot the budget alpha
is poured down the index ladder (full rungs first, a clamped fraction on the
marginal rung), scheduled mass splits by belief into fresh ON/OFF
observations, and idle mass ages deterministically.  This module implements
that map, its exact linearization on the region where the marginal rung is
pinned, the closed-form linearization blocks for the canonical two-class
configuration, and a spectral-radius certificate for local stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .belief import (
    STATIONARY,
    ClassMix,
    belief_value,
    belief_vector,
    lattice_moves,
    lattice_position,
    lattice_states,
    off_age,
)
from .whittle import IndexTable, build_index_table
from .relaxed import RelaxedSolution

MASS_TOL = 1e-9  # state-vector validation slack
GELFAND_POWERS = (64, 128, 256)  # the certificate's K: powers of two, reached by squaring


class FluidModel:
    """Precomputed layout, ladder and belief arrays for one mix, with the
    fluid map and its pieces as methods."""

    def __init__(self, mix: ClassMix, table: IndexTable | None = None):
        if table is None:
            table = build_index_table(mix)
        self.mix = mix
        self.table = table
        self.tau = mix.tau
        self.block = 2 * self.tau + 1
        self.dim = mix.n_classes * self.block
        self.alpha = mix.alpha
        self.beliefs = np.concatenate([belief_vector(c) for c in mix.classes])
        # rungs as (value, positions), positions ascending as the table lists them
        self.rungs = [(rung.value, np.array(rung.positions, dtype=np.intp))
                      for rung in table.ladder]
        # each state's idle successor and each class's OnAge(1) and OffAge(1)
        self._class_starts = np.arange(mix.n_classes, dtype=np.intp) * self.block
        idle, on1, off1 = zip(*map(lattice_moves, mix.classes))
        self.age_to = np.concatenate(idle) + np.repeat(self._class_starts, self.block)
        self.on1 = np.array(on1) + self._class_starts
        self.off1 = np.array(off1) + self._class_starts
        # flattened ladder layout so the profile and the step stay in numpy
        self._rung_order = np.concatenate([pos for _, pos in self.rungs])
        sizes = np.array([len(pos) for _, pos in self.rungs], dtype=np.intp)
        self._rung_starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        self._rung_of = np.empty(self.dim, dtype=np.intp)  # ladder index per position
        self._rung_of[self._rung_order] = np.repeat(np.arange(len(sizes)), sizes)
        # for the single-state walk: each position's slot in ladder order, and
        # each rung's slots as Python ints
        self._ladder_slot = np.empty(self.dim, dtype=np.intp)
        self._ladder_slot[self._rung_order] = np.arange(self.dim)
        self._rung_bounds = list(zip(self._rung_starts.tolist(), np.cumsum(sizes).tolist()))
        # where a slot moves mass: the idle mass of each state, then each
        # class's ON and OFF observations (no state ages into OnAge(1) or
        # OffAge(1), so those bins hold the observations alone).  step grows
        # it to a flattened batch, row j shifted by j * dim; a prefix serves
        # any smaller batch.
        self._moves_to = np.concatenate((self.age_to, self.on1, self.off1))

    # -- basic state-vector helpers ------------------------------------

    def validate(self, z: np.ndarray) -> None:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"state vector must have shape ({self.dim},)")
        if z.min() < -MASS_TOL:
            raise ValueError("state vector has negative mass")
        for k in range(self.mix.n_classes):
            s = z[self.class_slice(k)].sum()
            if abs(s - self.mix.gamma[k]) > MASS_TOL:
                raise ValueError(
                    f"class {k} mass {s} != gamma_{k} = {self.mix.gamma[k]}")

    def class_slice(self, k: int) -> slice:
        return slice(k * self.block, (k + 1) * self.block)

    def position(self, class_idx: int, state) -> int:
        return class_idx * self.block + lattice_position(state, self.tau)

    # -- the fluid map ---------------------------------------------------

    def _ladder_sums(self, z: np.ndarray):
        """Masses in ladder order, per rung, and cumulated down the ladder
        (cum[j] is the mass on rungs 0..j, added in that order), for one
        state or row by row for a batch.  activation_profile, the walk in
        step and in_linear_region all read these sums."""
        zs = z.take(self._rung_order, axis=-1)
        zr = np.add.reduceat(zs, self._rung_starts, axis=-1)
        return zs, zr, np.add.accumulate(zr, axis=-1)

    def activation_profile(self, z: np.ndarray) -> np.ndarray:
        """Scheduled fraction g_i of each state's mass, for one state (dim,)
        or row by row for a batch (S, dim): pour alpha down the ladder; rungs
        with no mass soak up nothing but still read g = 1 while budget
        remains (so g is ladder-monotone).  This is the reference path of
        ``step``: it serves batches and states with a negative entry, and
        ``step`` walks any other single state to its marginal rung with the
        same float operations, so both give the same bytes."""
        _, zr, cum = self._ladder_sums(np.asarray(z, dtype=float))
        above = np.zeros(zr.shape)  # mass on the rungs above each rung
        above[..., 1:] = cum[..., :-1]
        remaining = self.alpha - above
        frac = (remaining > 0.0).astype(float)  # the value of an empty rung
        np.divide(remaining, zr, out=frac, where=zr != 0.0)
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        return frac.take(self._rung_of, axis=-1)

    def _served_walk(self, z: np.ndarray) -> np.ndarray:
        """Served mass of one non-negative state (dim,).  The marginal rung
        is the first whose cumulative mass reaches alpha; it gets the clamped
        fraction activation_profile gives it, the rungs above it are served
        in full and those below not at all.  Non-negative mass keeps the
        cumulative sums sorted for the search, and makes the profile read
        exactly 1 above the marginal rung and 0 below it."""
        zs, zr, cum = self._ladder_sums(z)
        k = int(cum.searchsorted(self.alpha))
        if k < len(cum):  # otherwise the budget covers every rung
            above = cum.item(k - 1) if k else 0.0
            frac = min(max((self.alpha - above) / zr.item(k), 0.0), 1.0)
            start, stop = self._rung_bounds[k]
            for i in range(start, stop):  # on one or two positions, cheaper than a slice
                zs[i] *= frac
            zs[stop:] = 0.0
        return zs.take(self._ladder_slot)

    def step(self, z: np.ndarray) -> np.ndarray:
        """One slot of the fluid map for one state (dim,) or row by row for a
        batch (S, dim); each row is bit-identical to stepping it alone
        (O(dim) per row, no matrix assembly).  A single state with no
        negative entry is served by walking the ladder to its marginal rung;
        a batch, or a state with the small negative mass ``validate`` allows,
        through activation_profile, the reference.  Both give the same
        bytes."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1 and z.min() >= 0.0:
            served = self._served_walk(z)
        else:
            served = self.activation_profile(z) * z
        on_mass = np.add.reduceat(served * self.beliefs, self._class_starts, axis=-1)
        off_mass = np.add.reduceat(served, self._class_starts, axis=-1) - on_mass
        moved = np.concatenate((z - served, on_mass, off_mass), axis=-1)
        if moved.size > self._moves_to.size:
            width = moved.shape[-1]
            rows = np.arange(moved.size // width)[:, None]
            self._moves_to = (self._moves_to[:width] + self.dim * rows).ravel()
        return np.bincount(self._moves_to[:moved.size], weights=moved.ravel(),
                           minlength=z.size).reshape(z.shape)

    def kernel(self, g: np.ndarray) -> np.ndarray:
        """Column-stochastic per-user kernel K(g) = Age diag(1 - g) + R diag(g)
        for a scheduled fraction g per state: the idle share of column i ages
        to age_to[i], the served share resets to its class's OnAge(1) with the
        belief b_i and to OffAge(1) with 1 - b_i.  The slot map is
        z' = K(g(z)) z."""
        g = np.asarray(g, dtype=float)
        cols = np.arange(self.dim)
        cls = cols // self.block
        K = np.zeros((self.dim, self.dim))
        K[self.age_to, cols] = 1.0 - g
        K[self.on1[cls], cols] = g * self.beliefs
        K[self.off1[cls], cols] = g * (1.0 - self.beliefs)
        return K

    def transition_matrix(self, z: np.ndarray) -> np.ndarray:
        """Generator-style matrix Q(z) with columns summing to zero such that
        the slot update is z' = z + Q(z) z."""
        return self.kernel(self.activation_profile(z)) - np.eye(self.dim)

    # -- marginal-rung region ------------------------------------------

    def crossing_rung(self, solution: RelaxedSolution) -> int:
        """Ladder position of the solution's crossing rung, the rung valued
        omega_star."""
        if solution.table.ladder != self.table.ladder:
            raise ValueError("solution's crossing rung is not a rung of this table")
        return solution.crossing_rung

    def in_linear_region(self, z: np.ndarray, rung_idx: int) -> bool:
        """True when the budget pins this rung as the marginal one: everything
        strictly above is fully served, the rung itself only partially.  The
        masses are summed down the ladder as ``step`` sums them, so for a
        non-negative state this is the rung its walk stops at."""
        cum = self._ladder_sums(np.asarray(z, dtype=float))[2]
        above = cum[rung_idx - 1] if rung_idx else 0.0  # mass above the rung
        return bool(above < self.alpha <= cum[rung_idx])


# ---------------------------------------------------------------------------
# linearization on the marginal-rung region


@dataclass(frozen=True)
class LinearizedSystem:
    """Exact affine form of the fluid map around the fixed point.

    Full coordinates: z' = z + q_star z + a_star on the marginal-rung region.
    Reduced coordinates (one coordinate per class eliminated through the mass
    identities): y' = y + u_star y + b_star.
    """

    q_star: np.ndarray = field(repr=False)
    a_star: np.ndarray = field(repr=False)
    u_star: np.ndarray = field(repr=False)
    b_star: np.ndarray = field(repr=False)
    eliminated: tuple[int, ...]
    zeta: np.ndarray = field(repr=False)

    def reduce(self, z: np.ndarray) -> np.ndarray:
        return np.delete(z, list(self.eliminated))

    def affine_step(self, z: np.ndarray) -> np.ndarray:
        return z + self.q_star @ z + self.a_star


def _eliminated_coordinates(model: FluidModel, solution: RelaxedSolution) -> list[int]:
    """One coordinate per class: the randomized class drops its rung
    coordinate, a deterministic-threshold class drops its deepest idle OFF
    state (or the stationary state when its threshold is age 1)."""
    out = []
    for k, pol in enumerate(solution.policies):
        if pol.randomized:
            out.append(model.position(k, off_age(pol.threshold_age)))
        elif pol.threshold_age is not None and pol.threshold_age >= 2:
            out.append(model.position(k, off_age(pol.threshold_age - 1)))
        else:
            out.append(model.position(k, STATIONARY))
    return out


def linearize(solution: RelaxedSolution,
              table: IndexTable | None = None) -> LinearizedSystem:
    """Exact affine form of the fluid map on the marginal-rung region, read
    off the map.

    On the region every position above the single-position rung s is fully
    served and s takes the leftover budget, so the served mass is
    sigma(z) = S z + alpha e_s, with S the identity on the above positions
    and -1 on row s in their columns.  The slot map z' = K(0) z +
    (K(1) - K(0)) sigma(z) is then J z + a with J = K(0) + (K(1) - K(0)) S
    and a = alpha (K(1) - K(0)) e_s.  The reduced form moves mass from each
    class's eliminated coordinate to coordinate i: its column i is
    J[:, i] - J[:, elim].  A rung tied across positions is not affine (its
    served share is a ratio of masses), so it is rejected.
    """
    if solution.degenerate:
        raise ValueError("cannot linearize a degenerate solution")
    if solution.rho_star in (0.0, 1.0):
        raise ValueError("non-generic alpha: the fixed point sits on the "
                         "boundary of the marginal-rung region")
    model = FluidModel(solution.mix, table if table is not None else solution.table)
    rung_idx = model.crossing_rung(solution)
    if len(model.rungs[rung_idx][1]) > 1:
        raise ValueError("crossing rung is tied across classes; the fluid map "
                         "is not affine on the region")
    d = model.dim
    rung = int(model.rungs[rung_idx][1][0])
    above = [int(i) for j in range(rung_idx) for i in model.rungs[j][1]]
    # J = K(0) + (K(1) - K(0)) S, built in place: column i of S is
    # e_i - e_rung for an above position i and zero elsewhere
    J = model.kernel(np.zeros(d))
    reset = model.kernel(np.ones(d))
    reset -= J
    a_star = model.alpha * reset[:, rung]
    J[:, above] += reset[:, above] - reset[:, [rung]]

    zeta = solution.zeta
    elim = _eliminated_coordinates(model, solution)
    keep = [i for i in range(d) if i not in elim]
    class_of = np.repeat(np.arange(model.mix.n_classes), model.block)
    elim_of = np.asarray(elim)[class_of[keep]]
    u_star = J[np.ix_(keep, keep)]
    u_star -= J[np.ix_(keep, elim_of)]
    u_star[np.diag_indices(len(keep))] -= 1.0
    q_star = J
    q_star[np.diag_indices(d)] -= 1.0
    b_star = -(u_star @ zeta[keep])
    return LinearizedSystem(
        q_star=q_star,
        a_star=a_star,
        u_star=u_star,
        b_star=b_star,
        eliminated=tuple(elim),
        zeta=zeta,
    )


# ---------------------------------------------------------------------------
# closed-form blocks for the canonical two-class configuration


@dataclass(frozen=True)
class AnalyticBlocks:
    """Reduced linearization assembled from closed forms: one block for the
    randomized class, one for the deterministic-threshold class, and the
    coupling block sitting on the randomized class's rows."""

    q_randomized: np.ndarray = field(repr=False)
    q_deterministic: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    u_star: np.ndarray = field(repr=False)
    b_star: np.ndarray = field(repr=False)
    randomized_class: int
    deterministic_class: int


def analytic_blocks(solution: RelaxedSolution) -> AnalyticBlocks:
    """Closed-form reduced linearization for the canonical case: two classes,
    exactly one randomized at the crossing rung, the other holding a strict
    deterministic threshold at age >= 2.  Matches ``linearize`` entrywise."""
    if solution.degenerate:
        raise ValueError("analytic blocks undefined for a degenerate solution")
    mix = solution.mix
    if mix.n_classes != 2:
        raise ValueError("analytic blocks require a two-class mix")
    rand = [k for k, pol in enumerate(solution.policies) if pol.randomized]
    if len(rand) != 1:
        raise ValueError("analytic blocks require exactly one randomized class")
    kr = rand[0]
    kd = 1 - kr
    m = solution.policies[kr].threshold_age
    n = solution.policies[kd].threshold_age
    tau = mix.tau
    if m is None or n is None:
        raise ValueError("both classes must activate in the canonical case")
    if not m + 1 <= tau:
        raise ValueError("randomized threshold must sit strictly inside the lattice")
    if n < 2:
        raise ValueError("canonical case needs a deterministic threshold age >= 2")

    size = 2 * tau
    cls_r, cls_d = mix.classes[kr], mix.classes[kd]
    g_r, g_d = mix.gamma[kr], mix.gamma[kd]
    alpha = mix.alpha

    # reduced per-class belief layouts: the randomized class drops its rung
    # coordinate OffAge(m), the deterministic class drops OffAge(n-1); the
    # remaining states keep the canonical order (OFF ascending, stationary,
    # ON descending), so position j >= active_start carries the active states.
    def reduced_beliefs(cls, dropped_age):
        vals = []
        for s in lattice_states(tau):
            if s.kind == "off" and s.age == dropped_age:
                continue
            vals.append(belief_value(cls, s))
        return np.array(vals)

    cb_r = reduced_beliefs(cls_r, m)     # length 2*tau
    cb_d = reduced_beliefs(cls_d, n - 1)
    b_m = float(belief_vector(cls_r)[m - 1])  # belief at the rung

    QR = np.zeros((size, size))
    # rows are 0-based positions in the reduced randomized block
    act_r = slice(m - 1, size)  # active states: OffAge(m+1).. up to OnAge(1)
    if m >= 2:
        QR[0, 0] = -1.0
        QR[0, act_r] += b_m - cb_r[act_r]
    for l in range(2, m):  # OffAge(l) inherits OffAge(l-1)
        QR[l - 1, l - 2] += 1.0
        QR[l - 1, l - 1] += -1.0
    QR[m - 1, :m] += -1.0  # OffAge(m+1) absorbs the unserved rung mass
    for pos in range(m, size - 1):
        QR[pos, pos] = -1.0
    # ON-feedback row: beliefs of the active states, shifted by the rung
    # belief because serving one more active user displaces rung service
    QR[size - 1, act_r] += cb_r[act_r] - b_m
    QR[size - 1, size - 1] += -1.0

    QD = np.zeros((size, size))
    act_d = slice(n - 2, size)
    if n >= 3:
        QD[0, 0] = -1.0
        QD[0, act_d] += 1.0 - cb_d[act_d]
    for l in range(2, n - 1):
        QD[l - 1, l - 2] += 1.0
        QD[l - 1, l - 1] += -1.0
    QD[n - 2, :] += -1.0  # OffAge(n) row: class mass minus everything else
    QD[n - 2, n - 2] += -1.0
    for pos in range(n - 1, size - 1):
        QD[pos, pos] = -1.0
    QD[size - 1, act_d] += cb_d[act_d]
    QD[size - 1, size - 1] += -1.0

    B = np.zeros((size, size))  # randomized-class rows, deterministic-class columns
    if m >= 2:
        B[0, act_d] = b_m - 1.0
    B[m - 1, act_d] += 1.0
    B[size - 1, act_d] += -b_m

    b_star_r = np.zeros(size)
    if m >= 2:
        b_star_r[0] = (1.0 - b_m) * alpha
    b_star_r[m - 1] += g_r - alpha
    b_star_r[size - 1] += b_m * alpha
    b_star_d = np.zeros(size)
    b_star_d[n - 2] = g_d

    u_star = np.zeros((2 * size, 2 * size))
    b_star = np.zeros(2 * size)
    sl = [slice(0, size), slice(size, 2 * size)]
    u_star[sl[kr], sl[kr]] = QR
    u_star[sl[kd], sl[kd]] = QD
    u_star[sl[kr], sl[kd]] = B
    b_star[sl[kr]] = b_star_r
    b_star[sl[kd]] = b_star_d
    return AnalyticBlocks(
        q_randomized=QR,
        q_deterministic=QD,
        coupling=B,
        u_star=u_star,
        b_star=b_star,
        randomized_class=kr,
        deterministic_class=kd,
    )


# ---------------------------------------------------------------------------
# stability certificate and trajectories


@dataclass(frozen=True)
class StabilityCertificate:
    """Gelfand-style spectral radius estimates rho_K = ||(U*+I)^K||_F^(1/K)
    at K in GELFAND_POWERS.  Certified means every estimate is below one and
    none increases in K, so the true spectral radius (their infimum) is below
    one as well."""

    estimates: tuple[tuple[int, float], ...]
    certified: bool
    note: str


def stability_certificate(u_star: np.ndarray) -> StabilityCertificate:
    A = u_star + np.eye(u_star.shape[0])
    # repeated squaring.  A^k is P * 2^shift: before each squaring P is scaled
    # by a power of two (exactly) to a norm in [1/2, 1), so it neither
    # underflows to zero nor overflows
    ests = []
    P = A
    shift = 0
    k = 1
    for K in GELFAND_POWERS:
        while k < K:
            s = math.frexp(np.linalg.norm(P))[1]
            P = np.ldexp(P, -s)
            P = P @ P
            shift = 2 * (shift + s)
            k *= 2
        ests.append((K, float(np.linalg.norm(P, "fro") ** (1.0 / K) * 2.0 ** (shift / K))))
    below = all(e < 1.0 for _, e in ests)
    # non-strict: nilpotent-style cases sit at an exact constant (e.g. all
    # zero for U* = -I), which still certifies since every Gelfand estimate
    # upper-bounds the spectral radius
    monotone = all(ests[i + 1][1] <= ests[i][1] for i in range(len(ests) - 1))
    if below and monotone:
        note = "spectral radius provably below one on the sampled powers"
    elif not below:
        note = "norm estimate at or above one: not certified (inconclusive or unstable)"
    else:
        note = "estimates below one but not settling: inconclusive"
    return StabilityCertificate(estimates=tuple(ests), certified=below and monotone, note=note)


@dataclass(frozen=True)
class FluidTrajectory:
    distances: np.ndarray = field(repr=False)  # ||z_t - zeta||_2, length T+1 (empty if no zeta)
    final: np.ndarray = field(repr=False)
    path: np.ndarray | None = field(default=None, repr=False)


def fluid_trajectory(z0: np.ndarray, steps: int, table: IndexTable,
                     zeta: np.ndarray | None = None,
                     store_path: bool = False) -> FluidTrajectory:
    """Iterate the fluid map for the given number of slots."""
    model = FluidModel(table.mix, table)
    model.validate(z0)
    z = np.array(z0, dtype=float)
    dists = np.empty(steps + 1) if zeta is not None else np.empty(0)
    path = np.empty((steps + 1, model.dim)) if store_path else None
    for t in range(steps + 1):
        if zeta is not None:
            x = z - zeta
            dists[t] = math.sqrt(x.dot(x))  # np.linalg.norm(x), bit for bit
        if store_path:
            path[t] = z
        if t < steps:
            z = model.step(z)
    return FluidTrajectory(distances=dists, final=z, path=path)
