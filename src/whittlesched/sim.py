"""Finite-N Monte Carlo simulation of the index scheduler.

Two engines, two laws:

* ``pooled``: the truncated belief model that ``fluid`` and ``relaxed``
  analyse, simulated exactly.  The state is one count per (class, lattice
  state) and holds no channel bits.  Given the observation history, the bits of
  users who share a belief state are iid Bernoulli(belief), so a bit is drawn
  only when its user is observed.  Each slot draws the scheduling tie-break
  first (a multivariate hypergeometric split of the boundary rung under
  ``whittle``, one binomial per randomized state under ``relaxed``), then the
  ON observations of the scheduled users, one binomial per scheduled state in
  ascending layout order; that sequence of draws is the random stream a seed
  names.  Idle users age deterministically and observed users reset to
  OnAge(1) or OffAge(1).  A slot runs on a list of int counts, its cut walks
  only the occupied states, and its cost does not grow with N, which is what
  makes N = 1e5 over 1e5 slots tractable.
* ``users``: the physical reference, one record per user (class, true channel
  bit, belief state); each slot draws the channel transitions first, then the
  scheduling tie-break.  It differs from the pooled law only for users in the
  collapsed age-tau state, whose true belief is within |p - r|^tau of the
  stationary one.

Scheduling picks the ``floor(alpha*N)`` highest-index users with a seeded
uniform tie-break on the boundary rung.  Past burn-in, both engines tally the
users served in each state as an int M_i; the belief throughput is
sum_i b_i M_i, formed once with ``math.fsum``, so it does not depend on the
order of the slots or on the machine.  Runs of either engine are reproducible
bit-for-bit given (config, seed).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, mul

import numpy as np

from .belief import STATIONARY, ClassMix, off_age
from .fluid import FluidModel, check_state
from .relaxed import RelaxedSolution, solve_relaxed
from .whittle import IndexTable, build_index_table

WORKERS_ENV = "WHITTLESCHED_WORKERS"

INITIAL_STATES = ("all_off_observed", "all_stationary")


@dataclass(frozen=True)
class SimConfig:
    mix: ClassMix
    n_users: int
    horizon: int
    seed: int
    policy: str = "whittle"  # or "relaxed"
    initial_state: str | tuple = "all_off_observed"  # or explicit state vector
    engine: str = "pooled"  # or "users"
    burn_in: int | None = None  # slots dropped from the averages; default horizon // 10

    def __post_init__(self):
        if self.policy not in ("whittle", "relaxed"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.engine not in ("pooled", "users"):
            raise ValueError(f"unknown engine {self.engine!r}")
        for name in ("n_users", "horizon", "seed", "burn_in"):
            v = getattr(self, name)
            if isinstance(v, float):  # an integral one is stored as the int
                if not v.is_integer():
                    raise ValueError(f"{name} must be an integer, got {v!r}")
                object.__setattr__(self, name, int(v))
        if self.n_users < 1 or self.horizon < 1:
            raise ValueError("n_users and horizon must be positive")
        if self.burn_in is not None and not 0 <= self.burn_in < self.horizon:
            raise ValueError(f"burn_in must lie in [0, horizon = {self.horizon}), "
                             f"got {self.burn_in}")
        if isinstance(self.initial_state, str):
            if self.initial_state not in INITIAL_STATES:
                raise ValueError(f"unknown initial state {self.initial_state!r}")
        else:
            try:
                z = check_state(self.initial_state, self.mix)
            except ValueError as e:
                raise ValueError(f"explicit initial state: {e}") from None
            counts = z * self.n_users
            if np.abs(counts - np.round(counts)).max() > 1e-6:
                raise ValueError("explicit initial state must sit on the 1/N lattice")
        for g in self.mix.gamma:
            gn = g * self.n_users
            if abs(gn - round(gn)) > 1e-9:
                raise ValueError(f"class fraction {g} times N={self.n_users} is not integral")
        an = self.mix.alpha * self.n_users
        if abs(an - round(an)) > 1e-9:
            raise ValueError(f"alpha*N = {an} is not integral")

    @property
    def k_slots(self) -> int:
        return round(self.mix.alpha * self.n_users)

    @property
    def effective_burn_in(self) -> int:
        return self.horizon // 10 if self.burn_in is None else self.burn_in


def lattice_round(z: np.ndarray, mix: ClassMix, n_users: int) -> np.ndarray:
    """Nearest state vector on the 1/N mesh with exact per-class counts
    (largest-remainder rounding within each class block).  z must pass
    ``check_state``, so the rounding moves at most one user per state."""
    z = check_state(z, mix)
    out = np.empty_like(z)
    block = 2 * mix.tau + 1
    for k, g in enumerate(mix.gamma):
        sl = slice(k * block, (k + 1) * block)
        target = round(g * n_users)
        raw = z[sl] * n_users
        base = np.floor(raw).astype(int)
        short = target - base.sum()
        rema = raw - base
        order = np.argsort(-rema, kind="stable")
        base[order[:short]] += 1
        out[sl] = base / n_users
    return out


class _EngineBase:
    def __init__(self, config: SimConfig, table: IndexTable | None = None,
                 solution: RelaxedSolution | None = None):
        self.config = config
        self.mix = config.mix
        if table is None:
            table = build_index_table(self.mix)
        self.model = FluidModel(self.mix, table)
        self.rng = np.random.default_rng(config.seed)
        self.n = config.n_users
        self.k_slots = config.k_slots
        if config.policy == "relaxed":
            if solution is None:
                solution = solve_relaxed(self.mix, table)
            if solution.degenerate:
                raise ValueError("relaxed policy unavailable: " + solution.degenerate_reason)
            # every rung above the crossing rung in full, the crossing rung
            # with weight rho*
            crossing = self.model.crossing_rung(solution)
            self.act_prob = (self.model._rung_of < crossing).astype(float)
            for k, pol in enumerate(solution.policies):
                if pol.randomized:
                    rung_pos = self.model.position(k, pol.threshold_state)
                    self.act_prob[rung_pos] = solution.rho_star
        # the ladder in order: one (position, rung) per state
        self._rungs = [pos.tolist() for _, pos in self.model.rungs]
        self._ladder = [(i, j) for j, pos in enumerate(self._rungs) for i in pos]
        self._in_ladder_order = itemgetter(*self.model._rung_order.tolist())
        # past burn-in: users served in each state (M_i) and ON observations
        self.t = 0
        self.served = [0] * self.model.dim
        self.realized = 0

    def _initial_counts(self) -> np.ndarray:
        cfg = self.config
        counts = np.zeros(self.model.dim, dtype=np.int64)
        if isinstance(cfg.initial_state, str):
            start = off_age(1) if cfg.initial_state == "all_off_observed" else STATIONARY
            for k, g in enumerate(self.mix.gamma):
                counts[self.model.position(k, start)] = round(g * self.n)
        else:
            z = lattice_round(cfg.initial_state, self.mix, self.n)
            counts = np.round(z * self.n).astype(np.int64)
        return counts

    def _start_slot(self):
        """Count the slot; the tallies restart when the burn-in ends."""
        if self.t == self.config.effective_burn_in:
            self.served = [0] * self.model.dim
            self.realized = 0
        self.t += 1

    def rates(self) -> dict:
        """Per-user per-slot averages past burn-in, from the tallies."""
        slots = max(self.t - self.config.effective_burn_in, 0)
        denom = max(slots, 1) * self.n
        served = np.asarray(self.served, dtype=np.int64).tolist()
        belief = math.fsum(map(mul, self.model.beliefs.tolist(), served))
        return {
            "belief_throughput": belief / denom,
            "realized_throughput": self.realized / denom,
            "activation": sum(served) / denom,
            "slots": slots,
        }

    def _cut(self, c: list) -> tuple[list, int, int]:
        """Walk the occupied states in ladder order, rung by rung, until the
        budget is spent.  Returns (full, j, need): the (position, count) pairs
        of the first j rungs, scheduled in full, and need more users to come
        from rung j.  need is 0 when a rung fits the budget exactly."""
        left = self.k_slots
        full = []
        j = -1
        tot = first = 0
        for i, r in compress(self._ladder, self._in_ladder_order(c)):
            if r != j:  # rung j is summed; rung r starts
                if tot >= left:
                    break
                left -= tot
                j, tot, first = r, 0, len(full)
            ci = c[i]
            tot += ci
            full.append((i, ci))
        if tot > left:
            return full[:first], j, left
        return full, j + 1, 0


class PooledEngine(_EngineBase):
    """Counts per (class, belief state), as a list of ints; channel bits are
    drawn only when their users are observed."""

    def __init__(self, config, table=None, solution=None):
        super().__init__(config, table, solution)
        self.counts = self._initial_counts()
        model = self.model
        self.beliefs = model.beliefs.tolist()
        self.class_of = (np.arange(model.dim) // model.block).tolist()
        # per class block [lo, hi): st is OffAge(tau), and its idle users age
        # into the stationary state st + 1 with those of st + 1 and OnAge(tau)
        tau = self.mix.tau
        self.blocks = [(lo, lo + tau - 1, lo + model.block) for lo in model.off1.tolist()]
        if config.policy == "relaxed":
            self.act_full = np.flatnonzero(self.act_prob == 1.0).tolist()
            rand = np.flatnonzero((self.act_prob > 0.0) & (self.act_prob < 1.0))
            self.act_rand = list(zip(rand.tolist(), self.act_prob[rand].tolist()))

    @property
    def counts(self) -> np.ndarray:
        return np.array(self._c, dtype=np.int64)

    @counts.setter
    def counts(self, value):
        self._c = np.asarray(value, dtype=np.int64).tolist()

    def empirical_state(self) -> np.ndarray:
        z = np.array(self._c, dtype=float)
        z /= self.n
        return z

    def share(self, i: int) -> float:
        """Entry i of empirical_state()."""
        return self._c[i] / self.n

    def _schedule_whittle(self, c: list) -> list:
        sched, j, need = self._cut(c)
        if need:
            rung = self._rungs[j]
            if len(rung) == 1:
                sched.append((rung[0], need))
            else:
                # uniform random subset of the boundary rung's users
                draw = self.rng.multivariate_hypergeometric([c[i] for i in rung], need)
                sched += [(i, mi) for i, mi in zip(rung, draw.tolist()) if mi]
        return sched

    def _schedule_relaxed(self, c: list) -> list:
        # independent Bernoulli(act_prob) per user
        binomial = self.rng.binomial
        drawn = [(i, binomial(c[i], a)) for i, a in self.act_rand]
        return [(i, c[i]) for i in self.act_full if c[i]] + [s for s in drawn if s[1]]

    def step(self):
        """One slot: the tie-break, then the ON observations of the scheduled
        (state, count) pairs in ascending layout order, then aging."""
        self._start_slot()
        c = self._c
        if self.config.policy == "whittle":
            sched = self._schedule_whittle(c)
        else:
            sched = self._schedule_relaxed(c)
        # the scheduled users of a state are ON iid w.p. its belief; one draw
        # per state, in ascending layout order
        sched.sort()
        binomial = self.rng.binomial
        beliefs = self.beliefs
        class_of = self.class_of
        served = self.served
        on = [0] * len(self.blocks)
        off = on[:]
        for i, mi in sched:
            o = binomial(mi, beliefs[i])
            k = class_of[i]
            on[k] += o
            off[k] += mi - o
            c[i] -= mi
            served[i] += mi
        self.realized += sum(on)
        # idle users age one state; observed users reset to OffAge(1) or
        # OnAge(1), the first and last state of their class block
        new = []
        for k, (lo, st, hi) in enumerate(self.blocks):
            new += [off[k], *c[lo:st], c[st] + c[st + 1] + c[st + 2], *c[st + 3:hi],
                    on[k]]
        self._c = new


class UserEngine(_EngineBase):
    """Reference per-user engine: arrays indexed by user id."""

    def __init__(self, config, table=None, solution=None):
        super().__init__(config, table, solution)
        counts = self._initial_counts()
        self.state = np.repeat(np.arange(self.model.dim, dtype=np.intp), counts)
        self.cls = np.repeat(np.arange(self.mix.n_classes, dtype=np.intp),
                             [round(g * self.n) for g in self.mix.gamma])
        assert self.state.shape == (self.n,)
        self.bits = self.rng.random(self.n) < self.model.beliefs[self.state]
        self.p_user = np.array([c.p for c in self.mix.classes])[self.cls]
        self.r_user = np.array([c.r for c in self.mix.classes])[self.cls]
        self.on1_user = np.array(self.model.on1)[self.cls]
        self.off1_user = np.array(self.model.off1)[self.cls]

    def empirical_state(self) -> np.ndarray:
        return np.bincount(self.state, minlength=self.model.dim) / self.n

    def share(self, i: int) -> float:
        """Entry i of empirical_state()."""
        return int(np.count_nonzero(self.state == i)) / self.n

    def _schedule_whittle(self) -> np.ndarray:
        counts = np.bincount(self.state, minlength=self.model.dim)
        _, j, need = self._cut(counts.tolist())
        rung = self.model._rung_of[self.state]
        sel = rung < j
        if need > 0:
            cand = np.flatnonzero(rung == j)
            pick = self.rng.choice(cand, size=need, replace=False)
            sel[pick] = True
        return sel

    def _schedule_relaxed(self) -> np.ndarray:
        u = self.rng.random(self.n)
        return u < self.act_prob[self.state]

    def step(self):
        self._start_slot()
        u = self.rng.random(self.n)  # channel transition draws, by user id
        if self.config.policy == "whittle":
            sel = self._schedule_whittle()
        else:
            sel = self._schedule_relaxed()
        self.served = np.add(self.served,
                             np.bincount(self.state[sel], minlength=self.model.dim))
        self.realized += int(self.bits[sel].sum())
        # observation resets scheduled users; everyone else ages
        new_state = self.model.age_to[self.state]
        new_state[sel] = np.where(self.bits[sel], self.on1_user[sel], self.off1_user[sel])
        self.state = new_state
        self.bits = u < np.where(self.bits, self.p_user, self.r_user)


def make_engine(config: SimConfig, table: IndexTable | None = None,
                solution: RelaxedSolution | None = None):
    cls = PooledEngine if config.engine == "pooled" else UserEngine
    return cls(config, table, solution)


# ---------------------------------------------------------------------------
# experiments


def run_throughput(config: SimConfig, table: IndexTable | None = None,
                   solution: RelaxedSolution | None = None) -> dict:
    """Run one seed to the horizon and return per-user rates past burn-in."""
    eng = make_engine(config, table, solution)
    for _ in range(config.horizon):
        eng.step()
    out = eng.rates()
    out["seed"] = config.seed
    out["n_users"] = config.n_users
    return out


def _offset(eng, centre: np.ndarray) -> np.ndarray:
    """x = Z - centre for the engine's empirical state Z.  sqrt(x . x) is
    np.linalg.norm(x), bit for bit: that is how norm computes a float vector."""
    x = eng.empirical_state()
    x -= centre
    return x


class _Ball:
    """Decides ||Z - centre||_2 <= epsilon for one engine slot after slot,
    exactly as np.linalg.norm would.

    If some |x_j| > max(epsilon, 1e-150) (1 + 1e-12), the float norm exceeds
    epsilon: rounding is monotone, so a float sum of nonnegative squares is at
    least its largest rounded term, and the margin covers the rounding of
    x_j^2 (a normal number) and of the square root.  The coordinate farthest
    out at the last full check is tried first, without building Z.
    """

    def __init__(self, centre: np.ndarray, epsilon: float):
        self.centre = np.asarray(centre, dtype=float)
        self.epsilon = epsilon
        self._centre = self.centre.tolist()
        self._bound = max(epsilon, 1e-150) * (1.0 + 1e-12)
        self._far = 0

    def contains(self, eng) -> bool:
        j = self._far
        if abs(eng.share(j) - self._centre[j]) > self._bound:
            return False
        x = _offset(eng, self.centre)
        if math.sqrt(x.dot(x)) <= self.epsilon:
            return True
        self._far = int(np.abs(x).argmax())
        return False


def _observed(eng):
    """Run the engine for its config's horizon, yielding each slot t = 0, ...,
    horizon at which it stands: its start, then the state after each step."""
    yield 0
    for t in range(1, eng.config.horizon + 1):
        eng.step()
        yield t


def hitting_time(config: SimConfig, epsilon: float, zeta: np.ndarray,
                 table: IndexTable | None = None,
                 solution: RelaxedSolution | None = None) -> int | None:
    """First slot at which ||Z - zeta||_2 <= epsilon (0 when the start already
    qualifies); None if not hit within the horizon."""
    eng = make_engine(config, table, solution)
    ball = _Ball(zeta, epsilon)
    return next((t for t in _observed(eng) if ball.contains(eng)), None)


def occupancy(config: SimConfig, epsilon: float, zeta: np.ndarray,
              table: IndexTable | None = None,
              solution: RelaxedSolution | None = None) -> float:
    """Fraction of post-burn-in slots spent inside the epsilon-ball."""
    eng = make_engine(config, table, solution)
    ball = _Ball(zeta, epsilon)
    burn = config.effective_burn_in
    inside = [ball.contains(eng) for t in _observed(eng) if t >= burn]
    return sum(inside) / len(inside)


def trajectory_deviation(config: SimConfig, table: IndexTable | None = None,
                         solution: RelaxedSolution | None = None) -> float:
    """Sup over the slots t <= horizon of ||Z[t] - z[t]|| between one
    simulation run Z and the fluid trajectory z launched from its exact
    initial state, stepped beside it."""
    eng = make_engine(config, table, solution)
    z = eng.empirical_state()
    sup = 0.0
    for t in _observed(eng):
        if t:
            z = eng.model.step(z)
        x = _offset(eng, z)
        sup = max(sup, math.sqrt(x.dot(x)))
    return sup


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
        return workers
    return max(1, min(os.cpu_count() or 1, n_tasks))


def run_many(fn, configs: list, *args, **kwargs) -> list:
    """Map fn over configs, in parallel when the worker pool allows, results
    in input order."""
    workers = _worker_count(len(configs))
    if workers == 1:
        return [fn(c, *args, **kwargs) for c in configs]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(fn, c, *args, **kwargs) for c in configs]
        return [f.result() for f in futs]
