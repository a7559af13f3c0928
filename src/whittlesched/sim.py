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
  OnAge(1) or OffAge(1).  A slot costs O(states) instead of O(N), which is
  what makes N = 1e5 over 1e5 slots tractable.
* ``users``: the physical reference, one record per user (class, true channel
  bit, belief state); each slot draws the channel transitions first, then the
  scheduling tie-break.  It differs from the pooled law only for users in the
  collapsed age-tau state, whose true belief is within |p - r|^tau of the
  stationary one.

Scheduling picks the ``floor(alpha*N)`` highest-index users with a seeded
uniform tie-break on the boundary rung.  Runs of either engine are
reproducible bit-for-bit given (config, seed).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .belief import ClassMix
from .fluid import FluidModel, fluid_trajectory
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
        if self.n_users < 1 or self.horizon < 1:
            raise ValueError("n_users and horizon must be positive")
        if isinstance(self.initial_state, str):
            if self.initial_state not in INITIAL_STATES:
                raise ValueError(f"unknown initial state {self.initial_state!r}")
        else:
            z = np.asarray(self.initial_state, dtype=float)
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
    (largest-remainder rounding within each class block)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    block = 2 * mix.tau + 1
    for k, g in enumerate(mix.gamma):
        sl = slice(k * block, (k + 1) * block)
        target = round(g * n_users)
        raw = z[sl] * n_users
        base = np.floor(raw).astype(int)
        short = target - base.sum()
        if short < 0:
            raise ValueError("class mass exceeds gamma_k")
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
        self.table = table
        self.model = FluidModel(self.mix, table)
        self.rng = np.random.default_rng(config.seed)
        self.n = config.n_users
        self.k_slots = config.k_slots
        if config.policy == "relaxed":
            if solution is None:
                solution = solve_relaxed(self.mix, table)
            if solution.degenerate:
                raise ValueError("relaxed policy unavailable: " +
                                 (solution.degenerate_reason or "degenerate solution"))
            self.solution = solution
            d = self.model.dim
            self.act_prob = np.zeros(d)
            for k, pol in enumerate(solution.policies):
                block = self.model.class_slice(k)
                vals = table.values[block]
                self.act_prob[block] = np.where(vals > solution.omega_star, 1.0, 0.0)
                if pol.randomized:
                    rung_pos = self.model.position(k, pol.threshold_state)
                    self.act_prob[rung_pos] = solution.rho_star
        else:
            self.solution = solution
        # accumulators past burn-in
        self.t = 0
        self.belief_reward = 0.0
        self.realized_reward = 0.0
        self.activation = 0
        self.tallied_slots = 0

    def _initial_counts(self) -> np.ndarray:
        cfg = self.config
        counts = np.zeros(self.model.dim, dtype=np.int64)
        block = self.model.block
        if isinstance(cfg.initial_state, str):
            for k, g in enumerate(self.mix.gamma):
                nk = round(g * self.n)
                if cfg.initial_state == "all_off_observed":
                    counts[k * block] = nk  # OffAge(1)
                else:
                    counts[k * block + self.mix.tau] = nk  # stationary
        else:
            z = lattice_round(np.asarray(cfg.initial_state, dtype=float), self.mix, self.n)
            counts = np.round(z * self.n).astype(np.int64)
        return counts

    def _tally(self, scheduled_belief_mass: float, realized: int, m_total: int):
        if self.t >= self.config.effective_burn_in:
            self.belief_reward += scheduled_belief_mass
            self.realized_reward += realized
            self.activation += m_total
            self.tallied_slots += 1
        self.t += 1

    def rates(self) -> dict:
        """Per-user per-slot averages past burn-in."""
        denom = max(self.tallied_slots, 1) * self.n
        return {
            "belief_throughput": self.belief_reward / denom,
            "realized_throughput": self.realized_reward / denom,
            "activation": self.activation / denom,
            "slots": self.tallied_slots,
        }

    def _whittle_cut(self, counts: np.ndarray) -> tuple[int, int]:
        """Walk the ladder until the budget is spent: returns (j, need), where
        the first j rungs are scheduled in full and need more users come from
        rung j.  need is 0 when a rung fits exactly or everyone is scheduled."""
        model = self.model
        rung_tot = np.add.reduceat(counts[model._rung_order], model._rung_starts).tolist()
        left = self.k_slots
        for j, tot in enumerate(rung_tot):
            if tot >= left:
                return (j + 1, 0) if tot == left else (j, left)
            left -= tot
        return len(rung_tot), 0


class PooledEngine(_EngineBase):
    """Counts per (class, belief state); channel bits are drawn only when
    their users are observed."""

    def __init__(self, config, table=None, solution=None):
        super().__init__(config, table, solution)
        self.counts = self._initial_counts()
        model = self.model
        # row j is 1 on the positions of the first j rungs
        cuts = np.arange(len(model.rungs) + 1)[:, None]
        self.above = (model._rung_of < cuts).astype(np.int64)
        self.n_classes = self.mix.n_classes
        self.class_of = (np.arange(model.dim) // model.block).tolist()
        # one state's move targets (the model grows the array for batches)
        self.moves_to = model._moves_to[: model.dim + 2 * self.n_classes]
        if config.policy == "relaxed":
            self.act_full = (self.act_prob == 1.0).astype(np.int64)
            rand = np.flatnonzero((self.act_prob > 0.0) & (self.act_prob < 1.0))
            self.act_rand = list(zip(rand.tolist(), self.act_prob[rand].tolist()))

    def empirical_state(self) -> np.ndarray:
        return self.counts / self.n

    def _schedule_whittle(self, counts: np.ndarray) -> np.ndarray:
        j, need = self._whittle_cut(counts)
        m = counts * self.above[j]
        if need:
            rung = self.model.rungs[j][1]
            if rung.size == 1:
                m[rung[0]] = need
            else:
                # uniform random subset of the boundary rung's users
                m[rung] = self.rng.multivariate_hypergeometric(counts[rung], need)
        return m

    def _schedule_relaxed(self, counts: np.ndarray) -> np.ndarray:
        # independent Bernoulli(act_prob) per user
        m = counts * self.act_full
        for i, a in self.act_rand:
            m[i] = self.rng.binomial(int(counts[i]), a)
        return m

    def step(self):
        counts = self.counts
        if self.config.policy == "whittle":
            m = self._schedule_whittle(counts)
        else:
            m = self._schedule_relaxed(counts)
        # observations, one draw per scheduled state in layout order: the
        # scheduled users of a state are ON iid w.p. its belief
        sel = m.nonzero()[0]
        m_sel = m[sel]
        b_sel = self.model.beliefs[sel]
        on = [0] * self.n_classes
        served = [0] * self.n_classes
        binomial = self.rng.binomial
        for i, mi, bi in zip(sel.tolist(), m_sel.tolist(), b_sel.tolist()):
            k = self.class_of[i]
            on[k] += binomial(mi, bi)
            served[k] += mi
        # idle users age; observed users reset to OnAge(1) / OffAge(1)
        off = [s - o for s, o in zip(served, on)]
        moved = np.concatenate((counts - m, on, off))
        self.counts = np.bincount(self.moves_to, weights=moved,
                                  minlength=self.model.dim).astype(np.int64)
        self._tally(float(m_sel @ b_sel), sum(on), sum(served))


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
        self.p_user = np.array(self.model.p)[self.cls]
        self.r_user = np.array(self.model.r)[self.cls]
        self.on1_user = np.array(self.model.on1)[self.cls]
        self.off1_user = np.array(self.model.off1)[self.cls]

    def empirical_state(self) -> np.ndarray:
        return np.bincount(self.state, minlength=self.model.dim) / self.n

    def _schedule_whittle(self) -> np.ndarray:
        counts = np.bincount(self.state, minlength=self.model.dim)
        j, need = self._whittle_cut(counts)
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
        u = self.rng.random(self.n)  # channel transition draws, by user id
        if self.config.policy == "whittle":
            sel = self._schedule_whittle()
        else:
            sel = self._schedule_relaxed()
        belief_mass = float(self.model.beliefs[self.state[sel]].sum())
        realized = int(self.bits[sel].sum())
        m_total = int(sel.sum())
        # observation resets scheduled users; everyone else ages
        new_state = self.model.age_to[self.state]
        new_state[sel] = np.where(self.bits[sel], self.on1_user[sel], self.off1_user[sel])
        self.state = new_state
        self.bits = u < np.where(self.bits, self.p_user, self.r_user)
        self._tally(belief_mass, realized, m_total)


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


def hitting_time(config: SimConfig, epsilon: float, zeta: np.ndarray,
                 max_slots: int | None = None,
                 table: IndexTable | None = None,
                 solution: RelaxedSolution | None = None) -> int | None:
    """First slot at which ||Z - zeta||_2 <= epsilon (0 when the start already
    qualifies); None if not hit within max_slots (default: the horizon)."""
    if max_slots is None:
        max_slots = config.horizon
    eng = make_engine(config, table, solution)
    for t in range(max_slots + 1):
        if np.linalg.norm(eng.empirical_state() - zeta) <= epsilon:
            return t
        if t < max_slots:
            eng.step()
    return None


def occupancy(config: SimConfig, epsilon: float, zeta: np.ndarray,
              table: IndexTable | None = None,
              solution: RelaxedSolution | None = None) -> float:
    """Fraction of post-burn-in slots spent inside the epsilon-ball."""
    eng = make_engine(config, table, solution)
    inside = 0
    total = 0
    burn = config.effective_burn_in
    for t in range(config.horizon + 1):
        if t >= burn:
            total += 1
            if np.linalg.norm(eng.empirical_state() - zeta) <= epsilon:
                inside += 1
        if t < config.horizon:
            eng.step()
    return inside / total


def trajectory_deviation(config: SimConfig, steps: int,
                         table: IndexTable | None = None,
                         solution: RelaxedSolution | None = None) -> float:
    """Sup over t <= steps of ||Z[t] - z[t]|| between one simulation run and
    the fluid trajectory launched from the simulation's exact initial state."""
    if table is None:
        table = build_index_table(config.mix)
    eng = make_engine(config, table, solution)
    z0 = eng.empirical_state()
    fl = fluid_trajectory(z0, steps, table, store_path=True)
    sup = 0.0
    for t in range(steps + 1):
        sup = max(sup, float(np.linalg.norm(eng.empirical_state() - fl.path[t])))
        if t < steps:
            eng.step()
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
