"""Exact optimal dispatch on small instances via value iteration.

The decision process observes the pending request before choosing, so its
state is (driver placement, pending request or none).  Actions pick the
serving location from the request origin's closed neighborhood or reject;
illegal choices fall back to reject.  Episode simulation reports the
per-location activity measures used for occupancy heatmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .grid import Grid, RequestModel
from .policies import PolicySpec, can_serve, serving_location
from .rng import stream
from .simulate import initial_state_preset
from .states import StateSpace

#: Action indices: 0 rejects, 1 serves from the request origin, 2.. serve from
#: the origin's neighbors in clockwise-from-north order.
REJECT = 0

DEFAULT_DISCOUNT = 0.9
DEFAULT_STATE_CAP = 100_000


@dataclass
class MdpInstance:
    """A dispatch control problem: placement dynamics plus request arrivals.

    The augmented state count is |placements| * (n^2 + 1): every placement
    paired with each possible pending request or with no request.
    """

    grid: Grid
    m: int
    c: int
    model: RequestModel
    discount: float = DEFAULT_DISCOUNT
    cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        if not (0 < self.discount < 1):
            raise ValueError(f"discount must lie in (0, 1), got {self.discount}")
        self.space = StateSpace(self.grid, self.m, self.c)
        n = self.grid.n
        self.n_requests = n * n
        self.state_count = self.space.size * (self.n_requests + 1)
        if self.state_count > self.cap:
            raise SizeLimitError(
                f"{self.state_count} augmented states exceed the cap {self.cap}"
            )
        self.n_actions = 2 + max(len(self.grid.neighbors(u)) for u in range(n))

    def action_location(self, request: int, action: int) -> int | None:
        """Serving location an action names for a pending request; None for reject/off-grid."""
        if action == REJECT or request >= self.n_requests:
            return None
        u = request // self.grid.n
        if action == 1:
            return u
        nbrs = self.grid.neighbors(u)
        slot = action - 2
        return nbrs[slot] if slot < len(nbrs) else None

    @cached_property
    def action_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (next ranks, rewards) of ``_action_tables``, built on first use."""
        return _action_tables(self)

    def request_probs(self) -> np.ndarray:
        """Arrival law over augmented request slots; the last slot is no-request."""
        q = np.empty(self.n_requests + 1)
        q[: self.n_requests] = self.model.p.astype(float).ravel()
        q[self.n_requests] = max(0.0, 1.0 - q[: self.n_requests].sum())
        return q


@dataclass
class ViResult:
    """Converged values and the greedy policy extracted from them.

    values and policy are (placements, requests + 1) tables; policy holds
    action indices with ties broken toward the lowest index, so reject wins
    when nothing improves on it.
    """

    values: np.ndarray
    policy: np.ndarray
    sweeps: int
    residual: float


def _action_tables(instance: MdpInstance):
    """Next-placement ranks and rewards for every (request, action, placement).

    Each (request, action) pair fills its row for every placement at once.
    """
    space = instance.space
    c = instance.c
    n = instance.grid.n
    R = instance.n_requests
    A = instance.n_actions
    w = instance.model.w.astype(float)
    arr = space.as_array()
    nxt = np.empty((R + 1, A, space.size), dtype=np.int64)
    rew = np.zeros((R + 1, A, space.size))
    nxt[:] = np.arange(space.size, dtype=np.int64)
    for r in range(R):
        u, v = divmod(r, n)
        for a in range(1, A):
            k = instance.action_location(r, a)
            if k is None:
                continue
            ok = (arr[:, k] >= 1) & ((k == v) | (arr[:, v] < c))
            rew[r, a, ok] = w[u, v]
            if k != v:
                moving = np.flatnonzero(ok)
                nxt[r, a, moving] = space.move_ranks(moving, k, v)
    nxt.flags.writeable = False
    rew.flags.writeable = False
    return nxt, rew


def value_iteration(instance: MdpInstance, tol: float = 1e-8, max_sweeps: int = 100_000) -> ViResult:
    """Iterate optimal backups to sup-norm convergence and extract the greedy policy.

    Each sweep averages the value table over next-round arrivals once, then
    maximizes reward plus discounted continuation over actions for every
    augmented state.
    """
    nxt, rew = instance.action_tables
    q = instance.request_probs()
    gamma = instance.discount
    size = instance.space.size
    R = instance.n_requests
    V = np.zeros((size, R + 1))
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        vbar = V @ q
        Q = rew + gamma * vbar[nxt]
        V_new = Q.max(axis=1).T
        residual = float(np.abs(V_new - V).max())
        V = V_new
        if residual <= tol:
            policy = Q.argmax(axis=1).T.astype(np.int64)
            return ViResult(values=V, policy=policy, sweeps=sweep, residual=residual)
    raise SizeLimitError(
        f"value iteration still above tolerance ({residual:.3e}) after {max_sweeps} sweeps"
    )


def bellman_residual(instance: MdpInstance, values: np.ndarray) -> float:
    """Sup-norm defect of one optimal backup applied to a value table."""
    nxt, rew = instance.action_tables
    q = instance.request_probs()
    vbar = values @ q
    Q = rew + instance.discount * vbar[nxt]
    return float(np.abs(Q.max(axis=1).T - values).max())


def policy_value(instance: MdpInstance, policy: np.ndarray) -> np.ndarray:
    """Exact discounted value of a fixed action table, by linear solve.

    The augmented chain under a fixed policy factorizes through the
    post-action placement, so the system solved is placement-sized.
    """
    nxt, rew = instance.action_tables
    q = instance.request_probs()
    size = instance.space.size
    R = instance.n_requests
    rows = np.arange(size)
    # placement i with pending slot r moves to placement nxt[r, a_ir, i] earning rew[r, a_ir, i]
    a = policy
    moved = np.empty((size, R + 1), dtype=np.int64)
    earned = np.empty((size, R + 1))
    for r in range(R + 1):
        moved[:, r] = nxt[r, a[:, r], rows]
        earned[:, r] = rew[r, a[:, r], rows]
    # u[i] = expected discounted return from placement i just before arrivals
    # u = sum_r q_r (earned + gamma * u[moved]) -> (I - gamma * M) u = b
    M = np.zeros((size, size))
    b = np.zeros(size)
    for r in range(R + 1):
        np.add.at(M, (rows, moved[:, r]), q[r])
        b += q[r] * earned[:, r]
    u = np.linalg.solve(np.eye(size) - instance.discount * M, b)
    values = earned + instance.discount * u[moved]
    return values


@dataclass
class OccupancyReport:
    """Per-location episode activity, in percent of periods.

    time_covered: the location held at least one car (measured before the
    period's move).  start_pct: a served ride began there.  drop_rate: a
    served ride began or ended there, so start_pct never exceeds it.
    """

    time_covered: np.ndarray
    drop_rate: np.ndarray
    start_pct: np.ndarray
    periods: int
    served: int


@dataclass
class EpisodeStep:
    """One period of an episode log: the request seen, choice made, and outcome."""

    period: int
    state: tuple
    request: tuple | None
    action: int
    serving: int | None
    success: bool
    profit: float


def _draw_request(q_cum: np.ndarray, u01: float) -> int:
    """Index of the arrival slot a uniform draw lands in; past-the-end is none."""
    return int(np.searchsorted(q_cum, u01, side="right"))


def simulate_policy_episode(
    instance: MdpInstance,
    act,
    periods: int,
    seed: int,
    initial_state: Sequence[int] | None = None,
    episode_key: tuple = (),
) -> tuple[OccupancyReport, list[EpisodeStep]]:
    """Roll one seeded episode under an arbitrary action rule and log every period.

    ``act(counts, request_index, coin_stream)`` returns the serving
    location or None.  Requests draw from the (seed, *episode_key, 0)
    stream and policy coins from (seed, *episode_key, 1), so different
    rules face the identical arrival sequence.
    """
    if periods < 1:
        raise ValueError("an episode needs at least one period")
    grid = instance.grid
    n = grid.n
    c = instance.c
    R = instance.n_requests
    counts = list(
        initial_state
        if initial_state is not None
        else initial_state_preset(grid, instance.m, c, "adversarial")
    )
    instance.space.check_counts(counts)
    req_rng = stream(seed, *episode_key, 0)
    coin_rng = stream(seed, *episode_key, 1)
    flat_p = instance.model.p.astype(float).ravel()
    q_cum = np.cumsum(flat_p)
    w = instance.model.w.astype(float)
    covered = np.zeros(n)
    starts = np.zeros(n)
    drops = np.zeros(n)
    served = 0
    log: list[EpisodeStep] = []
    draws = req_rng.random(periods)
    for t in range(periods):
        state_before = tuple(counts)
        for u in range(n):
            if counts[u] >= 1:
                covered[u] += 1
        r = _draw_request(q_cum, draws[t])
        if r >= R:
            log.append(EpisodeStep(t, state_before, None, REJECT, None, False, 0.0))
            continue
        u, v = divmod(r, n)
        k = act(counts, r, coin_rng)
        success = k is not None and can_serve(counts, k, v, c)
        profit = w[u, v] if success else 0.0
        if success:
            served += 1
            starts[u] += 1
            drops[u] += 1
            if v != u:
                drops[v] += 1
            if k != v:
                counts[k] -= 1
                counts[v] += 1
        action = REJECT
        if k is not None:
            action = 1 if k == u else 2 + grid.neighbors(u).index(k)
        log.append(EpisodeStep(t, state_before, (u, v), action, k, success, profit))
    report = OccupancyReport(
        time_covered=100.0 * covered / periods,
        drop_rate=100.0 * drops / periods,
        start_pct=100.0 * starts / periods,
        periods=periods,
        served=served,
    )
    return report, log


def simulate_optimal_episode(
    instance: MdpInstance,
    result: ViResult,
    periods: int = 1000,
    seed: int = 0,
    initial_state: Sequence[int] | None = None,
) -> tuple[OccupancyReport, list[EpisodeStep]]:
    """Episode under the value-iteration policy, with its occupancy measures."""
    space = instance.space

    def act(counts, r, _coin_rng):
        return instance.action_location(r, int(result.policy[space.rank(counts), r]))

    return simulate_policy_episode(instance, act, periods, seed, initial_state)


def discounted_return(log: list[EpisodeStep], gamma: float) -> float:
    return sum(step.profit * gamma**step.period for step in log)


def compare_policies(
    instance: MdpInstance,
    result: ViResult,
    baselines: Sequence[PolicySpec],
    episodes: int = 1000,
    periods: int = 200,
    seed: int = 0,
    initial_state: Sequence[int] | None = None,
) -> dict[str, np.ndarray]:
    """Estimate discounted returns of the optimal policy against baseline rules.

    Every policy replays the identical request streams (common random
    numbers), episode e drawing from (seed, e), so per-episode returns
    pair up across policies.  Returns label -> per-episode return array,
    with the value-iteration policy under the label "optimal".
    """
    space = instance.space
    grid = instance.grid

    def optimal_act(counts, r, _rng):
        return instance.action_location(r, int(result.policy[space.rank(counts), r]))

    def baseline_act(policy):
        def act(counts, r, coin_rng):
            coin = coin_rng.random() if policy.kind == "nadap" else None
            return serving_location(counts, r // grid.n, policy, grid, coin)

        return act

    rules = {"optimal": optimal_act}
    for policy in baselines:
        rules[policy.label()] = baseline_act(policy)
    out = {}
    for label, rule in rules.items():
        returns = np.empty(episodes)
        for e in range(episodes):
            _, log = simulate_policy_episode(
                instance, rule, periods, seed, initial_state, episode_key=(e,)
            )
            returns[e] = discounted_return(log, instance.discount)
        out[label] = returns
    return out


def summarize_returns(returns: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-episode return sample."""
    mean = float(returns.mean())
    if returns.size > 1:
        stderr = float(returns.std(ddof=1) / np.sqrt(returns.size))
    else:
        stderr = 0.0
    return mean, stderr
