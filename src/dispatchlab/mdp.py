"""Exact optimal dispatch on small instances via value iteration.

The decision process observes the pending request before choosing, so its
state is (driver placement, pending request or none).  Actions pick the
serving location from the request origin's closed neighborhood or reject;
illegal choices fall back to reject.  Every instance's placements are
enumerated, so its action tables and its episodes read the space's
successor table, an episode stepping one placement rank a period.
Episodes report the per-location activity measures used for occupancy
heatmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import IterationLimitError, SizeLimitError
from .grid import Grid, RequestModel
from .policies import PolicySpec
from .rng import stream
from .simulate import _SCHEDULE_ELEMENTS, _policy_tables, _serve_tables, _spans, _walk, initial_state_preset
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
        scan = self.grid.scan_table()
        self.n_actions = 1 + int((scan >= 0).sum(axis=1).max())
        # locations[r, a]: the serving location action a names for request slot r, -1 for none
        self.locations = np.full((self.n_requests + 1, self.n_actions), -1, dtype=np.int64)
        self.locations[:-1, 1:] = scan[np.arange(self.n_requests) // n, : self.n_actions - 1]
        self.locations.flags.writeable = False

    def action_location(self, request: int, action: int) -> int | None:
        """Serving location an action names for a pending request; None for reject, off-grid or no action."""
        if not 0 <= request <= self.n_requests:
            raise ValueError(f"request slot {request} outside [0, {self.n_requests}]")
        k = int(self.locations[request, action]) if 1 <= action < self.n_actions else -1
        return None if k < 0 else k

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

    One gather from the space's successor table at each (request, action)'s
    serving location and the request's destination.
    """
    ok, nxt = instance.space.successors
    R = instance.n_requests
    locs, dests = instance.locations, (np.arange(R + 1) % instance.grid.n)[:, None]
    w = instance.model.w.astype(float).ravel()
    nxt = np.ascontiguousarray(np.moveaxis(nxt[:, locs, dests], 0, -1))
    served = np.moveaxis(ok[:, locs, dests], 0, -1)
    rew = np.where(served, w[np.minimum(np.arange(R + 1), R - 1), None, None], 0.0)
    nxt.flags.writeable = False
    rew.flags.writeable = False
    return nxt, rew


def _backup(instance: MdpInstance, values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One optimal backup's Q[r, a, i]: reward plus discounted continuation, averaged over the arrival law q."""
    nxt, rew = instance.action_tables
    return rew + instance.discount * (values @ q)[nxt]


def value_iteration(instance: MdpInstance, tol: float = 1e-8, max_sweeps: int = 100_000) -> ViResult:
    """Iterate optimal backups to sup-norm convergence and extract the greedy policy.

    Each sweep averages the value table over next-round arrivals once, then
    maximizes reward plus discounted continuation over actions for every
    augmented state.  A NaN or negative ``tol`` is refused; a sweep cap
    reached above it raises ``IterationLimitError`` with the last residual.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be a number >= 0, got {tol}")
    q = instance.request_probs()
    V = np.zeros((instance.space.size, instance.n_requests + 1))
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        Q = _backup(instance, V, q)
        V_new = Q.max(axis=1).T
        residual = float(np.abs(V_new - V).max())
        V = V_new
        if residual <= tol:
            policy = Q.argmax(axis=1).T.astype(np.int64)
            return ViResult(values=V, policy=policy, sweeps=sweep, residual=residual)
    raise IterationLimitError(
        f"value iteration residual {residual:.3e} above {tol:.1e} after {max_sweeps} sweeps", residual=residual
    )


def bellman_residual(instance: MdpInstance, values: np.ndarray) -> float:
    """Sup-norm defect of one optimal backup applied to a value table."""
    return float(np.abs(_backup(instance, values, instance.request_probs()).max(axis=1).T - values).max())


def policy_value(instance: MdpInstance, policy: np.ndarray) -> np.ndarray:
    """Exact discounted value of a fixed action table, by linear solve.

    The augmented chain under a fixed policy factorizes through the
    post-action placement, so the system solved is placement-sized.
    """
    nxt, rew = instance.action_tables
    q = instance.request_probs()
    size = instance.space.size
    R = instance.n_requests
    rows = np.arange(size)[:, None]
    # placement i with pending slot r moves to placement nxt[r, a_ir, i] earning rew[r, a_ir, i]
    slot = (np.arange(R + 1), policy, rows)
    moved = nxt[slot]
    earned = rew[slot]
    # u[i] = expected discounted return from placement i just before arrivals
    # u = sum_r q_r (earned + gamma * u[moved]) -> (I - gamma * M) u = b;
    # each entry of M and b adds its terms in ascending r (the + 0.0 keeps
    # an all-zero row's b at +0.0, as a sum started from zero gives)
    M = np.zeros((size, size))
    np.add.at(M, (rows, moved), q)
    b = np.cumsum(q * earned, axis=1)[:, -1] + 0.0
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


def _episodes(
    instance: MdpInstance,
    rules: Sequence[PolicySpec | ViResult],
    periods: int,
    seed: int,
    keys: Sequence[tuple],
    initial_state: Sequence[int] | None,
) -> list[tuple[OccupancyReport, np.ndarray]]:
    """Step one episode per key under each rule on placement ranks and measure them.

    A rule is a dispatch policy, stepped through the ensembles' rank
    tables, or a value-iteration result, whose policy table becomes one
    more serving rule keyed by (placement, request).  Episode ``key`` draws
    its requests from the (seed, *key, 0) stream and nadap's probe coins
    from (seed, *key, 1), one per arriving request; each chunk of the
    schedule is drawn once and every rule steps over it, so every rule
    faces the identical arrival sequence.  Returns, per rule, the occupancy
    report over all the episodes' periods and each episode's discounted
    return, summed period by period.
    """
    if periods < 1:
        raise ValueError("an episode needs at least one period")
    if not keys:
        raise ValueError("need at least one episode")
    grid, c, space = instance.grid, instance.c, instance.space
    n, R = grid.n, instance.n_requests
    start = initial_state_preset(grid, instance.m, c, "adversarial") if initial_state is None else initial_state
    walkers = []
    for rule in rules:
        if isinstance(rule, ViResult):
            # the action picked for each (placement, request) names its serving location; none pads row n
            serve = instance.locations[np.arange(R), rule.policy[:, :R]]
            serve = np.pad(serve, ((0, 0), (0, n)), constant_values=-1).reshape(-1, n + 1, n)
            tables, policy = _serve_tables(space, serve), None
        else:
            tables, policy = _policy_tables(space, rule), rule
        walkers.append((tables, policy, np.full(len(keys), space.rank(start) * tables.stride)))
    req_rngs = [stream(seed, *key, 0) for key in keys]
    nadap = any(policy is not None and policy.kind == "nadap" for _, policy, _ in walkers)
    coin_rngs = [stream(seed, *key, 1) for key in keys] if nadap else []
    visits = np.zeros((len(walkers), space.size), dtype=np.int64)
    starts, drops = np.zeros((len(walkers), n)), np.zeros((len(walkers), n))
    returns = np.zeros((len(walkers), len(keys)))
    for a, b in _spans(periods, _SCHEDULE_ELEMENTS // len(keys)):
        origins, dests, weight = instance.model.requests(np.stack([g.random(b - a) for g in req_rngs], axis=1))
        arrived = origins >= 0
        coins = np.zeros(origins.shape)
        for j, g in enumerate(coin_rngs):
            coins[arrived[:, j], j] = g.random(int(arrived[:, j].sum()))
        for i, (tables, policy, at) in enumerate(walkers):
            cells, path = _walk(tables, at, policy, grid, origins, dests, coins)
            visits[i] += np.bincount(path[:-1].ravel() // tables.stride, minlength=space.size)
            served = tables.ok[path[:-1] + cells]
            u, v = origins[served], dests[served]
            starts[i] += np.bincount(u, minlength=n)
            drops[i] += np.bincount(u, minlength=n) + np.bincount(v[v != u], minlength=n)
            for t, row in enumerate(np.where(served, weight, 0.0), a):
                returns[i] += row * instance.discount ** t
    # a placement covers the locations holding a car (measured before the period's move)
    covered = visits @ (space.as_array() >= 1)
    total = periods * len(keys)
    return [
        (OccupancyReport(time_covered=100.0 * cover / total, drop_rate=100.0 * drop / total,
                         start_pct=100.0 * begun / total, periods=total, served=int(begun.sum())), ret)
        for cover, drop, begun, ret in zip(covered, drops, starts, returns)
    ]


def simulate_optimal_episode(
    instance: MdpInstance,
    result: ViResult,
    periods: int = 1000,
    seed: int = 0,
    initial_state: Sequence[int] | None = None,
) -> OccupancyReport:
    """Occupancy measures of one episode under the value-iteration policy.

    The episode draws its requests from the (seed, 0) stream.
    """
    return _episodes(instance, [result], periods, seed, [()], initial_state)[0][0]


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

    Every policy steps over the identical request streams (common random
    numbers), episode e drawing from (seed, e), each drawn once for all of
    them, so per-episode returns pair up across policies.  Returns label ->
    per-episode return array, with the value-iteration policy under the
    label "optimal".
    """
    keys = [(e,) for e in range(episodes)]
    rules = {"optimal": result}
    for policy in baselines:
        rules[policy.label()] = policy
    runs = _episodes(instance, list(rules.values()), periods, seed, keys, initial_state)
    return {label: ret for label, (_, ret) in zip(rules, runs)}


def summarize_returns(returns: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a per-episode return sample."""
    if returns.size == 0:
        raise ValueError("need at least one episode return")
    mean = float(returns.mean())
    if returns.size > 1:
        stderr = float(returns.std(ddof=1) / np.sqrt(returns.size))
    else:
        stderr = 0.0
    return mean, stderr
