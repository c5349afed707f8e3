"""Monte Carlo verification of the hitting-time laws.

The sampler runs independent Metropolis chains and records the first step
index at which each chain enters a target set (censored at ``max_steps``).
There are two exact paths, and ``_run_chains`` picks one per call from the
size of the set the chain can visit before it is absorbed:

* **Inversion** (the set is small).  The first-hit time's law is computed
  from the absorbing chain on that set, through the dyadic powers of its
  substochastic matrix, and each replica's time is drawn in one step by
  inverting that law with one uniform; its landing state takes a second.
  The cost is O(log max_steps) matrix products, so it does not grow with
  beta or with the exit time.  This is the one-step first-passage draw of
  Monte Carlo with absorbing Markov chains (MCAMC; Novotny, PRL 74 (1995)
  1), applied to the whole set at once.
* **Jump chain** (the set is large).  Each iteration moves every live
  replica by one jump, and one geometric draw skips all the holding steps
  before it, so holding steps still count toward the hitting time.  The
  work is one iteration per jump.

Both keep the exact law of the step chain.  Replica ``r`` draws only from
its own stream: row ``r`` of one ``(replicas, 4)`` block from ``seed`` on
the inversion path, the generator keyed ``(seed, r)`` on the jump chain.
So results depend only on ``(seed, r)`` and the path, and a shorter batch
is a prefix of a longer one.

``beta = 0`` is accepted only by the raw sampler as a diagnostic mode; the
window and visit checks require ``beta > 0`` like every analysis path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .energy import Energy
from .errors import InvalidSpec, NonpositiveBeta, NotACycle, StateOutsideCycle
from .landscape import Landscape, StateSet, exterior_boundary, reach, transition_matrix
from .pathcycles import depth, resistance_height

_MAX_STEP_CAP = 1_000_000_000
_MAX_STEPS = 2**63 - 1  # step counts are int64
_JUMPS = 1024  # jumps per draw refill, two draws each
# Inversion stores one |T| x |T| float64 power per bit of max_steps.  Past
# this many bytes the jump chain runs instead: at the default 10^6 steps
# that is |T| <= 228, at 2^63 - 1 steps |T| <= 129, so the powers' matrix
# products stay well under a second, while larger sets are walked.
_DENSE_BYTES = 8 << 20


def _mask64(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


def _exp(x: float) -> float:
    """``math.exp`` that overflows to ``inf`` instead of raising, so the
    ``isfinite`` guards on time scales see large beta."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _subseed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimulationSpec:
    """One batch of replicas: chain parameters plus the stream seed."""

    landscape: Landscape
    beta: float
    start: str
    target: StateSet
    secondary_target: Optional[str] = None
    max_steps: int = 1_000_000
    replicas: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise InvalidSpec(f"beta must be finite and >= 0, got {self.beta}")
        if not 1 <= self.max_steps <= _MAX_STEPS:
            raise InvalidSpec(f"max_steps must lie in [1, 2**63 - 1], got {self.max_steps}")
        if self.replicas < 1:
            raise InvalidSpec("replicas must be at least 1")
        if not self.landscape.has_state(self.start):
            raise InvalidSpec(f"unknown start state {self.start!r}")
        if not self.target:
            raise InvalidSpec("target set must be nonempty")
        for s in self.target:
            if not self.landscape.has_state(s):
                raise InvalidSpec(f"unknown target state {s!r}")
        if self.secondary_target is not None and not self.landscape.has_state(
            self.secondary_target
        ):
            raise InvalidSpec(f"unknown secondary target {self.secondary_target!r}")
        if not isinstance(self.seed, int):
            raise InvalidSpec("seed must be an integer")


@dataclass(frozen=True)
class HittingTimeStats:
    """Per-replica hitting times and their summary.

    ``mean``/``median``/fractions are over uncensored samples only (None when
    every replica was censored); censored replicas keep ``samples`` entries
    equal to ``max_steps`` with the flag set.
    """

    beta: float
    replicas: int
    samples: tuple[int, ...]
    censored: tuple[bool, ...]
    censored_count: int
    mean: Optional[float]
    median: Optional[float]
    window: Optional[tuple[float, float]]
    window_fraction: Optional[float]
    log_median_over_beta: Optional[float]
    secondary: Optional[tuple[Optional[int], ...]] = None

    @property
    def all_censored(self) -> bool:
        return self.censored_count == self.replicas


def _summarize(beta, taus, censored, window, secondary) -> HittingTimeStats:
    taus = np.asarray(taus)
    censored = np.asarray(censored)
    alive = taus[~censored]
    mean = float(alive.mean()) if alive.size else None
    median = float(np.median(alive)) if alive.size else None
    fraction = None
    if window is not None and alive.size:
        lo, hi = window
        fraction = float(np.count_nonzero((alive > lo) & (alive < hi)) / alive.size)
    log_med = None
    if beta > 0 and median is not None and median > 0:
        log_med = math.log(median) / beta
    return HittingTimeStats(
        beta=beta,
        replicas=int(taus.size),
        samples=tuple(taus.tolist()),
        censored=tuple(censored.tolist()),
        censored_count=int(censored.sum()),
        mean=mean,
        median=median,
        window=window,
        window_fraction=fraction,
        log_median_over_beta=log_med,
        secondary=secondary,
    )


def _land(nbr, cdf, state, u):
    """Destination of a jump from each ``state`` for draws ``u`` in [0, 1)."""
    return nbr[state, (cdf[state] <= u[:, None]).sum(axis=1)]


def _transient(nbr, origin, absorb) -> list[int]:
    """The states reachable from ``origin`` without entering ``absorb``, in
    index order: every state the chain can stand on before absorption."""
    return sorted(reach([origin], lambda x: [y for y in nbr[x].tolist() if not absorb[y]]))


def _first_hit(kernel, transient, origin, absorb, u_time, u_land, budget):
    """Draw each row's first entry into ``absorb`` from ``origin`` by inverting
    its law; ``transient`` is ``_transient(nbr, origin, absorb)``.

    ``Q`` is the kernel on the transient set T: its positive off-diagonal
    entries, and ``1 - leave[x]`` on the diagonal.  ``R`` holds the entries
    from T into the absorbing states.  With ``h_k[x]`` the probability of
    absorption from x within ``2^k`` steps, ``h_0 = R 1`` and
    ``h_{k+1} = h_k + Q^(2^k) h_k``: sums of positive terms, so no
    ``1 - p`` cancels on the absorption side at any beta.  Each power's
    diagonal is set from the same identity, one minus its row's
    off-diagonal mass and ``h_k``, so the ulp lost in storing a diagonal
    near 1 never compounds from one power to the next.

    The first-hit CDF is ``F(t) = F(s) + alpha Q^s h(t - s)`` for
    ``alpha`` the point mass at ``origin``.  Descending the bits from high
    to low, a row takes step ``2^k`` while it fits in ``budget`` and keeps
    ``F`` below its ``u_time`` in (0, 1]; that finds the largest
    ``t <= budget`` with ``F(t) < u``, so the chain is absorbed at step
    ``t + 1`` with probability ``F(t + 1) - F(t)``: the exact law.  A row
    whose ``t`` reaches its budget is censored.  Otherwise it lands on
    ``a`` with probability proportional to ``(alpha Q^t R)[a]``, picked by
    ``u_land``.

    Returns ``(t, landed)``: ``landed`` is the state entered at step
    ``t + 1``, or -1 for a censored row.
    """
    leave, nbr, _ = kernel.jumps()
    states = kernel.states
    pos = {x: a for a, x in enumerate(transient)}
    exits = sorted({y for x in transient for y in nbr[x].tolist() if absorb[y]})
    col = {y: b for b, y in enumerate(exits)}
    Q = np.zeros((len(transient), len(transient)))
    R = np.zeros((len(transient), len(exits)))
    for x in transient:
        a = pos[x]
        Q[a, a] = 1.0 - leave[x]
        for y in set(nbr[x].tolist()) - {x}:
            p = kernel.prob(states[x], states[y])
            if absorb[y]:
                R[a, col[y]] = p
            else:
                Q[a, pos[y]] = p

    levels = int(budget.max()).bit_length()
    hits, powers = [R.sum(axis=1)], [Q]
    for _ in range(1, levels):
        M, h = powers[-1], hits[-1]
        hits.append(h + M @ h)
        M = M @ M
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(M, np.maximum(1.0 - (M.sum(axis=1) + hits[-1]), 0.0))
        powers.append(M)

    t = np.zeros(u_time.size, dtype=np.int64)
    cdf = np.zeros(u_time.size)
    mass = np.zeros((u_time.size, len(transient)))  # alpha Q^t, row by row
    mass[:, pos[origin]] = 1.0
    for k in range(levels - 1, -1, -1):
        ahead = cdf + mass @ hits[k]
        # step <= budget - t, not t + step <= budget: no int64 overflow
        go = ((1 << k) <= budget - t) & (ahead < u_time)
        if go.any():
            mass[go] = mass[go] @ powers[k]
            cdf[go] = ahead[go]
            t[go] += 1 << k

    landed = np.full(u_time.size, -1, dtype=np.intp)
    hit = t < budget
    if hit.any():
        weight = np.cumsum(mass[hit] @ R, axis=1)
        pick = (weight < u_land[hit, None] * weight[:, -1:]).sum(axis=1)
        landed[hit] = np.array(exits)[np.minimum(pick, len(exits) - 1)]
    return t, landed


def _run_chains(kernel, start_idx, target_mask, sec_idx, max_steps, seed, replicas):
    """First-hit times of ``target_mask`` from ``start_idx`` for ``replicas``
    chains of ``kernel``, censored at ``max_steps``.

    A visit state ``sec_idx`` outside the target splits the run in two
    phases under the strong Markov property: first to the target or the
    visit state, then, for the replicas that reached the visit state, from
    there to the target on the steps left.  Each phase's transient set T
    comes from ``_transient``.  When the powers of the largest one fit in
    ``_DENSE_BYTES``, every phase runs by inversion (``_first_hit``):
    replica r takes the uniforms in row r of one ``(replicas, 4)`` block
    from ``default_rng(seed)``, time then landing for the first phase,
    time then landing for the second.  Otherwise the whole call walks the
    jump chain (``_walk_chains``), with its per-replica streams.

    Returns (tau, censored, sec) arrays; ``sec[r]`` is the first step at
    which replica r stood on the secondary state (0 if it starts there, -1
    if never, tracked only up to the target hit).
    """
    tau = np.full(replicas, max_steps, dtype=np.int64)
    censored = np.ones(replicas, dtype=bool)
    sec = np.full(replicas, -1, dtype=np.int64)
    if sec_idx is not None and sec_idx == start_idx:
        sec[:] = 0
    if target_mask[start_idx]:
        tau[:] = 0
        censored[:] = False
        return tau, censored, sec

    nbr = kernel.jumps()[1]
    phases = [(start_idx, target_mask)]
    if sec_idx is not None and sec_idx != start_idx and not target_mask[sec_idx]:
        stop = target_mask.copy()
        stop[sec_idx] = True
        phases = [(start_idx, stop), (sec_idx, target_mask)]
    sets = [_transient(nbr, origin, absorb) for origin, absorb in phases]
    if max(map(len, sets)) ** 2 * int(max_steps).bit_length() * 8 > _DENSE_BYTES:
        return _walk_chains(
            kernel.jumps(), start_idx, target_mask, sec_idx, max_steps, seed, replicas
        )

    u = 1.0 - np.random.default_rng(_mask64(seed)).random((replicas, 4))
    walk = np.arange(replicas)
    clock = np.zeros(replicas, dtype=np.int64)
    for col, (origin, absorb), transient in zip((0, 2), phases, sets):
        t, landed = _first_hit(
            kernel, transient, origin, absorb, u[walk, col], u[walk, col + 1], max_steps - clock
        )
        hit = landed >= 0
        clock = clock + t + 1
        done = hit & target_mask[landed]
        tau[walk[done]] = clock[done]
        censored[walk[done]] = False
        if sec_idx is not None:
            visit = hit & (landed == sec_idx)
            sec[walk[visit]] = clock[visit]
            walk, clock = walk[visit & ~done], clock[visit & ~done]
        if not walk.size:
            break
    return tau, censored, sec


def _walk_chains(jumps, start_idx, target_mask, sec_idx, max_steps, seed, replicas):
    """Walk ``replicas`` jump chains in lockstep over per-replica streams.

    ``jumps`` is the kernel's ``(leave, nbr, cdf)`` tables.  Each iteration
    moves every live replica by one jump, on two draws from its own stream
    ``(seed, r)``.  The first, ``u1`` in (0, 1], gives the steps the jump
    takes, ``G = 1 + floor(log(u1) / log1p(-leave))``: geometric with success
    probability ``leave``, so one draw covers every holding step and the
    clock keeps the exact law of the step chain.  The second picks the
    destination from the neighbour CDF.  A replica whose next arrival would
    pass ``max_steps`` is censored there.

    Returns (tau, censored, sec) arrays; ``sec[r]`` is the first step at
    which replica r stood on the secondary state (-1 if never, tracked only
    up to the target hit).
    """
    leave, nbr, cdf = jumps
    tau = np.full(replicas, max_steps, dtype=np.int64)
    censored = np.ones(replicas, dtype=bool)
    sec = np.full(replicas, -1, dtype=np.int64)

    if sec_idx is not None and sec_idx == start_idx:
        sec[:] = 0
    if target_mask[start_idx]:
        tau[:] = 0
        censored[:] = False
        return tau, censored, sec

    seed = _mask64(seed)
    gens = [np.random.default_rng([seed, r]) for r in range(replicas)]
    alive = np.arange(replicas)
    state = np.full(replicas, start_idx, dtype=np.intp)
    clock = np.zeros(replicas, dtype=np.int64)
    # every jump takes at least one step, so max_steps jumps reach the cap
    jumped = 0
    buf = np.empty((replicas, min(_JUMPS, max_steps), 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_stay = np.log1p(-leave)
        while alive.size and jumped < max_steps:
            span = min(_JUMPS, max_steps - jumped)
            draws = buf[: alive.size, :span]
            for i, r in enumerate(alive):
                gens[r].random(out=draws[i])
            # log(u1) for u1 = 1 - draw in (0, 1], in place
            first = draws[:, :, 0]
            np.log1p(np.negative(first, out=first), out=first)
            rowsel = np.arange(alive.size)
            for t in range(span):
                u = draws[rowsel, t]
                # holding steps before the jump: 0 when leave is 1, inf when
                # leave is 0 (NaN if u1 is also 1)
                hold = np.floor(u[:, 0] / log_stay[state])
                # arrival clock + hold + 1 must not pass max_steps; inf and
                # NaN fail the test, so they are censored before the cast
                keep = hold < max_steps - clock
                if not keep.all():
                    alive, state, clock = alive[keep], state[keep], clock[keep]
                    rowsel, hold, u = rowsel[keep], hold[keep], u[keep]
                    if alive.size == 0:
                        break
                clock += hold.astype(np.int64) + 1
                state = _land(nbr, cdf, state, u[:, 1])
                if sec_idx is not None:
                    fresh = state == sec_idx
                    if fresh.any():
                        fresh &= sec[alive] < 0
                        sec[alive[fresh]] = clock[fresh]
                hit = target_mask[state]
                if hit.any():
                    done = alive[hit]
                    tau[done] = clock[hit]
                    censored[done] = False
                    keep = ~hit
                    alive, state, clock = alive[keep], state[keep], clock[keep]
                    rowsel = rowsel[keep]
                    if alive.size == 0:
                        break
            jumped += span
    return tau, censored, sec


def simulate_hitting_time(
    spec: SimulationSpec, window: Optional[tuple[float, float]] = None
) -> HittingTimeStats:
    """Sample the first-entry time into ``spec.target`` across replicas."""
    spec.validate()
    return _sample(spec, transition_matrix(spec.landscape, spec.beta), window)


def _sample(spec: SimulationSpec, kernel, window) -> HittingTimeStats:
    """``simulate_hitting_time`` for a validated ``spec`` on its ``kernel``;
    ``check_exit_window`` builds one kernel per beta for all its starts."""
    index = {s: i for i, s in enumerate(kernel.states)}
    target_mask = np.zeros(len(kernel.states), dtype=bool)
    for s in spec.target:
        target_mask[index[s]] = True
    sec_idx = index[spec.secondary_target] if spec.secondary_target else None
    tau, censored, sec = _run_chains(
        kernel,
        index[spec.start],
        target_mask,
        sec_idx,
        spec.max_steps,
        spec.seed,
        spec.replicas,
    )
    secondary = None
    if spec.secondary_target is not None:
        secondary = tuple(t if t >= 0 else None for t in sec.tolist())
    return _summarize(spec.beta, tau, censored, window, secondary)


def _check_arguments(
    landscape: Landscape, members: Iterable[str], beta_list: Sequence[float], epsilon: float
) -> tuple[StateSet, list[float], Energy, Energy]:
    """The arguments both law checks share, in this order: a nontrivial path
    cycle, a finite ``epsilon > 0`` and finite betas > 0.  Returns the cycle,
    the distinct betas in ascending order, and the cycle's depth and resistance."""
    cycle = landscape.subset(members)
    gamma, gamma_tilde = depth(landscape, cycle), resistance_height(landscape, cycle)
    # nontrivial: the internal maximum lies below the boundary floor
    if gamma.units <= gamma_tilde.units:
        raise NotACycle(f"{sorted(cycle)} is a trivial cycle (no exit barrier)")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidSpec(f"epsilon must be finite and positive, got {epsilon}")
    for beta in beta_list:
        if not (math.isfinite(beta) and beta > 0):
            raise NonpositiveBeta(f"beta must be finite and > 0, got {beta}")
    return cycle, sorted(set(float(b) for b in beta_list)), gamma, gamma_tilde


def default_exit_steps(beta: float, cycle_depth: Energy) -> int:
    """Censoring threshold for exit sampling: well past the predicted scale."""
    raw = 100.0 * _exp(beta * (cycle_depth.to_float() + 1.0))
    if not math.isfinite(raw) or raw >= _MAX_STEP_CAP:
        return _MAX_STEP_CAP
    return max(1, math.ceil(raw))


@dataclass(frozen=True)
class ExitWindowCheck:
    """Exit-time sample for one (beta, start) pair against the window
    ``(exp(beta*(depth - eps)), exp(beta*(depth + eps)))``."""

    beta: float
    start: str
    depth: Energy
    epsilon: float
    stats: HittingTimeStats

    @property
    def fraction(self) -> Optional[float]:
        return self.stats.window_fraction


def check_exit_window(
    landscape: Landscape,
    cycle: Iterable[str],
    beta_list: Sequence[float],
    epsilon: float,
    replicas: int,
    seed: int,
    starts: Optional[Sequence[str]] = None,
    max_steps: Optional[int] = None,
) -> list[ExitWindowCheck]:
    """Fraction of exits inside the predicted window, per beta and start."""
    cycle, betas, cycle_depth, _ = _check_arguments(landscape, cycle, beta_list, epsilon)
    target = exterior_boundary(landscape, cycle)
    if starts is None:
        starts = sorted(cycle)
    else:
        starts = list(starts)
        for s in starts:
            if s not in cycle:
                raise StateOutsideCycle(f"start {s!r} is outside the cycle")

    results = []
    gamma = cycle_depth.to_float()
    for bi, beta in enumerate(betas):
        steps = max_steps if max_steps is not None else default_exit_steps(beta, cycle_depth)
        lo = _exp(beta * (gamma - epsilon))
        hi = _exp(beta * (gamma + epsilon))
        kernel = transition_matrix(landscape, beta)
        for si, start in enumerate(sorted(starts)):
            spec = SimulationSpec(
                landscape=landscape,
                beta=beta,
                start=start,
                target=target,
                max_steps=steps,
                replicas=replicas,
                seed=_subseed(_mask64(seed), 1, bi, si),
            )
            spec.validate()
            stats = _sample(spec, kernel, (lo, hi))
            results.append(
                ExitWindowCheck(
                    beta=beta, start=start, depth=cycle_depth, epsilon=epsilon, stats=stats
                )
            )
    return results


@dataclass(frozen=True)
class VisitBeforeExitCheck:
    """Fraction of runs reaching the visit state before leaving the cycle and
    within ``exp(beta*(resistance + eps))`` steps."""

    beta: float
    start: str
    visit: str
    resistance: Energy
    epsilon: float
    bound: float
    fraction: float
    stats: HittingTimeStats


def check_visit_before_exit(
    landscape: Landscape,
    cycle: Iterable[str],
    start: str,
    visit: str,
    beta_list: Sequence[float],
    epsilon: float,
    replicas: int,
    seed: int,
) -> list[VisitBeforeExitCheck]:
    """Per-beta fraction of chains that visit ``visit`` before the exterior
    boundary and before the resistance-scale time bound."""
    cycle, betas, _, resistance = _check_arguments(landscape, cycle, beta_list, epsilon)
    for s, what in ((start, "start"), (visit, "visit")):
        if s not in cycle:
            raise StateOutsideCycle(f"{what} state {s!r} is outside the cycle")
    target = exterior_boundary(landscape, cycle)

    results = []
    for bi, beta in enumerate(betas):
        bound = _exp(beta * (resistance.to_float() + epsilon))
        steps = _MAX_STEP_CAP if not math.isfinite(bound) else max(1, math.ceil(bound))
        spec = SimulationSpec(
            landscape=landscape,
            beta=beta,
            start=start,
            target=target,
            secondary_target=visit,
            max_steps=min(steps, _MAX_STEP_CAP),
            replicas=replicas,
            seed=_subseed(_mask64(seed), 2, bi),
        )
        stats = simulate_hitting_time(spec)
        hits = sum(
            1 for t in stats.secondary if t is not None and t < bound
        )
        results.append(
            VisitBeforeExitCheck(
                beta=beta,
                start=start,
                visit=visit,
                resistance=resistance,
                epsilon=epsilon,
                bound=bound,
                fraction=hits / replicas,
                stats=stats,
            )
        )
    return results

