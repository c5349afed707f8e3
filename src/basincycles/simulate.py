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
  1), applied to the whole set at once.  A law (``_Law``: the set's rows,
  its exit columns, ``R``, the absorption sums and the powers) lives on
  its kernel, one per transient set, and grows by a level when a later
  call needs more steps: the law checks build it once per set and beta,
  and free it with the kernel before the next beta.
* **Jump chain** (the set is large).  Each iteration moves every live
  replica by one jump, and one geometric draw skips all the holding steps
  before it, so holding steps still count toward the hitting time.  The
  work is one iteration per jump.

Both keep the exact law of the step chain.  Replica ``r`` draws only from
its own stream: row ``r`` of one ``(replicas, 4)`` block from ``seed`` on
the inversion path, the generator keyed ``(seed, r)`` on the jump chain.
So results depend on the landscape, not on its declaration order, and on
``(seed, r)`` and the path; a shorter batch is a prefix of a longer one.

``beta = 0`` is accepted only by the raw sampler as a diagnostic mode; the
window and visit checks require ``beta > 0`` like every analysis path.

numpy is imported inside the functions that build or sample the kernel,
not at module level.  The package and ``cli`` import this module, and the
cycle commands never touch a float array, so a process that does not
sample does not pay numpy's import time and memory; after the first call,
each import is one ``sys.modules`` lookup.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .energy import Energy
from .errors import InvalidSpec, NonpositiveBeta, NotACycle, StateOutsideCycle
from .landscape import Landscape, StateSet, exterior_boundary, reach, transition_matrix

_MAX_STEP_CAP = 1_000_000_000
_MAX_STEPS = 2**63 - 1  # step counts are int64
_JUMPS = 1024  # jumps per draw refill, two draws each
# Each law stores one |T| x |T| float64 power per bit of max_steps.  Past
# this many bytes the jump chain runs instead: at the default 10^6 steps
# that is |T| <= 228, at 2^63 - 1 steps |T| <= 129, so the powers' matrix
# products stay well under a second, while larger sets are walked.
_DENSE_BYTES = 8 << 20


def _mask64(seed: int) -> int:
    return operator.index(seed) & 0xFFFFFFFFFFFFFFFF


def _exp(x: float) -> float:
    """``math.exp`` that overflows to ``inf`` instead of raising, so the
    ``isfinite`` guards on time scales see large beta."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _integral(name: str, value) -> int:
    """``value`` as an int: integral and not a bool, as numpy ints are."""
    with suppress(TypeError):
        if not isinstance(value, bool):
            return operator.index(value)
    raise InvalidSpec(f"{name} must be an integer, got {value!r}")


def _subseed(*parts: int) -> int:
    import numpy as np
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
        if not 1 <= _integral("max_steps", self.max_steps) <= _MAX_STEPS:
            raise InvalidSpec(f"max_steps must lie in [1, 2**63 - 1], got {self.max_steps}")
        if _integral("replicas", self.replicas) < 1:
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
        _integral("seed", self.seed)


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
    import numpy as np
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


class _Law:
    """The first-hit law of the absorbing chain on one transient set T of one
    kernel, as ``_first_hit`` reads it; the law checks keep it for one beta.

    T determines the law: it holds every non-absorbing state one step from
    a member, so the absorbing states the chain can enter from T are the
    states one step from T outside it.  ``pos`` maps each member to its row
    and ``exits`` lists those absorbing states in index order.  ``Q`` is
    the kernel on T: its positive off-diagonal entries, and
    ``1 - leave[x]`` on the diagonal.  ``R`` holds the entries from T into
    ``exits``.  With ``h_k[x]`` the probability of absorption from x within
    ``2^k`` steps, ``hits[k] = h_k`` and ``powers[k] = Q^(2^k)``:
    ``h_0 = R 1`` and ``h_{k+1} = h_k + Q^(2^k) h_k``, sums of positive
    terms, so no ``1 - p`` cancels on the absorption side at any beta.
    Each power's diagonal is set from the same identity, one minus its
    row's off-diagonal mass and ``h_k``, so the ulp lost in storing a
    diagonal near 1 never compounds from one power to the next.

    A law holds the levels its callers have needed so far; ``extend`` adds
    the missing ones, each from the last, so a law built in steps is the
    same to the bit as one built at once.
    """

    __slots__ = ("pos", "exits", "R", "hits", "powers", "_diag")

    def __init__(self, kernel, transient):
        import numpy as np
        leave, nbr, _ = kernel.jumps()
        off = kernel._off  # (row, column) index pairs -> the positive entries
        self.pos = pos = {x: a for a, x in enumerate(transient)}
        exits = sorted({y for x in transient for y in nbr[x].tolist() if y not in pos})
        col = {y: b for b, y in enumerate(exits)}
        Q = np.zeros((len(transient), len(transient)))
        R = np.zeros((len(transient), len(exits)))
        for x in transient:
            a = pos[x]
            Q[a, a] = 1.0 - leave[x]
            for y in set(nbr[x].tolist()) - {x}:
                if y in pos:
                    Q[a, pos[y]] = off[x, y]
                else:
                    R[a, col[y]] = off[x, y]
        self.exits = np.array(exits, dtype=np.intp)
        self.R = R
        self.hits, self.powers = [R.sum(axis=1)], [Q]
        self._diag = np.diag_indices(len(transient))

    def extend(self, levels: int) -> None:
        """Hold at least ``levels`` powers and absorption sums."""
        import numpy as np
        hits, powers = self.hits, self.powers
        while len(powers) < levels:
            M, h = powers[-1], hits[-1]
            hits.append(h + M @ h)
            M = M @ M
            M[self._diag] = 0.0
            M[self._diag] = np.maximum(1.0 - (M.sum(axis=1) + hits[-1]), 0.0)
            powers.append(M)


def _law(kernel, transient) -> _Law:
    """The kernel's first-hit law on ``transient``, built on first use and
    kept in ``kernel._laws`` while the kernel lives, one beta in a law check."""
    key = tuple(transient)
    law = kernel._laws.get(key)
    if law is None:
        law = kernel._laws[key] = _Law(kernel, transient)
    return law


def _first_hit(law, origin, u_time, u_land, budget):
    """Draw each row's first entry into the absorbing states from ``origin``
    by inverting ``law``, a ``_Law`` on the transient set of ``origin``.

    The first-hit CDF is ``F(t) = F(s) + alpha Q^s h(t - s)`` for ``alpha``
    the point mass at ``origin``.  Descending the bits from high to low, a
    row takes step ``2^k`` while that keeps ``F`` below its ``u_time`` in
    (0, 1]: that finds ``G(u)``, the largest ``t < 2^levels`` with
    ``F(t) < u``, for ``levels`` the bit length of the largest budget.
    Every row starts at ``origin``, so ``F`` is the same nondecreasing
    function for all of them, and the largest ``t <= budget`` with
    ``F(t) < u`` is ``min(G(u), budget)``: one clamp after the descent
    applies each row's own budget.  The chain is absorbed at step ``t + 1``
    with probability ``F(t + 1) - F(t)``, the exact law.  A row whose ``t``
    reaches its budget is censored; a row below it took every bit it would
    have taken under the budget, since each prefix of ``t`` is at most
    ``t``.  Otherwise it lands on ``a`` with probability proportional to
    ``(alpha Q^t R)[a]``, picked by ``u_land``.

    Returns ``(t, landed)``: ``landed`` is the state entered at step
    ``t + 1``, or -1 for a censored row.
    """
    import numpy as np
    levels = int(budget.max()).bit_length()
    law.extend(levels)
    t = np.zeros(u_time.size, dtype=np.int64)
    cdf = np.zeros(u_time.size)
    mass = np.zeros((u_time.size, len(law.pos)))  # alpha Q^t, row by row
    mass[:, law.pos[origin]] = 1.0
    for k in range(levels - 1, -1, -1):
        ahead = cdf + mass @ law.hits[k]
        go = np.flatnonzero(ahead < u_time)
        if go.size:
            mass[go] = mass[go] @ law.powers[k]
            cdf[go] = ahead[go]
            t[go] += 1 << k
    # t < 2^levels <= 2^63: no int64 overflow before the clamp
    t = np.minimum(t, budget)

    landed = np.full(u_time.size, -1, dtype=np.intp)
    hit = t < budget
    if hit.any():
        weight = np.cumsum(mass[hit] @ law.R, axis=1)
        pick = (weight < u_land[hit, None] * weight[:, -1:]).sum(axis=1)
        landed[hit] = law.exits[np.minimum(pick, law.exits.size - 1)]
    return t, landed


def _run_chains(kernel, start_idx, target_mask, sec_idx, max_steps, seed, replicas):
    """First-hit times of ``target_mask`` from ``start_idx`` for ``replicas``
    chains of ``kernel``, censored at ``max_steps``.

    A visit state ``sec_idx`` outside the target splits the run in two
    phases under the strong Markov property: first to the target or the
    visit state, then, for the replicas that reached the visit state, from
    there to the target on the steps left.  Each phase's transient set T
    comes from ``_transient``.  When the powers of the largest one fit in
    ``_DENSE_BYTES``, every phase runs by inversion (``_first_hit`` on the
    kernel's law for its set, ``_law``):
    replica r takes the uniforms in row r of one ``(replicas, 4)`` block
    from ``default_rng(seed)``, time then landing for the first phase,
    time then landing for the second.  Otherwise the whole call walks the
    jump chain (``_walk_chains``), with its per-replica streams.

    Returns (tau, censored, sec) arrays; ``sec[r]`` is the first step at
    which replica r stood on the secondary state (0 if it starts there, -1
    if never, tracked only up to the target hit).
    """
    import numpy as np
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
    for col, (origin, _), transient in zip((0, 2), phases, sets):
        t, landed = _first_hit(
            _law(kernel, transient), origin, u[walk, col], u[walk, col + 1], max_steps - clock
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
    pass ``max_steps`` is censored there.  The start lies outside the
    target: ``_run_chains`` has already answered a start in the target.

    Returns (tau, censored, sec) arrays; ``sec[r]`` is the first step at
    which replica r stood on the secondary state (-1 if never, tracked only
    up to the target hit).
    """
    import numpy as np
    leave, nbr, cdf = jumps
    tau = np.full(replicas, max_steps, dtype=np.int64)
    censored = np.ones(replicas, dtype=bool)
    sec = np.full(replicas, -1, dtype=np.int64)

    if sec_idx is not None and sec_idx == start_idx:
        sec[:] = 0

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
    """Sample the first-entry time into ``spec.target`` across replicas, on
    a kernel built for this call, so no law is kept between calls."""
    spec.validate()
    return _sample(spec, transition_matrix(spec.landscape, spec.beta), window)


def _sample(spec: SimulationSpec, kernel, window) -> HittingTimeStats:
    """``simulate_hitting_time`` for a validated ``spec`` on its ``kernel``;
    ``_check_laws`` builds one kernel per beta for all its rows."""
    import numpy as np
    index = kernel._index
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
) -> tuple[StateSet, list[float], Energy, Energy, StateSet]:
    """The arguments both law checks share, in this order: a nontrivial path
    cycle with an exit, a finite ``epsilon > 0`` and finite betas > 0.

    The cycle is checked in one pass: its states' units give its internal
    minimum and maximum, one walk of its exterior boundary gives the
    boundary floor, and ``reach`` within the set tests that it is
    connected.  Returns the cycle, the distinct betas in ascending order,
    the cycle's depth and resistance, and its exterior boundary, which is
    the exit target."""
    cycle = landscape.subset(members)
    heights = list(map(landscape.units, cycle))
    low, high = min(heights), max(heights)
    boundary = exterior_boundary(landscape, cycle)
    floor = min(map(landscape.units, boundary), default=math.inf)
    reached = reach([next(iter(cycle))], lambda x: cycle.intersection(landscape.neighbors(x)))
    # a path cycle: connected, and a singleton or its maximum below the floor
    if len(reached) < len(cycle) or (len(cycle) > 1 and high >= floor):
        raise NotACycle(f"{sorted(cycle)} is not a path cycle")
    if floor == math.inf:
        raise InvalidSpec("the cycle is the whole state space and has no exit")
    # nontrivial: the internal maximum lies below the boundary floor
    if high >= floor:
        raise NotACycle(f"{sorted(cycle)} is a trivial cycle (no exit barrier)")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidSpec(f"epsilon must be finite and positive, got {epsilon}")
    for beta in beta_list:
        if not (math.isfinite(beta) and beta > 0):
            raise NonpositiveBeta(f"beta must be finite and > 0, got {beta}")
    betas, scale = sorted(set(float(b) for b in beta_list)), landscape.scale
    return cycle, betas, Energy(floor - low, scale), Energy(high - low, scale), boundary


def _steps(scale: float) -> int:
    """The step budget for a time ``scale``: ``ceil(scale)``, at least 1, or
    ``_MAX_STEP_CAP`` for a scale that reaches it or overflowed to ``inf``."""
    return max(1, math.ceil(scale)) if scale < _MAX_STEP_CAP else _MAX_STEP_CAP


def default_exit_steps(beta: float, cycle_depth: Energy) -> int:
    """Censoring threshold for exit sampling: well past the predicted scale."""
    return _steps(100.0 * _exp(beta * (cycle_depth.to_float() + 1.0)))


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


def check_laws(
    landscape: Landscape,
    cycle: Iterable[str],
    beta_list: Sequence[float],
    epsilon: float,
    replicas: int,
    seed: int,
    starts: Optional[Sequence[str]] = None,
    visit: Optional[str] = None,
    max_steps: Optional[int] = None,
) -> tuple[list[ExitWindowCheck], list[VisitBeforeExitCheck]]:
    """The exit window from each of ``starts`` (every cycle member by
    default) and, given ``visit``, the visit check from each of them, in one
    loop over beta.  Returns ``(exit_rows, visit_rows)``: the rows of
    ``check_exit_window``, and those of ``check_visit_before_exit`` for each
    start in sorted order, one start after the other.

    ``max_steps``, when given, censors the exit window there and caps the
    visit check's step budget, ``exp(beta * (resistance + epsilon))``, at
    it: a visit past ``max_steps`` is not counted."""
    checked = _check_arguments(landscape, cycle, beta_list, epsilon)
    starts = list(checked[0] if starts is None else starts)
    for s in starts:
        if s not in checked[0]:
            raise StateOutsideCycle(f"start {s!r} is outside the cycle")
    if visit is not None and visit not in checked[0]:
        raise StateOutsideCycle(f"visit state {visit!r} is outside the cycle")
    starts.sort()
    visits = starts if visit is not None else []
    return _check_laws(landscape, checked, epsilon, replicas, seed, starts, visits, visit, max_steps)


def _check_laws(landscape, checked, epsilon, replicas, seed, starts, visit_starts, visit, max_steps):
    """The loop behind the law checks, on ``checked`` from
    ``_check_arguments``: the exit window from each of ``starts``, the visit
    check of ``visit`` from each of ``visit_starts``, each censored at
    ``max_steps`` when it is given (``check_laws``).  Each pass validates
    one beta's specs, builds its kernel, samples its rows on it, and drops
    it with its laws: the rows on one transient set share its law, and no
    law outlives its beta.  A spec's validity does not depend on beta, so a
    bad count or seed fails before the first kernel is built."""
    _, betas, depth, resistance, target = checked
    seed, gamma = _mask64(seed), depth.to_float()
    exit_rows, visit_rows = [], [[] for _ in visit_starts]
    for bi, beta in enumerate(betas):
        window = (_exp(beta * (gamma - epsilon)), _exp(beta * (gamma + epsilon)))
        bound = _exp(beta * (resistance.to_float() + epsilon))
        steps = max_steps if max_steps is not None else default_exit_steps(beta, depth)
        visit_steps = _steps(bound) if max_steps is None else min(_steps(bound), max_steps)
        common = dict(landscape=landscape, beta=beta, target=target, replicas=replicas)
        exits = [
            SimulationSpec(start=start, max_steps=steps, seed=_subseed(seed, 1, bi, si), **common)
            for si, start in enumerate(starts)
        ]
        visits = [
            SimulationSpec(
                start=start,
                secondary_target=visit,
                max_steps=visit_steps,
                seed=_subseed(seed, 2, bi),
                **common,
            )
            for start in visit_starts
        ]
        for spec in exits + visits:
            spec.validate()
        kernel = transition_matrix(landscape, beta)
        for spec in exits:
            stats = _sample(spec, kernel, window)
            exit_rows.append(
                ExitWindowCheck(
                    beta=beta, start=spec.start, depth=depth, epsilon=epsilon, stats=stats
                )
            )
        for rows, spec in zip(visit_rows, visits):
            stats = _sample(spec, kernel, None)
            hits = sum(1 for t in stats.secondary if t is not None and t < bound)
            rows.append(
                VisitBeforeExitCheck(
                    beta=beta,
                    start=spec.start,
                    visit=visit,
                    resistance=resistance,
                    epsilon=epsilon,
                    bound=bound,
                    fraction=hits / replicas,
                    stats=stats,
                )
            )
        del kernel  # and its laws, before the next beta's kernel is built
    return exit_rows, [row for rows in visit_rows for row in rows]


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
    return check_laws(
        landscape, cycle, beta_list, epsilon, replicas, seed, starts, max_steps=max_steps
    )[0]


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
    checked = _check_arguments(landscape, cycle, beta_list, epsilon)
    for s, what in ((start, "start"), (visit, "visit")):
        if s not in checked[0]:
            raise StateOutsideCycle(f"{what} state {s!r} is outside the cycle")
    return _check_laws(landscape, checked, epsilon, replicas, seed, [], [start], visit, None)[1]
