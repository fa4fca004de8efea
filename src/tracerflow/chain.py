"""An exactly solvable Markov chain whose time averages are not tight.

State space (-inf, -1] u [1, +inf).  From x >= 1 the chain climbs to x + 1
with probability exp(-1/x^2) and otherwise drops to -x; from x <= -1 it
moves deterministically through the affine contraction x -> -(x+1)/2 - 1,
which folds everything toward the fixed point -1.  Because the climb
probabilities increase along the ladder, a positive mass H_inf(x) of paths
escapes to +infinity, yet the transition semigroup stays equicontinuous,
which is exactly the combination this module lets you measure.

The contraction maps parts of [-5, -1] into the gap (-1, 1) that the state
space omits (for instance -3 -> 0); the dynamics here extend the
deterministic branch to every x < 1 so the process is defined everywhere,
and :func:`simulate_paths` reports gap visits (``visited_gap``) rather than
hiding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_EXACT_DEPTH = 60


def contraction_map(x: float) -> float:
    """Deterministic branch: x -> -(x+1)/2 - 1, affine contraction toward -1."""
    return -(x + 1.0) / 2.0 - 1.0


def climb_probability(x: float) -> float:
    """Probability exp(-1/x^2) of moving from x >= 1 up the ladder to x + 1."""
    return math.exp(-1.0 / (x * x))


def _paths(x0: float, n_steps: int, n_paths: int, seed: int):
    """Yield (states, fell this step) after each of n_steps vectorized steps.

    Both are buffers the next step overwrites.  The branch is an exact blend
    of the three finite targets with 0/1 masks, each masked-out term a signed zero.
    """
    rng, s = np.random.default_rng(seed), np.full(n_paths, float(x0))
    u, up = np.empty((2, n_paths))
    ladder, climb, fell = np.empty((3, n_paths), dtype=bool)
    for _ in range(n_steps):
        np.greater_equal(s, 1.0, out=ladder)
        rng.random(out=u)
        np.maximum(s, 1.0, out=up)    # off the ladder the base is 1; climb is masked below
        np.exp(np.divide(-1.0, np.square(up, out=up), out=up), out=up)
        np.logical_and(ladder, np.less(u, up, out=climb), out=climb)
        np.not_equal(ladder, climb, out=fell)
        np.add(s, 1.0, out=up)
        np.subtract(np.multiply(up, -0.5, out=u), 1.0, out=u)  # u = contraction_map(s)
        np.logical_not(ladder, out=ladder)
        np.multiply(np.negative(s, out=s), fell, out=s)
        s += np.multiply(up, climb, out=up)
        s += np.multiply(u, ladder, out=u)
        yield s, fell


def simulate_paths(x0: float, n_steps: int, n_paths: int, seed: int):
    """Vectorized Monte-Carlo paths; returns (final, ever_fell, visited_gap)."""
    states, ever_fell = np.full(n_paths, float(x0)), np.zeros(n_paths, dtype=bool)
    visited_gap = np.abs(states) < 1.0
    for states, fell in _paths(x0, n_steps, n_paths, seed):
        ever_fell |= fell
        visited_gap |= np.abs(states) < 1.0
    return states, ever_fell, visited_gap


def ladder_weights(x: float, n: int):
    """Ladder survival and exit weights up to horizon n.

    stay[k]  = prod_{j<k} exp(-(x+j)^{-2}), probability of k straight climbs;
    exit[k]  = (1 - exp(-(x+k)^{-2})) * stay[k], probability of falling at
    step k+1.  They telescope: sum(exit[:n]) + stay[n] = 1.
    """
    if x < 1.0:
        raise ValueError("ladder weights are defined for x >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    j = np.arange(n, dtype=float)
    inv_sq = 1.0 / (x + j) ** 2
    stay = np.empty(n + 1)
    stay[0] = 1.0
    stay[1:] = np.exp(-np.cumsum(inv_sq))
    exit_ = -np.expm1(-inv_sq) * stay[:-1]
    return stay, exit_


def ladder_survival_limit(x: float) -> float:
    """lim_n of the ladder survival probability: exp(-sum_{j>=0} (x+j)^{-2}).

    The first N terms are summed correctly rounded (math.fsum) and closed with the
    Euler-Maclaurin tail 1/(x+N) + 1/(2(x+N)^2) + 1/(6(x+N)^3), whose
    truncation error is below 1e-12 for the N used.
    """
    if x < 1.0:
        raise ValueError("defined for x >= 1")
    n_terms = 400
    total = math.fsum(1.0 / (x + j) ** 2 for j in range(n_terms))
    y = x + n_terms
    tail = 1.0 / y + 1.0 / (2.0 * y ** 2) + 1.0 / (6.0 * y ** 3)
    return math.exp(-(total + tail))


@dataclass
class ChainDistribution:
    """Finite atomic law; atoms sorted by state value."""

    atoms: list  # [(value, probability)]

    def __post_init__(self):
        total = sum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total!r}")
        if any(p < -1e-15 for _, p in self.atoms):
            raise ValueError("negative atom probability")

    def expectation(self, f) -> float:
        return math.fsum(p * f(v) for v, p in self.atoms)


def _sweep(x: float, n: int, f):
    """Yield (probabilities, f at the atoms) of the law after 0..n steps from x.

    f, climb probability and successors are computed once per distinct state.
    Atoms keep first-reached order and merged masses are summed in that order:
    the float contraction is not injective and the sum order shows in the bits."""
    index = {float(x): 0}
    table = np.empty((4, 0))   # per state: f, climb probability, successors (-1: none)
    atoms, probs = np.zeros(1, dtype=np.intp), np.ones(1)
    for step in range(n + 1):
        new = list(index)[table.shape[1]:]   # the states first reached last step
        up = [index.setdefault(v + 1.0 if v >= 1.0 else contraction_map(v), len(index))
              for v in new]
        down = [index.setdefault(-v, len(index)) if v >= 1.0 else -1 for v in new]
        q = [climb_probability(v) if v >= 1.0 else 1.0 for v in new]
        table = np.concatenate([table, [list(map(f, new)), q, up, down]], axis=1)
        fv, q, up, down = table[:, atoms]
        yield probs, fv
        if step == n:
            return
        dest = np.column_stack([up, down]).ravel().astype(np.intp)
        w = np.column_stack([probs * q, probs * (1.0 - q)]).ravel()
        dest, w = dest[dest >= 0], w[dest >= 0]
        order = np.arange(dest.size)
        first = np.full(len(index), dest.size)
        np.minimum.at(first, dest, order)
        atoms = dest[first[dest] == order]
        probs = np.bincount(dest, weights=w)[atoms]


def exact_distribution(x: float, n: int) -> ChainDistribution:
    """Law of the chain after n steps from x, by forward propagation."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for probs, values in _sweep(x, n, float):
        pass
    order = np.argsort(values)
    return ChainDistribution(list(zip(values[order].tolist(), probs[order].tolist())))


def kernel_power_exact(x: float, n: int, f) -> float:
    """Exact E[f(X_n) | X_0 = x] from the full finite reachable tree."""
    if n > MAX_EXACT_DEPTH:
        raise ValueError(f"depth {n} exceeds the exact-tree limit {MAX_EXACT_DEPTH}")
    return exact_distribution(x, n).expectation(f)


def kernel_power_profile(x: float, n_max: int, f) -> np.ndarray:
    """E[f(X_n)] for n = 0..n_max in one sweep; f, a pure function of the
    state, is evaluated once per distinct state reached."""
    if not 0 <= n_max <= MAX_EXACT_DEPTH:
        raise ValueError(f"depth {n_max} outside the exact-tree range [0, {MAX_EXACT_DEPTH}]")
    return np.array([math.fsum((p * fv).tolist()) for p, fv in _sweep(x, n_max, f)])


def kernel_power_closed_form(x: float, n: int, f) -> float:
    """Ladder-sum closed form for E[f(X_n)] from x >= 1.

    sum_{k<n} f(C^{n-1-k}(-x-k)) exit[k] + stay[n] f(x+n), with C the
    deterministic contraction iterated as a plain real map.  Whenever a
    contraction iterate re-enters [1, inf) with steps still to go, this
    keeps iterating deterministically while the kernel would branch, so the
    two evaluators agree only while x + n - 1 < 5; compare with
    :func:`kernel_power_exact` to see where they part.
    """
    if x < 1.0:
        raise ValueError("closed form is defined for x >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    stay, exit_ = ladder_weights(x, n)
    total = 0.0
    for k in range(n):
        v = -x - float(k)
        for _ in range(n - 1 - k):
            v = contraction_map(v)
        total += f(v) * exit_[k]
    return math.fsum([total, stay[n] * f(x + float(n))])


def default_observable(x: float) -> float:
    """Bounded Lipschitz probe observable."""
    return math.tanh(x)
