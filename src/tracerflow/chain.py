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

import itertools
import math

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
        np.clip(s, 1.0, 1e150, out=up)  # 1 off the ladder (masked below); exp(-1/x^2) is 1.0 past the cap
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


def mc_power_profile(x0: float, n_max: int, n_paths: int, seed):
    """Monte-Carlo E[default_observable(X_n)] and its standard error for
    n = 0..n_max, from one sweep of n_paths vectorized paths."""
    # np.tanh is default_observable vectorized; the exact tree calls math.tanh
    # per state, whose bits np.tanh need not reproduce.
    vals = np.tanh(np.full(n_paths, float(x0)))
    mean, stderr = np.empty((2, n_max + 1))
    mean[0], stderr[0] = vals.mean(), 0.0
    for n, (states, _) in enumerate(_paths(x0, n_max, n_paths, seed), 1):
        mean[n] = np.tanh(states, out=vals).mean()   # std(ddof=1) reuses it
        ss = np.square(np.subtract(vals, mean[n], out=vals), out=vals).sum()
        stderr[n] = np.sqrt(ss / (n_paths - 1)) / math.sqrt(n_paths)
    return mean, stderr


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
    with np.errstate(over="ignore"):   # a square past the float range gives inv_sq = 0
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


def _sweep(x: float, n: int, f):
    """Yield (probabilities, f at the atoms) of the law after 0..n steps from x.

    States are numbered as a dict's setdefault numbers them: each step, the
    up-successors of the states first reached, then their down-successors, a
    repeat keeping its first place.  Arrays indexed by id hold f and the climb
    probability (rows of fq) and the successor id pairs (-1: none); keys and
    ids hold the values sorted, with their ids, and == on them is dict key
    equality here, as the contraction yields only +0.0 and -v is never zero.
    Successors come from one vectorised pass of contraction_map, v + 1.0 and -v.
    f and the climb probability are called once per state in Python, so their
    bits are the scalar code's (np.exp need not round as math.exp does).
    Atoms keep first-reached order and merged masses are summed in that order:
    the float contraction is not injective and the sum order shows in the bits."""
    keys, ids = np.array([float(x)]), np.zeros(1, dtype=np.intp)
    new = keys   # values of the states first reached last step, in id order
    fq, succ = np.empty((2, 0)), np.empty((0, 2), dtype=np.intp)
    atoms, probs = np.zeros(1, dtype=np.intp), np.ones(1)
    for step in range(n + 1):
        vs = new.tolist()
        q = [climb_probability(v) if v >= 1.0 else 1.0 for v in vs]
        fq = np.concatenate([fq, [list(map(f, vs)), q]], axis=1)
        if step < n:
            ladder = new >= 1.0
            s = np.concatenate([np.where(ladder, new + 1.0, contraction_map(new)), -new[ladder]])
            at = np.minimum(np.searchsorted(keys, s), keys.size - 1)
            known = keys[at] == s
            fresh, first, inv = np.unique(s[~known], return_index=True, return_inverse=True)
            order = np.argsort(first)   # fresh values in first-occurrence order
            rank = keys.size + np.argsort(order)   # and their ids
            sid = ids[at]
            sid[~known] = rank[inv]
            down = np.full(new.size, -1)
            down[ladder] = sid[new.size:]
            succ = np.concatenate([succ, np.column_stack([sid[:new.size], down])])
            at = np.searchsorted(keys, fresh)
            keys, ids, new = np.insert(keys, at, fresh), np.insert(ids, at, rank), fresh[order]
        yield probs, fq[0, atoms]
        if step == n:
            return
        atoms, probs = _merge(succ[atoms].ravel(), fq[1, atoms], probs, keys.size)


def _merge(dest, q, probs, n_states):
    """Atoms and masses one step on from masses probs at states with successor
    id pairs dest (flattened) and climb probabilities q.  Its temporaries are
    freed on return, before the sweep's next yield."""
    keep = dest >= 0
    dest = dest[keep]
    mass = np.bincount(dest, weights=np.column_stack([probs * q, probs * (1.0 - q)])
                       .ravel()[keep])
    first = np.full(n_states, dest.size)
    np.minimum.at(first, dest, np.arange(dest.size))
    atoms = dest[first[dest] == np.arange(dest.size)]
    return atoms, mass[atoms]


def exact_distribution(x: float, n: int) -> list:
    """Law of the chain after n steps from x, by forward propagation: the
    atoms as [(value, probability)], sorted by value."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for probs, values in _sweep(x, n, float):
        pass
    order = np.argsort(values)
    return list(zip(values[order].tolist(), probs[order].tolist()))


def kernel_power_profile(x: float, n_max: int, f) -> np.ndarray:
    """E[f(X_n)] for n = 0..n_max in one sweep; f, a pure function of the
    state, is evaluated once per distinct state reached."""
    if not 0 <= n_max <= MAX_EXACT_DEPTH:
        raise ValueError(f"depth {n_max} outside the exact-tree range [0, {MAX_EXACT_DEPTH}]")
    # math.fsum takes the terms as Python floats, one block of atoms at a time
    return np.array([math.fsum(itertools.chain.from_iterable(
        (p[i:i + 4096] * fv[i:i + 4096]).tolist() for i in range(0, p.size, 4096)))
        for p, fv in _sweep(x, n_max, f)])


def kernel_power_closed_form(x: float, n: int, f) -> float:
    """Ladder-sum closed form for E[f(X_n)] from x >= 1.

    sum_{k<n} f(C^{n-1-k}(-x-k)) exit[k] + stay[n] f(x+n), with C the
    deterministic contraction iterated as a plain real map.  Whenever a
    contraction iterate re-enters [1, inf) with steps still to go, this
    keeps iterating deterministically while the kernel would branch, so the
    two evaluators agree only while x + n - 1 < 5; compare with
    :func:`kernel_power_profile` to see where they part.
    """
    if x < 1.0:
        raise ValueError("closed form is defined for x >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    stay, exit_ = ladder_weights(x, n)
    v = -x - np.arange(n, dtype=float)   # v[k]: the fall at step k+1, contracted
    for m in range(n - 1, 0, -1):        # v[k] is contracted n-1-k times, in place
        head = v[:m]
        head += 1.0
        head /= -2.0                     # -(v + 1.0) / 2.0 bit for bit
        head -= 1.0
    total = 0.0
    for vk, ek in zip(v.tolist(), exit_.tolist()):
        total += f(vk) * ek
    return math.fsum([total, stay[n] * f(x + float(n))])


def default_observable(x: float) -> float:
    """Bounded Lipschitz probe observable."""
    return math.tanh(x)
