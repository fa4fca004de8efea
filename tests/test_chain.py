import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import polygamma

from tracerflow import cli
from tracerflow._util import derive_seed
from tracerflow.chain import MAX_EXACT_DEPTH, _sweep
from tracerflow import (climb_probability, contraction_map, exact_distribution,
                        kernel_power_closed_form, kernel_power_profile,
                        ladder_survival_limit, ladder_weights, simulate_paths)

F = math.tanh


def test_contraction_map_values():
    assert contraction_map(-1.0) == -1.0   # fixed point
    assert contraction_map(1.0) == -2.0
    assert contraction_map(-5.0) == 1.0
    assert contraction_map(-3.0) == 0.0    # lands in the omitted gap


def test_branch_frequency_matches_climb_probability():
    finals, _, _ = simulate_paths(2.0, 1, 100_000, seed=2)
    frac_up = float((finals == 3.0).mean())
    p = climb_probability(2.0)   # exp(-1/4)
    assert p == pytest.approx(math.exp(-0.25), abs=0)
    sigma = math.sqrt(p * (1 - p) / 100_000)
    assert abs(frac_up - p) < 3 * sigma

    # the share of paths that never fell from 2 in 100 steps is the ladder
    # survival weight, which sits just above its limit
    _, fell, _ = simulate_paths(2.0, 100, 100_000, seed=7)
    stay = ladder_weights(2.0, 100)[0][100]
    never_fell_se = math.sqrt(stay * (1 - stay) / 100_000)
    assert abs(float((~fell).mean()) - stay) < 3 * never_fell_se
    assert 0.0 < stay - ladder_survival_limit(2.0) < 0.01


# ---------------------------------------------------------------- weights

def test_ladder_weight_values():
    stay, exit_ = ladder_weights(1.0, 10)
    assert stay[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert stay[2] == pytest.approx(math.exp(-1.25), rel=1e-15)
    assert exit_[0] == pytest.approx(1 - math.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
def test_ladder_weights_telescope(x):
    stay, exit_ = ladder_weights(x, 60)
    for n in range(61):
        assert abs(exit_[:n].sum() + stay[n] - 1.0) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1.5e154, 1e200])
def test_huge_start_climbs_surely_without_numpy_warnings(x):
    # (x + j)^2 overflows; exp(-1/x^2) is exactly 1.0 either way
    stay, exit_ = ladder_weights(x, 5)
    assert stay.tolist() == [1.0] * 6 and exit_.tolist() == [0.0] * 5
    final, ever_fell, _ = simulate_paths(x, 5, 100, seed=3)
    assert not ever_fell.any()
    with np.errstate(over="ignore"):
        want = _where_paths(x, 5, 100, seed=3)[0]
    assert final.tobytes() == want.tobytes()


def test_survival_limit_closed_values():
    assert ladder_survival_limit(1.0) == pytest.approx(math.exp(-math.pi ** 2 / 6),
                                                       abs=1e-12)
    assert ladder_survival_limit(2.0) == pytest.approx(
        math.exp(-(math.pi ** 2 / 6 - 1.0)), abs=1e-12)


@pytest.mark.parametrize("x", [1.0, 1.3, 2.0, 5.5, 40.0])
def test_survival_limit_matches_trigamma_oracle(x):
    oracle = math.exp(-float(polygamma(1, x)))
    assert abs(ladder_survival_limit(x) - oracle) < 1e-12


def test_survival_limit_monotone_in_start():
    xs = [1.0, 1.2, 1.7, 2.5, 4.0]
    vals = [ladder_survival_limit(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- powers

def test_power_zero_steps_is_identity():
    assert kernel_power_profile(1.3, 0, F)[0] == F(1.3)


def test_power_one_step_hand_formula():
    expect = (1 - math.exp(-1)) * F(-1.0) + math.exp(-1) * F(2.0)
    assert kernel_power_profile(1.0, 1, F)[1] == pytest.approx(expect, abs=1e-16)


def test_power_two_steps_hand_formula():
    expect = ((1 - math.exp(-1)) * F(-1.0)
              + math.exp(-1) * (1 - math.exp(-0.25)) * F(-2.0)
              + math.exp(-1.25) * F(3.0))
    assert kernel_power_profile(1.0, 2, F)[2] == pytest.approx(expect, abs=1e-15)


def test_power_depth_cap():
    for n_max in (-1, 61):
        with pytest.raises(ValueError):
            kernel_power_profile(1.0, n_max, F)


@pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 3.9])
def test_closed_form_matches_tree_before_reentry(x):
    n = 1
    while x + n - 1 < 5:
        closed = kernel_power_closed_form(x, n, F)
        exact = kernel_power_profile(x, n, F)[n]
        assert abs(closed - exact) <= 1e-14
        n += 1


def test_closed_form_departs_after_reentry():
    # from 1 the fall at height 5 re-enters the ladder two steps before the
    # horizon at n = 7; the closed form keeps iterating deterministically
    closed = kernel_power_closed_form(1.0, 7, F)
    exact = kernel_power_profile(1.0, 7, F)[7]
    assert abs(closed - exact) > 1e-3


def test_distribution_probabilities_normalized():
    dist = exact_distribution(1.0, 40)
    assert abs(sum(p for _, p in dist) - 1.0) < 1e-12
    assert min(p for _, p in dist) >= 0.0


def test_never_jumped_atom_mass_is_ladder_weight():
    stay, _ = ladder_weights(1.0, 5)
    dist = exact_distribution(1.0, 5)
    mass = dict(dist).get(6.0, 0.0)
    assert abs(mass - stay[5]) <= 1e-14


def test_monte_carlo_agrees_with_tree():
    n, paths = 20, 100_000
    finals, _, _ = simulate_paths(1.0, n, paths, seed=3)
    vals = np.tanh(finals)
    exact = kernel_power_profile(1.0, n, F)[n]
    se = vals.std(ddof=1) / math.sqrt(paths)
    assert abs(vals.mean() - exact) < 3 * se


# ---------------------------------------------------------------- oracles
# Inline copies of the plain dict forward push and the np.where Monte-Carlo
# loop that the memoised sweep and the buffered step replace; the fast paths
# must reproduce them byte for byte.

def _dict_advance(atoms):
    new = {}
    for v, p in atoms.items():
        if v >= 1.0:
            q = climb_probability(v)
            new[v + 1.0] = new.get(v + 1.0, 0.0) + p * q
            new[-v] = new.get(-v, 0.0) + p * (1.0 - q)
        else:
            w = contraction_map(v)
            new[w] = new.get(w, 0.0) + p
    return new


def _where_paths(x, n_steps, n_paths, seed):
    rng = np.random.default_rng(seed)
    states = np.full(n_paths, float(x))
    ever_fell = np.zeros(n_paths, dtype=bool)
    visited_gap = np.abs(states) < 1.0
    mean, se = [float(np.tanh(states).mean())], [0.0]
    for _ in range(n_steps):
        on_ladder = states >= 1.0
        u = rng.random(n_paths)
        climb = u < np.exp(-1.0 / np.where(on_ladder, states, 1.0) ** 2)
        ever_fell |= on_ladder & ~climb
        states = np.where(on_ladder, np.where(climb, states + 1.0, -states),
                          -(states + 1.0) / 2.0 - 1.0)
        visited_gap |= np.abs(states) < 1.0
        vals = np.tanh(states)
        mean.append(float(vals.mean()))
        se.append(float(vals.std(ddof=1) / math.sqrt(n_paths)))
    return states, ever_fell, visited_gap, mean, se


# 1.2345 and 7.0 each reach a step where two states first reached share a
# successor not known before, which the sweep must number once
@pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 1.2345, -3.0, 0.5, 7.0])
def test_sweep_is_the_dict_push_byte_for_byte(x):
    atoms = {x: 1.0}
    profile = [F(x)]
    for n, (probs, values) in enumerate(_sweep(x, MAX_EXACT_DEPTH, float)):
        if n:
            atoms = _dict_advance(atoms)
            profile.append(math.fsum(p * F(v) for v, p in atoms.items()))
        # the same law to the last bit (the contraction merges three or more
        # contributions into one state, so the summation order shows), then
        # the same atom order
        assert dict(zip(values.tolist(), probs.tolist())) == atoms, n
        assert values.tolist() == list(atoms), n
    got = kernel_power_profile(x, MAX_EXACT_DEPTH, F)
    assert got.tobytes() == np.array(profile).tobytes()
    assert exact_distribution(x, MAX_EXACT_DEPTH) == sorted(atoms.items())


def test_profile_calls_f_once_per_distinct_state():
    calls = []

    def f(v):
        calls.append(v)
        return F(v)

    kernel_power_profile(1.5, 30, f)
    atoms, reached = {1.5: 1.0}, {1.5}
    for _ in range(30):
        atoms = _dict_advance(atoms)
        reached |= set(atoms)
    assert sorted(calls) == sorted(reached)
    # in the order a dict's setdefault numbers the states: step by step, the
    # up-successors of the states first reached, then their down-successors
    index, new = {1.5: None}, [1.5]
    for _ in range(30):
        size = len(index)
        for v in new:
            index.setdefault(v + 1.0 if v >= 1.0 else contraction_map(v))
        for v in new:
            if v >= 1.0:
                index.setdefault(-v)
        new = list(index)[size:]
    assert calls == list(index)


def test_profile_traced_peak_is_bounded():
    # 34k states at x = 1.5: a dict of Python floats with one tolist() of all
    # atoms per step peaked at 8.7 MB in this test, the flat state arrays at 4.3 MB
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kernel_power_profile(1.5, MAX_EXACT_DEPTH, F)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, peak


@pytest.mark.parametrize("x", [1.0, 1.5, 2.0, -3.0, 0.5, 1.2345])
def test_simulate_paths_is_the_where_loop_byte_for_byte(x):
    want = _where_paths(x, 40, 5000, seed=17)[:3]
    got = simulate_paths(x, 40, 5000, seed=17)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    if x == -3.0:   # the contraction sends -3 to the exact 0.0 state
        assert simulate_paths(x, 1, 10, seed=17)[0].tobytes() == np.zeros(10).tobytes()


def test_chain_cli_mc_columns_are_the_where_loop(tmp_path):
    xs, n_max, paths, seed = [1.0, 1.5, 2.0, -3.0, 0.5, 1.2345], 25, 3000, 31
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed, "probe": {
        "chain_x": xs, "chain_n_max": n_max, "mc_paths": paths}}))
    out = tmp_path / "chain.csv"
    assert cli.main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    want = []
    for xi, x in enumerate(xs):
        _, _, _, mean, se = _where_paths(x, n_max, paths, derive_seed(seed, 200 + xi))
        want += [[repr(mean[n]), repr(se[n])] for n in range(1, n_max + 1)]
    assert [r[4:6] for r in rows] == want
