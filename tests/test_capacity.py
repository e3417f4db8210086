import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_dist import (CapacityFormatError, chain_for, check_capacity,
                          choquet, choquet_values, enumerate_chains, make_game,
                          orness, random_capacity)
from choquet_dist.capacity import game_from_dict, game_to_dict, n_max

from helpers import brute_choquet, brute_random_capacity
from conftest import REF_VALUES


def test_make_game_smallest():
    g = make_game(1, {(1,): 1.0})
    assert list(g.values) == [0.0, 1.0]


def test_make_game_reference(ref_capacity):
    assert ref_capacity.values.shape == (8,)
    assert ref_capacity.value_of([1, 3]) == 0.8
    assert ref_capacity[0b111] == 1.0


def test_make_game_missing_subset():
    with pytest.raises(CapacityFormatError, match="missing"):
        make_game(2, {(1,): 0.3, (2,): 0.4})
    with pytest.raises(CapacityFormatError, match="missing"):
        make_game(40, {})  # refused before 2^40 values are allocated


def test_make_game_rejects_nonzero_empty():
    with pytest.raises(CapacityFormatError, match="empty set"):
        make_game(1, {(): 0.2, (1,): 1.0})


def test_make_game_n_out_of_range():
    with pytest.raises(CapacityFormatError):
        make_game(n_max() + 1, {})


def test_check_capacity_reference(ref_capacity):
    chk = check_capacity(ref_capacity)
    assert chk.is_monotone and chk.is_normalized and chk.violating_pair is None


def test_check_capacity_violation():
    g = make_game(2, {(1,): 0.5, (2,): 0.1, (1, 2): 0.3})
    chk = check_capacity(g)
    assert not chk.is_monotone
    s, t = chk.violating_pair
    assert set(s) < set(t)
    assert g.value_of(s) > g.value_of(t)


def test_check_capacity_reports_first_violation():
    # violations at {1} (adding 3 or 4) and at {2} (adding 1 or 3): the
    # smallest lower mask wins, then the lowest added attribute
    vals = {s: len(s) / 4 for s in _all_nonempty(4)}
    vals.update({(1,): 0.6, (1, 2): 0.7, (1, 3): 0.4, (1, 4): 0.3, (2,): 0.8})
    chk = check_capacity(make_game(4, vals))
    assert not chk.is_monotone and chk.is_normalized
    assert chk.violating_pair == ((1,), (1, 3))


def test_check_capacity_additive_uniform():
    g = make_game(3, {s: len(s) / 3 for s in
                      [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
    chk = check_capacity(g)
    assert chk.is_monotone and chk.is_normalized


def test_chain_for_reference(ref_capacity):
    ch = chain_for(ref_capacity, (3, 1, 2))
    assert np.allclose(ch.nu_chain, [0.0, 0.55, 0.8, 1.0])
    assert np.allclose(ch.weights, [0.55, 0.25, 0.2])


def test_chain_for_n1():
    g = make_game(1, {(1,): 0.7})
    ch = chain_for(g, (1,))
    assert np.allclose(ch.weights, [0.7])


def test_chain_symmetric_capacity_weights():
    g = make_game(3, {s: len(s) / 3 for s in
                      [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
    for ch in enumerate_chains(g):
        assert np.allclose(ch.weights, [1 / 3] * 3)


def test_chain_invalid_permutation(ref_capacity):
    with pytest.raises(ValueError, match="permutation"):
        chain_for(ref_capacity, (1, 1, 2))


def test_enumerate_chains_counts(ref_capacity):
    g2 = make_game(2, {(1,): 0.4, (2,): 0.5, (1, 2): 1.0})
    assert len(list(enumerate_chains(g2))) == 2
    chs = list(enumerate_chains(ref_capacity))
    assert len(chs) == 6
    for ch in chs:
        assert ch.nu_chain[3] == 1.0
        assert abs(ch.weights.sum() - 1.0) < 1e-15


def test_choquet_constant_vector(ref_capacity):
    assert choquet(ref_capacity, [0.3, 0.3, 0.3]) == pytest.approx(0.3)


def test_choquet_max_capacity():
    vals = {s: 1.0 for s in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]}
    g = make_game(3, vals)
    x = [0.2, 0.9, 0.4]
    assert choquet(g, x) == pytest.approx(0.9)


def test_choquet_matches_brute_force(ref_capacity, rng):
    by_subset = {frozenset(k): v for k, v in REF_VALUES.items()}
    by_subset[frozenset()] = 0.0
    assert choquet(ref_capacity, [0.2, 0.9, 0.4]) == pytest.approx(
        brute_choquet(by_subset, [0.2, 0.9, 0.4]))
    for _ in range(50):
        x = rng.normal(size=3)
        assert choquet(ref_capacity, x) == pytest.approx(
            brute_choquet(by_subset, x), abs=1e-12)


def test_choquet_values_vectorized(ref_capacity, rng):
    X = rng.normal(size=(200, 3))
    vec = choquet_values(ref_capacity, X)
    assert vec.shape == (200,)
    for row, v in zip(X, vec):
        assert v == pytest.approx(choquet(ref_capacity, row), abs=1e-12)


def test_choquet_length_mismatch(ref_capacity):
    with pytest.raises(ValueError):
        choquet(ref_capacity, [0.1, 0.2])


def test_choquet_tie_handling(ref_capacity):
    # every admissible descending ordering of a tied vector gives one value
    import itertools
    x = np.array([0.4, 0.4, 0.1])
    vals = []
    for sig in itertools.permutations((1, 2, 3)):
        xs = x[[s - 1 for s in sig]]
        if all(xs[i] >= xs[i + 1] for i in range(2)):
            ch = chain_for(ref_capacity, sig)
            vals.append(float(np.dot(ch.weights, xs)))
    assert len(vals) >= 2
    assert np.allclose(vals, choquet(ref_capacity, x))


def test_orness_reference(ref_capacity):
    assert orness(ref_capacity) == pytest.approx(0.49, abs=0.005)


def test_orness_symmetric_additive():
    g = make_game(4, {s: len(s) / 4 for s in _all_nonempty(4)})
    assert orness(g) == pytest.approx(0.5, abs=1e-12)


def test_orness_max_capacity():
    g = make_game(3, {s: 1.0 for s in _all_nonempty(3)})
    assert orness(g) == pytest.approx(1.0, abs=1e-12)


def test_orness_rejects_n1():
    g = make_game(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        orness(g)


def test_orness_rejects_non_capacity():
    g = make_game(2, {(1,): 0.5, (2,): 0.6, (1, 2): 0.4})
    with pytest.raises(ValueError, match="monotonicity"):
        orness(g)


def _all_nonempty(n):
    out = []
    for m in range(1, 1 << n):
        out.append(tuple(i + 1 for i in range(n) if m >> i & 1))
    return out


# ---- invariants ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
def test_weights_telescope_and_bounds(seed, n):
    rng = np.random.default_rng(seed)
    g = random_capacity(n, rng)
    x = rng.normal(size=n)
    for ch in enumerate_chains(g):
        assert abs(ch.weights.sum() - g[g.full_mask]) < 1e-12
        assert ch.nu_chain[0] == 0.0
    v = choquet(g, x)
    assert x.min() - 1e-12 <= v <= x.max() + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-2, 2))
def test_choquet_translation_covariance(seed, c):
    rng = np.random.default_rng(seed)
    g = random_capacity(3, rng)
    x = rng.normal(size=3)
    lhs = choquet(g, x + c)
    rhs = choquet(g, x) + c * g[g.full_mask]
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_choquet_monotone_in_coordinates(seed):
    rng = np.random.default_rng(seed)
    g = random_capacity(3, rng)
    x = rng.normal(size=3)
    base = choquet(g, x)
    i = rng.integers(0, 3)
    bumped = x.copy()
    bumped[i] += abs(rng.normal())
    assert choquet(g, bumped) >= base - 1e-12


def test_random_capacity_is_capacity(rng):
    for n in (2, 3, 5):
        chk = check_capacity(random_capacity(n, rng))
        assert chk.is_monotone and chk.is_normalized


def test_random_capacity_matches_running_max_oracle():
    for n in range(1, 11):
        g = random_capacity(n, np.random.default_rng(n))
        raw = np.random.default_rng(n).random(1 << n)
        assert np.array_equal(g.values, brute_random_capacity(raw))


def test_nmax_env_override(monkeypatch):
    monkeypatch.setenv("CHOQUET_NMAX", "3")
    assert n_max() == 3
    g = make_game(4, {s: 1.0 for s in _all_nonempty(4)})  # building never enumerates
    with pytest.raises(ValueError, match="CHOQUET_NMAX"):
        next(enumerate_chains(g))


def test_enumerate_chains_respects_cap():
    from choquet_dist import power_weight_game
    g = power_weight_game(12, 2.0)  # constructible, but 12! chains are not
    with pytest.raises(ValueError, match="CHOQUET_NMAX"):
        next(enumerate_chains(g))


def test_json_round_trip(ref_capacity):
    doc = game_to_dict(ref_capacity)
    assert doc["values"]["1,3"] == 0.8
    g2 = game_from_dict(doc)
    assert np.array_equal(g2.values, ref_capacity.values)
