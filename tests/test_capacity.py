import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_dist import (CapacityFormatError, SetFunction, chain_table,
                          check_capacity, choquet, choquet_values, enumerate_chains,
                          load_capacity, make_game, orness, power_weight_game,
                          random_capacity, save_capacity)
from choquet_dist.capacity import game_from_dict, game_to_dict

from helpers import brute_choquet, brute_random_capacity, chain_walk, game_kinds
from conftest import DUPLICATE_SUBSET_JSON, REF_VALUES


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
    with pytest.raises(CapacityFormatError, match=r"missing subsets: \[\(2,\)\]$"):
        make_game(2, {(): 0.0, (1,): 0.3, (1, 2): 1.0})  # enough keys, one is the empty set
    with pytest.raises(CapacityFormatError, match="missing"):
        make_game(40, {})  # refused before 2^40 values are allocated


def test_make_game_rejects_nonzero_empty():
    with pytest.raises(CapacityFormatError, match="empty set"):
        make_game(1, {(): 0.2, (1,): 1.0})


def test_make_game_n_out_of_range():
    for n in (0, -1, 1.5, True):
        with pytest.raises(CapacityFormatError, match="positive integer"):
            make_game(n, {(1,): 1.0})


def test_make_game_accepts_numpy_numbers():
    g = make_game(2, {(1,): np.float64(0.25), (2,): np.float32(0.5),
                      (np.int64(1), np.int8(2)): np.int64(1)})
    assert list(g.values) == [0.0, 0.25, 0.5, 1.0]


@pytest.mark.parametrize("n, key, replaces, message", [
    (2, (1.5,), (1,), "1.5 is not an index in 1..2"),
    (2, (True,), (1,), "True is not an index in 1..2"),
    (2, (1, 1), (1,), "gives index 1 twice"),
    (2, "1,2", (1, 2), "must be an iterable of indices"),
    (12, "12", (1, 2), "must be an iterable of indices"),
    (2, 1, (1,), "must be an iterable of indices"),
], ids=["float", "bool", "repeated", "string", "digits", "bare-int"])
def test_make_game_refuses_a_key_it_would_misread(n, key, replaces, message):
    # the bad key stands in for one subset, so every other subset is given once
    vals = {key: 0.5}
    for m in range(1, 1 << n):
        subset = tuple(i + 1 for i in range(n) if m >> i & 1)
        if subset != replaces:
            vals[subset] = 0.5
    with pytest.raises(CapacityFormatError, match=message):
        make_game(n, vals)


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


def test_chain_table_reference_row(ref_capacity):
    sigmas, nu = chain_table(ref_capacity)
    (k,) = np.flatnonzero(np.all(sigmas == (3, 1, 2), axis=1))
    assert np.allclose(nu[k], [0.0, 0.55, 0.8, 1.0])
    assert np.allclose(np.diff(nu[k]), [0.55, 0.25, 0.2])


def test_chain_table_n1():
    sigmas, nu = chain_table(make_game(1, {(1,): 0.7}))
    assert sigmas.tolist() == [[1]]
    assert np.allclose(np.diff(nu, axis=1), [[0.7]])


def test_chain_symmetric_capacity_weights():
    g = make_game(3, {s: len(s) / 3 for s in
                      [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
    for ch in enumerate_chains(g):
        assert np.allclose(ch.weights, [1 / 3] * 3)


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
    by_subset = {frozenset(k): v for k, v in REF_VALUES.items()}
    by_subset[frozenset()] = 0.0
    X = rng.normal(size=(200, 3))
    vec = choquet_values(ref_capacity, X)
    assert vec.shape == (200,)
    for row, v in zip(X, vec):
        assert v == pytest.approx(brute_choquet(by_subset, row), abs=1e-12)


def test_choquet_length_mismatch(ref_capacity):
    with pytest.raises(ValueError):
        choquet(ref_capacity, [0.1, 0.2])


def test_choquet_tie_handling(ref_capacity):
    # every admissible descending ordering of a tied vector gives one value
    x = np.array([0.4, 0.4, 0.1])
    vals = []
    for sig, nu_chain in chain_walk(ref_capacity):
        xs = x[[s - 1 for s in sig]]
        if all(xs[i] >= xs[i + 1] for i in range(2)):
            vals.append(float(np.dot(np.diff(nu_chain), xs)))
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


def test_enumerate_chains_respects_cap():
    g = random_capacity(11, np.random.default_rng(11))  # constructible, but 11! chains are not
    with pytest.raises(ValueError, match="n! = 39,916,800 chains, above the enumeration cap"):
        next(enumerate_chains(g))


@pytest.mark.parametrize("needle, allowed", [
    ("os.environ", set()), ("getenv", set()), ("permutations(", {"capacity.py"})])
def test_library_source_guard(needle, allowed):
    """No module reads the environment, so results depend on the arguments
    alone; only the chain table enumerates permutations."""
    src = Path(__file__).resolve().parents[1] / "src" / "choquet_dist"
    found = {p.name for p in src.glob("*.py") if needle in p.read_text(encoding="utf-8")}
    assert found == allowed


def _levels_constant(vals, n):
    """nu(T) depends on |T| only, checked level by level."""
    sizes = [bin(m).count("1") for m in range(1 << n)]
    return all(len({v for v, s in zip(vals.tolist(), sizes) if s == t}) == 1
               for t in range(n + 1))


def test_is_symmetric_matches_per_level_check(rng):
    for n in range(1, 9):
        for kind, vals in game_kinds(n, rng).items():
            assert SetFunction(n, vals).is_symmetric() == _levels_constant(vals, n), (n, kind)
        if n > 1:  # one value moved by one ulp, at a middle mask and at level n-1
            for mask in ((1 << n) // 3, (1 << n) - 2):
                bumped = game_kinds(n, rng)["symmetric"]
                bumped[mask] = np.nextafter(bumped[mask], 2.0)
                assert not SetFunction(n, bumped).is_symmetric(), (n, mask)


def test_symmetric_chain_table_is_one_row():
    for n, a in ((1, 2.0), (12, 2.0), (20, 0.5), (24, 1.0)):
        g = power_weight_game(n, a)
        sigmas, nu = chain_table(g)
        assert sigmas.tolist() == [list(range(1, n + 1))]
        assert nu.tolist() == [[g.values[(1 << i) - 1] for i in range(n + 1)]]
        assert len(list(enumerate_chains(g))) == 1


def test_json_round_trip(ref_capacity):
    doc = game_to_dict(ref_capacity)
    assert doc["values"]["1,3"] == 0.8
    g2 = game_from_dict(doc)
    assert np.array_equal(g2.values, ref_capacity.values)


def test_file_round_trip_n16(tmp_path):
    g = random_capacity(16, np.random.default_rng(16))
    path = tmp_path / "n16.json"
    save_capacity(g, path)
    assert np.array_equal(load_capacity(path).values, g.values)


@pytest.mark.parametrize("form", sorted(DUPLICATE_SUBSET_JSON))
def test_load_capacity_refuses_a_subset_given_twice(tmp_path, form):
    path = tmp_path / "twice.json"
    path.write_text(DUPLICATE_SUBSET_JSON[form], encoding="utf-8")
    with pytest.raises(CapacityFormatError, match="twice"):
        load_capacity(path)


@pytest.mark.parametrize("text", ["5", "null", '["n", "values"]', '"n values"'])
def test_load_capacity_refuses_a_document_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(CapacityFormatError, match="must be an object"):
        load_capacity(path)


def test_game_from_dict_refuses_non_string_keys():
    for key in (1, (1,), None):
        with pytest.raises(CapacityFormatError, match="must be a string"):
            game_from_dict({"n": 1, "values": {key: 0.5}})


def test_load_capacity_key_errors(tmp_path):
    path = tmp_path / "bad.json"
    for key, message in (("1;2", "bad subset key"), ("2,1", "ascending"),
                         ("1,1", "ascending"), ("0", "outside"), ("1,3", "outside")):
        doc = {"n": 2, "values": {key: 0.5, "1": 0.5, "2": 0.5, "1,2": 1.0}}
        path.write_text(json.dumps(doc))
        with pytest.raises(CapacityFormatError, match=message):
            load_capacity(path)
