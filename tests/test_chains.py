"""The chain table and its array consumers against the per-chain routes of
helpers.py: equal arrays, equal error text, equal regularity verdicts.  A
symmetric game's table is its one shared chain, so it is compared with the
one-row walk."""
import math
import sys

import numpy as np
import pytest

from choquet_dist import (ExponentialChoquetDist, RegularityError, SetFunction,
                          UniformChoquetDist, chain_table, make_game,
                          mixture_approx, provider_for)
from choquet_dist.exponential import C_DISTINCT_RTOL

from helpers import (dd_recurrence, game_kinds, table_walk, walk_exponential,
                     walk_is_regular, walk_mixture)


def _games(rng, sizes=range(1, 8)):
    for n in sizes:
        for kind, vals in game_kinds(n, rng).items():
            yield (n, kind), SetFunction(n, vals)


def _walk_uniform(g, ys):
    """pdf and unclamped cdf at each y: the reference recurrence on each
    sorted chain of the table, in plain floats, summed chain by chain; the
    pdf is n times the average, the cdf the average."""
    rows = [sorted(nu_chain.tolist()) for _, nu_chain in table_walk(g)]
    pdf, cdf = (np.array([sum(dd_recurrence(row, y, minus) for row in rows)
                          for y in np.asarray(ys).tolist()]) for minus in (False, True))
    return pdf / (len(rows) / g.n), cdf / len(rows)


def _exp_outcome(build, g):
    """(scales, weights) of a construction, or the text of its RegularityError."""
    try:
        return build(g)
    except RegularityError as exc:
        return str(exc)


def _table_exponential(g):
    d = ExponentialChoquetDist(g)
    return d.scales, d.weights


def _assert_same_exponential(g, tag=None):
    """The array construction against the chain-by-chain one: equal (scales,
    weights), or equal error text; and equal regularity verdicts."""
    new = _exp_outcome(_table_exponential, g)
    old = _exp_outcome(walk_exponential, g)
    if isinstance(old, str):
        assert new == old, tag
    else:
        assert not isinstance(new, str), (tag, new)
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1]), tag
    assert walk_is_regular(g) == (not isinstance(old, str)), tag
    return old


def test_chain_table_matches_walk(rng):
    for tag, g in _games(rng):
        sigmas, nu = chain_table(g)
        walk = table_walk(g)
        if tag[1] in ("symmetric", "zero"):
            assert len(walk) == 1, tag
        elif tag[1] != "tied":  # rounding can make a small tied game symmetric
            assert len(walk) == math.factorial(g.n), tag
        assert sigmas.dtype == np.int8 and sigmas.shape == (len(walk), g.n), tag
        assert np.array_equal(sigmas, [sigma for sigma, _ in walk]), tag
        assert np.array_equal(nu, [nu_chain for _, nu_chain in walk]), tag


def test_uniform_matches_walk(rng):
    for tag, g in _games(rng):
        d = UniformChoquetDist(g)
        lo, hi = d.support()
        ys = np.linspace(lo - 0.1, hi + 0.1, 23)
        if g.n < 7:  # a grid at n = 7 costs seconds per game: one scalar there
            pdf, cdf = _walk_uniform(g, ys)
            assert np.array_equal(d.pdf(ys), pdf), tag
            assert np.array_equal(d.cdf(ys), cdf), tag
        y = float(ys[9])
        (p,), (c,) = _walk_uniform(g, [y])
        assert type(d.pdf(y)) is float and d.pdf(y) == p and d.cdf(y) == c, tag


def test_exponential_matches_walk(rng):
    regular = 0
    ys = np.linspace(0.0, 4.0, 17)
    for tag, g in _games(rng):
        old = _assert_same_exponential(g, tag)
        if isinstance(old, str):
            continue
        regular += 1
        d = ExponentialChoquetDist(g)
        scales, weights = old
        pdf = np.exp(-np.divide.outer(ys, scales)) @ weights
        cdf = (1.0 - np.exp(-np.divide.outer(ys, scales))) @ (weights * scales)
        assert np.array_equal(d.pdf(ys), pdf) and np.array_equal(d.cdf(ys), cdf), tag
        y = 1.5
        assert d.pdf(y) == float(np.exp(-np.divide.outer(y, scales)) @ weights), tag
        assert d.cdf(y) == float((1.0 - np.exp(-np.divide.outer(y, scales)))
                                 @ (weights * scales)), tag
    assert regular >= 10


def test_mixture_matches_walk_under_every_law(rng):
    # the spacing contraction against the walk's reversed weight rows: other
    # arithmetic, so held to the tolerance of the per-call component oracle
    for tag, g in _games(rng):
        for law in ("uniform", "exponential", "normal"):
            stats = provider_for(law, g.n)
            mix = mixture_approx(g, stats)
            means, variances = walk_mixture(g, stats)
            scale = float(np.max(np.abs(variances + means**2), initial=0.0))
            np.testing.assert_allclose(mix.means, means, rtol=1e-12,
                                       atol=1e-12 * math.sqrt(scale), err_msg=str((tag, law)))
            np.testing.assert_allclose(mix.variances, variances, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=str((tag, law)))
            components = 1 if g.is_symmetric() else math.factorial(g.n)
            assert np.array_equal(mix.weights, np.full(components, 1.0 / components)), tag


def _chain_game(n, c, rng):
    """Random game whose identity chain has the scales c (nu(1..i) = i c_i)."""
    vals = rng.random(1 << n)
    vals[0] = 0.0
    vals[(1 << np.arange(1, n + 1)) - 1] = np.arange(1, n + 1) * np.asarray(c)
    return SetFunction(n, vals)


def test_regularity_error_text_matches_walk(rng):
    minimum = make_game(3, {s: float(len(s) == 3) for s in
                            [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
    proportional = make_game(2, {(1,): 0.2, (2,): 0.5, (1, 2): 1.0})
    # chain (1, 2, 3) is regular, chain (2, 1, 3) has nu({2}) = nu({1,2})/2
    later = make_game(3, {(1,): 0.1, (2,): 0.3, (3,): 0.2, (1, 2): 0.6, (1, 3): 0.8,
                          (2, 3): 0.7, (1, 2, 3): 1.0})
    # c_1 = c_4 and c_2 = c_3: the error names the lexicographically first pair
    two_pairs = _chain_game(4, [0.25, 0.2, 0.2, 0.25], rng)
    cases = {"minimum": (minimum, "sigma=(1, 2, 3): c_1 = 0 is not positive"),
             "proportional": (proportional, "sigma=(2, 1): c_1 and c_2 coincide at 0.5"),
             "later": (later, "sigma=(2, 1, 3): c_1 and c_2 coincide at 0.3"),
             "two pairs": (two_pairs, "sigma=(1, 2, 3, 4): c_1 and c_4 coincide at 0.25")}
    for name, (g, text) in cases.items():
        with pytest.raises(RegularityError, match=text.replace("(", r"\(").replace(")", r"\)")):
            ExponentialChoquetDist(g)
        assert isinstance(_assert_same_exponential(g, name), str)


@pytest.mark.parametrize("gap, regular", [(0.5, False), (2.0, True)])
def test_near_ties_at_non_adjacent_indices(gap, regular):
    # c_1 and c_3 differ by gap * C_DISTINCT_RTOL relative; the other chains
    # of this game are regular
    rng = np.random.default_rng(7)
    g = _chain_game(4, [0.3, 0.5, 0.3 * (1.0 + gap * C_DISTINCT_RTOL), 0.7], rng)
    outcome = _assert_same_exponential(g, gap)
    if regular:
        assert not isinstance(outcome, str)
    else:
        assert outcome.startswith("chain of sigma=(1, 2, 3, 4): c_1 and c_3 coincide at 0.3")


def test_no_per_chain_walk(monkeypatch, ref_capacity):
    """The array consumers never fall back to Chain objects."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-chain walk used")

    for name, mod in list(sys.modules.items()):
        if name == "choquet_dist" or name.startswith("choquet_dist."):
            for attr in ("enumerate_chains", "Chain"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    for g in (ref_capacity, make_game(2, {(1,): 0.2, (2,): 0.5, (1, 2): 1.0})):
        UniformChoquetDist(g).pdf(np.linspace(0.0, 1.0, 5))
        mixture_approx(g, provider_for("uniform", g.n))
    ExponentialChoquetDist(ref_capacity).pdf(1.0)
    with pytest.raises(RegularityError):
        ExponentialChoquetDist(make_game(2, {(1,): 0.2, (2,): 0.5, (1, 2): 1.0}))
    mixture_approx(make_game(2, {(1,): 0.5, (2,): 0.5, (1, 2): 1.0}),
                   provider_for("normal", 2))


def test_uniform_law_makes_no_per_row_calls(monkeypatch, ref_capacity):
    """The uniform pdf and cdf sum the whole chain table in one kernel call,
    never through the one-row divided differences."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-row divided difference used")

    for name, mod in list(sys.modules.items()):
        if name == "choquet_dist" or name.startswith("choquet_dist."):
            for attr in ("tp_plus_dd", "tp_minus_dd"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    d = UniformChoquetDist(ref_capacity)
    for y in (0.4, np.linspace(0.0, 1.0, 5)):
        d.pdf(y)
        d.cdf(y)
