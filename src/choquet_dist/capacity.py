"""Games, capacities, and the discrete Choquet integral on a finite set.

A *game* on N = {1, ..., n} is a set function nu with nu(emptyset) = 0, stored
here as a flat array of 2**n values indexed by subset bitmask (attribute i
corresponds to bit i-1).  A *capacity* is a game that is monotone with respect
to set inclusion and normalized so that nu(N) = 1.

The Choquet integral of x in R^n with respect to nu sorts the coordinates in
descending order, x_{sigma(1)} >= ... >= x_{sigma(n)}, and returns
sum_i p_i x_{sigma(i)} with weights p_i = nu({sigma(1..i)}) - nu({sigma(1..i-1)}).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Mapping

import numpy as np

DEFAULT_N_MAX = 10
NORMALIZATION_TOL = 1e-12
MONOTONICITY_SLACK = 1e-12


class CapacityFormatError(ValueError):
    """A game/capacity specification is malformed or incomplete."""


def n_max() -> int:
    """Largest n whose n! chains :func:`enumerate_chains` will walk (default
    10); override with CHOQUET_NMAX.  Nothing else is bounded by it."""
    env = os.environ.get("CHOQUET_NMAX")
    return int(env) if env else DEFAULT_N_MAX


def mask_of(subset: Iterable[int], n: int) -> int:
    m = 0
    for i in subset:
        if not 1 <= int(i) <= n:
            raise CapacityFormatError(f"attribute {i} outside 1..{n}")
        m |= 1 << (int(i) - 1)
    return m


def subset_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SetFunction:
    """A game nu on {1..n}; ``values[mask]`` is nu of the subset coded by mask."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if self.n < 1:
            raise CapacityFormatError(f"n must be >= 1, got {self.n}")
        if vals.shape != (1 << self.n,):
            raise CapacityFormatError(
                f"need exactly {1 << self.n} subset values for n={self.n}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise CapacityFormatError("subset values must be finite")
        if vals[0] != 0.0:
            raise CapacityFormatError(f"the empty set must map to 0, got {vals[0]}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __getitem__(self, mask: int) -> float:
        return float(self.values[mask])

    def value_of(self, subset: Iterable[int]) -> float:
        return float(self.values[mask_of(subset, self.n)])

    def level_sums(self) -> np.ndarray:
        """sum of nu(T) over subsets of each cardinality; entry t is the level-t sum."""
        sizes = subset_sizes(self.n)
        return np.bincount(sizes, weights=self.values, minlength=self.n + 1)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """True when nu(T) depends on |T| only."""
        sizes = subset_sizes(self.n)
        for t in range(1, self.n + 1):
            lev = self.values[sizes == t]
            if np.max(lev) - np.min(lev) > tol:
                return False
        return True


def subset_sizes(n: int) -> np.ndarray:
    """Cardinality of the subset coded by each mask 0..2^n-1."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)


def lattice_halves(a: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a contiguous array indexed by mask on its last axis: the
    entries whose mask lacks bit i, and the entries with bit i added, aligned."""
    t = a.reshape(*a.shape[:-1], -1, 2, 1 << i)
    return t[..., 0, :], t[..., 1, :]


def ranked_zeta(h: np.ndarray, n: int) -> np.ndarray:
    """Z[s, T] = sum of h(S) over the subsets S of T with |S| = s.

    Yates's algorithm run on every rank at once: one pass per attribute adds
    each entry into the entry with that attribute added, O(n^2 2^n) in all.
    """
    z = np.zeros((n + 1, 1 << n))
    z[subset_sizes(n), np.arange(1 << n)] = h
    for i in range(n):
        lo, hi = lattice_halves(z, i)
        hi += lo
    return z


@dataclass(frozen=True)
class CapacityCheck:
    """Diagnostics from :func:`check_capacity`."""

    is_monotone: bool
    is_normalized: bool
    violating_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class Chain:
    """Values of nu along the nested sets {sigma(1)}, {sigma(1),sigma(2)}, ...

    ``nu_chain`` has n+1 entries starting at 0; ``weights[i-1]`` is the
    difference nu_chain[i] - nu_chain[i-1], the coefficient attached to the
    i-th largest input in the Choquet integral.
    """

    sigma: tuple[int, ...]
    nu_chain: np.ndarray
    weights: np.ndarray


def make_game(n: int, values: Mapping) -> SetFunction:
    """Build a game from a subset -> value map.

    Keys are iterables of attribute indices in 1..n.  Every nonempty subset
    must be assigned; the empty set defaults to 0 and may only be given as 0.
    """
    if not isinstance(n, int) or n < 1:
        raise CapacityFormatError(f"n must be a positive integer, got {n!r}")
    if len(values) < (1 << n) - 1:
        raise CapacityFormatError(f"missing subsets: {len(values)} values given for the "
                                  f"{(1 << n) - 1} nonempty subsets of n={n}")
    arr = np.zeros(1 << n)
    seen = np.zeros(1 << n, dtype=bool)
    for key, val in values.items():
        m = mask_of(key, n)
        if seen[m]:
            raise CapacityFormatError(f"subset {subset_of(m)} assigned twice")
        if m == 0 and val != 0:
            raise CapacityFormatError(f"the empty set must map to 0, got {val}")
        seen[m] = True
        arr[m] = float(val)
    missing = [subset_of(m) for m in range(1, 1 << n) if not seen[m]]
    if missing:
        raise CapacityFormatError(f"missing subsets: {missing[:8]}"
                                  + ("..." if len(missing) > 8 else ""))
    return SetFunction(n, arr)


def check_capacity(g: SetFunction) -> CapacityCheck:
    """Check monotonicity over all covering pairs and the nu(N) = 1 normalization."""
    vals = g.values
    # lowest attribute whose addition lowers nu, per lower mask (n where none)
    first = np.full(1 << g.n, g.n)
    for i in reversed(range(g.n)):
        lo, hi = lattice_halves(vals, i)
        lattice_halves(first, i)[0][hi - lo < -MONOTONICITY_SLACK] = i
    bad = np.flatnonzero(first < g.n)
    violating = None
    if bad.size:
        mask = int(bad[0])
        violating = (subset_of(mask), subset_of(mask | 1 << int(first[mask])))
    normalized = abs(vals[g.full_mask] - 1.0) <= NORMALIZATION_TOL
    return CapacityCheck(violating is None, normalized, violating)


def require_capacity(g: SetFunction, what: str = "this operation") -> None:
    chk = check_capacity(g)
    if not chk.is_monotone:
        raise ValueError(f"{what} needs a capacity; monotonicity fails at "
                         f"{chk.violating_pair[0]} vs {chk.violating_pair[1]}")
    if not chk.is_normalized:
        raise ValueError(f"{what} needs a capacity; nu(N) = {g[g.full_mask]} != 1")


def chain_for(g: SetFunction, sigma: Iterable[int]) -> Chain:
    """Chain values and weights of the permutation sigma of 1..n."""
    sig = tuple(int(i) for i in sigma)
    if sorted(sig) != list(range(1, g.n + 1)):
        raise ValueError(f"{sig} is not a permutation of 1..{g.n}")
    ch = np.zeros(g.n + 1)
    m = 0
    for i, k in enumerate(sig, start=1):
        m |= 1 << (k - 1)
        ch[i] = g.values[m]
    return Chain(sig, ch, np.diff(ch))


def enumerate_chains(g: SetFunction) -> Iterator[Chain]:
    """All n! chains, in lexicographic sigma order."""
    if g.n > n_max():
        raise ValueError(f"n={g.n} exceeds the permutation-enumeration cap {n_max()}; "
                         "set CHOQUET_NMAX to raise it")
    for sig in permutations(range(1, g.n + 1)):
        yield chain_for(g, sig)


def choquet(g: SetFunction, x) -> float:
    """Choquet integral of one input vector.

    Ties are broken by a stable descending sort; the value does not depend on
    the choice among admissible orderings.
    """
    xa = np.asarray(x, dtype=float)
    if xa.shape != (g.n,):
        raise ValueError(f"expected {g.n} coordinates, got shape {xa.shape}")
    order = np.argsort(-xa, kind="stable")
    total, prev, m = 0.0, 0.0, 0
    for idx in order:
        m |= 1 << int(idx)
        v = g.values[m]
        total += (v - prev) * xa[idx]
        prev = v
    return total


def choquet_values(g: SetFunction, x: np.ndarray) -> np.ndarray:
    """Vectorized Choquet integral over the rows of an (m, n) sample matrix."""
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 2 or xa.shape[1] != g.n:
        raise ValueError(f"expected an (m, {g.n}) matrix, got shape {xa.shape}")
    order = np.argsort(-xa, axis=1, kind="stable")
    masks = np.cumsum(1 << order.astype(np.int64), axis=1)
    nu = g.values[masks]
    weights = np.diff(nu, axis=1, prepend=0.0)
    return np.einsum("ij,ij->i", weights, np.take_along_axis(xa, order, axis=1))


def orness(g: SetFunction) -> float:
    """Location of the aggregation between minimum (0) and maximum (1).

    Computed as ((n+1) E - 1)/(n - 1) where E is the exact mean of the
    integral under standard-uniform inputs, an affine rescaling that sends
    the minimum to 0, the arithmetic mean to 1/2 and the maximum to 1.
    """
    if g.n < 2:
        raise ValueError("orness needs n >= 2")
    require_capacity(g, "orness")
    lev = g.level_sums()
    s = sum(lev[t] / math.comb(g.n, t) for t in range(1, g.n + 1))
    return (s - 1.0) / (g.n - 1.0)


def random_capacity(n: int, rng: np.random.Generator) -> SetFunction:
    """Random capacity: iid uniform scores forced monotone by running maxima
    over the subset lattice, then normalized to nu(N) = 1."""
    vals = rng.random(1 << n)
    vals[0] = 0.0
    for i in range(n):
        lo, hi = lattice_halves(vals, i)
        np.maximum(hi, lo, out=hi)
    vals /= vals[-1]
    return SetFunction(n, vals)


# ---------------------------------------------------------------------------
# JSON interchange format:
#   {"n": 3, "values": {"1": 0.1, "1,2": 0.7, ..., "1,2,3": 1.0}}
# Subset keys are comma-separated ascending attribute indices; the empty set
# may appear as "" or the unicode empty-set sign and must then map to 0.
# ---------------------------------------------------------------------------

_EMPTY_KEYS = ("", "∅")


def parse_subset_key(key: str) -> tuple[int, ...]:
    key = key.strip()
    if key in _EMPTY_KEYS:
        return ()
    try:
        items = tuple(int(part) for part in key.split(","))
    except ValueError:
        raise CapacityFormatError(f"bad subset key {key!r}") from None
    if list(items) != sorted(set(items)):
        raise CapacityFormatError(f"subset key {key!r} must list distinct ascending indices")
    return items


def game_from_dict(doc: Mapping) -> SetFunction:
    if "n" not in doc or "values" not in doc:
        raise CapacityFormatError('capacity JSON needs the keys "n" and "values"')
    n = doc["n"]
    if not isinstance(n, int):
        raise CapacityFormatError(f'"n" must be an integer, got {n!r}')
    vals = doc["values"]
    if not isinstance(vals, Mapping):
        raise CapacityFormatError('"values" must map subset keys to numbers')
    return make_game(n, {parse_subset_key(k): v for k, v in vals.items()})


def game_to_dict(g: SetFunction) -> dict:
    values = {",".join(map(str, subset_of(m))): float(g.values[m])
              for m in range(1, 1 << g.n)}
    return {"n": g.n, "values": values}


def load_capacity(path) -> SetFunction:
    """Read a game from a capacity JSON file (axioms beyond nu(empty)=0 are
    not enforced here; use :func:`check_capacity` for that)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CapacityFormatError(f"{path}: not valid JSON ({exc})") from None
    return game_from_dict(doc)


def save_capacity(g: SetFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(g), fh, indent=1)
        fh.write("\n")
