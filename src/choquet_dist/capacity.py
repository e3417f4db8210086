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
import numbers
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import permutations

import numpy as np

CHAIN_N_MAX = 10  # 10! = 3,628,800 rows; 11! would take ~6 GB
NORMALIZATION_TOL = 1e-12
MONOTONICITY_SLACK = 1e-12
BLOCK_ELEMENTS = 1 << 18  # elements of one (rows, width) temporary of a per-point evaluator


class CapacityFormatError(ValueError):
    """A game/capacity specification is malformed or incomplete."""


def mask_of(subset: Iterable[int], n: int) -> int:
    """The mask of a subset: a non-string iterable of distinct ints in 1..n."""
    if isinstance(subset, (str, bytes)) or not isinstance(subset, Iterable):
        raise CapacityFormatError(f"subset {subset!r} must be an iterable of indices")
    m = 0
    for i in subset:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 1 <= i <= n:
            raise CapacityFormatError(f"subset {subset!r}: {i!r} is not an index in 1..{n}")
        bit = 1 << (int(i) - 1)
        if m & bit:
            raise CapacityFormatError(f"subset {subset!r} gives index {i} twice")
        m |= bit
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

    def is_symmetric(self) -> bool:
        """True when nu(T) depends on |T| only: when every swap of adjacent
        attributes leaves nu unchanged, as these swaps generate all orderings."""
        for i in range(self.n - 1):
            t = self.values.reshape(-1, 2, 2, 1 << i)
            if not np.array_equal(t[:, 0, 1], t[:, 1, 0]):
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


def inverse_binomials(n: int) -> np.ndarray:
    """B[s, t] = 1/C(t, s) for s <= t <= n, and 0 where s > t (a t-set has no
    s-subsets): the weights that turn ranked sums into averages."""
    return np.array([[1.0 / math.comb(t, s) if s <= t else 0.0 for t in range(n + 1)]
                     for s in range(n + 1)])


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

    Keys are subsets as :func:`mask_of` reads them and values are real
    numbers (not booleans).  Every nonempty subset must be assigned; the empty
    set defaults to 0 and may only be given as 0.
    """
    return _fill_game(n, len(values), ((mask_of(key, n), val) for key, val in values.items()))


def _fill_game(n: int, count: int, pairs: Iterable[tuple[int, object]]) -> SetFunction:
    """:func:`make_game` on (mask, value) pairs, drawn after n and their count pass."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CapacityFormatError(f"n must be a positive integer, got {n!r}")
    if count < (1 << n) - 1:
        raise CapacityFormatError(f"missing subsets: {count} values given for the "
                                  f"{(1 << n) - 1} nonempty subsets of n={n}")
    arr = np.zeros(1 << n)
    seen = np.zeros(1 << n, dtype=bool)
    for m, val in pairs:
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            raise CapacityFormatError(f"subset {subset_of(m)} needs a number, got {val!r}")
        if seen[m]:
            raise CapacityFormatError(f"subset {subset_of(m)} assigned twice")
        if m == 0 and val != 0:
            raise CapacityFormatError(f"the empty set must map to 0, got {val}")
        seen[m] = True
        arr[m] = float(val)
    missing = (np.flatnonzero(~seen[1:]) + 1).tolist()
    if missing:
        raise CapacityFormatError(f"missing subsets: {[subset_of(m) for m in missing[:8]]}"
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


def chain_table(g: SetFunction) -> tuple[np.ndarray, np.ndarray]:
    """Orderings of 1..n and nu along their chains; callers average the rows.

    Row k of ``sigmas`` (n!, n) int8 is the k-th permutation of 1..n in
    lexicographic order; row k of ``nu`` (n!, n+1) holds nu of its nested
    prefixes, nu[k, i] = nu({sigma_k(1..i)}) with nu[k, 0] = 0.  A symmetric
    game, whose orderings share one chain, gets the identity row alone at any
    n; any other game is refused above ``CHAIN_N_MAX``.
    """
    n = g.n
    if g.is_symmetric():
        return (np.arange(1, n + 1, dtype=np.int8)[None],
                g.values[(1 << np.arange(n + 1)) - 1][None])
    if n > CHAIN_N_MAX:
        raise ValueError(f"n={n}: a non-symmetric game has n! = {math.factorial(n):,} "
                         f"chains, above the enumeration cap n = {CHAIN_N_MAX}")
    sigmas = np.fromiter(permutations(range(1, n + 1)), dtype=(np.int8, n),
                         count=math.factorial(n))
    masks = np.cumsum(1 << (sigmas.astype(np.int32) - 1), axis=1, dtype=np.int32)
    nu = np.zeros((len(sigmas), n + 1))
    nu[:, 1:] = g.values[masks]
    return sigmas, nu


def enumerate_chains(g: SetFunction) -> Iterator[Chain]:
    """The rows of :func:`chain_table` as :class:`Chain` objects: all n!
    chains in lexicographic sigma order, or the one chain of a symmetric game."""
    sigmas, nu = chain_table(g)
    for sig, ch in zip(sigmas.tolist(), nu):
        yield Chain(tuple(sig), ch, np.diff(ch))


def choquet(g: SetFunction, x) -> float:
    """Choquet integral of one input vector, a row of :func:`choquet_values`.

    Ties are broken by a stable descending sort; the value does not depend on
    the choice among admissible orderings.
    """
    xa = np.asarray(x, dtype=float)
    if xa.shape != (g.n,):
        raise ValueError(f"expected {g.n} coordinates, got shape {xa.shape}")
    return float(choquet_values(g, xa[None])[0])


def in_row_blocks(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                  width: int) -> np.ndarray:
    """fn of consecutive row slices of x, written into one 1-D output of
    len(x) values: fn maps a slice of r rows to r values through temporaries
    of (r, width) elements.

    A slice has BLOCK_ELEMENTS // width rows, rounded down to a power of two
    (BLAS sums the rows of ``A @ w`` in groups, and a power of two keeps every
    full slice aligned with them), and at least one row.
    """
    rows = 1 << max((BLOCK_ELEMENTS // width).bit_length() - 1, 0)
    out = np.empty(len(x))
    for start in range(0, len(x), rows):
        out[start:start + rows] = fn(x[start:start + rows])
    return out


def choquet_values(g: SetFunction, x: np.ndarray) -> np.ndarray:
    """Vectorized Choquet integral over the rows of an (m, n) sample matrix,
    evaluated in row blocks of at most BLOCK_ELEMENTS entries."""
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 2 or xa.shape[1] != g.n:
        raise ValueError(f"expected an (m, {g.n}) matrix, got shape {xa.shape}")

    def block(xb):
        order = np.argsort(-xb, axis=1, kind="stable")
        masks = np.cumsum(1 << order.astype(np.int64), axis=1)
        weights = np.diff(g.values[masks], axis=1, prepend=0.0)
        return np.einsum("ij,ij->i", weights, np.take_along_axis(xb, order, axis=1))

    return in_row_blocks(block, xa, g.n)


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
# may appear as "" or the unicode empty-set sign and must then map to 0.  A
# subset given twice, under one key or two spellings, is refused.
# ---------------------------------------------------------------------------


def _key_mask(key: str, n: int) -> int:
    """The mask of a subset key, parsed and checked in one pass."""
    if not isinstance(key, str):
        raise CapacityFormatError(f"subset key {key!r} must be a string")
    key = key.strip()
    if key in ("", "∅"):
        return 0
    mask = 0
    for part in key.split(","):
        try:
            i = int(part)
        except ValueError:
            raise CapacityFormatError(f"bad subset key {key!r}") from None
        if not 1 <= i <= n:
            raise CapacityFormatError(f"attribute {i} outside 1..{n}")
        if mask >> (i - 1):  # an index >= i came earlier
            raise CapacityFormatError(f"subset key {key!r} must list distinct ascending indices")
        mask |= 1 << (i - 1)
    return mask


def game_from_dict(doc: Mapping) -> SetFunction:
    if not isinstance(doc, Mapping):
        raise CapacityFormatError(f"capacity JSON must be an object, got {type(doc).__name__}")
    if "n" not in doc or "values" not in doc:
        raise CapacityFormatError('capacity JSON needs the keys "n" and "values"')
    n, vals = doc["n"], doc["values"]
    if not isinstance(vals, Mapping):
        raise CapacityFormatError('"values" must map subset keys to numbers')
    return _fill_game(n, len(vals), ((_key_mask(key, n), val) for key, val in vals.items()))


def game_to_dict(g: SetFunction) -> dict:
    values = {",".join(map(str, subset_of(m))): float(g.values[m])
              for m in range(1, 1 << g.n)}
    return {"n": g.n, "values": values}


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice verbatim."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise CapacityFormatError("a JSON object gives one key twice")
    return doc


def load_capacity(path) -> SetFunction:
    """Read a game from a capacity JSON file (axioms beyond nu(empty)=0 are
    not enforced here; use :func:`check_capacity` for that)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise CapacityFormatError(f"{path}: not valid JSON ({exc})") from None
    return game_from_dict(doc)


def save_capacity(g: SetFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(g), fh, indent=1)
        fh.write("\n")
