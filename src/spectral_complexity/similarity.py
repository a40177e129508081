"""Inter-class similarity estimation and symmetrization.

Entry (i, j) of the similarity matrix estimates the expected density of
class j at points drawn from class i, using a k-nearest-neighbour
density estimate inside a Chebyshev hypercube. Bray-Curtis similarity
over the matrix columns then produces the symmetric affinity W that the
spectral stage consumes.

Every class pair gets its own RNG stream derived from (seed, i, j), so
results are independent of evaluation order. The stage draws from those
streams itself, many pairs at once: `_draw` gives the rows that numpy's
Generator.choice would give on each stream, bit for bit, and
tests/test_similarity.py checks that against the installed numpy.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby

import numpy as np

from .errors import DataError, NumericError
from .ingest import (HyperParams, LabeledDataset, _checked_matrix, _store,
                     class_partition)

# Radius floor, so duplicate points keep the hypercube volume positive:
# 1e-12 * max(1, target span), an absolute 1e-12 below a span of 1.
_DEGENERACY_SCALE = 1e-12

# Float64 entries per array of one batched density call: 2**15 is 256 KiB.
_BLOCK = 2 ** 15

# numpy's PCG64 multiplier. Each lane steps _STRIDE interleaved copies of
# its stream at once; _JUMPS[b] takes a state b + 1 steps ahead, as
# (multiplier, increment multiplier) mod 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 2 ** 32 - 1
_STRIDE = 16
_JUMPS = [(pow(_PCG_MULT, b, 2 ** 128),
           sum(pow(_PCG_MULT, t, 2 ** 128) for t in range(b)) % 2 ** 128)
          for b in range(1, _STRIDE + 1)]

# One vectorized draw costs about as much as numpy's own draws for
# _MIN_LANES + (m + e) / 4 pairs, whatever its lane count (measured on
# 2 cores, m = e from 10 to 100); smaller runs are drawn by numpy.
# Classes of distinct sizes below M or E cut the stage into runs of one
# pair: 1600 of 1680 runs on 80 classes (20 of 20-39 rows, 60 of 40),
# M = E = 40, d = 8, where forcing every run through the model doubled
# the stage's time (0.57-0.65 s against 1.29-1.60 s), X bit-identical.
_MIN_LANES = 16


@dataclass
class SimilarityDiagnostics:
    """Counters surfaced in the JSON report."""

    degenerate_densities: int = 0
    replacement_pairs: list[tuple[int, int]] = field(default_factory=list)
    zero_mass_rows: list[int] = field(default_factory=list)
    zero_denominator_pairs: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class ClassSimilarityMatrix:
    """Raw or row-normalized class-to-class density estimates.

    A float64 `values` array is kept without a copy and made read-only,
    the caller's own array included; copy it first to keep writing to
    it. Other input is converted into a new array.
    """

    values: np.ndarray
    params: HyperParams
    row_normalized: bool
    includes_diagonal: bool
    diagnostics: SimilarityDiagnostics

    def __post_init__(self) -> None:
        vals = _checked_matrix(self.values, "similarity matrix")
        if np.any(vals < 0):
            raise DataError("similarity entries must be nonnegative")
        _store(self, values=vals)

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SymmetricAffinity:
    """Symmetric class affinity W with entries in [0, 1] and unit diagonal.

    A float64 `values` array is kept without a copy and made read-only,
    the caller's own array included; copy it first to keep writing to
    it. Other input is converted into a new array.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _checked_matrix(self.values, "affinity", symmetric=True)
        if np.any(vals < 0) or np.any(vals > 1):
            raise DataError("affinity entries must lie in [0, 1]")
        if np.any(np.diag(vals) != 1.0):
            raise DataError("affinity diagonal must be exactly 1")
        _store(self, values=vals)

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]


def pair_rng(seed: int, source: int, target: int) -> np.random.Generator:
    """Deterministic RNG stream for one ordered class pair."""
    return np.random.default_rng(np.random.SeedSequence([seed, source, target]))


def _batch_density(queries: np.ndarray, targets: np.ndarray, k: int,
                   exclude_self: bool) -> tuple[np.ndarray, int]:
    """Density of each block's targets at its query rows.

    queries is (..., m, d) and targets (..., e, d) with the same leading
    shape; each leading index is one block, scored as if on its own.
    Returns the (..., m) densities and the count of floored or clamped
    ones over all blocks. Each row matches the pure-Python per-query
    reference in tests/test_similarity.py up to the last bit of pow():
    same radii, same epsilon floor, same overflow clamps.
    """
    m, dim = queries.shape[-2:]
    n_targets = targets.shape[-2]
    # Chebyshev distance as a running max over coordinates, with no
    # (..., m, e, d) temporary; max and abs are exact. These coordinate-
    # major copies beat strided views, and a (d, N) gather was no faster.
    q = np.ascontiguousarray(np.moveaxis(queries, -1, 0))[..., None]
    t = np.ascontiguousarray(np.moveaxis(targets, -1, 0))[..., None, :]
    dist = np.abs(q[0] - t[0])
    step = np.empty_like(dist)
    for c in range(1, dim):
        np.abs(np.subtract(q[c], t[c], out=step), out=step)
        np.maximum(dist, step, out=dist)
    rows = dist.reshape(-1, n_targets)
    usable = np.full(rows.shape[0], n_targets)
    if exclude_self:
        # Leave-one-out: drop one coincident target per query; genuine
        # duplicates beyond the first still participate.
        zero = rows == 0.0
        hit = np.flatnonzero(zero.any(axis=1))
        rows[hit, zero[hit].argmax(axis=1)] = np.inf
        usable[hit] -= 1
    short = (usable < k).reshape(-1, m).any(axis=1)
    if short.any():
        # Name the first failing block, as a loop over the blocks would.
        first = usable.reshape(-1, m)[short.argmax()]
        raise DataError(f"k={k} exceeds usable target count {int(first.min())}")
    rows.partition(k - 1, axis=1)
    radius = rows[:, k - 1].reshape(queries.shape[:-1])
    span = np.ptp(targets, axis=-2).max(axis=-1, keepdims=True)
    eps = _DEGENERACY_SCALE * np.maximum(1.0, span)
    degenerate = radius < eps
    radius = np.where(degenerate, eps, radius)
    # Huge radii overflow the volume to inf, and k / inf is exactly 0; a
    # volume that underflows to 0 is clamped to the largest density. A
    # volume that is tiny but nonzero overflows k / denom to inf, which
    # _row_sums refuses.
    with np.errstate(divide="ignore", over="ignore"):
        denom = n_targets * (2.0 * radius) ** dim
        density = k / denom
    overflow = denom == 0.0
    density[overflow] = np.finfo(np.float64).max
    return density, int((degenerate | overflow).sum())


def knn_density(query: np.ndarray, targets: np.ndarray, k: int,
                exclude_self: bool = False,
                diagnostics: SimilarityDiagnostics | None = None) -> float:
    """k-nearest density estimate K/(E*V) at one query point.

    V is the hypercube of side 2*r_k where r_k is the Chebyshev distance
    to the k-th nearest usable target; E is the number of targets as
    passed, before any self-exclusion. With exclude_self, one target at
    distance exactly 0 is dropped from the neighbour set. A volume so
    small that the density passes the float64 range raises NumericError,
    as the similarity stage does.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    pts = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if pts.shape[0] == 0:
        raise DataError("empty target set")
    if pts.shape[1] != query.size:
        raise DataError(
            f"query dimension {query.size} != target dimension {pts.shape[1]}"
        )
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    density, degenerate = _batch_density(query[None, :], pts, k, exclude_self)
    density = _row_sums(lambda _: "kNN density overflows float64",
                        density[:, None])
    if diagnostics is not None:
        diagnostics.degenerate_densities += degenerate
    return float(density[0])


def class_pair_expectation(source: int, target: int, emb: LabeledDataset,
                           params: HyperParams, rng: np.random.Generator,
                           diagnostics: SimilarityDiagnostics | None = None,
                           ) -> float:
    """Mean density of class `target` over M points drawn from class `source`.

    Draws are without replacement; a class smaller than M (or E) is
    used whole and the pair is recorded. Every query drops one
    coincident target (leave-one-out). On the self pair that removes
    the query's own copy; on cross pairs it only fires when classes
    share identical points, and keeps such duplicated classes scoring
    like the self pair.
    """
    if not {source, target} <= set(range(emb.n_classes)):
        raise DataError(f"class pair ({source}, {target}) is out of range")
    if diagnostics is None:
        diagnostics = SimilarityDiagnostics()
    rows = class_partition(emb)
    m_of, e_of = _draw_sizes(rows, params)
    queries = rng.choice(rows[source], size=m_of[source], replace=False)
    targets = rng.choice(rows[target], size=e_of[target], replace=False)
    return float(_pair_means(emb, params, [(source, target)], queries[None],
                             targets[None], diagnostics)[0])


def _draw_sizes(rows: list[np.ndarray],
                params: HyperParams) -> tuple[list[int], list[int]]:
    """Rows each class gives as queries and as targets: M and E, or the
    whole class when it is smaller."""
    return tuple([min(cap, r.size) for r in rows]
                 for cap in (params.M, params.E))


def _pair_means(emb: LabeledDataset, params: HyperParams,
                pairs: list[tuple[int, int]], queries: np.ndarray,
                targets: np.ndarray,
                diagnostics: SimilarityDiagnostics) -> np.ndarray:
    """Mean density of class j's draw at class i's, for each pair (i, j).

    Row p of queries (P, m) and targets (P, e) holds pair p's draws;
    pairs whose draw is smaller than (M, E) used a class whole and are
    recorded. The pairs are scored in chunks, one _batch_density call
    each; _BLOCK caps the float64 entries of its distances, (P, m, e),
    and of its rows, (P, m + e, d). Diagnostics take a chunk once its
    means are finite; NumericError names the first pair whose mean is
    past the float64 range.
    """
    (m, e), feats = (queries.shape[1], targets.shape[1]), emb.features
    size = max(1, _BLOCK // max(m * e, (m + e) * emb.n_features))
    means = []
    for s in range(0, len(pairs), size):
        chunk = pairs[s:s + size]
        density, degenerate = _batch_density(
            feats[queries[s:s + size]], feats[targets[s:s + size]],
            params.k, exclude_self=True)
        # One sum per contiguous row keeps the per-pair summation order.
        means.append(_row_sums(lambda p: f"similarity of class pair "
                               f"{chunk[p]} overflows float64", density) / m)
        diagnostics.degenerate_densities += degenerate
        if (m, e) != (params.M, params.E):
            diagnostics.replacement_pairs.extend(chunk)
    return np.concatenate(means)


def _split(values) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 halves of 128-bit integers, as columns."""
    return (np.array([[v >> 64] for v in values], np.uint64),
            np.array([[v & 2 ** 64 - 1] for v in values], np.uint64))


def _mul128(ah, al, bh, bl):
    """a * b mod 2**128 on (high, low) uint64 arrays."""
    a0, a1, b0, b1 = al & _M32, al >> 32, bl & _M32, bl >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _M32) >> 32)
    return carry + al * bh + ah * bl, al * bl


def _add128(ah, al, bh, bl):
    """a + b mod 2**128 on (high, low) uint64 arrays."""
    low = al + bl
    return ah + bh + (low < bl), low


def _seed_states(seed: int, src: np.ndarray, tgt: np.ndarray) -> list:
    """SeedSequence([seed, src, tgt]).generate_state(4, np.uint64) per lane,
    as four uint64 arrays: numpy's hash mix on uint32 lanes.

    A seed below 2**64, as HyperParams requires, and two class indices
    make at most four entropy words, the size of numpy's pool.
    """
    seed = int(seed)
    entropy = [np.full(src.size, seed >> s & _M32, np.uint32)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [src.astype(np.uint32), tgt.astype(np.uint32)]
    entropy += [np.zeros(src.size, np.uint32)] * (4 - len(entropy))
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * 0x931E8875 & _M32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    const, state = 0x8B51F9DD, []
    for word in pool * 2:
        value = word ^ const
        const = const * 0x58F38DED & _M32
        value = value * const
        state.append((value ^ value >> 16).astype(np.uint64))
    return [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]


def _pcg_words(seed: int, src: np.ndarray, tgt: np.ndarray,
               count: int) -> np.ndarray:
    """(2 + count, lanes) uint32: two zero rows, then the first `count`
    32-bit outputs of each lane's pair_rng(seed, src, tgt) stream.

    PCG64 with its XSL-RR output, each 64-bit output split low half
    first, as numpy's Generator reads its 32-bit draws.
    """
    s0, s1, s2, s3 = _seed_states(seed, src, tgt)
    # numpy's seeding: inc = 2 * (s2, s3) + 1, and the state is one
    # step on from inc + (s0, s1).
    inc_h, inc_l = s2 << 1 | s3 >> 63, s3 << 1 | 1
    h, l = _add128(*_mul128(*_add128(inc_h, inc_l, s0, s1),
                            *_split([_PCG_MULT])), inc_h, inc_l)
    # Row b of (h, l) is the stream b + 1 steps on, and every row steps
    # _STRIDE at a time, so output b + k * _STRIDE comes from row b.
    (ah, al), (gh, gl) = (_split(c) for c in zip(*_JUMPS))
    h, l = _add128(*_mul128(h, l, ah, al), *_mul128(inc_h, inc_l, gh, gl))
    step, add = (ah[-1], al[-1]), _mul128(inc_h, inc_l, gh[-1], gl[-1])
    steps = -(-count // (2 * _STRIDE))
    out = np.zeros((2 + 2 * steps * _STRIDE, src.size), np.uint32)
    for t in range(2, out.shape[0], 2 * _STRIDE):
        if t > 2:
            h, l = _add128(*_mul128(h, l, *step), *add)
        x, r = h ^ l, h >> 58
        x = x >> r | x << (64 - r & 63)
        # Assignment keeps the low 32 bits.
        out[t:t + 2 * _STRIDE:2], out[t + 1:t + 2 * _STRIDE:2] = x, x >> 32
    return out[:2 + count]


def _choice_draws(words: np.ndarray, pop: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2n - 1 bounded draws of Generator.choice(pop, n,
    replace=False), one per word, per lane (column): Floyd's n, draw t
    in [0, pop - n + t], then the shuffle's n - 1, draw t in
    [0, n - 1 - t]. Returns them as int64, and which lanes rejected a
    word, whose later draws are then wrong.

    Lemire's method: the draw is the high half of word * (bound + 1);
    a low half below 2**32 % (bound + 1) is rejected.
    """
    lanes = pop.size
    excl = np.empty(words.shape, np.uint64)
    excl[:n] = pop - n + 1 + np.arange(n)[:, None]
    excl[n:] = np.arange(n, 1, -1)[:, None]
    prod = words * excl
    low = prod & _M32
    # Only a low half below the bound can be below 2**32 % bound: testing
    # just those takes 0.10 against 0.45 ms a call at n = 40, 409 lanes.
    near = np.flatnonzero(low < excl)
    reject = np.zeros(lanes, bool)
    reject[near[low.flat[near] < (1 << 32) % excl.flat[near]] % lanes] = True
    return np.right_shift(prod, 32, out=prod).view(np.int64), reject


def _positions(words: np.ndarray, pop: np.ndarray,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions that Generator.choice(pop, n, replace=False) takes, per
    lane, from its 2n - 1 words: Floyd's sample, where draw t becomes
    pop - n + t if an earlier position already holds it, then a
    Fisher-Yates shuffle. Returns them (n, lanes), and which lanes
    rejected a word.
    """
    lanes = pop.size
    vals, reject = _choice_draws(words, pop, n)
    # Floyd on a whole class gives 0, ..., n - 1; skipping the loop saves
    # 0.54 ms a call at n = 40, 409 lanes (many-classes: 32 calls a job).
    pos = np.repeat(np.arange(n), lanes).reshape(n, lanes)
    part = np.flatnonzero(pop > n)
    if part.size:
        # Row-major: the loop reads rows, and vals[:n, part] is column-major.
        floyd, top = vals[:n].take(part, axis=1), pop[part] - n
        for t in range(1, n):
            taken = (floyd[:t] == floyd[t]).any(axis=0)
            floyd[t, taken] = top[taken] + t
        pos[:, part] = floyd
    flat = pos.reshape(-1)
    swaps = vals[n:] * lanes + np.arange(lanes)
    for i, p in zip(range(n - 1, 0, -1), swaps):
        swapped = flat[p]
        flat[p] = pos[i]
        pos[i] = swapped
    return pos, reject


def _draw(seed: int, rows: list[np.ndarray], pairs: list[tuple[int, int]],
          m: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows drawn for each pair (i, j): (P, m) of class i and (P, e) of
    class j, equal to pair_rng(seed, i, j) followed by
    choice(rows[i], m, replace=False) and choice(rows[j], e, replace=False).

    numpy itself draws the pairs of a short run, and lanes that leave
    the lockstep model: a rejected word, or the tail shuffle numpy runs
    instead of Floyd's algorithm for a draw above 1/50 of a class of
    more than 10 000 rows.
    """
    src, tgt = np.array(pairs).T
    lanes = src.size
    redo = np.ones(lanes, bool)
    if 4 * lanes < 4 * _MIN_LANES + m + e:
        queries, targets = np.empty((lanes, m), int), np.empty((lanes, e), int)
    else:
        sizes = np.array([r.size for r in rows])
        starts, order = np.cumsum(sizes) - sizes, np.concatenate(rows)
        pop_q, pop_t = sizes[src], sizes[tgt]
        # A class used whole draws its first Floyd index from [0, 0],
        # which takes no word: later draws of that lane read one word
        # earlier, and the skipped draw is 0 whatever word it reads.
        first_q = 2 - (pop_q == m)
        first_t = first_q + 2 * m - 1 - (pop_t == e)
        words = _pcg_words(seed, src, tgt, 2 * (m + e) - 2)
        q, reject_q = _positions(np.take_along_axis(
            words, first_q + np.arange(2 * m - 1)[:, None], axis=0), pop_q, m)
        t, reject_t = _positions(np.take_along_axis(
            words, first_t + np.arange(2 * e - 1)[:, None], axis=0), pop_t, e)
        queries, targets = order[starts[src] + q].T, order[starts[tgt] + t].T
        redo = (reject_q | reject_t | (pop_q > 10000) & (m > pop_q // 50)
                | (pop_t > 10000) & (e > pop_t // 50))
    for p in np.flatnonzero(redo):
        rng = pair_rng(seed, int(src[p]), int(tgt[p]))
        queries[p] = rng.choice(rows[src[p]], size=m, replace=False)
        targets[p] = rng.choice(rows[tgt[p]], size=e, replace=False)
    return queries, targets


def _row_sums(refusal: Callable[[int], str], *terms) -> np.ndarray:
    """Row sums of the elementwise sum of `terms`; the first one past the
    float64 range raises NumericError(refusal(row) + the --reduce hint)."""
    with np.errstate(over="ignore"):
        sums = reduce(np.add, terms).sum(axis=1)
    bad = np.flatnonzero(np.isinf(sums))
    if bad.size:
        raise NumericError(f"{refusal(int(bad[0]))}; try --reduce pca:<d>")
    return sums


def build_similarity_matrix(emb: LabeledDataset, params: HyperParams, *,
                            row_normalize: bool = True,
                            include_diagonal: bool = True,
                            threads: int = 1) -> ClassSimilarityMatrix:
    """Populate all class pairs of the similarity matrix, in pair order.

    `threads` is accepted and has no effect. Rows are normalized to sum
    1 unless row_normalize is off; all-zero rows are left as zero and
    recorded in diagnostics. Skipping the diagonal leaves those cells
    at 0 before normalization. A pair mean or row sum past the float64
    range raises NumericError.
    """
    n = emb.n_classes
    pairs = [(i, j) for i in range(n) for j in range(n)
             if include_diagonal or i != j]
    rows = class_partition(emb)
    m_of, e_of = _draw_sizes(rows, params)
    diagnostics = SimilarityDiagnostics()
    means = []
    for (m, e), run in groupby(pairs, key=lambda p: (m_of[p[0]], e_of[p[1]])):
        run = list(run)
        # Lanes per draw: its words, products and rows stay a few _BLOCKs.
        lanes = max(1, _BLOCK // (m + e))
        for s in range(0, len(run), lanes):
            batch = run[s:s + lanes]
            means.append(_pair_means(emb, params, batch,
                                     *_draw(params.seed, rows, batch, m, e),
                                     diagnostics))
    raw = np.zeros((n, n), dtype=np.float64)
    raw[tuple(zip(*pairs))] = np.concatenate(means)

    if row_normalize:
        sums = _row_sums(
            lambda r: f"similarity row of class {r} sums past float64", raw)
        zero = sums == 0.0
        diagnostics.zero_mass_rows.extend(np.flatnonzero(zero).tolist())
        raw = raw / np.where(zero, 1.0, sums)[:, None]
    return ClassSimilarityMatrix(values=raw, params=params,
                                 row_normalized=row_normalize,
                                 includes_diagonal=include_diagonal,
                                 diagnostics=diagnostics)


def bray_curtis_symmetrize(X: ClassSimilarityMatrix) -> SymmetricAffinity:
    """Symmetric affinity from column-wise Bray-Curtis similarity.

    W_ij = 1 - sum_q |X_qi - X_qj| / sum_q (X_qi + X_qj), with the
    diagonal pinned to exactly 1. A zero denominator (two all-zero
    columns) yields W_ij = 1 and a diagnostics entry. A column sum past
    the float64 range raises NumericError naming the first such pair.
    """
    cols = np.ascontiguousarray(X.values.T)
    n = cols.shape[0]
    W = np.ones((n, n), dtype=np.float64)
    zero_pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        # num and den sum contiguous rows of one shape in numpy's pairwise
        # order, as a column-by-column loop does. X >= 0, so each |a - b|
        # rounds to at most a + b and num <= den: W_ij lies in [0, 1] with
        # no clip, and is 1 where den is 0, as both columns are then 0.
        den = _row_sums(lambda j: f"Bray-Curtis sums of class pair "
                        f"{(i, i + 1 + j)} overflow float64", cols[i + 1:],
                        cols[i])
        num = np.abs(cols[i + 1:] - cols[i]).sum(axis=1)
        zero = den == 0.0
        zero_pairs.extend((i, i + 1 + int(j)) for j in np.flatnonzero(zero))
        W[i, i + 1:] = W[i + 1:, i] = 1.0 - num / np.where(zero, 1.0, den)
    # Assigned, not extended, so a repeated call records the same pairs.
    X.diagnostics.zero_denominator_pairs = zero_pairs
    return SymmetricAffinity(values=W)
