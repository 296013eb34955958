"""Mergeable sketches for web-scale counters (SURVEY.md §2.5 note: the
reference has no approximate aggregates; at 10^12 rows exact distincts on
head columns are wasteful — HLL gives cardinality in O(2^p) bytes with
per-batch sketches merged in a tiny second stage).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa

from .hashing import stable_hash64


def hll_bucket_ranks(hashes: np.ndarray, p: int):
    """Vectorized (bucket_idx, rank) per hash — the HLL register update
    kernel shared by the global sketch and the grouped estimator.
    stable_hash64 is 63-bit (top bit 0) → remix to full 64-bit
    (splitmix64-style multiply-xorshift, wrapping) so all p bits vary;
    rank = leading zeros of the post-bucket bits + 1."""
    m = 1 << p
    h = hashes.astype(np.uint64)
    with np.errstate(over='ignore'):
        h = (h * np.uint64(0x9E3779B97F4A7C15))
        h ^= h >> np.uint64(31)
        h = (h * np.uint64(0xBF58476D1CE4E5B9))
        h ^= h >> np.uint64(27)
    idx = (h >> np.uint64(64 - p)).astype(np.int64) % m
    rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))
    ranks = np.zeros(len(h), dtype=np.uint8)
    v = rest.copy()
    shift = np.uint64(63)
    for r in range(1, 64 - p + 2):
        mask = (v >> shift) & np.uint64(1)
        undecided = ranks == 0
        hit = undecided & (mask == 1)
        ranks[hit] = r
        shift = np.uint64(int(shift) - 1)
        if not undecided.any():
            break
    return idx, ranks


class HyperLogLog:
    """Classic HLL (Flajolet et al.): p-bit bucket index, rank of remaining
    bits; standard bias correction for small/large ranges."""

    __slots__ = ('p', 'm', 'registers')

    def __init__(self, p: int = 12):
        assert 4 <= p <= 18
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, hashes: np.ndarray):
        idx, ranks = hll_bucket_ranks(hashes, self.p)
        np.maximum.at(self.registers, idx, ranks)

    def add(self, values: Iterable[str], hash_fn=None):
        fn = hash_fn or stable_hash64
        hs = np.fromiter((fn(v) for v in values), dtype=np.uint64)
        if len(hs):
            self.add_hashes(hs)

    def merge(self, other: 'HyperLogLog') -> 'HyperLogLog':
        assert self.p == other.p
        out = HyperLogLog(self.p)
        out.registers = np.maximum(self.registers, other.registers)
        return out

    def cardinality(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / float(np.sum(2.0 ** -self.registers.astype(np.float64)))
        zeros = int(np.sum(self.registers == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)   # linear counting for the small range
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, p: int = 12) -> 'HyperLogLog':
        out = cls(p)
        out.registers = np.frombuffer(data, dtype=np.uint8).copy()
        return out


def _merged_sketch(ds, column: str, p: int = 12, hash_fn=None) -> 'HyperLogLog':
    """One HLL sketch per batch (map_batches), merged on the driver —
    sketches are tiny and mergeable, the shuffle-free alternative to
    ds.unique at head cardinalities."""
    import pandas as pd

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        h = HyperLogLog(p)
        h.add((str(v) for v in batch[column]), hash_fn=hash_fn)
        return pd.DataFrame({'sketch': [h.to_bytes()]})

    parts = ds.select_columns([column]).map_batches(sketch, batch_format='pandas')
    from ..stages.relational import collect_rows
    merged = HyperLogLog(p)
    for r in collect_rows(parts):
        merged = merged.merge(HyperLogLog.from_bytes(r['sketch'], p))
    return merged


def approx_distinct(ds, column: str, p: int = 12) -> float:
    """Distributed approximate distinct count via per-batch HLL sketches."""
    return _merged_sketch(ds, column, p).cardinality()


def hll_estimate_deterministic(ranks, p: int = 12) -> float:
    """Closed-form HLL estimate from the nonzero register ranks, computed
    with an EXACT integer register sum (Σ 2^(63-reg), zeros contribute
    2^63) and a fixed double operation order, so a SQL replay (HUGEINT sum
    → DOUBLE) reproduces the float bit-for-bit. Semantically identical to
    ``HyperLogLog.cardinality`` — only the summation is exact instead of
    float-accumulated."""
    import math
    m = 1 << p
    zeros = m - len(ranks)
    s = sum(1 << (63 - int(r)) for r in ranks) + zeros * (1 << 63)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * float(m) * float(m) * 9223372036854775808.0 / float(s)
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)
    return est


class CountMinSketch:
    """Count-Min sketch (Cormode & Muthukrishnan 2005): ``depth`` salted
    md5 hash rows × ``width`` int64 counters; point estimate is the min
    over rows (always ≥ the true count). Per-batch sketches merge by
    elementwise SUM — the mergeable-state shape that lets 10^12 rows
    reduce to depth×width×8 bytes without a value-keyed shuffle. The
    salted-md5 row hashes (``md5_hash64(f'{j}|{v}')``) make the register
    state bit-replayable in SQL (md5_number_upper), like hll_registers."""

    __slots__ = ('depth', 'width', 'table')

    def __init__(self, depth: int = 4, width: int = 512):
        assert depth >= 1 and width >= 2
        self.depth = depth
        self.width = width
        self.table = np.zeros((depth, width), dtype=np.int64)

    def _buckets(self, value: str) -> np.ndarray:
        from .hashing import md5_hash64
        return np.array([md5_hash64(f'{j}|{value}') % self.width
                         for j in range(self.depth)], dtype=np.int64)

    def add_counts(self, values: Iterable[str], counts: Iterable[int]):
        for v, c in zip(values, counts):
            self.table[np.arange(self.depth), self._buckets(v)] += int(c)

    def estimate(self, value: str) -> int:
        return int(self.table[np.arange(self.depth),
                              self._buckets(value)].min())

    def merge(self, other: 'CountMinSketch') -> 'CountMinSketch':
        assert (self.depth, self.width) == (other.depth, other.width)
        out = CountMinSketch(self.depth, self.width)
        out.table = self.table + other.table
        return out

    def to_bytes(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, depth: int = 4,
                   width: int = 512) -> 'CountMinSketch':
        out = cls(depth, width)
        out.table = np.frombuffer(data, dtype=np.int64).reshape(
            depth, width).copy()
        return out


def cms_merged(ds, column: str, depth: int = 4,
               width: int = 512) -> 'CountMinSketch':
    """One CMS per batch (value_counts-combined), merged on the driver."""
    import pandas as pd

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        s = CountMinSketch(depth, width)
        vc = batch[column].astype(str).value_counts()
        s.add_counts(vc.index, vc.to_numpy())
        return pd.DataFrame({'sketch': [s.to_bytes()]})

    parts = ds.select_columns([column]).map_batches(sketch,
                                                    batch_format='pandas')
    from ..stages.relational import collect_rows
    merged = CountMinSketch(depth, width)
    for r in collect_rows(parts):
        merged = merged.merge(CountMinSketch.from_bytes(r['sketch'],
                                                        depth, width))
    return merged


def cms_heavy_hitters(ds, column: str, threshold: int, depth: int = 4,
                      width: int = 512):
    """(value, est_cnt) for every distinct value whose CMS estimate is ≥
    ``threshold``. The sketch state is the mergeable driver-side dim (a
    few KB); the candidate enumeration here walks the exact distinct dim
    so the result is deterministic and SQL-replayable — a streaming
    deployment would instead keep per-batch local top-k candidates and
    estimate only those (same sketch, partition-dependent candidate
    order, so not the oracle-gated variant)."""
    import ray

    from ..stages.relational import two_phase_count
    from ..state.broadcast import get_broadcast

    merged = cms_merged(ds, column, depth, width)
    ref = ray.put(merged.to_bytes())
    distinct = two_phase_count(ds.select_columns([column]), [column], 'cnt') \
        .drop_columns(['cnt'])

    def est(batch: pa.Table) -> pa.Table:
        s = CountMinSketch.from_bytes(get_broadcast(ref), depth, width)
        vals = batch.column(column)
        ests = np.array([s.estimate(str(v)) for v in vals.to_pylist()],
                        dtype=np.int64)
        keep = ests >= threshold
        return pa.Table.from_pydict({
            column: vals.filter(pa.array(keep)),
            'est_cnt': pa.array(ests[keep], pa.int64()),
        })

    return distinct.map_batches(est, batch_format='pyarrow')


def hll_registers(ds, column: str, p: int = 12, hash_fn=None):
    """The merged HLL REGISTER STATE as a (bucket, rank) table (nonzero
    buckets only). With an md5-based ``hash_fn`` the registers are
    bit-identical to a SQL replay (md5_number_upper + splitmix remix in
    mod-2^64 HUGEINT arithmetic) — gating the sketch's mergeable state
    exactly even though the final cardinality estimate is a float."""
    import pandas as pd
    merged = _merged_sketch(ds, column, p, hash_fn=hash_fn)
    nz = np.nonzero(merged.registers)[0]
    return pd.DataFrame({'bucket': nz.astype(np.int64),
                         'rank': merged.registers[nz].astype(np.int64)})


def hll_grouped_estimates(ds, group_col: str, value_col: str, p: int = 12,
                          hash_fn=None):
    """Per-GROUP approximate distinct via HLL — count(DISTINCT v) per key
    without a distinct shuffle: per-batch (group, bucket) max-rank
    partials (a head group costs ≤ 2^p rows per batch, never one row per
    value) combine two-phase, then one group-keyed exchange computes each
    group's deterministic estimate (``hll_estimate_deterministic`` — the
    exact-integer-sum form, so an md5 ``hash_fn`` makes the whole thing
    SQL-replayable float-bit-exact). Returns (group, approx_distinct)."""
    import pandas as pd

    from ..stages.relational import bucketed_map, two_phase_pandas_agg

    fn = hash_fn or stable_hash64

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hs = np.fromiter((fn(str(v)) for v in batch[value_col]),
                         dtype=np.uint64, count=len(batch))
        idx, ranks = hll_bucket_ranks(hs, p)
        df = pd.DataFrame({group_col: batch[group_col].to_numpy(),
                           'bucket': idx,
                           'rank': ranks.astype(np.int64)})
        return df.groupby([group_col, 'bucket'], sort=False,
                          dropna=False).max().reset_index()

    partials = ds.map_batches(partial, batch_format='pandas')
    regs = two_phase_pandas_agg(partials, [group_col, 'bucket'],
                                {'rank': ('rank', 'max')})

    def estimate(bucket: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for g, grp in bucket.groupby(group_col, sort=False, dropna=False):
            est = hll_estimate_deterministic(
                [int(r) for r in grp['rank']], p=p)
            rows.append((g, round(est, 6)))
        return pd.DataFrame({group_col: [r[0] for r in rows],
                             'approx_distinct': [r[1] for r in rows]})

    return bucketed_map(regs, [group_col], estimate)


class BloomFilter:
    """Salted-md5 Bloom filter: k bit positions per key, positions =
    hash(f'{i}|{key}') % m for i in 0..k-1 — the cross-crawl membership
    sketch ('have we ingested this url/id before') that incremental
    dedup needs at 100 TB: per-batch filters merge by bit-OR (KB-to-MB
    mergeable state, no value-keyed shuffle), false-positive rate
    (1-e^{-kn/m})^k is a capacity choice, false negatives are impossible.
    With an md5 hash the bit positions replay exactly in SQL
    (md5_number_upper(i || '|' || key) % m), so the merged state is
    exactness-gated like the HLL registers."""

    __slots__ = ('m', 'k', 'bits', 'hash_fn')

    def __init__(self, m: int = 16384, k: int = 4, hash_fn=None):
        self.m, self.k = m, k
        self.bits = np.zeros(m, dtype=bool)
        self.hash_fn = hash_fn or stable_hash64

    def _positions(self, key: str):
        return [self.hash_fn(f'{i}|{key}') % self.m for i in range(self.k)]

    def add(self, keys) -> None:
        for key in keys:
            for p in self._positions(str(key)):
                self.bits[p] = True

    def contains(self, key: str) -> bool:
        return all(self.bits[p] for p in self._positions(str(key)))

    def merge(self, other: 'BloomFilter') -> 'BloomFilter':
        assert (self.m, self.k) == (other.m, other.k)
        out = BloomFilter(self.m, self.k, self.hash_fn)
        out.bits = self.bits | other.bits
        return out

    def to_bytes(self) -> bytes:
        return np.packbits(self.bits).tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, m: int = 16384, k: int = 4,
                   hash_fn=None) -> 'BloomFilter':
        bf = cls(m, k, hash_fn)
        bf.bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8))[:m].astype(bool)
        return bf


def bloom_bits(ds, column: str, m: int = 16384, k: int = 4, hash_fn=None):
    """The merged Bloom STATE as a sorted (bit_pos) table: one filter per
    batch (map_batches), bit-OR merged on the driver — same shuffle-free
    shape as the HLL register build."""
    import pandas as pd

    def sketch(batch: pd.DataFrame) -> pd.DataFrame:
        bf = BloomFilter(m, k, hash_fn)
        bf.add(batch[column])
        return pd.DataFrame({'sketch': [bf.to_bytes()]})

    parts = ds.select_columns([column]).map_batches(sketch,
                                                    batch_format='pandas')
    from ..stages.relational import collect_rows
    merged = BloomFilter(m, k, hash_fn)
    for r in collect_rows(parts):
        merged = merged.merge(BloomFilter.from_bytes(r['sketch'], m, k,
                                                     hash_fn))
    nz = np.nonzero(merged.bits)[0]
    return pd.DataFrame({'bit_pos': nz.astype(np.int64)})


def _hdr_bucket(cents: np.ndarray) -> np.ndarray:
    """HDR-histogram bucket id for int64 values: values < 8 (negatives
    included) are exact per-value buckets; above, bucket = 8·floor(log2(v))
    + the 3 bits after the leading bit (≤ 12.5% relative error per bucket).
    The exponent comes from ``np.frexp`` on the float64 image; above 2^53
    that image can round up to the next power of two, so an exponent whose
    shift leaves nothing is one too high and steps back. The whole
    assignment replays in SQL as
    ``(length(bin(v)) − 1)·8 + ((v >> greatest(length(bin(v)) − 4, 0)) & 7)``."""
    c = np.asarray(cents, dtype=np.int64)
    exp = np.frexp(c.astype(np.float64))[1].astype(np.int64) - 1  # floor log2
    exp -= (c >> np.maximum(exp, 0)) == 0
    sub = (c >> np.maximum(exp - 3, 0)) & 7
    return np.where(c < 8, c, exp * 8 + sub)


def _hdr_lower_bound(bucket: int) -> int:
    """Inverse of :func:`_hdr_bucket`: the smallest value in the bucket.
    Ids 8..23 are unreachable (values < 8 land in the exact buckets 0..7,
    values ≥ 8 have exp ≥ 3 so bucket ≥ 24) but map to 8 to keep the
    function total and monotone."""
    if bucket < 8:
        return int(bucket)
    if bucket < 24:
        return 8
    exp, sub = divmod(int(bucket), 8)
    return (1 << exp) + sub * (1 << (exp - 3))


def hdr_quantiles(ds, value_col: str, qs=((1, 2), (9, 10), (99, 100))):
    """Mergeable streaming quantile sketch — the HDR-histogram/DDSketch
    family member this engine can oracle-gate exactly: per-batch integer
    log-bucket counts (≤ ~512 buckets for any int64 domain — KB-sized
    mergeable state, the latency-percentile industry standard), summed
    two-phase on the bucket key, quantiles selected from the merged
    histogram as the smallest bucket whose cumulative count reaches
    ``ceil(q·n)`` — evaluated as the INTEGER cross-multiplication
    ``den·cum ≥ num·n`` (qs are (num, den) rationals), so both engines
    agree bit-for-bit. Returns one row of bucket lower bounds (the
    sketch's ≤ 12.5%-relative-error answer) plus n; an empty input gives
    n=0 and null lower bounds.

    Contrast with relational.grouped_quantiles_exact: that one is EXACT
    but its shuffle is bounded by the DISTINCT-value dim; this sketch is
    bounded by ~512 buckets for ANY domain — the 100 TB path when the
    value domain itself is huge."""
    import pandas as pd
    from ..stages.relational import two_phase_sum, collect_pandas

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        buckets = _hdr_bucket(b[value_col].to_numpy())
        u, n = np.unique(buckets, return_counts=True)
        return pd.DataFrame({'bucket': u.astype(np.int64),
                             'n': n.astype(np.int64)})

    hist = collect_pandas(two_phase_sum(
        ds.map_batches(partial, batch_format='pandas'),
        ['bucket'], 'n', alias='n'))
    if hist.empty:
        # schema-less empty exchange: no bucket to select a quantile from
        return pd.DataFrame([{'n': 0, **{f'p{round(100 * num / den)}_lb': None
                                         for num, den in qs}}])
    hist = hist.sort_values('bucket')
    total = int(hist['n'].sum())
    cum = hist['n'].cumsum().to_numpy()
    buckets = hist['bucket'].to_numpy()
    row = {'n': total}
    for num, den in qs:
        idx = int(np.searchsorted(den * cum, num * total))
        pct = round(100 * num / den)
        row[f'p{pct}_lb'] = _hdr_lower_bound(buckets[idx])
    return pd.DataFrame([row])


def hdr_grouped_quantiles(ds, group_col: str, value_col: str,
                          qs=((1, 2), (9, 10), (99, 100))):
    """Per-group :func:`hdr_quantiles` — the per-host/per-tenant latency-
    percentile shape: ONE (group, bucket) two-phase sum (shuffle bounded
    by groups × ~512 buckets, never rows), then a per-group cumsum
    selection inside the same bucketed exchange. Same integer
    cross-multiplied quantile rule, same SQL replay per group."""
    import pandas as pd
    from ..stages.relational import two_phase_sum, bucketed_map

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        buckets = _hdr_bucket(b[value_col].to_numpy())
        out = pd.DataFrame({group_col: b[group_col].to_numpy(),
                            'bucket': buckets})
        g = out.groupby([group_col, 'bucket'], sort=False,
                        dropna=False).size()
        return g.rename('n').reset_index()

    hist = two_phase_sum(ds.map_batches(partial, batch_format='pandas'),
                         [group_col, 'bucket'], 'n', alias='n')

    def select(bucket_df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, g in bucket_df.groupby(group_col, sort=False,
                                        dropna=False):
            g = g.sort_values('bucket')
            cum = g['n'].cumsum().to_numpy()
            total = int(cum[-1])
            bk = g['bucket'].to_numpy()
            row = {group_col: key, 'n': total}
            for num, den in qs:
                idx = int(np.searchsorted(den * cum, num * total))
                row[f'p{round(100 * num / den)}_lb'] = \
                    _hdr_lower_bound(bk[idx])
            outs.append(row)
        return pd.DataFrame(outs)

    return bucketed_map(hist, [group_col], select)
