"""Generic relational operators, Ray-Data-first (SURVEY.md §2.4-2.6).

These back the reference's pandas-merge / Counter / most_common idioms
(impl/listing/extract.py J3-J4, O1-O3, A6-A7, A12-A14) as reusable stages:

* broadcast joins / semi / anti joins — small side via ``ray.put`` once,
  lookup inside ``map_batches`` (never a shuffle, never re-shipped per batch)
* two-phase aggregation — per-batch partial combine, then a small groupby
  (bounds all-to-all volume by #batches × per-batch key cardinality, the
  skew answer for head keys)
* per-group top-k / argmax / mode via keyed shuffles

Every keyed shuffle runs on ONE exchange, ``bucket_exchange``. Its
contract: the caller's keying stage puts an int32 ``_coarse`` column on
each block; blocks keep the format (Arrow or pandas) that stage emitted;
and ``bucket_fn`` gets each coarse bucket in the ``batch_format`` it asked
for (pandas via ``_to_plain_pandas``, or ``pa.Table``). ``bucketed_map``
is a hash-keying map stage plus that exchange.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import AGG_BATCH_SIZE


def train_val_test_split(ds, fractions=(0.6, 0.2), seed: int = 42):
    """Seeded shuffle + proportional split (O5, reference data/listing.py:99-111
    60/20/20 page split — seeded here, unlike the reference)."""
    return ds.random_shuffle(seed=seed).split_proportionately(list(fractions))


def seeded_sample(ds, fraction: float, seed: int = 42):
    """Seeded row sample (O5; reference sampling is unseeded — ours is not)."""
    return ds.random_sample(fraction, seed=seed)


def hash_sample(ds, id_col: str, rate_permille: int, salt: str = 'sample:42'):
    """Deterministic Bernoulli sample: keep rows where
    ``md5(salt + ':' + id) % 1000 < rate_permille`` — a pure function of the
    id, so the sample is identical on any engine, any run, any partitioning
    (the O5 shape that holds at 10^12 rows: no shuffle, no RNG state, and a
    resumed run re-selects exactly the same rows). Distinct salts give
    independent samples of the same table."""
    from ..functions.hashing import md5_hash64_batch

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        hv = md5_hash64_batch(batch[id_col], f'{salt}:')
        return batch[hv % 1000 < rate_permille]

    return ds.map_batches(keep, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE)


def stratified_sample(ds, stratum_col: str, id_col: str, k: int,
                      salt: str = 'strat:42'):
    """Deterministic stratified sample: the k rows per stratum with the
    smallest ``md5(salt + ':' + id)`` — like hash_sample, membership is a
    pure function of the id (engine-, run- and partitioning-independent;
    a resumed run re-selects the same rows), but with an exact per-stratum
    quota instead of a Bernoulli rate. Two-phase: a per-batch local top-k
    combiner cuts each batch to ≤k rows per stratum BEFORE the one
    stratum-keyed exchange, so the shuffle is bounded by k × strata ×
    batches, not the row count. Ties are impossible up to md5 collision;
    ``id_col`` breaks them totally anyway (mirrors the SQL row_number
    ORDER BY hash, id)."""
    from ..functions.hashing import md5_hash64_batch

    def local_head(batch: pd.DataFrame) -> pd.DataFrame:
        # order-preserving signed shift: uint64 md5 → int64 (uint64 columns
        # can demote to float through pandas exchanges; int64 never does);
        # XOR of the top bit == subtract 2^63 reinterpreted signed
        rk = (md5_hash64_batch(batch[id_col], f'{salt}:')
              ^ np.uint64(1 << 63)).view(np.int64)
        b = batch.assign(_rk=pd.Series(rk, index=batch.index, dtype='int64'))
        b = b.sort_values(['_rk', id_col], kind='mergesort')
        return b.groupby(stratum_col, sort=False, dropna=False).head(k)

    pre = ds.map_batches(local_head, batch_format='pandas',
                         batch_size=AGG_BATCH_SIZE)
    out = topk_per_group(pre, stratum_col, ['_rk', id_col], [True, True], k)
    return out.drop_columns(['_rk'])


def strip_schema_metadata(ds):
    """Drop schema-level metadata from every block (zero-copy). Pandas-
    written parquet carries a ``pandas`` metadata blob whose pa.Schema
    hash raises ``unhashable type: 'dict'``, making Ray's schema
    deduplication log a warning per task; stripping at the read seam
    silences the whole pipeline."""
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format='pyarrow')


def read_table(sf_dir: str, name: str, columns: Optional[List[str]] = None):
    """Column-pruned parquet read of a driver testdata table."""
    import ray.data as rd
    return strip_schema_metadata(
        rd.read_parquet(f'{sf_dir}/{name}.parquet', columns=columns))


def broadcast_join(ds, small_df: pd.DataFrame, left_on: str, right_on: str,
                   how: str = 'inner'):
    """Join a Dataset against a small dimension table: the dim is put in the
    object store once and merged per batch (J2/J4 pattern). Stateless tasks
    + process-local broadcast cache (one deserialize per worker process, no
    actor-pool cap — scales to every core the cluster has)."""
    from ..state.broadcast import get_broadcast
    if how not in ('inner', 'left'):
        # a per-batch right/outer merge would re-emit every unmatched dim
        # row once per batch — only stream-side-preserving joins are safe
        raise ValueError(f"broadcast_join supports how='inner'/'left', got {how!r}")
    # SQL equality never matches NULL = NULL; pandas merge would. With the
    # dim's null keys dropped, a null stream key simply finds no match
    # (dropped by inner, NaN-padded by left) — exactly the SQL outcome.
    ref = ray.put(small_df[small_df[right_on].notna()])

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(get_broadcast(ref), how=how,
                           left_on=left_on, right_on=right_on)

    return ds.map_batches(join_batch, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE)


def arrow_filter(ds, mask_fn):
    """Vectorized row filter: ``mask_fn(table) -> pyarrow BooleanArray``.

    Ray's row-lambda ``Dataset.filter(fn)`` costs ~1 ms/row of per-row
    Python dispatch; this applies one Arrow compute mask per batch instead
    (measured 8.5 s → <0.2 s on a 7k-row dim at sf0.1). Use for every
    predicate expressible with ``pyarrow.compute`` kernels."""
    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return t.filter(mask_fn(t))

    return ds.map_batches(fn, batch_format='pyarrow', batch_size=AGG_BATCH_SIZE)


def semi_anti_join(ds, keys, col: str, anti: bool = False):
    """Semi/anti join against a broadcast key set (reference anti-join idiom
    extract.py:286-289; at larger key cardinality the set becomes a Bloom
    filter shard — same shape)."""
    from ..state.broadcast import get_broadcast
    ref = ray.put(frozenset(keys))

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch) and col not in batch.columns:
            return batch   # schema-less empty block from an empty upstream
        keyset = get_broadcast(ref)   # one deserialize per worker process
        mask = batch[col].isin(keyset)
        return batch[~mask] if anti else batch[mask]

    return ds.map_batches(fn, batch_format='pandas', batch_size=AGG_BATCH_SIZE)


def collect_blocks(ds) -> List[pd.DataFrame]:
    """Materialize ``ds`` and fetch its blocks as pandas frames directly via
    the block refs. ``Dataset.take_all``/``to_pandas`` drain the streaming
    output queue bundle-by-bundle with a 10 ms driver poll per pop — seconds
    of pure latency on many-block datasets — while a materialize + bulk
    ``ray.get`` of the refs costs one execution and one parallel fetch.
    Driver-side collection: callers own the small-result contract."""
    mat = ds if hasattr(ds, 'iter_internal_ref_bundles') and \
        type(ds).__name__ == 'MaterializedDataset' else ds.materialize()
    return [_to_plain_pandas(blk) for blk in ray.get(_block_refs(mat))]


def _block_refs(mat_ds) -> list:
    """The block refs of a materialized Dataset. A plan that is only a
    source holding its blocks (``from_pandas_refs``, ``from_arrow``) hands
    them over as they are: iterating it would start an execution of its
    own."""
    dag = mat_ds._logical_plan.dag
    bundles = dag.output_data() if hasattr(dag, 'output_data') else None
    if bundles is None:
        bundles = mat_ds.iter_internal_ref_bundles()
    return [b for bundle in bundles for b in bundle.block_refs]


def collect_pandas(ds) -> pd.DataFrame:
    """Driver-side ``to_pandas`` without the per-bundle output-queue drain."""
    dfs = [d for d in collect_blocks(ds) if len(d)]
    if not dfs:
        return pd.DataFrame()
    return pd.concat(dfs, ignore_index=True)


def collect_rows(ds) -> List[dict]:
    """Driver-side ``take_all`` without the per-bundle output-queue drain.
    Row values mirror take_all semantics: list columns come back as Python
    lists (not ndarrays) and nulls in object columns as None (not NaN)."""
    df = collect_pandas(ds)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = [v.tolist() if isinstance(v, np.ndarray)
                     else (None if v is None or (isinstance(v, float) and np.isnan(v)) else v)
                     for v in df[c]]
    return df.to_dict('records')


def default_coarse() -> int:
    """Coarse-bucket count scaled to the cluster (4 tasks per CPU, clamped):
    final-merge parallelism and per-bucket memory both follow cluster size
    instead of a fixed constant."""
    try:
        cpus = int(ray.cluster_resources().get('CPU', 8))
    except Exception:
        cpus = 8
    return int(min(512, max(16, 4 * cpus)))


def pad_to_union(batch: pd.DataFrame, all_cols: Sequence[str],
                 types: Dict[str, "pa.DataType"], own) -> tuple:
    """Project a pandas batch onto a union schema as Arrow arrays: the
    batch's own columns are converted with their declared type, the other
    side's columns become TYPED null padding (``pa.nulls``) — int64 stays
    int64 through a tagged-union exchange instead of demoting to
    object/float64. Shared by ``shuffle_join`` and ``temporal._tagged_union``
    so null/typing fixes reach both. Returns (names, arrays)."""
    n = len(batch)
    names, cols = [], []
    for c in all_cols:
        names.append(c)
        cols.append(pa.array(batch[c], type=types[c], from_pandas=True)
                    if c in own else pa.nulls(n, types[c]))
    return names, cols


def _col_hash(s: pd.Series) -> np.ndarray:
    """Per-value uint64 hash that is a function of the VALUE ONLY, not of
    the batch's physical dtype. Arrow→pandas demotes an int64 block with a
    null to float64, so the same logical key column arrives as int64 in one
    batch and float64 in another; any dtype-dependent path (int fast-mod vs
    stringify, '1' vs '1.0') then scatters one key over several coarse
    buckets and every bucketed consumer emits duplicate/partial groups.
    Canonical forms: numeric → the float64 value (identical for an int64
    block and its null-demoted sibling; +0.0 folds -0.0 into +0.0; NaN is
    the null), everything else → str with an explicit null sentinel (object
    columns can carry None AND np.nan for the same logical NULL)."""
    if pd.api.types.is_numeric_dtype(s) and not pd.api.types.is_bool_dtype(s):
        v = s.astype('float64') + 0.0
        return pd.util.hash_pandas_object(v, index=False) \
            .to_numpy(dtype='uint64')
    st = s.astype(str)
    na = s.isna()
    if na.any():
        st = st.where(~na, '\x00null')
    # categorize=False: the default categorize path hashes the factorized
    # category index through a C routine that truncates at an embedded NUL,
    # so 'a\x00b' hashes DIFFERENTLY depending on which other values share
    # its batch — the same logical key then lands in different coarse
    # buckets on the two sides of an exchange and joins/groupbys silently
    # drop matches (found by the bigram pair key 'w1\x00w2').
    return pd.util.hash_pandas_object(st, index=False, categorize=False) \
        .to_numpy(dtype='uint64')


def _canon_key_str(s: pd.Series) -> pd.Series:
    """Value-canonical string rendering of a key column (same motivation as
    _col_hash): numeric columns render through float64 so an int64 block
    ('1') and its null-demoted float64 sibling ('1.0') agree.

    CONTRACT: the float64 round-trip means numeric keys with |v| > 2^53 are
    not exactly representable and two distinct big keys may render equal
    (spurious join). This path is only taken for MIXED-type joins (e.g. an
    int64 side against a string side) — when both sides are integer the
    exchange keeps the exact int64 key (see temporal._tagged_union both_int
    and equi-join's integer fast path), so >2^53 integer↔integer joins are
    exact. Callers joining numeric keys above 2^53 against strings must
    pre-render the numeric side to strings themselves."""
    if pd.api.types.is_numeric_dtype(s) and not pd.api.types.is_bool_dtype(s):
        return (s.astype('float64') + 0.0).astype(str)
    st = s.astype(str)
    na = s.isna()
    return st.where(~na, '\x00null') if na.any() else st


def _coarse_key(batch: pd.DataFrame, keys: Sequence[str], coarse: int) -> pd.Series:
    """Deterministic hash(keys) % coarse (siphash via pandas, fixed key),
    stable across batches regardless of physical dtype (see _col_hash)."""
    h = _col_hash(batch[keys[0]])
    for k in keys[1:]:
        h = h * np.uint64(1000003) + _col_hash(batch[k])
    return pd.Series(h % np.uint64(coarse), index=batch.index,
                     dtype='int32', name='_coarse')


# inputs at or below this size take the broadcast exchange instead of the
# full Ray all-to-all (whose fixed setup cost is seconds at 32 CPUs): R
# reducer tasks each read every block and keep their own hash range —
# total reads R × size ≤ R × 128 MiB, fully parallel, nothing driver-side.
# Above the gate the real sort-based shuffle runs (the only shape that
# holds at 100 TB). A shuffle is a pipeline barrier either way, so the
# materialize below does not change streaming semantics.
SMALL_EXCHANGE_BYTES = 128 * 1024 * 1024

#: right sides at or below this many materialized bytes broadcast through
#: shuffle_join's merge kernel instead of the union-shuffle (object-store
#: budget class: the dim is put once and read once per worker process).
#: 0 disables — tests force the shuffle path to pin regime equality.
JOIN_BROADCAST_BYTES = int(__import__('os').environ.get(
    'JOIN_BROADCAST_BYTES', 32 * 1024 * 1024))


def _to_plain_pandas(block) -> pd.DataFrame:
    """Block → pandas with extension dtypes (Ray tensor arrays, nullable
    Int64/boolean) demoted to plain object columns so cross-block concat
    never trips on ragged data. Missing values become np.nan, NOT pd.NA:
    object columns carrying pd.NA poison ordinary comparisons downstream
    (``Series.ne`` → ``vec_compare`` → ``bool(pd.NA)`` raises), while NaN
    keeps plain-object semantics."""
    from ray.data.block import BlockAccessor
    if isinstance(block, pa.Table) and block.num_rows == 0:
        # Ray's tensor-extension __from_arrow__ does array.chunk(0) and
        # crashes on the 0-chunk chunked arrays a filtered-to-empty block
        # carries; an empty frame with the right columns is all callers need
        return pd.DataFrame({c: pd.Series(dtype=object)
                             for c in block.column_names})
    df = BlockAccessor.for_block(block).to_pandas()
    for c in df.columns:
        if not isinstance(df[c].dtype, np.dtype):
            na = df[c].isna()
            has_na = bool(np.asarray(na).any())
            if not has_na:
                # NA-free extension columns (nullable Int64/boolean/Float64)
                # densify to their numpy dtype: an object demote here makes
                # every downstream kernel (sort/shift/groupby.agg) run
                # Python-object arithmetic — measured 60× on sessionize
                nd = getattr(df[c].dtype, 'numpy_dtype', None)
                if nd is not None:
                    df[c] = df[c].astype(nd)
                    continue
            col = df[c].astype(object)
            if has_na:
                col = col.where(~na, np.nan)
            df[c] = col
    return df


def _part_rows(block, part_id: int, n_parts: int):
    """Rows of one exchange block whose ``_coarse % n_parts == part_id``,
    still in the block's own format (Arrow or pandas): the filter runs on
    the int key before any conversion. None when no row qualifies."""
    arrow = isinstance(block, pa.Table)
    if not len(block) or '_coarse' not in (
            block.column_names if arrow else block.columns):
        return None   # schema-less empty block (e.g. empty upstream)
    mask = block['_coarse'].to_numpy() % n_parts == part_id
    if not mask.any():
        return None
    return block.filter(pa.array(mask)) if arrow else block[mask]


def _in_format(block, batch_format: str):
    """An exchange block (Arrow or pandas) in the format a bucket fn asked
    for: pandas via ``_to_plain_pandas``, or ``pa.Table``."""
    if batch_format == 'pandas':
        return _to_plain_pandas(block)
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def _without_coarse(bucket):
    if isinstance(bucket, pa.Table):
        return bucket.drop_columns(['_coarse'])
    return bucket.drop(columns=['_coarse'])


def _small_exchange(mat_ds, bucket_fn, coarse: int, batch_format: str):
    """Broadcast exchange for inputs under the gate: R reducer tasks each
    read every block (zero-copy plasma reads for Arrow blocks), keep their
    own hash range by filtering on ``_coarse`` before any conversion — so
    the format conversion totals one pass over the data across all
    reducers — and hand each coarse bucket to ``bucket_fn``."""
    import ray.data as rd
    block_refs = _block_refs(mat_ds)
    # reducers scale with input size (~8 MiB of input per reducer, one per
    # core at the 128 MiB gate), capped by bucket count: every reducer reads
    # every block and keeps only its hash range, so over-provisioned
    # reducers multiply total block fetches — at kilobyte scale ONE reducer
    # reading each block once is optimal
    size = mat_ds.size_bytes() or 0
    n_parts = max(1, min(default_coarse() // 4, coarse,
                         1 + size // (8 * 1024 * 1024)))

    @ray.remote
    def reduce_part(part_id: int, *blocks) -> pd.DataFrame:
        rows = [_part_rows(b, part_id, n_parts) for b in blocks]
        pieces = [_in_format(r, batch_format) for r in rows if r is not None]
        if not pieces:
            return pd.DataFrame()
        t = pd.concat(pieces, ignore_index=True) if batch_format == 'pandas' \
            else pa.concat_tables(pieces, promote_options='default')
        ck = t['_coarse'].to_numpy()
        outs = []
        for cv in pd.unique(ck):   # buckets in order of first appearance
            sel = ck == cv
            r = bucket_fn(_without_coarse(
                t[sel] if batch_format == 'pandas' else t.filter(pa.array(sel))))
            if r is not None and len(r):
                outs.append(r)
        if not outs:
            return pd.DataFrame()
        if isinstance(outs[0], pa.Table):
            return pa.concat_tables(outs, promote_options='default')
        return pd.concat(outs, ignore_index=True)

    refs = [reduce_part.remote(i, *block_refs) for i in range(n_parts)]
    return rd.from_pandas_refs(refs)


def bucket_exchange(ds, bucket_fn, coarse: Optional[int] = None,
                    batch_format: str = 'pandas'):
    """The one keyed exchange: ``ds``'s blocks already carry an int32
    ``_coarse`` column (computed by the caller's keying stage) and may be
    Arrow or pandas — each block keeps the format its keying stage
    emitted. ``bucket_fn`` receives every coarse bucket, minus ``_coarse``,
    in ``batch_format`` (``'pandas'`` or ``'pyarrow'``) and returns a
    DataFrame, a ``pa.Table`` (one of the two throughout) or None.
    Splitting a tagged Arrow union into sides before any pandas conversion
    keeps null-padded int64 columns exact (see ``shuffle_join``,
    ``stages/temporal``). Regimes: see ``SMALL_EXCHANGE_BYTES``."""
    if coarse is None:
        coarse = default_coarse()
    mat = ds.materialize()
    if (mat.size_bytes() or 0) <= SMALL_EXCHANGE_BYTES:
        return _small_exchange(mat, bucket_fn, coarse, batch_format)

    # Ray's sort cannot sample a mix of Arrow and pandas blocks: a mixed
    # input is converted to batch_format first, a uniform one is not
    @ray.remote
    def is_arrow(block) -> bool:
        return isinstance(block, pa.Table)

    if len(set(ray.get([is_arrow.remote(b) for b in _block_refs(mat)]))) > 1:
        mat = mat.map_batches(lambda b: _in_format(b, batch_format),
                              batch_format=None, batch_size=None)
    return mat.groupby('_coarse').map_groups(
        lambda g: bucket_fn(_without_coarse(g)), batch_format=batch_format)


def bucketed_map(ds, keys: Sequence[str], bucket_fn, coarse: Optional[int] = None,
                 batch_format: str = 'pandas'):
    """Shuffle rows once on hash(keys)%coarse and apply ``bucket_fn`` to each
    coarse bucket (a DataFrame, or a ``pa.Table`` for
    ``batch_format='pyarrow'``, containing complete groups). The bucket fn
    should use *vectorized* groupby ops — this is the fast path for
    high-cardinality keys where per-group Python calls dominate.

    The coarse key is computed ONCE in a map stage fused into the
    pre-barrier execution, which emits Arrow blocks (reducers filter them
    on the int key zero-copy) unless a batch carries nested values, and
    then ``bucket_exchange`` moves the rows."""
    keys = list(keys)
    if coarse is None:
        coarse = default_coarse()

    def add_bucket(batch: pd.DataFrame):
        if not len(batch) and keys[0] not in batch.columns:
            return batch   # schema-less empty block from an empty upstream
        batch = batch.copy()
        batch['_coarse'] = _coarse_key(batch, keys, coarse)
        # Nested (list-valued) object columns stay pandas: an arrow round
        # trip would hand list values back as ragged ndarrays, which
        # downstream pandas-block concat refuses to cast
        for c in batch.columns:
            if batch[c].dtype == object:
                nn = batch[c].dropna()
                first = nn.iloc[0] if len(nn) else None
                if isinstance(first, (list, tuple, np.ndarray, dict)):
                    return batch
        try:
            return pa.Table.from_pandas(batch, preserve_index=False)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
            return batch   # e.g. Python ints past int64 stay exact

    keyed = ds.map_batches(add_bucket, batch_format='pandas',
                           batch_size=AGG_BATCH_SIZE)
    return bucket_exchange(keyed, bucket_fn, coarse=coarse,
                           batch_format=batch_format)


def _nul_escape(v):
    """Bijective NUL-free encoding ('\\x01' escape char): pandas'
    groupby/factorize hashes object keys through a C-string path that
    TRUNCATES at an embedded NUL, silently conflating NUL-distinct keys
    that share a prefix (same root cause as the hash_pandas_object
    categorize bug). MULTI-column ``sort_values`` factorizes its keys the
    same way, so the relative ORDER of NUL-conflated keys is arbitrary —
    kernels needing a NUL-robust multi-key order must sort on escaped
    temps too. Group on escaped values, never on raw NULs."""
    if isinstance(v, str) and ('\x00' in v or '\x01' in v):
        return v.replace('\x01', '\x01\x01').replace('\x00', '\x01\x02')
    return v


_NUL_UNESC_RE = None


def _nul_unescape(v):
    global _NUL_UNESC_RE
    if isinstance(v, str) and '\x01' in v:
        import re
        if _NUL_UNESC_RE is None:
            _NUL_UNESC_RE = re.compile('\x01(.)', re.S)
        return _NUL_UNESC_RE.sub(
            lambda m: '\x00' if m.group(1) == '\x02' else '\x01', v)
    return v


def _nul_safe_temp_keys(df: pd.DataFrame, keys: Sequence[str]):
    """(group_cols, df) where object key columns containing a NUL are
    mirrored into escaped temp columns; non-affected keys pass through.
    Callers group on the returned columns and drop the temps."""
    gcols, temps = [], []
    for k in keys:
        s = df[k]
        # object OR any string dtype: a key carried as StringDtype /
        # ArrowDtype after an arrow round trip must take the NUL-safe path
        # too (factorize truncates at NUL for those just the same). The
        # object check stays separate — pandas 2.x is_string_dtype infers
        # on object arrays and returns False for mixed contents.
        if (s.dtype == object or pd.api.types.is_string_dtype(s)) and \
                s.map(lambda v: isinstance(v, str) and '\x00' in v).any():
            t = f'_nulsafe_{k}'
            df = df.assign(**{t: s.map(_nul_escape)})
            gcols.append(t)
            temps.append(t)
        else:
            gcols.append(k)
    return gcols, temps, df


def pin_arrow(ds, **cols):
    """Re-emit blocks as Arrow with explicit column types
    (kwargs: col='str'|'int'). The bucketed exchanges emit pandas blocks
    whose string columns surface as dtype('O'), which makes a downstream
    ``shuffle_join`` fall back to its canonical-string pandas path and
    flip-flop block schemas (the "RefBundle with a different schema"
    warnings — object-dtype exchange kernels, ~60× slower arithmetic).
    Pinning at every join input keeps the typed arrow path (typed null
    padding, int64 end-to-end). Columns not named are DROPPED; a column
    absent from a block is emitted as typed nulls."""
    types = {c: (pa.string() if t == 'str' else pa.int64())
             for c, t in cols.items()}
    schema = pa.schema(list(types.items()))

    def conv(df: pd.DataFrame) -> pa.Table:
        arrays = [pa.array(df[c] if c in df.columns else [None] * len(df),
                           type=t, from_pandas=True)
                  for c, t in types.items()]
        return pa.Table.from_arrays(arrays, schema=schema)

    return ds.map_batches(conv, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE)


def grouped_map(ds, keys: Sequence[str], fn, coarse: Optional[int] = None):
    """Apply ``fn(group_df) → DataFrame`` per distinct `keys` group.

    Shuffles ONCE on hash(keys)%coarse and runs a vectorized pandas
    groupby-apply inside each coarse bucket — same semantics as
    ``groupby(keys).map_groups(fn)`` but orders of magnitude faster when
    groups are small and numerous (Ray schedules per-group tasks; this
    schedules per-bucket tasks). Coarse buckets also bound task size for
    skewed keys: a hot key still lands in one bucket, so pair it with
    salting upstream when a single group can exceed a task's memory."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        gcols, temps, g2 = _nul_safe_temp_keys(g, list(keys))
        outs = [fn(sub.drop(columns=temps) if temps else sub)
                for _, sub in g2.groupby(gcols, sort=False, dropna=False)]
        outs = [o for o in outs if o is not None]
        if not outs:
            return pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    return bucketed_map(ds, keys, per_bucket, coarse=coarse)


def shuffle_join(left_ds, right_ds, left_on: str, right_on: str,
                 how: str = 'inner', coarse: Optional[int] = None,
                 right_hint: str = 'auto'):
    """Distributed hash join: both sides are co-partitioned on
    hash(key) % coarse in ONE union-shuffle, then merged per bucket with a
    vectorized pandas merge. Neither side is collected to the driver or
    broadcast — this is the join to use when the "dimension" side is itself
    dataset-sized (alias index, per-entity fact table). Key semantics match
    ``pd.merge`` (``how`` ∈ inner/left). Skewed join keys hash into one
    bucket; salt upstream if a single key's rows exceed a task's memory.

    ``right_hint``: 'auto' (default) materializes the right side once to
    measure its bytes for the broadcast gate — right for dim-or-unknown
    sides, and the materialized blocks are reused by the shuffle when the
    gate says no. 'fact' skips the gate AND the measuring materialization:
    use it when the right side is known dataset-sized, so it streams
    straight into the union-shuffle with full pipelining (results are
    identical either way — the gate only picks the regime).

    Columns from both sides are preserved (pandas ``_x``/``_y`` suffixes on
    clashes). Implementation: each side is projected onto the union schema
    with a ``_side`` tag so the two Datasets can travel one shuffle.

    ``how='outer'`` (SQL FULL OUTER): only the co-partitioned regimes —
    the broadcast fast path is structurally wrong for it (an unmatched
    right row would be re-emitted by EVERY left batch), so the gate is
    skipped. SQL null-key semantics hold on both sides: a null left key
    emits with right columns null, a null RIGHT key emits as an unmatched
    row with left columns null (pandas would match NaN keys to each other
    — they are dropped pre-merge and re-appended padded)."""
    if how not in ('inner', 'left', 'outer'):
        raise ValueError(
            f"shuffle_join supports how='inner'/'left'/'outer', got {how!r}")
    if right_hint not in ('auto', 'fact'):
        raise ValueError(f"right_hint must be 'auto'/'fact', got {right_hint!r}")
    if coarse is None:
        coarse = default_coarse()
    lcols = list(left_ds.schema().names)
    rcols = list(right_ds.schema().names)
    shared = [c for c in lcols if c in rcols]
    all_cols = lcols + [c for c in rcols if c not in lcols]

    def _pa_type_or_none(t):
        if isinstance(t, pa.DataType):
            return t
        if t is None:
            # Ray reports pandas extension columns (nullable Int64) as
            # None; np.dtype(None) would read it as float64
            return None
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except Exception:
            return None   # object/unknown — take the exact pandas path

    ltypes = {n: _pa_type_or_none(t) for n, t in
              zip(lcols, left_ds.schema().types)}
    rtypes = {n: _pa_type_or_none(t) for n, t in
              zip(rcols, right_ds.schema().types)}
    types, arrow_ok = {}, True
    for c in all_cols:
        lt, rt = ltypes.get(c), rtypes.get(c)
        if c in ltypes and c in rtypes:
            # present on BOTH sides (at least the join key): both types
            # must be KNOWN and equal — an unknown (object) side used to
            # be assumed compatible, letting a double-vs-object key reach
            # a typed merge and ValueError (hypothesis-caught)
            if lt is None or rt is None or lt != rt:
                arrow_ok = False
                break
            types[c] = lt
        else:
            t = lt if c in ltypes else rt
            if t is None:
                arrow_ok = False
                break
            types[c] = t

    def merge_sides(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        # SQL equality never matches NULL = NULL; pandas merge would join
        # NaN keys to each other. Null right keys can match nothing; a null
        # left key then finds no match (inner drops it, left/outer NaN-pads
        # it). For OUTER the dropped null-key right rows must come BACK as
        # unmatched rows (left columns null) — SQL keeps them.
        r_nullkey = r[r[right_on].isna()] if how == 'outer' else None
        r = r[r[right_on].notna()]
        if how in ('left', 'outer'):
            # a left/outer join NaN-fills columns for misses, which would
            # demote int64 payloads to float64 (lossy above 2^53) — object
            # dtype keeps exact ints + None, matching SQL NULL semantics.
            # Only integer columns need the (O(rows×cols) boxing) shield;
            # floats/strings/datetimes NaN-fill losslessly already. Outer
            # shields BOTH frames (left columns pad on right-only keys).
            int_cols = {c: object for c in r.columns
                        if pd.api.types.is_integer_dtype(r[c])}
            if int_cols:
                r = r.astype(int_cols)
            if how == 'outer':
                lint = {c: object for c in l.columns
                        if pd.api.types.is_integer_dtype(l[c])}
                if lint:
                    l = l.astype(lint)
                if r_nullkey is not None and len(r_nullkey):
                    r_nullkey = r_nullkey.astype(
                        {c: t for c, t in int_cols.items()
                         if c in r_nullkey.columns})
        out = l.merge(r, how=how, left_on=left_on, right_on=right_on,
                      suffixes=('_x', '_y')) if shared else \
            l.merge(r, how=how, left_on=left_on, right_on=right_on)
        if how == 'outer' and r_nullkey is not None and len(r_nullkey):
            pad = r_nullkey.copy()
            if shared:
                pad = pad.rename(columns={c: f'{c}_y' for c in pad.columns
                                          if f'{c}_y' in out.columns})
            for c in out.columns:
                if c not in pad.columns:
                    pad[c] = None
            out = pd.concat([out, pad[out.columns]], ignore_index=True)
        return out

    # BROADCAST regime: a dim-sized right side skips the union-shuffle
    # entirely — collected once, ray.put once, merged per LEFT batch with
    # the SAME merge_sides kernel (semantics identical by construction:
    # one side-by-side code path, gated only on measured bytes). This is
    # both the correct 10^12-row shape for genuinely small dims (type
    # vocab, degree dim of a small graph, kept-host sets) AND removes the
    # dominant fixed cost of iterative operators (pagerank/bfs/k-core
    # rounds) whose per-round dims are tiny. 0 disables (tests force the
    # shuffle path to pin regime equality). Only when arrow_ok: with
    # mixed/object key dtypes the raw per-batch merge can dtype-clash
    # (float64 vs object ValueError — hypothesis-caught); those joins
    # need the pandas fallback's canonical string keys below.
    rmat = right_ds.materialize() \
        if (arrow_ok and right_hint == 'auto' and how != 'outer') \
        else right_ds
    if arrow_ok and right_hint == 'auto' and how != 'outer' \
            and (rmat.size_bytes() or 0) <= JOIN_BROADCAST_BYTES:
        from ..state.broadcast import get_broadcast
        rblocks = collect_blocks(rmat)
        rdf = (pd.concat([b for b in rblocks if len(b)], ignore_index=True)
               if any(len(b) for b in rblocks) else
               pd.DataFrame({c: pd.Series(dtype=object) for c in rcols}))
        rdf = rdf[rcols] if all(c in rdf.columns for c in rcols) else \
            pd.DataFrame({c: pd.Series(dtype=object) for c in rcols})
        ref = ray.put(rdf)

        def bcast_merge(batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch) and left_on not in batch.columns:
                return batch   # schema-less empty block
            return merge_sides(batch, get_broadcast(ref))

        return left_ds.map_batches(bcast_merge, batch_format='pandas',
                                   batch_size=AGG_BATCH_SIZE)
    right_ds = rmat

    # ARROW blocks when every column type is known: typed null padding
    # travels the exchange (int64 stays int64 end-to-end) and the sides are
    # split arrow-side per bucket, so the padded values never reach pandas
    # and nothing demotes to float64. Otherwise (object columns / mismatched
    # types) PANDAS blocks, keyed on canonical strings, keep exact python
    # values — a slower exchange that never demotes.
    def tag(side: str, key_col: str, own):
        def fn(batch: pd.DataFrame):
            # the arrow path hashes the RAW key: pre-stringifying would
            # reintroduce the '1' vs '1.0' dtype flip _col_hash prevents
            key = batch[key_col] if arrow_ok else _canon_key_str(batch[key_col])
            ck = _coarse_key(pd.DataFrame({'_k': key}), ['_k'], coarse)
            if arrow_ok:
                names, cols = pad_to_union(batch, all_cols, types, own)
                return pa.Table.from_arrays(
                    cols + [pa.nulls(len(batch), pa.string()).fill_null(side),
                            pa.array(ck, type=pa.int32())],
                    names=names + ['_side', '_coarse'])
            out = batch.copy()
            for c in all_cols:
                if c not in out.columns:
                    out[c] = None
            out['_side'] = side
            out['_coarse'] = ck
            return out[all_cols + ['_side', '_coarse']]
        return fn

    tagged = left_ds.map_batches(
        tag('l', left_on, set(lcols)), batch_format='pandas',
        batch_size=AGG_BATCH_SIZE).union(
        right_ds.map_batches(
            tag('r', right_on, set(rcols)), batch_format='pandas',
            batch_size=AGG_BATCH_SIZE))

    def merge_bucket(t) -> pd.DataFrame:
        if arrow_ok:
            import pyarrow.compute as pc
            mask = pc.equal(t.column('_side'), 'l')
            return merge_sides(t.filter(mask).select(lcols).to_pandas(),
                               t.filter(pc.invert(mask)).select(rcols).to_pandas())
        left = t['_side'] == 'l'
        return merge_sides(t[left][lcols], t[~left][rcols])

    return bucket_exchange(tagged, merge_bucket, coarse=coarse,
                           batch_format='pyarrow' if arrow_ok else 'pandas')


_AGG_COMBINE = {'sum': 'sum', 'count': 'sum', 'max': 'max', 'min': 'min'}


def two_phase_pandas_agg(ds, keys: Sequence[str], spec: Dict[str, Tuple[Optional[str], str]],
                         coarse: Optional[int] = None):
    """Distributive aggregate with per-batch partial combine + coarse-bucket
    final merge. spec: out_col → (src_col|None, 'sum'|'count'|'max'|'min').
    One shuffle of pre-aggregated partials; head keys cost one partial row
    per batch, not one shuffled row per input row."""
    keys = list(keys)

    def _grouped(frame: pd.DataFrame, agg_of):
        # dropna=False: SQL GROUP BY keeps a NULL group; pandas' default
        # silently drops those rows and undercounts. NUL-bearing string
        # keys group on escaped temps (pandas factorize truncates at NUL
        # and conflates distinct keys) and are restored in the output.
        gcols, temps, f2 = _nul_safe_temp_keys(frame, keys)
        g = f2.groupby(gcols, sort=False, dropna=False)
        out = pd.DataFrame(agg_of(g)).reset_index()
        if temps:
            ren = {f'_nulsafe_{k}': k for k in keys
                   if f'_nulsafe_{k}' in temps}
            out = out.rename(columns=ren)
            for k in ren.values():
                out[k] = out[k].map(_nul_unescape)
        return out

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return _grouped(batch, lambda g: {
            out: (g.size() if how == 'count' else g[src].agg(how))
            for out, (src, how) in spec.items()})

    partials = ds.map_batches(partial, batch_format='pandas', batch_size=AGG_BATCH_SIZE)

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        return _grouped(bucket, lambda g: {
            out: g[out].agg(_AGG_COMBINE[how])
            for out, (src, how) in spec.items()})

    return bucketed_map(partials, keys, final, coarse=coarse)


def two_phase_count(ds, keys: Sequence[str], alias: str = 'cnt', coarse: Optional[int] = None):
    """groupby(keys).count() with per-batch partial combine."""
    return two_phase_pandas_agg(ds, keys, {alias: (None, 'count')}, coarse=coarse)


def two_phase_sum(ds, keys: Sequence[str], value_col: str, alias: str = 'total',
                  coarse: Optional[int] = None):
    """groupby(keys).sum(value) with per-batch partial combine."""
    return two_phase_pandas_agg(ds, keys, {alias: (value_col, 'sum')}, coarse=coarse)


def string_agg_per_group(ds, key: str, value_col: str, sep: str = ',',
                         alias: str = 'agg', cap: Optional[int] = None,
                         coarse: Optional[int] = None):
    """Deterministic SQL ``string_agg(DISTINCT v, sep ORDER BY v)`` per
    group: distinct (key, value) pairs collapse two-phase FIRST (a head
    value costs one partial row per batch, never one shuffled row per
    occurrence), then one key-bucketed exchange joins each group's sorted
    values. Output rows are group-sized, so the uncapped aggregate only
    makes sense where the per-group distinct-value dim is bounded (type
    vocabularies, tag sets); pass ``cap`` to keep only the first ``cap``
    sorted values per group (posting-list truncation — the bounded-output
    variant for head keys with corpus-sized value sets; SQL replays it as
    ``list_sort(list(DISTINCT v))[1:cap]``)."""
    pairs = two_phase_count(ds.map_batches(
        lambda df: df[[key, value_col]], batch_format='pandas'),
        [key, value_col], alias='_c').drop_columns(['_c'])

    def join_group(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(key, sort=False, dropna=False)[value_col] \
            .agg(lambda s: sep.join(sorted(s.astype(str))[:cap]))
        return g.rename(alias).reset_index()

    return bucketed_map(pairs, [key], join_group, coarse=coarse)


def _trunc_div(num: int, den: int) -> int:
    """Integer division TRUNCATING toward zero — DuckDB's ``//`` semantics
    (probed: -7 // 2 = -3), vs Python's flooring //. Shared by every
    signed fixed-point emission so both engines round identically."""
    num, den = int(num), int(den)
    q = abs(num) // abs(den)
    return q if (num >= 0) == (den >= 0) else -q


def grouped_moments(ds, key: str, x_col: str, y_col: Optional[str] = None,
                    scale: int = 1000, coarse: Optional[int] = None):
    """Exact-integer grouped second moments: per ``key`` group the count,
    population variance of ``x`` and (optionally) covariance of (x, y) —
    the stddev/var/covar analytics aggregates, in the repo's
    engine-replayable integer contract.

    ``x`` is floor-quantized to ``scale`` units (floor(x·scale), the same
    double op on both engines); all moments (Σx, Σx², Σy, Σxy) are INTEGER
    sums combined two-phase, so association order can never move a ulp.
    Emitted: ``n``, ``var_q`` = (n·Σx² − (Σx)²) // n² (population variance
    in scale² units; numerator ≥ 0 so floor == trunc) and ``cov_q`` =
    trunc((n·Σxy − Σx·Σy) / n²) — TRUNCATING division because the
    covariance can be negative and DuckDB's ``//`` truncates while
    Python's floors (``_trunc_div``). ``y`` must already be integer-valued
    (e.g. an extracted hour).

    Scale note: per-batch partials fit int64 by the quantization bound
    (|x·scale| ≤ ~2³¹ keeps Σx² ≤ ~2⁶² per 65k batch); the partials are
    then carried as OBJECT (exact Python ints) through the combine, so a
    head key summed across 10^12 rows can exceed int64 without wrapping —
    the unbounded-int HUGEINT analog used throughout the repo."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = np.floor(batch[x_col].to_numpy(dtype=np.float64)
                     * scale).astype(np.int64)
        cols = {key: batch[key].to_numpy(),
                '_n': np.ones(len(batch), dtype=np.int64),
                '_sx': x, '_sxx': x * x}
        if y_col is not None:
            y = batch[y_col].to_numpy(dtype=np.int64)
            cols['_sy'] = y
            cols['_sxy'] = x * y
        g = pd.DataFrame(cols).groupby(key, sort=False, dropna=False) \
            .sum().reset_index()
        # object dtype from here on: the cross-batch combine must never
        # wrap int64 for a head key at corpus scale
        for c in g.columns:
            if c != key:
                g[c] = g[c].map(int).astype(object)
        return g

    partials = ds.map_batches(partial, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
    spec = {'_n': ('_n', 'sum'), '_sx': ('_sx', 'sum'),
            '_sxx': ('_sxx', 'sum')}
    if y_col is not None:
        spec['_sy'] = ('_sy', 'sum')
        spec['_sxy'] = ('_sxy', 'sum')
    agg = two_phase_pandas_agg(partials, [key], spec, coarse=coarse)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df['_n'].map(int)
        sx = df['_sx'].map(int)
        sxx = df['_sxx'].map(int)
        out = {key: df[key],
               'n': n.astype('int64'),
               'var_q': pd.Series(
                   [(nn * xx - ss * ss) // (nn * nn)
                    for nn, ss, xx in zip(n, sx, sxx)], index=df.index,
                   dtype='int64')}
        if y_col is not None:
            sy = df['_sy'].map(int)
            sxy = df['_sxy'].map(int)
            out['cov_q'] = pd.Series(
                [_trunc_div(nn * xy - ss * yy, nn * nn)
                 for nn, ss, yy, xy in zip(n, sx, sy, sxy)],
                index=df.index, dtype='int64')
        return pd.DataFrame(out)

    return agg.map_batches(finalize, batch_format='pandas')


def pivot_counts(ds, row_key: str, col_key: str,
                 coarse: Optional[int] = None):
    """Long → wide COUNT pivot (the SQL ``PIVOT … USING count(*)``
    contract): one row per distinct ``row_key``, one int64 column per
    distinct ``col_key`` value (sorted, stringified — DuckDB's dynamic
    PIVOT naming), missing combinations 0.

    Scale shape: counts pre-aggregate two-phase (a head (row, col) pair
    costs one partial row per batch), then ONE row-keyed exchange widens
    each bucket. The COLUMN set is the distinct ``col_key`` dim — a
    pivot's output schema is driver-known by definition, so that dim is
    collected (small by the same contract that makes a wide table
    writable); the ROW dim never touches the driver."""
    counts = two_phase_count(ds, [row_key, col_key], alias='_n')
    cols = sorted(str(c) for c in counts.unique(col_key))

    def widen(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.copy()
        b[col_key] = b[col_key].astype(str)
        p = b.pivot_table(index=row_key, columns=col_key, values='_n',
                          aggfunc='sum', fill_value=0)
        p = p.reindex(columns=cols, fill_value=0).astype('int64')
        p.columns = list(cols)
        return p.reset_index()

    return bucketed_map(counts, [row_key], widen, coarse=coarse)


def unpivot(ds, id_cols: Sequence[str], value_cols: Sequence[str],
            var_name: str = 'variable', value_name: str = 'value'):
    """Wide → long melt: stateless vectorized per-batch ``pd.melt`` — no
    exchange at all (each output row derives from one input row), so it
    streams at any scale. Inverse of ``pivot_counts`` up to row order
    (property-pinned round trip)."""
    id_cols, value_cols = list(id_cols), list(value_cols)

    def melt(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.melt(id_vars=id_cols, value_vars=value_cols,
                          var_name=var_name, value_name=value_name)

    return ds.map_batches(melt, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE)


def topk_per_group(ds, group_key: str, sort_cols: List[str],
                   ascending: List[bool], k: int):
    """Per-group top-k (O1): coarse-bucket shuffle + in-group sort/head.
    Ties are broken by the full sort_cols list, so callers must make it
    total."""
    def head(bucket: pd.DataFrame) -> pd.DataFrame:
        s = bucket.sort_values(sort_cols, ascending=ascending, kind='mergesort')
        return s.groupby(group_key, sort=False, dropna=False).head(k)

    return bucketed_map(ds, [group_key], head)


def mode_per_group(ds, group_key: str, value_col: str, alias: str = 'mode'):
    """Most frequent value per group, ties → lexicographic min (O3,
    reference Counter.most_common majority vote). Two-phase: pair counts
    first, then argmax over the (small) distinct-pair table."""
    counts = two_phase_count(ds, [group_key, value_col], alias='cnt')

    def argmax(bucket: pd.DataFrame) -> pd.DataFrame:
        s = bucket.sort_values(['cnt', value_col], ascending=[False, True], kind='mergesort')
        s = s.drop_duplicates(subset=[group_key], keep='first')
        return s[[group_key, value_col]].rename(columns={value_col: alias})

    return bucketed_map(counts, [group_key], argmax)


def functional_keys(ds, key_col: str, subject_col: str, threshold: float = 0.95):
    """A12 (reference heuristics.py:163-184): a key is functional iff ≥
    threshold of its subjects have exactly one row. Returns
    (key, n_subjects, functional_ratio)."""
    per_subj = two_phase_count(ds, [key_col, subject_col], alias='n')

    def ratio(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.assign(_one=(bucket['n'] == 1).astype('int64'))
        g = bucket.groupby(key_col, sort=False, dropna=False)
        out = pd.DataFrame({'n_subjects': g.size(), '_ones': g['_one'].sum()}).reset_index()
        # floor-scaling, not round: pandas half-even vs DuckDB half-away
        # differ on exact midpoints (power-of-two subject counts)
        out['functional_ratio'] = np.floor(
            out['_ones'] / out['n_subjects'] * 1e6) / 1e6
        return out.drop(columns=['_ones'])

    return bucketed_map(per_subj, [key_col], ratio)


def grouped_quantiles_exact(ds, group_cols: Sequence[str], value_col: str,
                            qs: Sequence[float] = (0.5, 0.9, 0.99),
                            alias_prefix: str = 'q'):
    """EXACT distributed quantiles over a discrete value domain: a two-phase
    (group, value) histogram count bounds the shuffle by the distinct-value
    dim (not the row count), then one exchange computes each group's
    discrete quantiles from its full histogram via cumsum. ``quantile_disc``
    semantics: the smallest value whose cumulative count reaches
    ``ceil(q·n)``. Quantize continuous values upstream (e.g. floor to
    cents) — that is what keeps the histogram, and therefore the shuffle,
    bounded at any row count."""
    group_cols = list(group_cols)

    def quants(bucket: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, g in bucket.groupby(group_cols, sort=False, dropna=False):
            g = g.sort_values(value_col, kind='mergesort')
            cum = g['cnt'].cumsum().to_numpy()
            n = int(cum[-1])
            vals = g[value_col].to_numpy()
            row = {c: v for c, v in zip(group_cols,
                                        key if isinstance(key, tuple) else (key,))}
            for q in qs:
                target = max(1, int(np.ceil(q * n)))
                row[f'{alias_prefix}{int(round(q * 100))}'] = vals[
                    int(np.searchsorted(cum, target))]
            outs.append(row)
        return pd.DataFrame(outs)

    hist = two_phase_count(ds, group_cols + [value_col], alias='cnt')
    return bucketed_map(hist, group_cols, quants)


def grouped_rank(ds, group_key: str, value_col: str, ascending: bool = False,
                 rank_alias: str = 'rnk', dense_alias: str = 'drnk'):
    """SQL ``rank()`` + ``dense_rank()`` per group over ``value_col``
    (ties share a rank; rank leaves gaps, dense_rank doesn't). ONE
    group-keyed exchange, then vectorized ``groupby().rank()`` per bucket
    — no per-group apply, no total sort. NULL group keys form one
    partition (SQL ``PARTITION BY``)."""
    def per_bucket(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(group_key, sort=False, dropna=False)[value_col]
        out = b.copy()
        out[rank_alias] = g.rank(
            method='min', ascending=ascending).astype('int64')
        out[dense_alias] = g.rank(
            method='dense', ascending=ascending).astype('int64')
        return out

    return bucketed_map(ds, [group_key], per_bucket)


def snapshot_diff(old_ds, new_ds, key: str, cols: Sequence[str]):
    """CDC-style diff of two snapshots of the same table: one FULL OUTER
    ``shuffle_join`` on ``key``, then a vectorized row classification —
    ``added`` (key only in new), ``removed`` (key only in old),
    ``changed`` (key in both, any of ``cols`` differs; SQL ``IS DISTINCT
    FROM`` — NULL vs non-NULL counts as a change, NULL vs NULL doesn't).
    Unchanged rows are dropped. This is the incremental-crawl primitive:
    diff today's snapshot against yesterday's without materializing
    either side on the driver. Returns (key, change) rows."""
    cols = list(cols)

    def rename_new(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={key: f'{key}__new',
                                 **{c: f'{c}__new' for c in cols}})

    new_r = new_ds.map_batches(rename_new, batch_format='pandas')
    j = shuffle_join(old_ds, new_r, key, f'{key}__new', how='outer')

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        old_k = b[key]
        new_k = b[f'{key}__new']
        added = old_k.isna().to_numpy()
        removed = new_k.isna().to_numpy()
        diff = np.zeros(len(b), dtype=bool)
        for c in cols:
            a, n = b[c], b[f'{c}__new']
            both_null = (a.isna() & n.isna()).to_numpy()
            eq = (a.astype(object).to_numpy() == n.astype(object).to_numpy())
            diff |= ~(both_null | eq)
        changed = ~added & ~removed & diff
        keep = added | removed | changed
        change = np.where(added[keep], 'added',
                          np.where(removed[keep], 'removed', 'changed'))
        kk = old_k.astype(object).where(~old_k.isna(), new_k.astype(object))
        return pd.DataFrame({key: kk.to_numpy()[keep], 'change': change})

    return j.map_batches(classify, batch_format='pandas')


def distinct_intersect(a_ds, b_ds, col_a: str, col_b: str,
                       alias: str = 'key'):
    """SQL ``INTERSECT`` of two key columns: the distinct keys present on
    BOTH sides. Each side is deduped per batch (partial distinct), tagged
    with a side bit, and the union travels ONE key-keyed exchange where a
    per-bucket groupby keeps keys whose side-bit OR is 3 — no driver
    collect, no second shuffle. NULL keys intersect if present on both
    sides (SQL INTERSECT distinct semantics treat NULLs as equal)."""
    def tag(col: str, bit: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            k = b[col].drop_duplicates()
            return pd.DataFrame({alias: k.to_numpy(),
                                 '_side': np.full(len(k), bit, dtype='int64')})
        return f

    a_t = a_ds.map_batches(tag(col_a, 1), batch_format='pandas')
    b_t = b_ds.map_batches(tag(col_b, 2), batch_format='pandas')
    both = a_t.union(b_t)

    def keep_both(b: pd.DataFrame) -> pd.DataFrame:
        # side bits are 1 and 2: a key saw BOTH sides iff min==1 and max==2
        # (vectorized C-path agg — no per-group Python)
        m = b.groupby(alias, sort=False, dropna=False)['_side'].agg(
            ['min', 'max'])
        keys = m[(m['min'] == 1) & (m['max'] == 2)].index
        return pd.DataFrame({alias: keys.to_numpy()})

    return bucketed_map(both, [alias], keep_both)


def distinct_except(a_ds, b_ds, col_a: str, col_b: str,
                    alias: str = 'key'):
    """SQL ``EXCEPT``: the distinct keys of side A that do NOT appear on
    side B. Same one-exchange shape as :func:`distinct_intersect` — per
    batch partial distinct + side-bit tag, then a per-bucket groupby that
    keeps keys whose side-bit max stayed 1 (never saw B). NULL keys follow
    SQL EXCEPT distinct semantics (a NULL on B removes A's NULL)."""
    def tag(col: str, bit: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            k = b[col].drop_duplicates()
            return pd.DataFrame({alias: k.to_numpy(),
                                 '_side': np.full(len(k), bit, dtype='int64')})
        return f

    a_t = a_ds.map_batches(tag(col_a, 1), batch_format='pandas')
    b_t = b_ds.map_batches(tag(col_b, 2), batch_format='pandas')
    both = a_t.union(b_t)

    def keep_a_only(b: pd.DataFrame) -> pd.DataFrame:
        m = b.groupby(alias, sort=False, dropna=False)['_side'].agg(
            ['min', 'max'])
        keys = m[(m['min'] == 1) & (m['max'] == 1)].index
        return pd.DataFrame({alias: keys.to_numpy()})

    return bucketed_map(both, [alias], keep_a_only)


def bloom_semi_join(fact_ds, dim_ds, fact_on: str, dim_on: str,
                    m: int = 1 << 20, k: int = 4,
                    exact_verify: bool = True):
    """Bloom-prefiltered semi join — the shuffle-volume reducer for
    fact ⋉ dim at corpus scale: a Bloom filter over the DISTINCT dim keys
    is built from per-batch partial filters (bit-OR mergeable KB..MB
    state, no value-keyed shuffle — the bloom_bits shape), ``ray.put``
    once, and every fact batch drops non-members BEFORE the exact
    exchange, so the expensive co-partition sees |matches| + false
    positives rows instead of the whole fact table. With
    ``exact_verify=True`` (default) survivors then run the real
    distinct-key semi join and the capacity-chosen false-positive rate
    ``(1−e^{−kn/m})^k`` is removed — the RESULT IS EXACT; the Bloom pass
    only changes how many rows travel. ``exact_verify=False`` returns the
    prefiltered stream for fp-tolerant consumers (candidate generation).

    False negatives are impossible, so no match is ever lost. Hashing is
    the vectorized salted md5 (``md5_hash64_batch(key, f'{i}|')``), the
    same position contract as :class:`~..functions.sketches.BloomFilter`.
    NULL fact keys match nothing (SQL semi-join semantics)."""
    from ..functions.hashing import md5_hash64_batch
    from ..state.broadcast import get_broadcast

    dkeys = two_phase_count(dim_ds, [dim_on], alias='_c') \
        .drop_columns(['_c'])

    def sketch(b: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(m, dtype=bool)
        vals = b[dim_on][b[dim_on].notna()]
        for i in range(k):
            bits[md5_hash64_batch(vals, f'{i}|') % m] = True
        return pd.DataFrame({'sketch': [np.packbits(bits).tobytes()]})

    merged = np.zeros(m, dtype=bool)
    for r in collect_rows(dkeys.map_batches(sketch, batch_format='pandas',
                                            batch_size=AGG_BATCH_SIZE)):
        merged |= np.unpackbits(
            np.frombuffer(r['sketch'], dtype=np.uint8))[:m].astype(bool)
    ref = ray.put(merged)

    def prefilter(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b) and fact_on not in b.columns:
            return b
        bits = get_broadcast(ref)
        ok = b[fact_on].notna().to_numpy()
        sub = b[fact_on][ok]
        hit = np.ones(len(sub), dtype=bool)
        for i in range(k):
            hit &= bits[md5_hash64_batch(sub, f'{i}|') % m]
        ok[ok] = hit
        return b[ok]

    survivors = fact_ds.map_batches(prefilter, batch_format='pandas',
                                    batch_size=AGG_BATCH_SIZE)
    if not exact_verify:
        return survivors
    # empty-stream guard: when the prefilter drops EVERY row (e.g. empty
    # dim → all-zero filter) the survivor dataset loses its schema through
    # map_batches and shuffle_join cannot derive the union frame
    if survivors.schema() is None or dkeys.schema() is None:
        cols = list(fact_ds.schema().names)
        return ray.data.from_pandas(pd.DataFrame(
            {c: pd.Series(dtype=object) for c in cols}))
    out = shuffle_join(survivors, dkeys, fact_on, dim_on,
                       right_hint='fact')
    return out.drop_columns([dim_on]) if dim_on != fact_on else out


def salted_join(left_ds, right_ds, left_on: str, right_on: str,
                salts: int = 8, how: str = 'inner'):
    """Skew-mitigating salted hash join: the right side is replicated
    ``salts``× (one copy per salt), left rows take a round-robin salt, and
    the join runs on the (key, salt) composite — a hot key's rows split
    across ``salts`` sub-buckets instead of landing in ONE task, at the
    cost of shipping the right side ``salts``×. This is the regime for a
    fact⋈medium-dim join whose key distribution is so skewed that one
    bucket of :func:`shuffle_join` exceeds a task's memory (the docstring
    advice there: "salt upstream"). The output row multiset is identical
    to ``shuffle_join`` — the salt assignment never changes the match set
    (pytest-pinned equality on hot-key + null frames).

    ``how``: 'inner' or 'left' (a left row carries exactly one salt, so an
    unmatched left row pads once). 'outer' is structurally wrong under
    replication — an unmatched RIGHT row would appear ``salts``× — and
    raises. NULL keys match nothing (SQL semantics; filtered before the
    composite renders). Composite keys render exactly: int64 through
    ``astype(str)`` (no float round-trip), everything else through
    ``_canon_key_str``."""
    if how not in ('inner', 'left'):
        raise ValueError(
            f"salted_join supports how='inner'/'left', got {how!r}")
    if salts < 2:
        raise ValueError('salts must be >= 2 (1 would be shuffle_join)')

    def render(s: pd.Series) -> pd.Series:
        if pd.api.types.is_integer_dtype(s):
            return s.astype('int64').astype(str)
        return _canon_key_str(s)

    def salt_left(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[left_on].notna()] if how == 'inner' else b
        salt = np.arange(len(b), dtype=np.int64) % salts
        jk = np.where(b[left_on].notna(),
                      render(b[left_on]) + '|' + salt.astype(str),
                      # left-join null keys must survive to pad, but match
                      # nothing: a salt no right replica carries
                      '\x00null|-1')
        return b.assign(_saltk=pd.Series(jk, index=b.index))

    def replicate_right(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[right_on].notna()]
        ks = render(b[right_on])
        copies = [b.assign(_saltk=ks + f'|{s}') for s in range(salts)]
        return pd.concat(copies, ignore_index=True)

    l2 = left_ds.map_batches(salt_left, batch_format='pandas',
                             batch_size=AGG_BATCH_SIZE)
    r2 = right_ds.map_batches(replicate_right, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
    # empty-side guard (hypothesis-caught): a ZERO-ROW side loses its
    # schema through map_batches (Dataset.schema() → None) and
    # shuffle_join cannot derive the union frame. shuffle_join probes
    # schemas up front anyway, so these probes add no extra execution.
    lcols = list(left_ds.schema().names)
    rcols = list(right_ds.schema().names)
    if l2.schema() is None or (r2.schema() is None and how == 'inner'):
        all_cols = lcols + [c for c in rcols if c not in lcols]
        return ray.data.from_pandas(pd.DataFrame(
            {c: pd.Series(dtype=object) for c in all_cols}))
    if r2.schema() is None:   # how == 'left': every left row pads once
        def pad(b: pd.DataFrame) -> pd.DataFrame:
            for c in rcols:
                if c not in b.columns:
                    b = b.assign(**{c: None})
            return b
        return left_ds.map_batches(pad, batch_format='pandas',
                                   batch_size=AGG_BATCH_SIZE)
    out = shuffle_join(l2, r2, '_saltk', '_saltk', how=how, right_hint='fact')
    return out.drop_columns(['_saltk'])


def band_lookup_count(ds, col: str, edges: Sequence[float],
                      labels: Sequence[str], alias: str = 'band',
                      cnt_alias: str = 'n'):
    """Broadcast range join against a tiny interval dimension: assign each
    row's ``col`` to the half-open band ``[edges[i], edges[i+1])`` with a
    vectorized ``np.searchsorted`` inside ``map_batches`` (the
    broadcast-small-side range-join regime — the band edges ship once in
    the task closure, no shuffle, unlike the keyed
    ``temporal.range_join`` which co-partitions two dataset-sized sides),
    then count rows per band two-phase. Values outside
    ``[edges[0], edges[-1])`` and NULLs match no band (SQL inner-join
    drop). ``len(labels) == len(edges) - 1``."""
    if len(labels) != len(edges) - 1:
        raise ValueError('labels must have len(edges) - 1 entries')
    lo, hi = float(edges[0]), float(edges[-1])
    edge_arr = np.asarray(edges, dtype=np.float64)
    label_arr = np.asarray(labels, dtype=object)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64, na_value=np.nan)
        in_range = (v >= lo) & (v < hi)  # NaN compares False on both
        idx = np.searchsorted(edge_arr, v[in_range], side='right') - 1
        return pd.DataFrame({alias: label_arr[idx]})

    banded = ds.map_batches(assign, batch_format='pandas',
                            batch_size=AGG_BATCH_SIZE)
    return two_phase_count(banded, [alias], alias=cnt_alias)


def weighted_race_topk(ds, id_col: str, weight_col: str, k: int,
                       salt: str = 'wrs:42'):
    """Deterministic weighted top-k race sample: each row draws a uniform
    ``u = md5(salt + ':' + id)`` (as a 64-bit integer) and competes with
    race key ``u / w`` — the k smallest keys win, so larger weights
    systematically draw smaller keys. This is the division-only analogue
    of Efraimidis–Spirakis exponential jumps (``-ln(u')/w``): a single
    IEEE division replays bit-identically in any engine (DuckDB
    ``CAST(md5_number_upper(…) AS DOUBLE) / w``) where ``ln`` would not,
    keeping the sample a pure function of (salt, id, weight) — identical
    on any run, any partitioning, resumable like :func:`hash_sample`.

    Scale shape: a per-batch bottom-k combiner prunes each batch to k rows
    BEFORE the final exchange, so the sort sees ≤ k × batches rows, never
    the corpus. Rows with weight ≤ 0 or NULL never win (SQL ``WHERE w >
    0``); ties (md5 collisions) break on id."""
    from ..functions.hashing import md5_hash64_batch

    def local_bottomk(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[weight_col].to_numpy(dtype=np.float64, na_value=np.nan)
        ok = w > 0  # NaN compares False
        b = batch[ok]
        if not len(b):
            return pd.DataFrame({id_col: batch[id_col].iloc[:0],
                                 weight_col: batch[weight_col].iloc[:0],
                                 'race_key': pd.Series(dtype='float64')})
        u = md5_hash64_batch(b[id_col], f'{salt}:').astype(np.float64)
        key = u / w[ok]
        b = b[[id_col, weight_col]].assign(
            race_key=pd.Series(key, index=b.index, dtype='float64'))
        b = b.sort_values(['race_key', id_col], kind='mergesort')
        return b.head(k)

    pre = ds.map_batches(local_bottomk, batch_format='pandas',
                         batch_size=AGG_BATCH_SIZE)
    # global winner merge over the pruned ≤ k × batches rows: after the
    # sort the limit is a deterministic prefix (unsorted Dataset.limit is
    # NOT deterministic under the streaming executor)
    return pre.sort(['race_key', id_col]).limit(k)


def column_profile(ds, columns: Sequence[str]):
    """Per-column data profiling — the schema-audit operator every
    ingest pipeline runs before training: for each requested column the
    row count, NULL count, exact distinct count and min/max (rendered as
    strings so heterogenous column types share one output schema).

    Scale shape: rows/nulls/min/max come from ONE streamed pass of
    per-batch partials (constant-size: |columns| rows per batch) combined
    on the driver; the exact distinct counts cost one distinct exchange
    PER COLUMN (`two_phase_count` → count), so the audit is
    1 + |columns| streamed passes and the output is |columns| rows
    regardless of data size — the same contract as the FK audit.
    Min/max string rendering uses repr-shortest float formatting
    (Python ``str`` == DuckDB ``CAST(x AS VARCHAR)`` for ints, strings
    and round-trip doubles); profiling timestamp columns through this
    operator would need a format shim and is not supported."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            s = batch[c]
            nn = s.dropna()
            rows.append({
                'col': c,
                '_rows': len(s),
                '_nulls': int(s.isna().sum()),
                '_min': str(nn.min()) if len(nn) else None,
                '_max': str(nn.max()) if len(nn) else None,
                # the source dtype decides how the renderings combine
                '_numeric': pd.api.types.is_numeric_dtype(s)
                and not pd.api.types.is_bool_dtype(s),
            })
        return pd.DataFrame(rows)

    parts = collect_pandas(ds.map_batches(partial, batch_format='pandas',
                                          batch_size=AGG_BATCH_SIZE))
    # SQL count(DISTINCT x) ignores NULLs — drop them before the exchange
    distincts = {c: int(two_phase_count(
        ds.map_batches(lambda b, c=c: b[[c]].dropna(), batch_format='pandas'),
        [c]).count()) for c in columns}

    out_rows = []
    for c in columns:
        g = parts[parts['col'] == c]
        mins = g['_min'].dropna()
        maxs = g['_max'].dropna()
        # string min/max over the per-batch string renderings is only
        # valid when string order == value order; for numeric columns
        # compare the parsed values instead (a VARCHAR of digit strings
        # stays lexicographic, as in SQL)
        numeric = bool(g.loc[g['_min'].notna(), '_numeric'].all())

        def _best(series, fn):
            if not len(series):
                return None
            if not numeric:
                return fn(series)
            vals = [float(v) for v in series]
            return str(series.iloc[int(np.argmax(vals))]) \
                if fn is max else str(series.iloc[int(np.argmin(vals))])
        # re-render numeric min/max without a trailing '.0' mismatch:
        # keep the per-batch rendering verbatim (both sides str() the
        # same scalar type)
        out_rows.append({
            'col': c,
            'n_rows': int(g['_rows'].sum()),
            'n_nulls': int(g['_nulls'].sum()),
            'n_distinct': distincts[c],
            'min_str': _best(mins, min),
            'max_str': _best(maxs, max),
        })
    out = pd.DataFrame(out_rows).sort_values('col').reset_index(drop=True)
    for c in ('n_rows', 'n_nulls', 'n_distinct'):
        out[c] = out[c].astype('int64')
    return out


def grouped_entropy(ds, key: str, value_col: str, coarse: Optional[int] = None):
    """Shannon entropy (nats) of the ``value_col`` distribution per
    ``key`` group — the distribution-concentration signal data-curation
    pipelines use for domain/source diversity weighting.

    Scale shape: the (key, value) counts collapse two-phase FIRST (a
    head pair costs one partial row per batch), then ONE key-bucketed
    exchange computes per-group ``H = ln(n) − Σ c·ln(c) / n`` from the
    integer counts. Floats appear only in the final per-group expression
    over exact integers (ln/sum of a bounded per-group value vocabulary),
    matching the module's floor-scaling convention; emitted entropy is
    floor-scaled to 6dp."""
    pairs = two_phase_count(ds.map_batches(
        lambda b: b[[key, value_col]], batch_format='pandas'),
        [key, value_col], alias='_c')

    def per_group(bucket: pd.DataFrame) -> pd.DataFrame:
        c = bucket['_c'].to_numpy(dtype=np.float64)
        g = pd.DataFrame({key: bucket[key], '_c': c,
                          '_clnc': c * np.log(c)})
        agg = g.groupby(key, sort=False, dropna=False).agg(
            n=('_c', 'sum'), k=('_c', 'size'), s=('_clnc', 'sum'))
        ent = np.log(agg['n'].to_numpy()) - agg['s'].to_numpy() / agg['n'].to_numpy()
        out = pd.DataFrame({
            key: agg.index.to_numpy(),
            'n_rows': agg['n'].to_numpy().astype('int64'),
            'n_values': agg['k'].to_numpy().astype('int64'),
            'entropy': np.floor(ent * 1e6) / 1e6})
        return out

    return bucketed_map(pairs, [key], per_group, coarse=coarse)


def grouped_corr(ds, key: str, x_col: str, y_col: str, scale: int = 1000,
                 coarse: Optional[int] = None):
    """Pearson correlation of (x, y) per ``key`` group in the repo's
    engine-replayable contract: x is floor-quantized to ``scale`` units, y
    must already be integer-valued, and ALL moments (Σx, Σx², Σy, Σy²,
    Σxy) are exact integer sums carried as unbounded Python ints (the
    HUGEINT analog), so association order can never move a ulp. Floats
    appear only in the single final expression
    ``corr = (n·Σxy − Σx·Σy) / sqrt((n·Σx² − Σx²ᵗ)·(n·Σy² − Σy²ᵗ))``
    evaluated over exact integers — int→double conversion, sqrt and
    division are all IEEE correctly-rounded, so DuckDB replays the value
    bit-for-bit. Emitted floor-scaled to 6dp; groups with zero variance
    on either axis are dropped (SQL ``HAVING`` — corr undefined)."""
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # object arrays of Python ints: x², xy, y² and their per-batch
        # group sums pass 2^63 once |x| or |y| passes ~3e9
        x = np.floor(batch[x_col].to_numpy(dtype=np.float64)
                     * scale).astype(np.int64).astype(object)
        y = batch[y_col].to_numpy(dtype=np.int64).astype(object)
        g = pd.DataFrame({key: batch[key].to_numpy(),
                          '_n': np.ones(len(batch), dtype=np.int64),
                          '_sx': x, '_sxx': x * x,
                          '_sy': y, '_syy': y * y,
                          '_sxy': x * y}) \
            .groupby(key, sort=False, dropna=False).sum().reset_index()
        for c in g.columns:
            if c != key:
                g[c] = g[c].map(int).astype(object)
        return g

    partials = ds.map_batches(partial, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
    agg = two_phase_pandas_agg(
        partials, [key],
        {c: (c, 'sum') for c in ('_n', '_sx', '_sxx', '_sy', '_syy', '_sxy')},
        coarse=coarse)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in df.iterrows():
            n, sx, sxx = int(r['_n']), int(r['_sx']), int(r['_sxx'])
            sy, syy, sxy = int(r['_sy']), int(r['_syy']), int(r['_sxy'])
            vx = n * sxx - sx * sx
            vy = n * syy - sy * sy
            if vx <= 0 or vy <= 0:
                continue
            cov = n * sxy - sx * sy
            corr = math.floor(
                float(cov) / math.sqrt(float(vx * vy)) * 1e6) / 1e6
            rows.append({key: r[key], 'n': n, 'corr': corr})
        if not rows:
            return pd.DataFrame({key: pd.Series(dtype='object'),
                                 'n': pd.Series(dtype='int64'),
                                 'corr': pd.Series(dtype='float64')})
        out = pd.DataFrame(rows)
        out['n'] = out['n'].astype('int64')
        return out

    return agg.map_batches(finalize, batch_format='pandas')


def _skyline_mask_2d(price_q: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Vectorized 2D skyline membership (maximize ``price_q``, minimize
    ``day``, both int64): a point is dominated iff another point has
    price ≥ AND day ≤ with at least one strict. O(n log n): sort by
    (price desc, day asc); cross-price-group dominance is a prefix-min
    of day over strictly-greater prices, within-group dominance is a
    strictly smaller day at equal price. Duplicate points (equal on both
    axes) all survive — none dominates its twin."""
    n = len(price_q)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((day, -price_q))
    p, d = price_q[order], day[order]
    new_grp = np.r_[True, p[1:] != p[:-1]]
    grp_start = np.maximum.accumulate(
        np.where(new_grp, np.arange(n), 0))
    cm = np.minimum.accumulate(d)
    prev_min = np.where(grp_start > 0,
                        cm[np.maximum(grp_start - 1, 0)],
                        np.iinfo(np.int64).max)
    dom_cross = prev_min <= d
    dom_within = d > d[grp_start]
    keep_sorted = ~(dom_cross | dom_within)
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def pareto_front(ds, group_key: str, max_col: str, min_col: str,
                 scale: int = 100, coarse: Optional[int] = None):
    """Grouped skyline (pareto-front) query: per ``group_key`` the rows
    not dominated on (maximize ``max_col``, minimize ``min_col``).
    ``max_col`` is floor-quantized to ``scale`` units (both engines run
    the same double op); ``min_col`` must already be integer.

    Scale shape: dominance is transitive, so a LOCAL skyline inside each
    batch is a valid pre-prune (anything dominated within a batch cannot
    be in the global front) — the group-keyed exchange then sees only the
    per-batch fronts, and ONE ``grouped_map`` computes the exact skyline
    per group with the same O(n log n) vectorized kernel. Mirrors the
    partial-combine contract of every aggregate in this module."""
    def local_front(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in batch.groupby(group_key, sort=False, dropna=False):
            pq = np.floor(g[max_col].to_numpy(dtype=np.float64)
                          * scale).astype(np.int64)
            dy = g[min_col].to_numpy(dtype=np.int64)
            out.append(g[_skyline_mask_2d(pq, dy)])
        return pd.concat(out) if out else batch.iloc[:0]

    pre = ds.map_batches(local_front, batch_format='pandas',
                         batch_size=AGG_BATCH_SIZE)
    return grouped_map(pre, [group_key], local_front, coarse=coarse)


def association_lift(ds, basket_key: str, item_col: str,
                     coarse: Optional[int] = None):
    """Market-basket association rules over (basket, item) events — the
    recsys/co-engagement primitive: for every ordered item pair (a, b)
    the basket co-occurrence count plus support / confidence / lift.

    Scale shape: (basket, item) pairs dedupe two-phase FIRST, then ONE
    basket-keyed exchange emits the within-basket ordered pairs (each
    basket's distinct-item set is the bounded dim — type vocabularies,
    not corpus rows), and the pair counts collapse two-phase. Per-item
    basket counts are a |items|-row dim collected once. All statistics
    are single floor-scaled expressions over exact integer counts."""
    pairs = two_phase_count(ds.map_batches(
        lambda b: b[[basket_key, item_col]], batch_format='pandas'),
        [basket_key, item_col], alias='_c').drop_columns(['_c'])
    pairs = pairs.materialize()

    n_baskets = int(two_phase_count(pairs, [basket_key]).count())
    item_counts = collect_pandas(two_phase_count(pairs, [item_col],
                                                 alias='n'))
    n_of = dict(zip(item_counts[item_col], item_counts['n'].map(int)))

    def within_basket(bucket: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in bucket.groupby(basket_key, sort=False, dropna=False):
            items = sorted(g[item_col])
            for a in items:
                for b in items:
                    if a != b:
                        out_a.append(a)
                        out_b.append(b)
        return pd.DataFrame({'item_a': np.array(out_a, dtype=object),
                             'item_b': np.array(out_b, dtype=object)})

    co = two_phase_count(grouped_map(pairs, [basket_key], within_basket),
                         ['item_a', 'item_b'], alias='n_ab', coarse=coarse)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in df.iterrows():
            n_ab = int(r['n_ab'])
            n_a, n_b = n_of[r['item_a']], n_of[r['item_b']]
            rows.append({
                'item_a': r['item_a'], 'item_b': r['item_b'],
                'n_ab': n_ab,
                'support': math.floor(n_ab / n_baskets * 1e6) / 1e6,
                'confidence': math.floor(n_ab / n_a * 1e6) / 1e6,
                'lift': math.floor(
                    float(n_ab * n_baskets) / float(n_a * n_b) * 1e6) / 1e6})
        if not rows:
            return pd.DataFrame({
                'item_a': pd.Series(dtype=object),
                'item_b': pd.Series(dtype=object),
                'n_ab': pd.Series(dtype='int64'),
                'support': pd.Series(dtype='float64'),
                'confidence': pd.Series(dtype='float64'),
                'lift': pd.Series(dtype='float64')})
        out = pd.DataFrame(rows)
        out['n_ab'] = out['n_ab'].astype('int64')
        return out

    return co.map_batches(finalize, batch_format='pandas')


def weighted_race_topk_per_group(ds, group_key: str, id_col: str,
                                 weight_col: str, k: int,
                                 salt: str = 'wrs:42',
                                 coarse: Optional[int] = None):
    """Per-group deterministic weighted top-k race sample — the grouped
    variant of :func:`weighted_race_topk` (same division-only
    Efraimidis–Spirakis race key ``md5(salt:id) / w``, same exactness
    contract): each group's k smallest race keys win. Per-batch
    PER-GROUP bottom-k combiners prune before the ONE group-keyed
    exchange, so the exchange sees ≤ k × batches rows per group, never
    the corpus. Rows with weight ≤ 0 or NULL never win; ties break on
    id."""
    from ..functions.hashing import md5_hash64_batch

    def local_bottomk(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[weight_col].to_numpy(dtype=np.float64, na_value=np.nan)
        ok = w > 0
        b = batch[ok]
        if not len(b):
            return pd.DataFrame({group_key: batch[group_key].iloc[:0],
                                 id_col: batch[id_col].iloc[:0],
                                 weight_col: batch[weight_col].iloc[:0],
                                 'race_key': pd.Series(dtype='float64')})
        u = md5_hash64_batch(b[id_col], f'{salt}:').astype(np.float64)
        b = b[[group_key, id_col, weight_col]].assign(
            race_key=pd.Series(u / w[ok], index=b.index, dtype='float64'))
        b = b.sort_values(['race_key', id_col], kind='mergesort')
        return b.groupby(group_key, sort=False, dropna=False).head(k)

    pre = ds.map_batches(local_bottomk, batch_format='pandas',
                         batch_size=AGG_BATCH_SIZE)

    def head(bucket: pd.DataFrame) -> pd.DataFrame:
        s = bucket.sort_values(['race_key', id_col], kind='mergesort')
        return s.groupby(group_key, sort=False, dropna=False).head(k)

    return bucketed_map(pre, [group_key], head, coarse=coarse)


def grouping_sets_sum(ds, sets: Sequence[Sequence[str]], value_col: str,
                      alias: str = 'total', coarse: Optional[int] = None):
    """SQL ``GROUP BY GROUPING SETS`` in ONE streamed pass: every batch
    emits partial sums for EVERY grouping set (fan-out of pre-aggregated
    partials only — ``|sets| × groups-per-batch`` rows, never ``|sets| ×``
    input rows), tagged with the standard ``GROUPING_ID`` bitmask (bit i
    set ⇔ the i-th key column is aggregated away), then one exchange
    keyed on (gid, keys) combines. Aggregated-away key columns travel as
    NULL — the gid disambiguates a genuine NULL group value from grouping
    padding, exactly the SQL contract. Subsumes ROLLUP/CUBE (they are
    grouping-set families)."""
    all_keys = []
    for s in sets:
        for k in s:
            if k not in all_keys:
                all_keys.append(k)
    set_info = []
    for s in sets:
        gid = 0
        for i, k in enumerate(all_keys):
            if k not in s:
                gid |= 1 << (len(all_keys) - 1 - i)
        set_info.append((gid, list(s)))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for gid, keys in set_info:
            if keys:
                g = batch.groupby(keys, sort=False, dropna=False)[
                    value_col].sum().reset_index().rename(
                    columns={value_col: '_s'})
            else:
                g = pd.DataFrame({'_s': [batch[value_col].sum()]})
            for k in all_keys:
                if k not in keys:
                    g[k] = None
            g['gid'] = np.int64(gid)
            frames.append(g[['gid'] + all_keys + ['_s']])
        return pd.concat(frames, ignore_index=True)

    partials = ds.map_batches(partial, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
    return two_phase_pandas_agg(partials, ['gid'] + all_keys,
                                {alias: ('_s', 'sum')}, coarse=coarse)
