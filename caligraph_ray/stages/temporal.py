"""Temporal / ordered-data operators: as-of join, range join,
sessionization, per-key rolling windows.

These are operators the reference lacks but a large-scale training-data /
event pipeline needs (SURVEY.md §2 additions; the as-of and range joins are
the custom operators called out in the build brief). All are expressed as
compositions of the repo's one-shuffle primitives:

* co-partition both sides on the equality key with ONE tagged-union
  exchange (``bucketed_map``), then run the vectorized pandas kernel
  (``merge_asof`` / interval mask / ``groupby`` + ``rolling``) inside each
  bucket — complete key groups per bucket is the only partitioning
  assumption, the same contract as ``shuffle_join``.
* per-key skew: a single hot key lands in one bucket; salt upstream if one
  key's rows exceed a task's heap (documented in relational.bucketed_map).

Timestamps travel the exchange as int64 epoch-micros and are restored on
emit. The tagged union ships ARROW blocks with typed null padding (never
object columns); each bucket splits sides arrow-side before converting to
pandas, so null-free int64 payloads stay exact through the exchange.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import AGG_BATCH_SIZE


def _ts_to_int(s: pd.Series) -> pd.Series:
    """datetime64[*] → nullable Int64 epoch-micros (no-op for integer
    columns). tz-aware columns are converted to UTC then made naive
    (pandas 2.x refuses a direct astype); NaT becomes <NA>, never the iNaT
    sentinel (-2^63) — a NULL timestamp must not sort/match as year
    -290308."""
    if isinstance(s.dtype, pd.DatetimeTZDtype):
        s = s.dt.tz_convert('UTC').dt.tz_localize(None)
    if pd.api.types.is_datetime64_any_dtype(s):
        vals = s.astype('datetime64[us]').astype('int64')   # NaT → iNaT
        return vals.astype('Int64').mask(s.isna())
    return s.astype('Int64')


def _ts_to_int_arrow(col: "pa.ChunkedArray") -> "pa.Array":
    """Arrow-side twin of _ts_to_int: timestamp (any unit, tz-aware stores
    UTC internally) → int64 epoch-micros, nulls preserved as nulls (never
    the iNaT sentinel). Integer columns pass through as int64."""
    import pyarrow.compute as pc
    t = col.type
    if pa.types.is_timestamp(t):
        if t.unit != 'us':
            col = pc.cast(col, pa.timestamp('us', tz=t.tz))
        return pc.cast(col, pa.int64()).combine_chunks()
    return pc.cast(col, pa.int64()).combine_chunks()


def _tagged_union(left_ds, right_ds, key_left: str, key_right: str,
                  lcols: List[str], rcols: List[str],
                  ts_left: str, ts_right: str, coarse: int):
    """Project both sides onto a shared ARROW schema with a ``_side`` tag,
    the equality key as ``_k``, the (int64) order column as ``_ts`` and the
    exchange key precomputed as ``_coarse`` — one Dataset that travels one
    ``bucket_exchange(batch_format='pyarrow')``. The other side's payload
    columns are TYPED null padding (pa.nulls), never object columns: int64
    stays int64 through the exchange, and the bucket fn drops the padded
    values arrow-side before any pandas conversion, so nothing ever demotes
    to float64 (exactness above 2^53 preserved)."""
    from .relational import _coarse_key

    def _pa_type(t):
        # Ray reports pandas-backed blocks' types as numpy/Python types;
        # object (incl. all-null) columns travel as string
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except (TypeError, ValueError, pa.ArrowNotImplementedError):
            pass
        # pandas nullable extension dtypes (Int64Dtype, Float64Dtype, ...)
        # carry their base numpy dtype — a nullable-Int64 key column must
        # stay an INTEGER key (string fallback would route the join through
        # the float-rendering canon path and corrupt keys above 2^53)
        base = getattr(t, 'numpy_dtype', None)
        if base is not None:
            try:
                return pa.from_numpy_dtype(base)
            except (TypeError, ValueError, pa.ArrowNotImplementedError):
                pass
        return pa.string()

    def _schema_types(ds):
        # read the RAW block schema: Schema.types converts pandas dtypes to
        # arrow and silently yields None where it can't (e.g. nullable
        # Int64Dtype) — np.dtype(None) is float64, which would misroute an
        # integer key through the float-rendering canon-string path
        s = ds.schema()
        base = getattr(s, 'base_schema', None)
        if isinstance(base, pa.Schema):
            return {n: base.field(n).type for n in base.names}
        if base is not None and hasattr(base, 'types'):
            return dict(zip(base.names, base.types))
        return dict(zip(s.names, s.types))

    ltypes = {n: _pa_type(t) for n, t in _schema_types(left_ds).items()}
    rtypes = {n: _pa_type(t) for n, t in _schema_types(right_ds).items()}
    clash = [c for c in rcols if c in lcols]
    if clash:
        # one transit column per name cannot carry two sides' payloads;
        # callers rename upstream (the output would collide anyway)
        raise ValueError(
            f'right_cols {clash} also exist on the left side — rename the '
            f'right columns before the join (select_columns + map_batches)')
    all_cols = lcols + [c for c in rcols if c not in lcols]
    types = {**{c: rtypes[c] for c in rcols}, **{c: ltypes[c] for c in lcols}}
    # the two sides' key columns must concat to ONE type: int64 when both
    # are integers, else string
    both_int = (pa.types.is_integer(ltypes[key_left])
                and pa.types.is_integer(rtypes[key_right]))
    ktype = pa.int64() if both_int else pa.string()

    def tag(side: str, key_col: str, ts_col: str, own: List[str]):
        # ARROW-in: a pandas batch would already have demoted an int64 key
        # block containing one null to float64, corrupting co-resident keys
        # above 2^53 before any projection code runs (round-2 advice bug)
        own_set = set(own)

        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            n = t.num_rows
            names, cols = [], []
            for c in all_cols:
                names.append(c)
                if c in own_set:
                    col = t.column(c)
                    if col.type != types[c]:
                        col = pc.cast(col, types[c])
                    cols.append(col.combine_chunks())
                else:
                    cols.append(pa.nulls(n, types[c]))
            if both_int:
                key_arr = pc.cast(t.column(key_col), pa.int64()) \
                    .combine_chunks()
            else:
                # canonical stringify (not astype(str)): a null must not
                # become the literal 'nan'/'None', and a numeric column
                # must render identically however it reaches pandas
                # ('1' vs '1.0') — see relational._canon_key_str's contract
                from .relational import _canon_key_str
                kpd = t.column(key_col).to_pandas()
                key = _canon_key_str(kpd).where(kpd.notna(), None)
                key_arr = pa.array(key, type=pa.string(), from_pandas=True)
            ts_arr = _ts_to_int_arrow(t.column(ts_col))
            # coarse-bucket hash: a function of the VALUE only (the pandas
            # round trip may float-render big ints, but identically for
            # every occurrence of a key, so bucketing stays consistent)
            coarse_ser = _coarse_key(
                pd.DataFrame({'_k': key_arr.to_pandas()}), ['_k'], coarse)
            names += ['_side', '_k', '_ts', '_coarse']
            cols += [
                pa.nulls(n, pa.string()).fill_null(side),
                key_arr,
                ts_arr,
                pa.array(coarse_ser, type=pa.int32()),
            ]
            return pa.Table.from_arrays(cols, names=names)
        return fn

    return left_ds.map_batches(tag('l', key_left, ts_left, lcols),
                               batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE).union(
        right_ds.map_batches(tag('r', key_right, ts_right, rcols),
                             batch_format='pyarrow',
                             batch_size=AGG_BATCH_SIZE))


def _split_sides(t: "pa.Table", lkeep: List[str], rkeep: List[str]):
    """Bucket table → (left_df, left_nullkey_df, right_df).

    The NULL-key/NULL-ts filter runs ARROW-side (pc.is_valid) BEFORE
    to_pandas: if it ran after, one null in the slice would demote the
    whole int64 ``_k``/``_ts`` column to float64 and silently corrupt
    surviving keys above 2^53 before any cast back. Right-side null rows
    are dropped (they match nothing in SQL); left-side null rows are
    returned separately so a LEFT join can keep them unmatched."""
    import pyarrow.compute as pc
    lmask = pc.equal(t.column('_side'), 'l')
    lt = t.filter(lmask).select(lkeep)
    ok = pc.and_kleene(pc.is_valid(lt.column('_k')),
                       pc.is_valid(lt.column('_ts')))
    ok = pc.fill_null(ok, False)
    l = lt.filter(ok).to_pandas()
    l_null = lt.filter(pc.invert(ok)).to_pandas()
    rt = t.filter(pc.invert(lmask)).select(rkeep)
    rok = pc.fill_null(pc.and_kleene(pc.is_valid(rt.column('_k')),
                                     pc.is_valid(rt.column('_ts'))), False)
    r = rt.filter(rok).to_pandas()
    return l, l_null, r


def _norm_transit(df: pd.DataFrame) -> pd.DataFrame:
    """Dtype safety net behind the arrow-side null filter in _split_sides:
    with nulls filtered before to_pandas the int64 transit columns never
    demote, so these casts are exact no-ops; they only fire if a caller
    hands a frame that took another path to pandas."""
    out = {'_ts': df['_ts'].astype('int64')}
    if pd.api.types.is_float_dtype(df['_k']):
        out['_k'] = df['_k'].astype('int64')
    return df.assign(**out)


def asof_join(left_ds, right_ds, key_left: str, key_right: str,
              ts_left: str, ts_right: str,
              right_cols: Sequence[str], direction: str = 'backward',
              inner: bool = True):
    """As-of join: for every left row, the single right row of the same key
    whose timestamp is the latest ≤ the left timestamp (``backward``; the
    DuckDB ``ASOF JOIN`` contract) or earliest ≥ (``forward``).

    Right-side timestamp ties must be resolved upstream (one row per
    (key, ts)); with ties the winner is the last row in (ts, input) order.
    Returns the left columns plus ``right_cols``; ``inner`` drops left rows
    without a match (ASOF LEFT JOIN when False). Match/no-match is decided
    by an internal marker, not by payload nullness — a matched right row
    with NULL payload columns survives an inner join, as in SQL."""
    from .relational import bucket_exchange, default_coarse
    lcols = list(left_ds.schema().names)
    rkeep = [c for c in right_cols]
    coarse = default_coarse()
    tagged = _tagged_union(left_ds, right_ds, key_left, key_right,
                           lcols, rkeep, ts_left, ts_right, coarse)

    def merge(t) -> pd.DataFrame:
        # SQL comparison semantics: a NULL key or NULL timestamp matches
        # nothing (filtered arrow-side in _split_sides, which also keeps the
        # int64 transit columns from demoting); unmatchable left rows
        # survive only a left join
        l, l_null, r = _split_sides(t, lcols + ['_k', '_ts'],
                                    rkeep + ['_k', '_ts'])
        if not len(l) and not len(l_null):
            return pd.DataFrame()
        l = _norm_transit(l)
        r = _norm_transit(r)
        l = l.sort_values(['_ts'], kind='mergesort')
        r = r.sort_values(['_ts'], kind='mergesort').reset_index(drop=True)
        # only an int64 row POSITION travels through merge_asof: unmatched
        # left rows NaN-fill the merged column (demoting it to float64), but
        # a row index is always < 2^53 so the demotion is lossless — the
        # actual right payloads are gathered afterwards by position, keeping
        # int64 columns exact (the old object-dtype exchange's guarantee)
        rpos = r[['_k', '_ts']].copy()
        rpos['_ri'] = np.arange(len(rpos), dtype=np.int64)
        merged = pd.merge_asof(
            l, rpos, on='_ts', by='_k', direction=direction,
            allow_exact_matches=True)
        matched = merged['_ri'].notna()
        if inner:
            merged = merged[matched]
            idx = merged['_ri'].to_numpy(dtype=np.int64)
            for c in rkeep:
                merged[c] = r[c].to_numpy()[idx] if len(r) else None
            return merged[lcols + rkeep]
        idx = merged['_ri'].fillna(0).to_numpy(dtype=np.int64)
        m = matched.to_numpy()
        for c in rkeep:
            if len(r) and m.all():
                merged[c] = r[c].to_numpy()[idx]
            else:
                vals = np.empty(len(merged), dtype=object)
                if len(r):
                    vals[m] = r[c].to_numpy()[idx[m]]
                vals[~m] = None
                merged[c] = vals
        out = merged[lcols + rkeep]
        if len(l_null):   # left join keeps null-key/null-ts rows unmatched
            pad = l_null[lcols].copy()
            for c in rkeep:
                pad[c] = None
            out = pd.concat([out, pad], ignore_index=True)
        return out

    return bucket_exchange(tagged, merge, coarse=coarse,
                           batch_format='pyarrow')


def range_join(left_ds, right_ds, key_left: str, key_right: str,
               ts_left: str, ts_right: str,
               right_cols: Sequence[str],
               low_us: int, high_us: int):
    """Interval join: all (left, right) pairs of the same key with
    ``low_us ≤ ts_left − ts_right < high_us`` (timestamps in micros).
    One co-partitioning exchange, then a per-bucket vectorized equi-merge +
    interval mask."""
    from .relational import bucket_exchange, default_coarse
    lcols = list(left_ds.schema().names)
    rkeep = [c for c in right_cols]
    coarse = default_coarse()
    tagged = _tagged_union(left_ds, right_ds, key_left, key_right,
                           lcols, rkeep, ts_left, ts_right, coarse)

    def merge(t) -> pd.DataFrame:
        # NULL key/ts pairs with nothing in SQL (filtered arrow-side in
        # _split_sides; pandas merge would instead join NaN == NaN)
        l, _l_null, r = _split_sides(t, lcols + ['_k', '_ts'],
                                     rkeep + ['_k', '_ts'])
        l = _norm_transit(l)
        r = _norm_transit(r)
        if not len(l) or not len(r):
            return pd.DataFrame()
        merged = l.merge(r, on='_k', suffixes=('', '_r'))
        delta = merged['_ts'] - merged['_ts_r']
        mask = (delta >= low_us) & (delta < high_us)
        return merged.loc[mask, lcols + rkeep]

    return bucket_exchange(tagged, merge, coarse=coarse,
                           batch_format='pyarrow')


def sessionize(events_ds, key_col: str = 'user_id', ts_col: str = 'ts',
               order_col: str = 'event_id', gap_us: int = 30 * 60 * 1_000_000):
    """Gap-based sessionization: per key, rows ordered by (ts, order_col);
    a gap > ``gap_us`` micros starts a new session. Returns one row per
    session: (key, session_idx [1-based per key], n_events, start_ts,
    end_ts) with timestamps restored to datetime64[us]."""
    from .relational import bucketed_map

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key_col: batch[key_col],
            '_ts': _ts_to_int(batch[ts_col]),
            order_col: batch[order_col],
        })

    prepped = events_ds.map_batches(prep, batch_format='pandas',
                                    batch_size=AGG_BATCH_SIZE)

    def sess(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([key_col, '_ts', order_col], kind='mergesort')
        kv, ks = b[key_col], b[key_col].shift()
        # NaN.ne(NaN) is True, which would fragment the NULL-key partition
        # into one session per row; SQL PARTITION BY keeps NULLs as ONE
        # partition (NULLs sort last, NULL gaps never exceed gap_us)
        new_key = kv.ne(ks) & ~(kv.isna() & ks.isna())
        gap = b['_ts'] - b['_ts'].shift()
        new_sess = (new_key | (gap > gap_us)).fillna(False).to_numpy()
        sess_global = np.cumsum(new_sess)
        b = b.assign(_sg=sess_global)
        g = b.groupby([key_col, '_sg'], sort=False, dropna=False)
        out = g.agg(n_events=('_ts', 'size'), start_ts=('_ts', 'min'),
                    end_ts=('_ts', 'max')).reset_index()
        out['session_idx'] = out.groupby(
            key_col, sort=False, dropna=False).cumcount() + 1
        for c in ('start_ts', 'end_ts'):   # float-safe: NaN → NaT
            out[c] = pd.to_datetime(out[c], unit='us').astype('datetime64[us]')
        return out[[key_col, 'session_idx', 'n_events', 'start_ts', 'end_ts']]

    return bucketed_map(prepped, [key_col], sess)


def rolling_window(events_ds, key_col: str = 'user_id', ts_col: str = 'ts',
                   order_col: str = 'event_id', value_col: str = 'value',
                   window_rows: int = 4, cents: bool = True):
    """Per-key rolling-window aggregate over (ts, order_col) order:
    sum + count of the current row and the ``window_rows − 1`` preceding
    rows (the SQL ``ROWS BETWEEN n PRECEDING AND CURRENT ROW`` frame).
    With ``cents`` the value is floored to integer cents first, so the
    rolling sums are exact integers (no float summation-order ambiguity
    between engines)."""
    from .relational import bucketed_map

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].astype('float64')
        # NULL values stay NaN through the cents floor (an int64 cast of
        # NaN would be undefined — INT64_MIN on numpy — and poison every
        # window containing the row); NaN rows still occupy a frame slot
        # but contribute nothing to sum/count, exactly SQL's
        # SUM(value)/COUNT(value) OVER semantics. Cents values are whole
        # numbers, exact in float64 for any window sum below 2^53.
        vals = np.floor(v.to_numpy() * 100) if cents else v.to_numpy()
        return pd.DataFrame({
            key_col: batch[key_col],
            '_ts': _ts_to_int(batch[ts_col]),
            order_col: batch[order_col],
            '_v': vals,
        })

    prepped = events_ds.map_batches(prep, batch_format='pandas',
                                    batch_size=AGG_BATCH_SIZE)

    def roll(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([key_col, '_ts', order_col], kind='mergesort')
        # dropna=False: the default would omit NULL-key rows from the
        # rolling result, NaN-fill them on alignment and break the int64
        # cast; SQL windows over the NULL partition like any other
        g = b.groupby(key_col, sort=False, dropna=False)['_v']
        # pandas rolling skips NaN slots (they occupy a frame position but
        # contribute nothing) and yields NaN for an all-NULL window — the
        # SQL SUM(value) OVER / COUNT(value) OVER contract
        rsum = g.rolling(window_rows, min_periods=1).sum() \
            .reset_index(drop=True)
        if cents:   # integer-cents mode: sums are exact integers (or NULL)
            rsum = rsum.round().astype('Int64')
        rcnt = g.rolling(window_rows, min_periods=1).count() \
            .reset_index(drop=True).fillna(0).astype('int64')
        out = b.reset_index(drop=True)
        out['roll_sum'] = rsum
        out['roll_n'] = rcnt
        return out[[key_col, order_col, 'roll_sum', 'roll_n']]

    return bucketed_map(prepped, [key_col], roll)


def retention_cohorts(events_ds, user_col: str = 'user_id',
                      ts_col: str = 'ts',
                      day_us: int = 86_400_000_000):
    """Cohort retention matrix (the product-analytics shape): users are
    cohorted by their FIRST active day; for every (cohort_day, day_offset)
    the count of cohort members active that many days later. Three
    exchanges, all key-shaped: a (user, day) two-phase distinct, a
    user-keyed min (the cohort dim — itself a Dataset, never collected),
    one user-keyed shuffle join, then a two-phase count on the tiny
    (cohort, offset) key space. All integer (epoch-microsecond floor
    division), so SQL replays exactly."""
    from .relational import shuffle_join, two_phase_count, two_phase_pandas_agg

    def to_days(batch: pd.DataFrame) -> pd.DataFrame:
        days = batch[ts_col].astype('datetime64[us]').astype('int64') // day_us
        return pd.DataFrame({user_col: batch[user_col], 'day': days})

    act = two_phase_count(
        events_ds.map_batches(to_days, batch_format='pandas'),
        [user_col, 'day']).drop_columns(['cnt'])
    cohort = two_phase_pandas_agg(act, [user_col],
                                  {'cohort': ('day', 'min')})
    j = shuffle_join(act, cohort, left_on=user_col, right_on=user_col,
                     how='inner')

    def offset(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({'cohort_day': pd.Series([], dtype='int64'),
                                 'day_offset': pd.Series([], dtype='int64')})
        return pd.DataFrame({
            'cohort_day': df['cohort'].astype('int64'),
            'day_offset': (df['day'] - df['cohort']).astype('int64')})

    pairs = j.map_batches(offset, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE)
    return two_phase_count(pairs, ['cohort_day', 'day_offset'],
                           alias='n_users')


def funnel_counts(events_ds, steps, user_col: str = 'user_id',
                  ts_col: str = 'ts', type_col: str = 'event_type',
                  id_col: str = 'event_id'):
    """Ordered funnel conversion: for each prefix of ``steps`` the number
    of users with a GREEDY in-order match (first step-1 occurrence, then
    the first step-2 occurrence after it, …) under the total event order
    (ts, event_id) — the product-analytics funnel. ONE user-keyed
    exchange; the per-user scan is linear in that user's events. SQL
    replays the greedy exactly via row_number over the same total order
    and chained min() prefixes."""
    from .relational import grouped_map, two_phase_count

    steps = list(steps)
    step_ix = {s: i for i, s in enumerate(steps)}

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col, id_col], kind='mergesort')
        want = 0
        for t in g[type_col]:
            if want < len(steps) and t == steps[want]:
                want += 1
        if not want:
            return pd.DataFrame()
        return pd.DataFrame({'reached': np.arange(1, want + 1,
                                                  dtype='int64')})

    reached = grouped_map(
        events_ds.select_columns([user_col, ts_col, type_col, id_col]),
        [user_col], per_user)
    return two_phase_count(reached, ['reached'], alias='n_users')


def session_funnel_counts(events_ds, steps, user_col: str = 'user_id',
                          ts_col: str = 'ts', type_col: str = 'event_type',
                          id_col: str = 'event_id',
                          gap_us: int = 30 * 60 * 1_000_000):
    """Within-SESSION funnel conversion: like ``funnel_counts`` but the
    ordered match must complete inside ONE gap-session (> ``gap_us`` of
    inactivity resets the funnel — the strict product-analytics variant).
    Counts (user, session) pairs reaching each prefix. Still one
    user-keyed exchange; sessions are derived inside the per-user scan,
    so no separate sessionize pass or join is needed."""
    from .relational import grouped_map, two_phase_count

    steps = list(steps)

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col, id_col], kind='mergesort')
        ts = _ts_to_int(g[ts_col]).to_numpy()
        breaks = np.r_[True, (ts[1:] - ts[:-1]) > gap_us]
        reached = []
        want = 0
        for is_new, t in zip(breaks, g[type_col]):
            if is_new:
                if want:
                    reached.extend(range(1, want + 1))
                want = 0
            if want < len(steps) and t == steps[want]:
                want += 1
        if want:
            reached.extend(range(1, want + 1))
        if not reached:
            return pd.DataFrame()
        return pd.DataFrame({'reached': pd.Series(reached, dtype='int64')})

    hit = grouped_map(
        events_ds.select_columns([user_col, ts_col, type_col, id_col]),
        [user_col], per_user)
    return two_phase_count(hit, ['reached'], alias='n_sessions')


def lag_lead_delta(events_ds, key_col: str = 'user_id', ts_col: str = 'ts',
                   order_col: str = 'event_id', value_col: str = 'value',
                   type_col: str = 'event_type'):
    """Per-key LAG/LEAD window under (ts, order_col) order: for every row,
    the integer-cents delta vs the PREVIOUS row of the same key
    (``value − lag(value)``) and the NEXT row's type (``lead(type)``).
    First/last rows of a key partition get SQL NULLs. Values are floored
    to integer cents before the subtraction so both engines subtract
    exact integers (no float-summation ambiguity); a NULL value on either
    side of the delta yields NULL, the SQL ``x − LAG(x)`` contract.

    Shape: ONE key-keyed exchange (relational.bucketed_map), then a
    whole-bucket mergesort + vectorized ``groupby(key).shift()`` — no
    per-row Python, no per-group apply. NULL keys form one partition
    (``dropna=False``), matching SQL ``PARTITION BY``."""
    from .relational import bucketed_map

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].astype('float64')
        return pd.DataFrame({
            key_col: batch[key_col],
            '_ts': _ts_to_int(batch[ts_col]),
            order_col: batch[order_col],
            '_c': np.floor(v.to_numpy() * 100),   # NaN stays NaN
            type_col: batch[type_col],
        })

    prepped = events_ds.map_batches(prep, batch_format='pandas',
                                    batch_size=AGG_BATCH_SIZE)

    def window(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([key_col, '_ts', order_col], kind='mergesort')
        g = b.groupby(key_col, sort=False, dropna=False)
        prev = g['_c'].shift(1)
        delta = (b['_c'] - prev).to_numpy()   # NaN if either side NULL/first
        nxt = g[type_col].shift(-1)           # object: last row of key → NaN
        # build from positional numpy arrays — mixing b's sorted index with
        # fresh RangeIndex Series would align-on-index and NaN every row.
        # Float64 → Int64 carries NA through the cast (plain astype raises).
        dc = pd.array(np.round(delta), dtype='Float64').astype('Int64')
        return pd.DataFrame({
            key_col: b[key_col].to_numpy(),
            order_col: b[order_col].to_numpy(),
            'delta_cents': dc,
            'next_type': nxt.astype(object).where(nxt.notna(), None).to_numpy(),
        })

    return bucketed_map(prepped, [key_col], window)


def running_total(events_ds, key_col: str = 'user_id', ts_col: str = 'ts',
                  order_col: str = 'event_id', value_col: str = 'value'):
    """Per-key running cumulative sum + count under (ts, order_col) order —
    the SQL ``SUM(v) OVER (PARTITION BY key ORDER BY ts, id
    ROWS UNBOUNDED PRECEDING)`` frame. Integer-cents flooring keeps the
    prefix sums exact; NULL values occupy a frame slot but add nothing
    (``cumsum`` over NaN-skipped cents == SQL SUM ignoring NULLs), and a
    prefix that has seen ONLY NULLs reports SQL NULL. One key-keyed
    exchange, vectorized ``groupby().cumsum()`` per bucket."""
    from .relational import bucketed_map

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_col].astype('float64')
        return pd.DataFrame({
            key_col: batch[key_col],
            '_ts': _ts_to_int(batch[ts_col]),
            order_col: batch[order_col],
            '_c': np.floor(v.to_numpy() * 100),
        })

    prepped = events_ds.map_batches(prep, batch_format='pandas',
                                    batch_size=AGG_BATCH_SIZE)

    def scan(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([key_col, '_ts', order_col], kind='mergesort')
        # pandas cumsum leaves NaN AT a NULL row (and SQL carries the
        # previous sum there): fill 0 for accumulation, count non-NULLs
        # separately, and NULL only the all-NULL-so-far prefix
        csum = b['_c'].fillna(0.0).groupby(
            b[key_col], sort=False, dropna=False).cumsum()
        ccnt = b['_c'].notna().groupby(
            b[key_col], sort=False, dropna=False).cumsum().astype('int64')
        csum = csum.where(ccnt > 0)                  # all-NULL prefix → NULL
        # positional numpy construction (index alignment hazard — see
        # lag_lead_delta); Float64→Int64 carries the all-NULL-prefix NA
        rs = pd.array(np.round(csum.to_numpy()), dtype='Float64') \
            .astype('Int64')
        return pd.DataFrame({
            key_col: b[key_col].to_numpy(),
            order_col: b[order_col].to_numpy(),
            'run_sum_cents': rs,
            'run_n': ccnt.to_numpy(),
        })

    return bucketed_map(prepped, [key_col], scan)


def debounce_filter(events_ds, key_cols=('user_id', 'event_type'),
                    ts_col: str = 'ts', id_col: str = 'event_id',
                    gap_us: int = 86_400_000_000):
    """Windowed deduplication (debounce): drop an event arriving within
    ``gap_us`` of the PREVIOUS event of the same key under the (ts, id)
    total order — the LAG-gap formulation (one key-keyed exchange + a
    vectorized diff, stateless per bucket), NOT the chained
    "previous-KEPT" variant, which is inherently sequential per key and
    cannot be expressed as a window. First event per key always survives.
    SQL contract: keep iff ``ts − LAG(ts) OVER (PARTITION BY keys ORDER BY
    ts, id)`` is NULL or > gap. Equal-timestamp pairs (delta 0) debounce."""
    from .relational import grouped_map

    def keep(g: pd.DataFrame) -> pd.DataFrame:
        # NaT sorts last (both engines' ASC default) and any NULL-involved
        # delta keeps the row (SQL: NULL > gap is not TRUE → the `d IS
        # NULL` arm); float64 epoch-micros are exact below 2^53 (~year
        # 2255)
        g = g.sort_values([ts_col, id_col], kind='mergesort')
        t = _ts_to_int(g[ts_col]).to_numpy(dtype='float64', na_value=np.nan)
        mask = np.ones(len(g), dtype=bool)
        mask[1:] = ~((t[1:] - t[:-1]) <= gap_us)
        return g[mask]

    return grouped_map(events_ds, list(key_cols), keep)


def transition_gap_stats(events_ds, user_col: str = 'user_id',
                         ts_col: str = 'ts', id_col: str = 'event_id',
                         type_col: str = 'event_type'):
    """Time-to-next-event statistics per transition pair: for every
    (from_type → to_type) edge of the per-user sequence (the (ts, id)
    total order — the lead() contract), the count and the min / max /
    truncated-mean gap in MICROSECONDS. All-integer arithmetic: gaps are
    int64 timestamp differences, sums carried as exact Python ints, the
    mean is a truncating division (DuckDB ``//``) — no float anywhere.

    Scale shape: ONE user-keyed exchange emits (pair, gap) vectorized
    (groupby shift), then a two-phase integer aggregate per pair."""
    from .relational import (bucketed_map, two_phase_pandas_agg)

    def lag_gaps(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([user_col, ts_col, id_col], kind='mergesort')
        t = _ts_to_int(b[ts_col])
        nxt_t = t.groupby(b[user_col], sort=False).shift(-1)
        nxt_ty = b.groupby(user_col, sort=False)[type_col].shift(-1)
        keep = nxt_ty.notna() & nxt_t.notna() & t.notna()
        gap = (nxt_t[keep] - t[keep]).astype('int64')
        return pd.DataFrame({'from_type': b[type_col][keep].to_numpy(),
                             'to_type': nxt_ty[keep].to_numpy(),
                             '_gap': gap.to_numpy(),
                             '_one': np.ones(int(keep.sum()), dtype='int64')})

    gaps = bucketed_map(events_ds, [user_col], lag_gaps)
    agg = two_phase_pandas_agg(
        gaps, ['from_type', 'to_type'],
        {'n': (None, 'count'), '_sum': ('_gap', 'sum'),
         'min_gap_us': ('_gap', 'min'), 'max_gap_us': ('_gap', 'max')})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        from .relational import _trunc_div
        out = pd.DataFrame({
            'from_type': df['from_type'], 'to_type': df['to_type'],
            'n': df['n'].map(int).astype('int64'),
            'mean_gap_us': pd.Series(
                [_trunc_div(int(s), int(n))
                 for s, n in zip(df['_sum'], df['n'])],
                index=df.index, dtype='int64'),
            'min_gap_us': df['min_gap_us'].map(int).astype('int64'),
            'max_gap_us': df['max_gap_us'].map(int).astype('int64')})
        return out

    return agg.map_batches(finalize, batch_format='pandas')


def rolling_distinct_count(events_ds, window_days: int = 7,
                           ts_col: str = 'ts', id_col: str = 'user_id'):
    """Rolling distinct count — the WAU/MAU engagement metric: for every
    day D, the number of distinct ids seen in [D − window + 1, D]. A
    count(DISTINCT) over a sliding window cannot stream; this replays it
    as the window FAN-OUT: each (day, id) distinct pair replicates to the
    ≤ ``window_days`` windows it falls into, the (window_day, id) pairs
    dedupe two-phase, and a small per-day count finishes — the same
    fan-out law as the hopping windows, with shuffle volume bounded by
    distinct (day, id) pairs × window, never raw events. Only windows
    whose anchor day actually has events are emitted (stream semantics:
    a day with no activity produces no row)."""
    from .relational import two_phase_count

    def to_day_pairs(b: pd.DataFrame) -> pd.DataFrame:
        days = (_ts_to_int(b[ts_col]) // 86_400_000_000).astype('int64')
        return pd.DataFrame({'day': days,
                             id_col: b[id_col]}).drop_duplicates()

    day_pairs = two_phase_count(
        events_ds.map_batches(to_day_pairs, batch_format='pandas'),
        ['day', id_col], alias='_c').drop_columns(['_c'])

    # anchor-day dim: distinct active days (bounded — the time dim)
    def fan_out(b: pd.DataFrame) -> pd.DataFrame:
        reps = []
        for d, uid in zip(b['day'], b[id_col]):
            for w in range(int(window_days)):
                reps.append((int(d) + w, uid))
        if not reps:
            return pd.DataFrame({'wday': pd.Series(dtype='int64'),
                                 id_col: b[id_col].iloc[:0]})
        out = pd.DataFrame(reps, columns=['wday', id_col])
        out['wday'] = out['wday'].astype('int64')
        return out

    fanned = day_pairs.map_batches(fan_out, batch_format='pandas')
    dedup = two_phase_count(fanned, ['wday', id_col],
                            alias='_c').drop_columns(['_c'])
    counts = two_phase_count(dedup, ['wday'], alias='n_distinct')

    active_days = two_phase_count(day_pairs, ['day'],
                                  alias='_c').drop_columns(['_c'])
    from .relational import shuffle_join

    joined = shuffle_join(counts, active_days, left_on='wday',
                          right_on='day', how='inner')
    return joined.map_batches(
        lambda df: pd.DataFrame(
            {'day': df['wday'].map(int),
             'n_distinct': df['n_distinct'].map(int)}).astype('int64')
        if not df.empty else pd.DataFrame(
            {'day': pd.Series(dtype='int64'),
             'n_distinct': pd.Series(dtype='int64')}),
        batch_format='pandas')
