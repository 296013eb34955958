"""Unit tests for the round-5 batch-2 operators — the edges the driver
oracle can't reach on the NULL-free testdata: EXCEPT NULL semantics,
half-open band boundaries + NaN drops, weighted-race weight guards and
brute-force equality, lexical-diversity degenerate documents."""

import hashlib

import numpy as np
import pandas as pd
import pytest

import ray

from caligraph_ray.stages import relational as rel
from caligraph_ray.stages import textstats as ts


def test_distinct_except_basic_and_dedup(ray_session):
    a = ray.data.from_pandas(pd.DataFrame({'k': [1, 1, 2, 3, 7]}))
    b = ray.data.from_pandas(pd.DataFrame({'j': [2, 2, 9]}))
    out = rel.collect_pandas(rel.distinct_except(a, b, 'k', 'j'))
    assert sorted(out['key'].astype(int)) == [1, 3, 7]


def test_distinct_except_null_on_b_removes_a_null(ray_session):
    a = ray.data.from_pandas(pd.DataFrame({'k': [1.0, None, 5.0]}))
    b = ray.data.from_pandas(pd.DataFrame({'j': [None, 5.0]}))
    out = rel.collect_pandas(rel.distinct_except(a, b, 'k', 'j'))
    # SQL EXCEPT distinct semantics: B's NULL removes A's NULL
    assert [float(v) for v in out['key']] == [1.0]


def test_distinct_except_null_kept_when_b_has_none(ray_session):
    a = ray.data.from_pandas(pd.DataFrame({'k': [1.0, None]}))
    b = ray.data.from_pandas(pd.DataFrame({'j': [1.0]}))
    out = rel.collect_pandas(rel.distinct_except(a, b, 'k', 'j'))
    assert len(out) == 1 and pd.isna(out['key'].iloc[0])


def test_band_lookup_half_open_boundaries_and_drops(ray_session):
    df = pd.DataFrame({'v': [0.0, 0.99, 1.0, 4.99, 5.0,   # band edges
                             -0.5, 5.0, np.nan]})          # drops + repeat
    ds = ray.data.from_pandas(df)
    out = rel.collect_pandas(rel.band_lookup_count(
        ds, 'v', [0.0, 1.0, 5.0], ['lo', 'hi'])) \
        .set_index('band')['n'].astype(int).to_dict()
    # [0,1): 0.0, 0.99; [1,5): 1.0, 4.99; 5.0 is PAST the last edge
    # (half-open), -0.5 below the first, NaN never matches
    assert out == {'lo': 2, 'hi': 2}


def test_band_lookup_label_arity_check(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame({'v': [1.0]}))
    with pytest.raises(ValueError):
        rel.band_lookup_count(ds, 'v', [0.0, 1.0], ['a', 'b'])


def _race_brute(ids, weights, k, salt='wrs:42'):
    rows = []
    for i, w in zip(ids, weights):
        if w is None or not w > 0:
            continue
        u = int.from_bytes(
            hashlib.md5(f'{salt}:{i}'.encode()).digest()[:8], 'little')
        rows.append((np.float64(u) / np.float64(w), i, w))
    rows.sort()
    return [(i, w) for _, i, w in rows[:k]]


def test_weighted_race_topk_matches_brute_force(ray_session):
    ids = list(range(1, 201))
    weights = [(i * 37) % 90 + 1 for i in ids]
    ds = ray.data.from_pandas(pd.DataFrame(
        {'doc_id': ids, 'w': weights})).repartition(7)
    out = rel.collect_pandas(rel.weighted_race_topk(ds, 'doc_id', 'w', 10))
    got = list(zip(out['doc_id'].astype(int), out['w'].astype(int)))
    assert got == _race_brute(ids, weights, 10)


def test_weighted_race_topk_excludes_nonpositive_and_null(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame(
        {'doc_id': [1, 2, 3, 4], 'w': [0.0, -3.0, None, 5.0]}))
    out = rel.collect_pandas(rel.weighted_race_topk(ds, 'doc_id', 'w', 10))
    assert out['doc_id'].astype(int).tolist() == [4]


def test_weighted_race_prefers_heavy_rows(ray_session):
    # one row with overwhelming weight must always win the race
    ds = ray.data.from_pandas(pd.DataFrame(
        {'doc_id': list(range(100)),
         'w': [1.0] * 99 + [1e12]}))
    out = rel.collect_pandas(rel.weighted_race_topk(ds, 'doc_id', 'w', 1))
    assert out['doc_id'].astype(int).tolist() == [99]


def _docs(texts):
    return ray.data.from_pandas(pd.DataFrame(
        {'doc_id': list(range(len(texts))), 'text': texts}))


def test_lexical_diversity_exact_values(ray_session):
    out = rel.collect_pandas(ts.lexical_diversity(
        _docs(['a a b', '', '   ', 'x', 'a a a a']))) \
        .sort_values('doc_id').reset_index(drop=True)
    assert out['n_tokens'].tolist() == [3, 0, 0, 1, 4]
    assert out['n_types'].tolist() == [2, 0, 0, 1, 1]
    # 'a a b': ttr 2/3 floored, gini 1 - (2·1)/(3·2) = 2/3 floored
    assert out['type_token_ratio'][0] == np.floor(2 / 3 * 1e6) / 1e6
    assert out['gini_diversity'][0] == np.floor((1 - 2 / 6) * 1e6) / 1e6
    # degenerate docs: empty → 0.0/0.0; single token → gini 0 (n ≤ 1 rule)
    assert out.loc[1, ['type_token_ratio', 'gini_diversity']].tolist() == [0.0, 0.0]
    assert out.loc[3, 'type_token_ratio'] == 1.0
    assert out.loc[3, 'gini_diversity'] == 0.0
    # all-same: gini exactly 0, ttr 1/4
    assert out.loc[4, 'gini_diversity'] == 0.0
    assert out.loc[4, 'type_token_ratio'] == 0.25


def test_lexical_diversity_matches_counter_reference(ray_session):
    import collections
    texts = ['the cat sat on the mat', 'a b c d e', 'z z z y y x',
             'one', '', 'repeat repeat repeat']
    out = rel.collect_pandas(ts.lexical_diversity(_docs(texts))) \
        .sort_values('doc_id').reset_index(drop=True)
    for i, text in enumerate(texts):
        toks = [t for t in text.split(' ') if t]
        c = collections.Counter(toks)
        n, u = len(toks), len(c)
        rep = sum(v * (v - 1) for v in c.values())
        assert out.loc[i, 'n_tokens'] == n
        assert out.loc[i, 'n_types'] == u
        if n > 1:
            assert out.loc[i, 'gini_diversity'] == \
                np.floor((1.0 - rep / (n * (n - 1.0))) * 1e6) / 1e6


def _canon_rows(df, cols):
    df = df[cols].copy()
    for c in cols:
        # None (object pad) and NaN (float pad) are both SQL NULL — the
        # two paths may pick either representation for padded misses
        df[c] = df[c].where(df[c].notna(), None).astype(str) \
            .replace('None', 'NULL')
    return sorted(map(tuple, df.to_numpy().tolist()))


@pytest.mark.parametrize('how', ['inner', 'left'])
def test_salted_join_equals_shuffle_join(ray_session, how):
    # hot key (80% of left rows are k=1) + null keys on both sides
    rng = np.random.RandomState(7)
    lk = np.where(rng.rand(200) < 0.8, 1, rng.randint(1, 6, 200)).astype(float)
    lk[::37] = np.nan
    left_df = pd.DataFrame({'k': lk, 'v': np.arange(200)})
    right_df = pd.DataFrame({'rk': [1.0, 2.0, 3.0, np.nan],
                             'payload': ['a', 'b', 'c', 'z']})
    left = ray.data.from_pandas(left_df).repartition(5)
    right = ray.data.from_pandas(right_df)
    a = rel.collect_pandas(rel.salted_join(left, right, 'k', 'rk',
                                           salts=4, how=how))
    b = rel.collect_pandas(rel.shuffle_join(left, right, 'k', 'rk', how=how))
    cols = ['k', 'v', 'rk', 'payload']
    assert _canon_rows(a, cols) == _canon_rows(b, cols)


def test_salted_join_rejects_outer_and_salt1(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame({'k': [1]}))
    with pytest.raises(ValueError):
        rel.salted_join(ds, ds, 'k', 'k', how='outer')
    with pytest.raises(ValueError):
        rel.salted_join(ds, ds, 'k', 'k', salts=1)


def test_debounce_filter_gap_and_ties(ray_session):
    from caligraph_ray.stages.temporal import debounce_filter
    ts = pd.to_datetime([0, 50, 200, 201, 500], unit='us') \
        .astype('datetime64[us]')
    ev = ray.data.from_pandas(pd.DataFrame({
        'event_id': [1, 2, 3, 4, 5],
        'user_id': [7, 7, 7, 7, 8],
        'event_type': ['a'] * 5,
        'ts': ts}))
    out = rel.collect_pandas(debounce_filter(ev, gap_us=100)) \
        .sort_values('event_id')
    # user 7: t=0 first (keep), t=50 within 100 (drop), t=200 gap 150
    # (keep), t=201 gap 1 (drop); user 8 opens its own partition (keep)
    assert out['event_id'].tolist() == [1, 3, 5]


def test_debounce_filter_equal_timestamps_drop(ray_session):
    from caligraph_ray.stages.temporal import debounce_filter
    ts = pd.to_datetime([100, 100, 100], unit='us').astype('datetime64[us]')
    ev = ray.data.from_pandas(pd.DataFrame({
        'event_id': [3, 1, 2], 'user_id': [7, 7, 7],
        'event_type': ['a'] * 3, 'ts': ts}))
    out = rel.collect_pandas(debounce_filter(ev, gap_us=100))
    # ties order by event_id: 1 opens, 2 and 3 debounce (delta 0 ≤ gap)
    assert out['event_id'].tolist() == [1]


def test_debounce_filter_null_ts_kept(ray_session):
    from caligraph_ray.stages.temporal import debounce_filter
    ev = ray.data.from_pandas(pd.DataFrame({
        'event_id': [1, 2],
        'user_id': [7, 7], 'event_type': ['a', 'a'],
        'ts': pd.Series([pd.Timestamp(1), pd.NaT],
                        dtype='datetime64[us]')}))
    out = rel.collect_pandas(debounce_filter(ev, gap_us=100))
    # a NULL-involved delta keeps the row (the SQL `d IS NULL` arm)
    assert sorted(out['event_id'].tolist()) == [1, 2]


def test_bloom_semi_join_exact_with_forced_false_positives(ray_session):
    # m=64 over 40 dim keys → heavy false-positive rate; the exact verify
    # must still produce precisely the true semi join
    fact = pd.DataFrame({'fk': np.arange(1000) % 200, 'v': np.arange(1000)})
    dim = pd.DataFrame({'dk': np.arange(0, 200, 5)})  # 40 keys: 0,5,...,195
    out = rel.collect_pandas(rel.bloom_semi_join(
        ray.data.from_pandas(fact).repartition(4),
        ray.data.from_pandas(dim), 'fk', 'dk', m=64, k=2))
    expect = fact[fact['fk'].isin(set(dim['dk']))]
    assert sorted(out['v'].astype(int)) == sorted(expect['v'])
    assert set(out['fk'].astype(int)) == set(expect['fk'])


def test_bloom_semi_join_prefilter_superset_no_false_negatives(ray_session):
    fact = pd.DataFrame({'fk': np.arange(500) % 100, 'v': np.arange(500)})
    dim = pd.DataFrame({'dk': [3, 17, 42]})
    pre = rel.collect_pandas(rel.bloom_semi_join(
        ray.data.from_pandas(fact), ray.data.from_pandas(dim),
        'fk', 'dk', m=32, k=2, exact_verify=False))
    true_rows = set(fact[fact['fk'].isin({3, 17, 42})]['v'])
    # false negatives impossible: every true match survives the prefilter
    assert true_rows <= set(pre['v'].astype(int))


def test_bloom_semi_join_null_fact_keys_drop(ray_session):
    fact = pd.DataFrame({'fk': [1.0, None, 2.0], 'v': [1, 2, 3]})
    dim = pd.DataFrame({'dk': [1.0, 2.0]})
    out = rel.collect_pandas(rel.bloom_semi_join(
        ray.data.from_pandas(fact), ray.data.from_pandas(dim), 'fk', 'dk'))
    assert sorted(out['v'].astype(int)) == [1, 3]


def _write_events(tmpdir, rows):
    import pyarrow as pa, pyarrow.parquet as pq
    df = pd.DataFrame(rows, columns=['event_id', 'ts', 'user_id',
                                     'event_type', 'value'])
    df['ts'] = pd.to_datetime(df['ts'], unit='s').astype('datetime64[us]')
    df['props'] = '{}'
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   f'{tmpdir}/events.parquet')
    return str(tmpdir)


def test_top_with_ties_keeps_tied_kth_rows(ray_session, tmp_path):
    from caligraph_ray.pipelines.queries import q_top_value_events_with_ties
    # type 'a': cents 900, 500, 500, 500, 100 → rank()<=3 keeps FOUR rows
    # (the three tied 500s all rank 2); type 'b': fewer than k rows
    sf = _write_events(tmp_path, [
        (1, 10, 1, 'a', 9.00), (2, 20, 1, 'a', 5.00),
        (3, 30, 2, 'a', 5.00), (4, 40, 2, 'a', 5.00),
        (5, 50, 3, 'a', 1.00), (6, 60, 3, 'b', 2.00)])
    out = q_top_value_events_with_ties(sf)
    assert out['event_id'].tolist() == [1, 2, 3, 4, 6]
    assert out['rnk'].tolist() == [1, 2, 2, 2, 1]


def test_event_transition_counts_sequences(ray_session, tmp_path):
    from caligraph_ray.pipelines.queries import q_event_transition_counts
    # user 1: a→b→a (2 transitions); user 2: single event (none);
    # user 3: equal timestamps order by event_id: c→c
    sf = _write_events(tmp_path, [
        (1, 10, 1, 'a', 1.0), (2, 20, 1, 'b', 1.0), (3, 30, 1, 'a', 1.0),
        (4, 10, 2, 'z', 1.0),
        (5, 10, 3, 'c', 1.0), (6, 10, 3, 'c', 1.0)])
    out = q_event_transition_counts(sf)
    got = {(r.from_type, r.to_type): r.n for r in out.itertuples()}
    assert got == {('a', 'b'): 1, ('b', 'a'): 1, ('c', 'c'): 1}


def test_decayed_type_scores_integer_halving(ray_session, tmp_path):
    from caligraph_ray.pipelines.queries import q_decayed_type_scores
    # anchor = max ts (event 3). ages: 2h → >>2, 1h → >>1, 0h → >>0
    sf = _write_events(tmp_path, [
        (1, 0,    1, 'a', 4.00),   # 400 >> 2 = 100
        (2, 3600, 1, 'a', 4.00),   # 400 >> 1 = 200
        (3, 7200, 1, 'a', 4.00)])  # 400 >> 0 = 400
    out = q_decayed_type_scores(sf)
    assert out['decayed_cents'].tolist() == [700]


def test_hdr_bucket_monotone_and_bounds():
    from caligraph_ray.functions.sketches import _hdr_bucket, _hdr_lower_bound
    v = np.arange(0, 200000, dtype=np.int64)
    b = _hdr_bucket(v)
    # monotone non-decreasing in the value
    assert (np.diff(b) >= 0).all()
    # every value sits inside its bucket: lb(b) <= v < lb(b+1)
    lbs = np.array([_hdr_lower_bound(x) for x in range(int(b.max()) + 2)])
    assert (lbs[b] <= v).all()
    assert (v < lbs[b + 1]).all()
    # relative error bound: bucket width / lb <= 1/8 for v >= 8
    big = v >= 8
    width = lbs[b[big] + 1] - lbs[b[big]]
    assert (width * 8 <= lbs[b[big]]).all()


def test_hdr_bucket_matches_oracle_case_expression():
    """The engine bucket equals the SQL_HDR_QUANTILES* bucket CASE on
    negatives (exact per-value buckets, no clamp) and on 2^k − d above 2^53,
    where the float64 image of the value rounds up to 2^k."""
    import duckdb
    from caligraph_ray.functions.sketches import _hdr_bucket
    vals = (list(range(-300, 301))
            + [(1 << k) - d for k in range(50, 64) for d in (1, 2, 3, 100)]
            + [-(1 << 63) + 1, (1 << 63) - 1])
    df = pd.DataFrame({'i': np.arange(len(vals)),
                       'v': np.array(vals, dtype=np.int64)})
    con = duckdb.connect()
    con.register('c', df)
    sql = con.execute("""
        SELECT CASE WHEN v < 8 THEN v
                    ELSE (length(bin(v)) - 1) * 8
                         + ((v >> greatest(length(bin(v)) - 4, 0)) & 7) END
               AS bucket
        FROM c ORDER BY i""").fetchdf()['bucket'].to_numpy()
    got = _hdr_bucket(df['v'].to_numpy())
    bad = [(v, int(g), int(s)) for v, g, s in zip(vals, got, sql) if g != s]
    assert not bad, bad[:5]


def test_hdr_quantiles_partition_invariant_and_near_exact(ray_session):
    from caligraph_ray.functions.sketches import hdr_quantiles
    rng = np.random.RandomState(3)
    vals = rng.randint(1, 50000, 5000).astype(np.int64)
    a = hdr_quantiles(ray.data.from_pandas(
        pd.DataFrame({'c': vals})).repartition(1), 'c')
    b = hdr_quantiles(ray.data.from_pandas(
        pd.DataFrame({'c': vals})).repartition(13), 'c')
    # mergeable: the sketch is partition-count-invariant
    assert a.to_dict('records') == b.to_dict('records')
    # the reported lower bound brackets the exact quantile within one
    # bucket (<= 12.5% relative)
    for q, col in [(0.5, 'p50_lb'), (0.9, 'p90_lb'), (0.99, 'p99_lb')]:
        exact = int(np.sort(vals)[int(np.ceil(q * len(vals))) - 1])
        lb = int(a[col].iloc[0])
        assert lb <= exact <= lb + max(lb // 8, 1)


def test_hdr_quantiles_empty_dataset(ray_session):
    """An empty input has no quantiles: n=0 and every lower bound null
    (it used to index an empty histogram)."""
    from caligraph_ray.functions.sketches import hdr_quantiles
    empty = ray.data.from_pandas(
        pd.DataFrame({'c': np.array([], dtype=np.int64)}))
    out = hdr_quantiles(empty, 'c')
    assert len(out) == 1
    row = out.iloc[0]
    assert int(row['n']) == 0
    for col in ('p50_lb', 'p90_lb', 'p99_lb'):
        assert pd.isna(row[col]), (col, row[col])


def test_hdr_grouped_quantiles_matches_global_per_group(ray_session):
    from caligraph_ray.functions.sketches import (hdr_grouped_quantiles,
                                                  hdr_quantiles)
    rng = np.random.RandomState(11)
    df = pd.DataFrame({'g': np.where(rng.rand(3000) < 0.5, 'a', 'b'),
                       'c': rng.randint(1, 100000, 3000).astype(np.int64)})
    grouped = rel.collect_pandas(hdr_grouped_quantiles(
        ray.data.from_pandas(df).repartition(6), 'g', 'c')) \
        .set_index('g')
    for g in ('a', 'b'):
        sub = df[df['g'] == g]
        solo = hdr_quantiles(ray.data.from_pandas(sub[['c']]), 'c').iloc[0]
        for col in ('n', 'p50_lb', 'p90_lb', 'p99_lb'):
            assert grouped.loc[g, col] == solo[col]


def test_bloom_semi_join_empty_dim_yields_empty(ray_session):
    fact = ray.data.from_pandas(pd.DataFrame(
        {'fk': [1, 2, 3], 'v': [1, 2, 3]}))
    dim = ray.data.from_pandas(pd.DataFrame(
        {'dk': pd.Series([], dtype='int64')}))
    out = rel.collect_pandas(rel.bloom_semi_join(fact, dim, 'fk', 'dk'))
    assert len(out) == 0


def test_salted_join_empty_sides(ray_session):
    empty = ray.data.from_pandas(pd.DataFrame(
        {'k': pd.Series([], dtype='int64'),
         'v': pd.Series([], dtype='int64')}))
    full = ray.data.from_pandas(pd.DataFrame(
        {'rk': [1], 'p': [9]}))
    assert len(rel.collect_pandas(
        rel.salted_join(empty, full, 'k', 'rk'))) == 0
    nonempty = ray.data.from_pandas(pd.DataFrame({'k': [1], 'v': [5]}))
    er = ray.data.from_pandas(pd.DataFrame(
        {'rk': pd.Series([], dtype='int64'),
         'p': pd.Series([], dtype='int64')}))
    assert len(rel.collect_pandas(
        rel.salted_join(nonempty, er, 'k', 'rk'))) == 0
    padded = rel.collect_pandas(
        rel.salted_join(nonempty, er, 'k', 'rk', how='left'))
    assert padded['v'].tolist() == [5] and pd.isna(padded['p']).all()
