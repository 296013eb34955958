"""Unit tests for the profiling / entropy / correlation operators —
the edges the NULL-free driver testdata can't reach: NULL handling in
column_profile, degenerate (single-value) entropy groups, zero-variance
corr drops, and brute-force numpy equality for both statistics."""

import math

import numpy as np
import pandas as pd

import ray

from caligraph_ray.stages import relational as rel


def test_column_profile_nulls_and_distinct(ray_session):
    df = pd.DataFrame({
        'a': [1, 2, 2, None, 4],
        's': ['x', None, 'x', 'y', None],
    })
    ds = ray.data.from_pandas(df)
    out = rel.column_profile(ds, ['a', 's'])
    a = out[out['col'] == 'a'].iloc[0]
    assert a['n_rows'] == 5 and a['n_nulls'] == 1
    assert a['n_distinct'] == 3          # NULL not counted (SQL semantics)
    assert a['min_str'] == '1.0' and a['max_str'] == '4.0'
    s = out[out['col'] == 's'].iloc[0]
    assert s['n_nulls'] == 2 and s['n_distinct'] == 2
    assert s['min_str'] == 'x' and s['max_str'] == 'y'


def test_column_profile_multiblock_min_max(ray_session):
    # min/max must merge correctly across blocks (numeric compare, not
    # string compare: '9' > '10' lexically)
    df = pd.DataFrame({'v': list(range(5, 105))})
    ds = ray.data.from_pandas(df).repartition(7)
    out = rel.column_profile(ds, ['v'])
    r = out.iloc[0]
    assert r['min_str'] == '5' and r['max_str'] == '104'
    assert r['n_distinct'] == 100 and r['n_nulls'] == 0


def test_column_profile_varchar_min_max_is_lexicographic(ray_session,
                                                         monkeypatch):
    # digit strings in a VARCHAR column order as strings (DuckDB:
    # min('9', '10') = '10'), even when each batch holds one of them
    monkeypatch.setattr(rel, 'AGG_BATCH_SIZE', 1)
    ds = ray.data.from_pandas([pd.DataFrame({'s': ['9']}),
                               pd.DataFrame({'s': ['10']})])
    r = rel.column_profile(ds, ['s']).iloc[0]
    assert r['min_str'] == '10' and r['max_str'] == '9'


def test_grouped_entropy_matches_numpy(ray_session):
    rng = np.random.RandomState(7)
    df = pd.DataFrame({'g': rng.randint(0, 20, 4000),
                       'v': rng.randint(0, 6, 4000).astype(str)})
    ds = ray.data.from_pandas(df).repartition(5)
    out = rel.collect_pandas(rel.grouped_entropy(ds, 'g', 'v'))
    out = out.set_index('g')
    for g, sub in df.groupby('g'):
        c = sub['v'].value_counts().to_numpy(dtype=float)
        n = c.sum()
        expected = math.log(n) - float((c * np.log(c)).sum()) / n
        got = out.loc[g, 'entropy']
        assert abs(got - expected) < 2e-6
        assert out.loc[g, 'n_rows'] == int(n)
        assert out.loc[g, 'n_values'] == len(c)


def test_grouped_entropy_single_value_group_is_zero(ray_session):
    df = pd.DataFrame({'g': ['a'] * 10, 'v': ['only'] * 10})
    out = rel.collect_pandas(
        rel.grouped_entropy(ray.data.from_pandas(df), 'g', 'v'))
    assert len(out) == 1 and out['entropy'].iloc[0] == 0.0


def test_grouped_corr_matches_numpy(ray_session):
    rng = np.random.RandomState(11)
    n = 3000
    df = pd.DataFrame({
        'g': rng.randint(0, 4, n),
        'x': np.round(rng.uniform(0, 100, n), 3),
        'y': rng.randint(0, 24, n),
    })
    # inject correlation in group 0
    m = df['g'] == 0
    df.loc[m, 'x'] = np.round(df.loc[m, 'y'] * 3.5 +
                              rng.uniform(0, 5, int(m.sum())), 3)
    ds = ray.data.from_pandas(df).repartition(6)
    out = rel.collect_pandas(
        rel.grouped_corr(ds, 'g', 'x', 'y')).set_index('g')
    for g, sub in df.groupby('g'):
        xq = np.floor(sub['x'].to_numpy() * 1000)
        expected = np.corrcoef(xq, sub['y'].to_numpy())[0, 1]
        assert abs(out.loc[g, 'corr'] - expected) < 1e-4
    assert out.loc[0, 'corr'] > 0.9


def test_grouped_corr_drops_zero_variance_groups(ray_session):
    df = pd.DataFrame({'g': ['c', 'c', 'v', 'v'],
                       'x': [5.0, 5.0, 1.0, 9.0],
                       'y': [1, 2, 1, 2]})
    out = rel.collect_pandas(
        rel.grouped_corr(ray.data.from_pandas(df), 'g', 'x', 'y'))
    # group 'c' has zero x-variance -> dropped (corr undefined)
    assert list(out['g']) == ['v']


def test_grouped_corr_moments_exact_past_int64(ray_session):
    # x·scale ≈ 5e9..8e9: x², and the per-batch sums of xy/x², overflow
    # int64; the moments must be exact Python ints as documented
    rng = np.random.RandomState(5)
    n = 200
    df = pd.DataFrame({'g': rng.randint(0, 2, n),
                       'x': rng.randint(5_000_000, 8_000_000, n)
                       .astype(np.float64),
                       'y': rng.randint(-3_000_000_000, 3_000_000_000, n)})
    df.loc[df['g'] == 0, 'y'] = df.loc[df['g'] == 0, 'x'].astype(np.int64) \
        * 1000 + rng.randint(-10**8, 10**8, int((df['g'] == 0).sum()))
    ds = ray.data.from_pandas(df).repartition(3)
    out = rel.collect_pandas(
        rel.grouped_corr(ds, 'g', 'x', 'y')).set_index('g')
    for g, sub in df.groupby('g'):
        xs = [math.floor(v * 1000) for v in sub['x']]
        ys = [int(v) for v in sub['y']]
        m = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        vx, vy = m * sxx - sx * sx, m * syy - sy * sy
        want = math.floor(float(m * sxy - sx * sy)
                          / math.sqrt(float(vx * vy)) * 1e6) / 1e6
        assert out.loc[g, 'n'] == m
        assert out.loc[g, 'corr'] == want
    assert out.loc[0, 'corr'] > 0.9


def test_hll_overlap_estimate_accuracy(ray_session):
    from caligraph_ray.functions.hashing import md5_hash64
    from caligraph_ray.functions.sketches import (
        hll_estimate_deterministic, hll_registers)
    # A = 0..5999, B = 4000..9999 -> |A∩B| = 2000, |A∪B| = 10000
    a = ray.data.from_pandas(pd.DataFrame({'k': np.arange(0, 6000)}))
    b = ray.data.from_pandas(pd.DataFrame({'k': np.arange(4000, 10000)}))
    ra = hll_registers(a, 'k', p=12, hash_fn=md5_hash64)
    rb = hll_registers(b, 'k', p=12, hash_fn=md5_hash64)
    ru = pd.concat([ra, rb]).groupby('bucket')['rank'].max().reset_index()
    ea = hll_estimate_deterministic(ra['rank'].tolist(), p=12)
    eb = hll_estimate_deterministic(rb['rank'].tolist(), p=12)
    eu = hll_estimate_deterministic(ru['rank'].tolist(), p=12)
    overlap = ea + eb - eu
    # p=12 gives ~1.6% σ per estimate, but this is ONE deterministic
    # draw (md5 of these exact keys): the observed errors are −1.7% /
    # −2.4% / −5.9%, overlap +17%. Bound at ~4σ per estimate and 25%
    # for the inclusion–exclusion difference (errors compound).
    assert abs(ea - 6_000) / 6_000 < 0.08
    assert abs(eb - 6_000) / 6_000 < 0.08
    assert abs(eu - 10_000) / 10_000 < 0.08
    assert abs(overlap - 2_000) / 2_000 < 0.25


def test_value_mad_outliers_brute_force(ray_session):
    from caligraph_ray.pipelines.queries import q_value_mad_outliers
    import os, tempfile
    import pyarrow.parquet as pq
    import pyarrow as pa
    rng = np.random.RandomState(3)
    vals = np.concatenate([rng.uniform(10, 20, 200), [500.0, 999.0]])
    df = pd.DataFrame({'event_type': ['t'] * len(vals), 'value': vals})
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.Table.from_pandas(df), os.path.join(d, 'events.parquet'))
        out = q_value_mad_outliers(d)
    c = np.floor(vals * 100).astype('int64')
    med = int(np.sort(c)[int(np.ceil(0.5 * len(c))) - 1])
    dev = np.abs(c - med)
    mad = int(np.sort(dev)[int(np.ceil(0.5 * len(dev))) - 1])
    assert out['med_cents'].iloc[0] == med
    assert out['mad_cents'].iloc[0] == mad
    assert out['n_outliers'].iloc[0] == int((dev > 3 * mad).sum())
    assert out['n_outliers'].iloc[0] >= 2      # the planted spikes
