"""Unit tests for the skyline / CDC-chunking / chi² / Bellman-Ford
operators — brute-force equality on adversarial synthetic inputs the
driver testdata can't produce (dominance ties, duplicate points, docs
shorter than the CDC window, negative-association tokens, graphs where
the cheapest path is NOT the fewest-hop path)."""

import math

import numpy as np
import pandas as pd

import ray

from caligraph_ray.functions.hashing import md5_hash64
from caligraph_ray.stages import dedup as dd
from caligraph_ray.stages import relational as rel
from caligraph_ray.stages import textstats as ts
from caligraph_ray.stages.graph import shortest_paths_int


def _brute_skyline(df, maxc, minc):
    keep = []
    for i, a in df.iterrows():
        dom = any((b[maxc] >= a[maxc] and b[minc] <= a[minc]
                   and (b[maxc] > a[maxc] or b[minc] < a[minc]))
                  for _, b in df.iterrows())
        keep.append(not dom)
    return df[np.array(keep)]


def test_pareto_front_matches_brute_force(ray_session):
    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        'g': rng.choice(['a', 'b'], 60),
        'price': np.round(rng.uniform(0, 20, 60), 2),
        'day': rng.randint(0, 15, 60).astype('int64'),
    })
    # inject exact duplicates (both must survive together)
    df.loc[0, ['g', 'price', 'day']] = ['a', 10.0, 3]
    df.loc[1, ['g', 'price', 'day']] = ['a', 10.0, 3]
    ds = ray.data.from_pandas(df).repartition(4)
    out = rel.collect_pandas(rel.pareto_front(ds, 'g', 'price', 'day'))
    for g, sub in df.groupby('g'):
        sub = sub.copy()
        sub['pq'] = np.floor(sub['price'] * 100).astype('int64')
        exp = _brute_skyline(sub, 'pq', 'day')
        got = out[out['g'] == g]
        assert sorted(zip(got['price'], got['day'])) == \
            sorted(zip(exp['price'], exp['day'])), g


def test_cdc_chunks_offset_invariance(ray_session):
    # the CDC property: a shared byte run yields identical chunks at
    # different offsets (fixed-size blocking would not)
    shared = 'the quick brown fox jumps over the lazy dog ' * 8
    docs = pd.DataFrame({
        'doc_id': [1, 2, 3],
        'text': ['AAA' + shared + 'tail one',
                 'completely different prefix material ' + shared,
                 'unrelated text with no overlap at all whatsoever'],
    })
    out = rel.collect_pandas(
        dd.cdc_chunk_dedup(ray.data.from_pandas(docs), min_docs=2))
    assert len(out) >= 1                      # shared run detected
    assert (out['n_docs'] >= 2).all()
    # doc 3 shares nothing: no chunk of doc 3 may appear
    chunks3 = rel.collect_pandas(dd.cdc_chunks(
        ray.data.from_pandas(docs[docs['doc_id'] == 3])))
    assert not set(chunks3['chunk_hash']) & set(out['chunk_hash'])


def test_cdc_chunks_reassemble_and_short_doc(ray_session):
    docs = pd.DataFrame({'doc_id': [1, 2, 3],
                         'text': ['ab', 'x' * 500, '']})
    chunks = rel.collect_pandas(dd.cdc_chunks(ray.data.from_pandas(docs)))
    # empty doc -> no chunks; short doc -> exactly one whole-text chunk
    assert 3 not in set(chunks['doc_id'])
    one = chunks[chunks['doc_id'] == 1]
    assert len(one) == 1 and one['chunk_len'].iloc[0] == 2
    assert one['chunk_hash'].iloc[0] == str(md5_hash64('ab'))
    # chunk lengths of every doc sum to the doc length
    assert chunks[chunks['doc_id'] == 2]['chunk_len'].sum() == 500


def test_chi2_saliency_finds_planted_keyword(ray_session):
    rows = []
    for i in range(40):
        filler = f'common words shared by every doc {i % 3}'
        if i % 2 == 0:
            rows.append({'lang': 'en', 'text': filler + ' zebra zebra'})
        else:
            rows.append({'lang': 'fr', 'text': filler + ' quokka quokka'})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    out = rel.collect_pandas(ts.chi2_keyword_saliency(ds, k=2))
    en = out[out['lang'] == 'en'].sort_values('chi2', ascending=False)
    fr = out[out['lang'] == 'fr'].sort_values('chi2', ascending=False)
    assert en['token'].iloc[0] == 'zebra'
    assert fr['token'].iloc[0] == 'quokka'
    assert (out['chi2'] >= 0).all()


def test_shortest_paths_prefers_cheap_multi_hop(ray_session):
    # direct A->C is expensive (w=1 -> cost 1e6); A->B->C is cheap
    # (w=100 each -> 2*1e4): Bellman-Ford must beat BFS's 1-hop answer
    edges = pd.DataFrame({'src': ['A', 'A', 'B'],
                          'dst': ['C', 'B', 'C'],
                          'w': [1, 100, 100]})
    out = rel.collect_pandas(
        shortest_paths_int(ray.data.from_pandas(edges), 'A', rounds=4))
    cost = dict(zip(out['node'], out['cost']))
    assert cost['A'] == 0
    assert cost['B'] == 10_000
    assert cost['C'] == 20_000        # not 1_000_000


def test_shortest_paths_round_bound(ray_session):
    # chain A->B->C->D with rounds=2: D unreachable within the bound
    edges = pd.DataFrame({'src': ['A', 'B', 'C'],
                          'dst': ['B', 'C', 'D'],
                          'w': [1, 1, 1]})
    out = rel.collect_pandas(
        shortest_paths_int(ray.data.from_pandas(edges), 'A', rounds=2))
    nodes = set(out['node'])
    assert nodes == {'A', 'B', 'C'}


def test_shortest_paths_rejects_non_positive_weights(ray_session):
    """Cost is cost_scale // w, so weights must be positive: a zero weight
    used to divide by zero and a negative one gave a negative cost."""
    import pytest
    for bad in (0, -5):
        edges = pd.DataFrame({'src': ['A', 'B'], 'dst': ['B', 'C'],
                              'w': [10, bad]})
        with pytest.raises(ValueError, match='positive'):
            rel.collect_pandas(shortest_paths_int(
                ray.data.from_pandas(edges), 'A', rounds=2))


def test_hits_star_graph_hubs_vs_authorities(ray_session):
    from caligraph_ray.stages.graph import hits_int
    # star: H points at A1..A3; A's point at nothing else.
    edges = pd.DataFrame({'src': ['H', 'H', 'H', 'X'],
                          'dst': ['A1', 'A2', 'A3', 'A1'],
                          'w': [1, 1, 1, 1]})
    out = rel.collect_pandas(
        hits_int(ray.data.from_pandas(edges), iters=2))
    s = out.set_index('node')
    # H is the best hub; A1 (two in-edges) the best authority
    assert s['hub_q'].idxmax() == 'H'
    assert s['auth_q'].idxmax() == 'A1'
    assert s.loc['H', 'hub_q'] == 1_000_000          # max-normalized
    assert s.loc['A1', 'auth_q'] == 1_000_000
    # pure authorities have zero hub score
    assert s.loc['A2', 'hub_q'] == 0 and s.loc['A3', 'hub_q'] == 0
    # H has no in-edges: zero authority
    assert s.loc['H', 'auth_q'] == 0


def test_hits_empty_graph(ray_session):
    from caligraph_ray.stages.graph import hits_int
    edges = pd.DataFrame({'src': pd.Series(dtype=object),
                          'dst': pd.Series(dtype=object),
                          'w': pd.Series(dtype='int64')})
    out = rel.collect_pandas(hits_int(ray.data.from_pandas(edges)))
    assert len(out) == 0
