"""Two coverage gaps the other property modules can't reach:

1. The LARGE exchange path. ``bucketed_map``/``bucket_exchange`` gate on
   ``SMALL_EXCHANGE_BYTES``: every small test input takes the broadcast
   exchange, so the sort-based ``groupby('_coarse').map_groups`` path — the
   ONLY shape that holds at 100 TB — would otherwise ship untested against
   the same references. Forcing the gate to 0 must not change any result.

2. Taxonomy assembly invariants on CYCLIC inputs (the DAG-based closure
   test never exercises resolve_cycles): after build_hierarchy the graph is
   acyclic, every content node is reachable from the root, merge preserves
   the union of parts, and closure() is consistent with ancestors().
"""

from collections import deque

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=6, deadline=None,
                    suppress_health_check=list(HealthCheck))


@pytest.fixture
def force_large_exchange(monkeypatch):
    import caligraph_ray.stages.relational as rel
    monkeypatch.setattr(rel, 'SMALL_EXCHANGE_BYTES', -1)
    return rel


@st.composite
def keyed_frame(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    keys = st.one_of(st.integers(min_value=0, max_value=4), st.none())
    ks = draw(st.lists(keys, min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(min_value=-99, max_value=99),
                       min_size=n, max_size=n))
    return pd.DataFrame({'k': pd.array(ks, dtype='Int64'),
                         'v': np.array(vs, dtype='int64')})


@SETTINGS
@given(keyed_frame())
def test_large_exchange_bucketed_map_agrees(ray_session, force_large_exchange, df):
    import ray.data as rd
    from caligraph_ray.stages.relational import bucketed_map

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby('k', sort=False, dropna=False)['v'] \
            .agg(total='sum', n='size').reset_index()
        return out

    got = bucketed_map(rd.from_pandas(df).repartition(3), ['k'],
                       per_bucket).to_pandas()
    want = df.groupby('k', dropna=False)['v'] \
        .agg(total='sum', n='size').reset_index()

    def canon(d):
        return sorted(((-1 if pd.isna(r['k']) else int(r['k']),
                        int(r['total']), int(r['n'])) for _, r in d.iterrows()))
    assert canon(got) == canon(want)


@SETTINGS
@given(keyed_frame())
def test_large_exchange_sessionize_agrees(ray_session, force_large_exchange, df):
    """sessionize through the groupby path ≡ the same single-process
    reference the small-path property test uses."""
    import ray.data as rd
    from caligraph_ray.stages.temporal import sessionize
    events = pd.DataFrame({
        'event_id': np.arange(len(df), dtype='int64'),
        'user_id': df['k'],
        'ts': pd.to_datetime(df['v'].abs(), unit='s').astype('datetime64[us]'),
        'value': np.zeros(len(df))})
    gap_us = 30 * 10**6
    got = sessionize(rd.from_pandas(events).repartition(2),
                     gap_us=gap_us).to_pandas()
    key = events['user_id'].map(lambda v: -1 if pd.isna(v) else int(v))
    want = []
    for g, sub in events.assign(_g=key).groupby('_g'):
        sub = sub.sort_values(['ts', 'event_id'], kind='mergesort')
        tsv = sub['ts'].astype('int64').tolist()
        sessions = []
        for i, t in enumerate(tsv):
            if i == 0 or t - tsv[i - 1] > gap_us:
                sessions.append([t, t, 1])
            else:
                sessions[-1][1] = t
                sessions[-1][2] += 1
        for idx, (s, e, cnt) in enumerate(sessions):
            want.append((g, idx + 1, cnt, s, e))
    got_rows = sorted(
        (-1 if pd.isna(r['user_id']) else int(r['user_id']),
         int(r['session_idx']), int(r['n_events']),
         int(pd.Timestamp(r['start_ts']).value // 1000),
         int(pd.Timestamp(r['end_ts']).value // 1000))
        for _, r in got.iterrows())
    assert got_rows == sorted(want)


@SETTINGS
@given(keyed_frame())
def test_large_exchange_lsh_pairs_agree(ray_session, force_large_exchange, df):
    """ngram_jaccard_pairs' arrow LSH exchange through the groupby path
    stays exactly equal to brute force."""
    import itertools

    import ray.data as rd
    from caligraph_ray.functions.hashing import jaccard, stable_hash64
    from caligraph_ray.stages.dedup import ngram_jaccard_pairs
    words = ['aa', 'bb', 'cc']
    texts = [' '.join(words[abs(int(v)) % 3] for _ in range(abs(int(v)) % 5))
             for v in df['v']]
    docs = pd.DataFrame({'doc_id': np.arange(len(df), dtype='int64'),
                         'text': texts})
    got = ngram_jaccard_pairs(rd.from_pandas(docs).repartition(2),
                              n=2, threshold=0.8).to_pandas()
    got_pairs = {(int(r['a']), int(r['b'])) for _, r in got.iterrows()}

    def sh(text):
        toks = [t for t in text.split(' ') if t]
        if len(toks) < 2:
            return {stable_hash64(' '.join(toks))}
        return {stable_hash64(' '.join(toks[i:i + 2]))
                for i in range(len(toks) - 1)}
    sets = {int(r['doc_id']): sh(r['text']) for _, r in docs.iterrows()}
    want = {(a, b) for a, b in itertools.combinations(sorted(sets), 2)
            if jaccard(sets[a], sets[b]) >= 0.8}
    assert got_pairs == want


# --- taxonomy assembly invariants on cyclic inputs ---------------------------

# labels that CANONICALIZE differently ('X by Y' → 'X') so merge=True
# actually exercises direct/synonym/catset node merging, not just a no-op
_LABELS = ['Cats', 'Cats by size', 'Cats by color', 'Cat', 'Dogs',
           'Dogs by size', 'Node 6']


@st.composite
def messy_edges(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    lbl = st.sampled_from(_LABELS)
    out = []
    for _ in range(n):
        out.append((draw(lbl), draw(lbl)))   # self-loops + cycles allowed
    return out


@SETTINGS
@given(messy_edges(), st.booleans())
def test_build_hierarchy_invariants(ray_session, edges, merge):
    import ray.data as rd
    from caligraph_ray.stages.taxonomy import ROOT, build_hierarchy
    df = pd.DataFrame({'child': [c for _, c in edges],
                       'parent': [p for p, _ in edges]})
    h = build_hierarchy(rd.from_pandas(df).repartition(2), merge=merge)

    # acyclic: closure() must be consistent with iterative ancestors()
    for n in h.content_nodes:
        assert n not in h.ancestors(n), f'cycle through {n}'

    # all content nodes reachable from ROOT
    seen, dq = set(), deque([ROOT])
    while dq:
        cur = dq.popleft()
        for c in h.children(cur):
            if c not in seen:
                seen.add(c)
                dq.append(c)
    assert seen == h.content_nodes

    # parts COVER the original label set (reference semantics: a node
    # merging into SEVERAL matching parents unions its parts into EACH —
    # hierarchy_graph.py:244-246; _nodes_by_part maps part → node SET —
    # so parts may legitimately appear under more than one survivor, but
    # every original label must survive somewhere and nothing is invented)
    all_parts = {p for n in h.content_nodes for p in h.parts(n)}
    raw = {x for e in edges for x in e}
    assert all_parts == raw
    if not merge:   # without merging, parts ARE a partition (1:1)
        flat = [p for n in h.content_nodes for p in h.parts(n)]
        assert len(flat) == len(all_parts), 'parts overlap without merge'

    # closure agrees with BFS ancestors for every node
    cl = h.closure()
    for n in h.content_nodes:
        assert cl[n] == h.ancestors(n) - {ROOT}
