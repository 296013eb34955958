"""Property-based checks for the embedding near-dup family and EDIN voting.

* embedding_near_dup_pairs (distributed block-pair matmuls, forced
  multi-block) ≡ brute-force cosine over the same normalization, with a
  ±1e-9 band around the threshold to absorb matmul-order float noise.
* embedding_near_dup_pairs_lsh is SOUND: every emitted pair truly has
  cosine ≥ threshold (recall is probabilistic and asserted elsewhere).
* edin_clusters ≡ a loop reference: per-surface components, an entity
  wins a cluster iff it is the top link for ≥ cluster_threshold of the
  cluster's mentions (ties → lexicographically smallest entity).
"""

import itertools

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=list(HealthCheck))

_DIM = 4


@st.composite
def embedding_frame(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    grid = st.integers(min_value=-2, max_value=2)
    vecs = []
    for i in range(n):
        if vecs and draw(st.booleans()):
            vecs.append(list(vecs[draw(st.integers(0, len(vecs) - 1))]))
            continue
        v = [draw(grid) for _ in range(_DIM)]
        if not any(v):
            v[0] = 1
        vecs.append(v)
    return pd.DataFrame({'vec_id': np.arange(n, dtype='int64'),
                         'embedding': [np.array(v, dtype='float64')
                                       for v in vecs]})


def _true_cosines(df):
    mat = np.stack(df['embedding'].to_numpy())
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    sims = mat @ mat.T
    ids = df['vec_id'].to_numpy()
    return {(int(ids[i]), int(ids[j])): sims[i, j]
            for i, j in itertools.combinations(range(len(ids)), 2)}


@SETTINGS
@given(embedding_frame(), st.sampled_from([0.3, 0.7, 0.95]))
def test_embedding_near_dups_exact(ray_session, df, threshold):
    import ray.data as rd
    from caligraph_ray.stages.dedup import embedding_near_dup_pairs
    got = embedding_near_dup_pairs(rd.from_pandas(df).repartition(2),
                                   threshold=threshold,
                                   block_rows=4).to_pandas()
    got_pairs = set() if got.empty else \
        {(int(r['a']), int(r['b'])) for _, r in got.iterrows()}
    cos = _true_cosines(df)
    must = {p for p, s in cos.items() if s >= threshold + 1e-9}
    may = {p for p, s in cos.items() if s >= threshold - 1e-9}
    assert must <= got_pairs <= may
    assert len(got_pairs) == len(got)   # no duplicate pairs across tasks


@SETTINGS
@given(embedding_frame())
def test_embedding_near_dups_lsh_sound(ray_session, df):
    import ray.data as rd
    from caligraph_ray.stages.dedup import embedding_near_dup_pairs_lsh
    threshold = 0.9
    got = embedding_near_dup_pairs_lsh(rd.from_pandas(df).repartition(2),
                                       threshold=threshold).to_pandas()
    if got.empty:
        return
    cos = _true_cosines(df)
    for _, r in got.iterrows():
        assert cos[(int(r['a']), int(r['b']))] >= threshold - 1e-9


def test_embedding_near_dups_auto_gate_routes_and_agrees(ray_session):
    """Forced-low-gate run of the volume router: exact_max_blocks=0 pushes
    the corpus over budget so the LSH scale path runs; on identical-vector
    dups at threshold 0.95 it must find the same pair set the exact path
    finds (LSH recall on exact duplicates is 1.0 — identical vectors share
    every band)."""
    import ray.data as rd
    from caligraph_ray.stages.dedup import (embedding_near_dup_pairs,
                                            embedding_near_dup_pairs_auto)
    rng = np.random.RandomState(3)
    base = rng.randn(12, _DIM)
    vecs = list(base) + [base[2].copy(), base[5].copy(), base[5].copy()]
    df = pd.DataFrame({'vec_id': np.arange(len(vecs), dtype='int64'),
                       'embedding': [np.asarray(v, dtype='float64')
                                     for v in vecs]})
    exact = embedding_near_dup_pairs(
        rd.from_pandas(df).repartition(2), threshold=0.95,
        block_rows=4).to_pandas()
    exact_pairs = {(int(r['a']), int(r['b'])) for _, r in exact.iterrows()}
    assert exact_pairs   # the crafted dups must be found
    routed = embedding_near_dup_pairs_auto(
        rd.from_pandas(df).repartition(2), threshold=0.95,
        exact_max_blocks=0).to_pandas()
    routed_pairs = {(int(r['a']), int(r['b'])) for _, r in routed.iterrows()}
    assert routed_pairs == exact_pairs
    # and under budget the router takes the exact path verbatim
    under = embedding_near_dup_pairs_auto(
        rd.from_pandas(df).repartition(2), threshold=0.95, block_rows=4,
        exact_max_blocks=1000).to_pandas()
    under_pairs = {(int(r['a']), int(r['b'])) for _, r in under.iterrows()}
    assert under_pairs == exact_pairs


# --- EDIN cluster vote --------------------------------------------------------

_SURFACES = ['alpha', 'beta']
_ENTITIES = [None, 'Ent A', 'Ent B']


@st.composite
def linked_mentions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for i in range(n):
        ent = draw(st.sampled_from(_ENTITIES))
        rows.append({'mention_uid': i + 1,
                     'norm_surface': draw(st.sampled_from(_SURFACES)),
                     'entity': ent,
                     'link_score': draw(st.sampled_from([0.5, 0.97, 0.99]))
                     if ent else 0.0})
    return pd.DataFrame(rows)


@SETTINGS
@given(linked_mentions(), st.sampled_from([0.34, 0.5, 0.9]))
def test_edin_clusters_matches_reference(ray_session, df, cluster_threshold):
    import ray.data as rd
    from caligraph_ray.stages.canonicalize import edin_clusters
    got = edin_clusters(rd.from_pandas(df).repartition(2),
                        cluster_threshold=cluster_threshold).to_pandas()
    got_map = {int(r['node']): r['entity'] if pd.notna(r['entity']) else None
               for _, r in got.iterrows()}
    got_part = {}
    for _, r in got.iterrows():
        got_part.setdefault(int(r['cluster']), set()).add(int(r['node']))

    want_map, want_part = {}, []
    for surf, g in df.groupby('norm_surface'):
        voters = g[g['entity'].notna() & (g['link_score'] > 0.95)]
        ent = None
        if len(voters):
            counts = voters.groupby('entity').size()
            best = counts.max()
            if best / len(g) >= cluster_threshold:
                ent = min(counts[counts == best].index)   # tie → smallest
        for uid in g['mention_uid']:
            want_map[int(uid)] = ent
        want_part.append(frozenset(int(u) for u in g['mention_uid']))

    assert got_map == want_map
    assert {frozenset(s) for s in got_part.values()} == set(want_part)
