"""Scale-guard equality tests (VERDICT r4 #3): the SemDeDup megacluster
chunk-pair path and the pairs_to_groups distributed-CC path must produce
bit-identical results to their small-input fast paths — the guards change
the partitioning, never the semantics."""

import numpy as np
import pandas as pd
import pytest


def _emb_ds(n=40, dim=8, seed=7, dup_every=5):
    """Synthetic embeddings with planted near-dups: every ``dup_every``-th
    vector is a copy of its predecessor plus tiny noise (cosine ≈ 1)."""
    import ray.data as rd
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    for i in range(1, n):
        if i % dup_every == 0:
            vecs[i] = vecs[i - 1] + rng.normal(scale=1e-4, size=dim)
    return rd.from_pandas(pd.DataFrame({
        'vec_id': np.arange(n, dtype=np.int64),
        'embedding': [v.astype(np.float64).tolist() for v in vecs]}))


def _run_semdedup(ds, cap, n_centroids):
    from caligraph_ray.stages.dedup import semdedup_keep
    out = semdedup_keep(ds, n_centroids=n_centroids, n_iters=2,
                        threshold=0.95, cluster_cap=cap).to_pandas()
    out = out.astype({'vec_id': 'int64', 'centroid': 'int64',
                      'kept': 'int64'})
    return out.sort_values('vec_id').reset_index(drop=True)


def test_semdedup_megacluster_guard_equality(ray_session):
    """One giant cluster (n_centroids=1) forced through a tiny cap must
    match the uncapped single-bucket run exactly."""
    ds = _emb_ds(n=40)
    uncapped = _run_semdedup(ds, cap=10_000, n_centroids=1)
    capped = _run_semdedup(ds, cap=4, n_centroids=1)
    pd.testing.assert_frame_equal(capped, uncapped)
    # the planted dups were actually pruned (guard didn't keep everything)
    assert (uncapped['kept'] == 0).sum() >= 5


def test_semdedup_guard_mixed_clusters(ray_session):
    """Multi-cluster run where only SOME clusters exceed the cap: the
    small-cluster fast path and the chunk-pair path must agree with the
    all-fast-path run."""
    ds = _emb_ds(n=60, seed=11)
    uncapped = _run_semdedup(ds, cap=10_000, n_centroids=4)
    capped = _run_semdedup(ds, cap=7, n_centroids=4)
    pd.testing.assert_frame_equal(capped, uncapped)


def test_semdedup_cap_pathological_chunking(ray_session):
    """cap=2 → C ≈ n/2 chunks: maximal fan-out, empty chunks possible
    (ids hash unevenly); result must still be identical."""
    ds = _emb_ds(n=24, seed=3, dup_every=3)
    uncapped = _run_semdedup(ds, cap=10_000, n_centroids=1)
    capped = _run_semdedup(ds, cap=2, n_centroids=1)
    pd.testing.assert_frame_equal(capped, uncapped)


def _pairs_ds(edges):
    import ray.data as rd
    return rd.from_pandas(pd.DataFrame(
        {'a': np.array([e[0] for e in edges], dtype=np.int64),
         'b': np.array([e[1] for e in edges], dtype=np.int64)}))


@pytest.fixture
def contracted(monkeypatch):
    """Edge counts handed to the distributed contraction (``_forest_tail``
    of connected_components) by pairs_to_groups."""
    from caligraph_ray.stages import canonicalize as canon_mod
    seen = []
    real = canon_mod._forest_tail

    def counting(ds, *a, **kw):
        seen.append(ds.count())
        return real(ds, *a, **kw)
    monkeypatch.setattr(canon_mod, '_forest_tail', counting)
    return seen


def test_pairs_to_groups_cc_regime_equality(ray_session, contracted):
    """Forced-low gate (driver_limit=0) routes pairs through the adaptive
    distributed contraction of connected_components; groups must equal the
    driver union-find fast path, including singleton ids from all_ids."""
    from caligraph_ray.stages.dedup import pairs_to_groups
    edges = [(1, 2), (2, 3), (10, 11), (30, 31), (31, 32), (3, 4),
             (100, 2), (50, 51)]
    all_ids = [1, 2, 3, 4, 10, 11, 30, 31, 32, 50, 51, 100, 777]
    fast = pairs_to_groups(_pairs_ds(edges), all_ids=all_ids,
                           driver_limit=10_000)
    assert contracted == []
    dist = pairs_to_groups(_pairs_ds(edges), all_ids=all_ids,
                           driver_limit=0)
    assert contracted == [len(edges)]
    pd.testing.assert_frame_equal(dist.reset_index(drop=True),
                                  fast.reset_index(drop=True))
    # label = min member id; 777 is a singleton
    m = dict(zip(fast['doc_id'], fast['group']))
    assert m[100] == 1 and m[4] == 1 and m[32] == 30 and m[777] == 777


def test_pairs_to_groups_config_gate(ray_session, monkeypatch, contracted):
    """The default gate reads config.PAIR_GROUPS_DRIVER_LIMIT at call
    time, so the forced-gate env sweep reaches the contraction path."""
    import caligraph_ray.config as cfg
    from caligraph_ray.stages.dedup import pairs_to_groups
    edges = [(5, 6), (6, 7), (20, 21)]
    fast = pairs_to_groups(_pairs_ds(edges))
    monkeypatch.setattr(cfg, 'PAIR_GROUPS_DRIVER_LIMIT', 0)
    dist = pairs_to_groups(_pairs_ds(edges))
    pd.testing.assert_frame_equal(dist, fast)
    assert contracted == [len(edges)]


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_GUARD_SETTINGS = settings(max_examples=6, deadline=None,
                           suppress_health_check=list(HealthCheck))


@_GUARD_SETTINGS
@given(st.integers(min_value=8, max_value=48),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31))
def test_semdedup_guard_equality_fuzz(ray_session, n, cap, n_centroids,
                                      seed):
    """Hypothesis fuzz over corpus size × cap × centroid count × seed:
    the chunk-pair guard must match the single-bucket path exactly for
    ANY combination (empty chunks, every-cluster-oversized, mixed)."""
    ds = _emb_ds(n=n, seed=seed % 10_000, dup_every=4)
    uncapped = _run_semdedup(ds, cap=10_000, n_centroids=n_centroids)
    capped = _run_semdedup(ds, cap=cap, n_centroids=n_centroids)
    pd.testing.assert_frame_equal(capped, uncapped)
