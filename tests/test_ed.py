"""ED stack tests: BM25 exactness, candidate generation, rerank argmax,
scored linking path through the flagship."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope='module')
def rd(ray_session):
    import ray.data
    return ray.data


def test_bm25_matches_hand_formula():
    import math
    from caligraph_ray.stages.ed import BM25Index, BM25_K1, BM25_B
    texts = ['red apple pie', 'green apple', 'red red wine']
    idx = BM25Index([10, 20, 30], texts)
    # hand-compute score('red', doc 30): tf=2, dl=3, avgdl=(3+2+3)/3
    n, df = 3, 2
    idf = math.log((n - df + 0.5) / (df + 0.5) + 1)
    avgdl = 8 / 3
    want = idf * (2 * (BM25_K1 + 1)) / (2 + BM25_K1 * (1 - BM25_B + BM25_B * 3 / avgdl))
    assert abs(idx.score(['red'], 2) - want) < 1e-12
    top = idx.topk('red wine', 2)
    assert top[0][0] == 30  # doc 30 has both terms


def test_bm25_topk_stage(ray_session, rd):
    from caligraph_ray.stages.ed import bm25_topk
    queries = rd.from_pandas(pd.DataFrame({'label': ['apple pie', 'wine']}))
    out = bm25_topk(queries, [1, 2, 3],
                    ['red apple pie', 'green apple', 'red red wine'],
                    k=2).to_pandas()
    byq = {q: g['doc_id'].tolist() for q, g in out.groupby('label')}
    assert byq['apple pie'][0] == 1
    assert byq['wine'] == [3]


def test_me_candidates_topk(ray_session, rd):
    from caligraph_ray.stages.ed import me_candidates_topk
    rng = np.random.RandomState(7)
    emat = rng.normal(size=(20, 16))
    mentions = pd.DataFrame({'mention_uid': [100, 101],
                             'embedding': [emat[3] * 2.0, emat[7] * 0.5]})
    out = me_candidates_topk(rd.from_pandas(mentions), np.arange(20), emat,
                             k=3).to_pandas()
    top = {m: g.sort_values('score', ascending=False)['entity_id'].iloc[0]
           for m, g in out.groupby('mention_uid')}
    # scaled copies of entity vectors must hit their own entity first
    assert top[100] == 3 and top[101] == 7
    assert (out.groupby('mention_uid').size() <= 3).all()


def test_rerank_argmax_prefers_exact_label(ray_session, rd):
    from caligraph_ray.stages.ed import rerank_candidates
    pairs = pd.DataFrame({
        'mention_uid': [1, 1, 1, 2, 2],
        'label': ['Paris', 'Paris', 'Paris', 'Berlin City', 'Berlin City'],
        'entity_label': ['Paris', 'Paris Texas', 'London', 'Berlin', 'Munich'],
    })
    out = rerank_candidates(rd.from_pandas(pairs)).to_pandas()
    got = dict(zip(out['mention_uid'], out['entity_label']))
    assert got[1] == 'Paris'          # exact match score 1.0 wins
    assert got[2] == 'Berlin'         # shared token beats disjoint label
    assert out[out['mention_uid'] == 1]['ce_score'].iloc[0] == 1.0


def test_mm_candidates_star(ray_session, rd):
    from caligraph_ray.stages.ed import mm_candidates
    m = pd.DataFrame({'norm_surface': ['x', 'x', 'x', 'y', 'z', 'z'],
                      'mention_uid': [5, 3, 9, 1, 7, 8]})
    out = mm_candidates(rd.from_pandas(m)).to_pandas()
    got = set(zip(out['a'], out['b']))
    assert got == {(3, 5), (3, 9), (7, 8)}


def test_flagship_scored_path(ray_session, rd, small_corpus):
    """The flagship accepts the ED-stack linking path: wikilinked mentions
    keep their targets, and the pipeline produces the same triple *shape*
    (same predicates, same subjects for exact-label mentions)."""
    from caligraph_ray.pipelines.flagship import run_flagship
    pages = rd.from_arrow(small_corpus)
    base = run_flagship(pages).to_pandas()
    scored = run_flagship(pages, linking='scored').to_pandas()
    assert set(scored['pred']) == set(base['pred'])
    # wikilink-anchored facts are identical on both paths (score-1 links)
    base_cat = set(map(tuple, base[base['pred'] == 'subject']
                       [['subj', 'obj']].values.tolist()))
    scored_cat = set(map(tuple, scored[scored['pred'] == 'subject']
                         [['subj', 'obj']].values.tolist()))
    assert base_cat == scored_cat
    assert len(scored) > 0


def test_embed_texts_stage(ray_session, rd):
    from caligraph_ray.stages.ed import embed_texts, hash_embed
    ds = rd.from_pandas(pd.DataFrame({'label': ['alpha beta', 'alpha beta', 'gamma']}))
    out = embed_texts(ds, 'label', dim=32).to_pandas()
    v0, v1, v2 = [np.asarray(v) for v in out['embedding']]
    assert np.allclose(v0, v1)            # deterministic
    assert not np.allclose(v0, v2)
    assert abs(np.linalg.norm(v0) - 1.0) < 1e-9
    assert np.allclose(v0, hash_embed('alpha beta', 32))


def test_sharded_linker_embeds_each_shard_once(ray_session):
    """VERDICT r4 #4: shard embeddings are precomputed — each entity name
    is embedded exactly ONCE cluster-wide (one remote task per shard), not
    once per actor or per mention batch. A counting embedder records every
    embed_batch text through a Ray actor; the name-text tally must equal
    the distinct name set exactly."""
    import ray
    import ray.data as rd

    from caligraph_ray.stages.ed import (HashEmbedder,
                                         link_mentions_scored_sharded)

    @ray.remote
    class EmbedTally:
        def __init__(self):
            self.texts = []

        def add(self, texts):
            self.texts.extend(texts)

        def get(self):
            return list(self.texts)

    tally = EmbedTally.remote()

    class CountingEmbedder(HashEmbedder):
        def embed_batch(self, texts):
            ray.get(tally.add.remote([str(t) for t in texts]))
            return super().embed_batch(texts)

    names = [f'ent_{i:03d}' for i in range(40)]
    names_ds = rd.from_pandas(pd.DataFrame({'name': names})).repartition(4)
    mentions = pd.DataFrame({
        'label': [f'ent_{i % 40:03d}' for i in range(30)],
        'name': [None] * 30})
    out = link_mentions_scored_sharded(
        rd.from_pandas(mentions).repartition(3), names_ds, k=2,
        embedder_factory=lambda: CountingEmbedder(),
        max_cached_shards=1).to_pandas()
    assert len(out) == 30 and out['entity'].notna().all()
    # mention labels deliberately equal name texts, so each name is
    # embedded once by the shard pass plus once per mention row carrying
    # it as a label — any per-actor or per-batch shard re-embed (the old
    # over-budget regime with max_cached_shards=1) would exceed this
    from collections import Counter
    c = Counter(ray.get(tally.get.remote()))
    for n in names:
        expect = 1 + sum(1 for l in mentions['label'] if l == n)
        assert c[n] == expect, (n, c[n], expect)


def test_pool_size_bounded_by_cluster_cpus(ray_session):
    """Default actor pools ask for at most one one-CPU actor per cluster
    CPU (it used to ask for at least 8, more than a 4-CPU cluster has)."""
    import ray

    from caligraph_ray.stages.ed import _pool_size
    assert _pool_size() == (1, int(ray.cluster_resources()['CPU']))
