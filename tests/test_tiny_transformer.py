"""Constructor-swap proof for the ED model stages (VERDICT r2 item 3):
a REAL transformer (numpy multi-head attention forward pass, seeded
untrained weights) instantiated in the actor ``__init__`` and driven
through ``embed_texts``, ``rerank_candidates`` and the full
``link_mentions_scored`` path — the same slots the reference fills with
MiniLM / distilbert (biencoder.py:15-112, crossencoder.py:81-104)."""

import numpy as np
import pandas as pd
import pytest

from caligraph_ray.functions.tiny_transformer import (TinyTransformer,
                                                      TransformerCrossScorer,
                                                      TransformerEmbedder)


def test_tiny_transformer_is_a_real_model():
    m = TinyTransformer(dim=64, n_heads=4, n_layers=2, seed=17)
    v = m.encode_batch(['alpha beta', 'alpha beta', 'gamma delta'])
    assert v.shape == (3, 64)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(v[0], v[1])          # deterministic
    assert not np.allclose(v[0], v[2])                 # input-sensitive
    # attention is CONTEXTUAL: the same token embeds differently next to
    # different neighbours — a bag-of-words hash embedder cannot do this,
    # and it distinguishes word ORDER too
    a = m.encode_batch(['bank river'])[0]
    b = m.encode_batch(['river bank'])[0]
    assert not np.allclose(a, b)
    # padding mask: trailing pad slots must not change the encoding
    lone = m.encode_batch(['alpha'])[0]
    padded = m.encode_batch(['alpha', 'one two three four five six'])[0]
    np.testing.assert_allclose(lone, padded, atol=1e-9)


def test_cross_scorer_contract():
    rr = TransformerCrossScorer()
    assert rr.score_pair('Paris', 'paris') == 1.0      # exact match pins 1.0
    assert rr.score_pair('', 'Paris') == 0.0
    s = rr.score_pair('Paris', 'London')
    assert 0.0 < s < 1.0
    assert rr.score_pair('Paris', 'London') == s       # deterministic


def test_embed_texts_with_real_model(ray_session):
    import ray.data as rd
    from caligraph_ray.stages.ed import embed_texts
    df = pd.DataFrame({'label': ['alpha beta', 'gamma', 'alpha beta']})
    out = embed_texts(rd.from_pandas(df), 'label', dim=64,
                      embedder_cls=TransformerEmbedder,
                      concurrency=(1, 2)).to_pandas()
    ref = TransformerEmbedder().embed_batch(list(df['label']))
    got = np.stack(list(out['embedding']))
    np.testing.assert_allclose(np.sort(got, axis=0), np.sort(ref, axis=0),
                               atol=1e-9)


def test_rerank_candidates_with_real_model(ray_session):
    import ray.data as rd
    from caligraph_ray.stages.ed import rerank_candidates
    pairs = pd.DataFrame({
        'mention_uid': [1, 1, 1, 2, 2],
        'label': ['Paris', 'Paris', 'Paris', 'Berlin', 'Berlin'],
        'entity_label': ['Paris', 'London', 'Madrid', 'Hamburg', 'Munich'],
    })
    out = rerank_candidates(rd.from_pandas(pairs),
                            reranker_cls=TransformerCrossScorer).to_pandas()
    out = out.sort_values('mention_uid').reset_index(drop=True)
    assert len(out) == 2                               # argmax per mention
    assert out.loc[0, 'entity_label'] == 'Paris'       # exact match wins
    assert out.loc[0, 'ce_score'] == 1.0
    rr = TransformerCrossScorer()
    want = max(['Hamburg', 'Munich'],
               key=lambda e: (rr.score_pair('Berlin', e), [-ord(c) for c in e]))
    assert out.loc[1, 'entity_label'] == want


def test_link_mentions_scored_swap_end_to_end(ray_session):
    """The full ED linking path with the real model in BOTH slots: model
    built once per actor, entity dim embedded by the same model on the
    driver, linked output honors the link_mentions_join contract."""
    import ray.data as rd
    from caligraph_ray.stages.ed import link_mentions_scored
    mentions = pd.DataFrame({
        'mention_uid': np.arange(6, dtype='int64'),
        'name': ['Paris', None, None, None, 'Berlin', None],
        'label': ['Paris', 'Madrid', 'Rome', 'Madrid', 'Berlin', ''],
    })
    ents = ['Madrid', 'Rome', 'Oslo']
    out = link_mentions_scored(
        rd.from_pandas(mentions).repartition(2), ents, k=3,
        embedder_factory=TransformerEmbedder,
        reranker_factory=TransformerCrossScorer,
    ).to_pandas().sort_values('mention_uid').reset_index(drop=True)
    # wikilinked mentions keep their target at score 1.0
    assert out.loc[0, 'entity'] == 'Paris' and out.loc[0, 'link_score'] == 1.0
    assert out.loc[4, 'entity'] == 'Berlin' and out.loc[4, 'link_score'] == 1.0
    # exact-label candidates win their rerank at 1.0
    assert out.loc[1, 'entity'] == 'Madrid' and out.loc[1, 'link_score'] == 1.0
    assert out.loc[2, 'entity'] == 'Rome' and out.loc[2, 'link_score'] == 1.0
    # identical mentions link identically regardless of partition/actor
    assert out.loc[3, 'entity'] == out.loc[1, 'entity']
    assert out.loc[3, 'link_score'] == out.loc[1, 'link_score']
    # empty label → NIL (score_pair 0.0 contract)
    assert out.loc[5, 'entity'] is None or pd.isna(out.loc[5, 'entity'])
    # and the default stand-in path still produces the same CONTRACT shape
    base = link_mentions_scored(
        rd.from_pandas(mentions).repartition(2), ents, k=3,
    ).to_pandas().sort_values('mention_uid').reset_index(drop=True)
    assert list(base.columns) == list(out.columns)
    assert base.loc[1, 'entity'] == 'Madrid'
