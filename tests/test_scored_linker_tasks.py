"""The fused scored linkers (``ed.link_mentions_scored`` and its sharded
variant) run as stateless tasks with one batched rerank call per batch:

* a Ray-actor call counter pins exactly one ``score_batch`` per batch that
  has unlinked rows, and none when every row is wikilinked;
* ``score_batch`` equals ``score_pair`` element for element for all four
  scorers behind the rerank seam (hypothesis);
* the benchmark's scored flagship call and ``run_flagship(linking=
  'scored')`` write the same sink;
* a kwargs capture pins that ``map_batches`` gets a plain function and no
  actor-pool ``concurrency``.
"""

import inspect
import os

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caligraph_ray.stages import ed

_K = 3


def _counting_reranker(tally):
    class CountingReranker(ed.CrossEncoderReranker):
        def score_batch(self, mentions, entities):
            import ray
            ray.get(tally.add.remote(list(mentions)))
            return super().score_batch(mentions, entities)
    return CountingReranker


def _blocks():
    """Three 10-row blocks: b0 fully wikilinked, b1 with 4 unlinked rows,
    b2 with 10. Labels carry their block tag."""
    ents = [f'ent {i}' for i in range(12)]
    out = []
    for b, n_unlinked in enumerate((0, 4, 10)):
        labels = [f'b{b} ent {i}' for i in range(10)]
        names = [None] * n_unlinked + ents[:10 - n_unlinked]
        out.append(pd.DataFrame({'mention_uid': np.arange(10) + 10 * b,
                                 'label': labels, 'name': names}))
    return ents, out


@pytest.mark.parametrize('sharded', [False, True])
def test_one_score_batch_per_batch_with_unlinked_rows(ray_session,
                                                      monkeypatch, sharded):
    import ray
    import ray.data as rd

    @ray.remote
    class Tally:
        def __init__(self):
            self.calls = []

        def add(self, mentions):
            self.calls.append(mentions)

        def get(self):
            return list(self.calls)

    # one batch per 10-row block, so calls map to blocks one to one
    monkeypatch.setattr(ed, 'AGG_BATCH_SIZE', 10)
    ents, blocks = _blocks()

    def link(dfs, tally):
        kw = dict(k=_K, reranker_factory=_counting_reranker(tally))
        mentions = rd.from_pandas(dfs)
        if sharded:
            names = rd.from_pandas(pd.DataFrame({'name': ents})).repartition(3)
            return ed.link_mentions_scored_sharded(mentions, names, **kw)
        return ed.link_mentions_scored(mentions, ents, **kw)

    tally = Tally.remote()
    out = link(blocks, tally).to_pandas()
    assert len(out) == 30
    calls = ray.get(tally.get.remote())
    # b0 (all wikilinked) makes no call; b1 and b2 one each, covering every
    # (unlinked mention x top-k candidate) pair of the batch
    got = sorted((sorted({m.split()[0] for m in c}), len(c)) for c in calls)
    assert got == [(['b1'], 4 * _K), (['b2'], 10 * _K)]

    tally = Tally.remote()
    link([blocks[0]], tally).to_pandas()
    assert ray.get(tally.get.remote()) == []


# case variants and empty labels hit the exact-match and empty contracts
_WORDS = st.sampled_from(['paris', 'Paris', 'berlin', 'new york', 'city',
                          'river', 'of the', 'x', ''])
_PAIRS = st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=12)


def _scorer_factories():
    from caligraph_ray.functions.tiny_transformer import (TinyTransformer,
                                                          TransformerCrossScorer)
    from caligraph_ray.functions.train_transformer import TrainedCrossScorer
    from caligraph_ray.pipelines.matcher import BiEncoderCosineReranker
    model = TinyTransformer(dim=32, seed=13)
    head = np.random.RandomState(5).randn(32, 2)
    return {
        'cross_encoder': lambda: ed.CrossEncoderReranker(),
        'bi_encoder_cosine': lambda: BiEncoderCosineReranker(model),
        'transformer_cross': lambda: TransformerCrossScorer(dim=32),
        'trained_cross': lambda: TrainedCrossScorer(model, head),
    }


_FACTORIES = _scorer_factories()


@pytest.mark.parametrize('name', sorted(_FACTORIES))
@settings(max_examples=30, deadline=None)
@given(pairs=_PAIRS)
def test_score_batch_equals_score_pair(name, pairs):
    ms = [m for m, _ in pairs]
    es = [e for _, e in pairs]
    batch = _FACTORIES[name]().score_batch(ms, es)
    single = _FACTORIES[name]()
    want = [single.score_pair(m, e) for m, e in pairs]
    assert [float(x) for x in batch] == want


def _sink_rows(out_dir):
    import pyarrow.parquet as pq
    with open(os.path.join(out_dir, '_PARTITIONS.json')) as f:
        manifest = f.read()
    parts = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith('subj_bucket='):
            t = pq.read_table(os.path.join(out_dir, name)).to_pandas()
            parts[name] = t.sort_values(list(t.columns)).reset_index(drop=True)
    return manifest, parts


def test_bench_flagship_scored_matches_run_flagship(ray_session, tmp_path):
    """bench.py's flagship_scored entry (run_flagship_on_documents over its
    SF_DIR) and a direct run_flagship(linking='scored') over the same pages
    write the same sink: same partition manifest, same rows in every
    partition."""
    import bench
    from caligraph_ray.pipelines.flagship import (documents_to_pages,
                                                  run_flagship,
                                                  run_flagship_on_documents)
    from caligraph_ray.stages.relational import read_table
    sf = bench.SF_DIR
    a, b = str(tmp_path / 'bench'), str(tmp_path / 'direct')
    run_flagship_on_documents(sf, out_dir=a, linking='scored').count()
    docs = read_table(sf, 'documents', ['doc_id', 'text', 'lang', 'source'])
    run_flagship(documents_to_pages(docs), out_dir=b,
                 linking='scored').count()
    man_a, parts_a = _sink_rows(a)
    man_b, parts_b = _sink_rows(b)
    assert man_a == man_b
    assert parts_a.keys() == parts_b.keys() and parts_a
    for name in parts_a:
        pd.testing.assert_frame_equal(parts_a[name], parts_b[name])


class _CaptureDS:
    """Stands in for a ray.data.Dataset: records each map_batches call."""

    def __init__(self):
        self.calls = []

    def map_batches(self, fn, **kwargs):
        self.calls.append((fn, dict(kwargs)))
        return self


def test_fused_linkers_map_a_function_without_actor_pool(ray_session):
    import ray.data as rd
    names = rd.from_pandas(pd.DataFrame({'name': ['Paris', 'Rome']}))
    for link in (lambda d: ed.link_mentions_scored(d, ['Paris', 'Rome']),
                 lambda d: ed.link_mentions_scored_sharded(d, names),
                 lambda d: ed.link_mentions_scored(d, [])):
        ds = _CaptureDS()
        link(ds)
        assert len(ds.calls) == 1
        fn, kwargs = ds.calls[0]
        assert inspect.isfunction(fn)
        assert 'concurrency' not in kwargs
        assert 'fn_constructor_kwargs' not in kwargs
        assert kwargs['batch_format'] == 'pandas'
