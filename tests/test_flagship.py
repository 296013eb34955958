"""End-to-end flagship golden: Ray pipeline triples vs single-process oracle.

North-rule gate: triple P/R ≥ 0.95 vs the reference semantics (here: the
oracle re-implementation in tests/oracle_kg.py). Deterministic pipeline →
we assert exact set equality (P = R = 1.0), strictly stronger than the gate.
"""

import pytest

from caligraph_ray.corpus import generate_pages_table
from oracle_kg import oracle_triples


def _run(pages_table, **kw):
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship
    ds = run_flagship(rd.from_arrow(pages_table).repartition(4), **kw)
    return {(r['subj'], r['pred'], r['obj'], r['is_literal']) for r in ds.take_all()}


def test_flagship_matches_oracle(ray_session, small_corpus):
    got = _run(small_corpus)
    pages = list(zip(small_corpus.column('url').to_pylist(),
                     small_corpus.column('html').to_pylist()))
    want = oracle_triples(pages)
    assert want, 'oracle produced no triples'
    missing = want - got
    extra = got - want
    precision = len(got & want) / len(got) if got else 0.0
    recall = len(got & want) / len(want)
    assert precision >= 0.95 and recall >= 0.95, (
        f'P={precision:.3f} R={recall:.3f} missing={list(missing)[:5]} extra={list(extra)[:5]}')
    # deterministic engine + oracle → exact match expected
    assert got == want, f'missing={list(missing)[:5]} extra={list(extra)[:5]}'


def test_flagship_matches_oracle_past_fixture(ray_session):
    """The 80-page fixture hides mention_uid collisions; 120 pages (seed
    42) carry 92 URLs, so uids collide across re-fetches and one surface
    can hold a uid twice. The oracle merges each colliding uid into one
    node, and so does the component exchange."""
    table = generate_pages_table(120, seed=42)
    pages = list(zip(table.column('url').to_pylist(),
                     table.column('html').to_pylist()))
    assert _run(table) == oracle_triples(pages)


def test_flagship_rejects_removed_canon_value():
    from caligraph_ray.pipelines.flagship import run_flagship
    with pytest.raises(ValueError, match='surface canonicalization path was removed'):
        run_flagship(None, canon='surface')
    for linking in ('broadcast', 'auto'):
        with pytest.raises(ValueError,
                           match='broadcast alias-linking path .* was removed'):
            run_flagship(None, linking=linking)


def test_flagship_scored_sharded_gate_matches_broadcast(
        ray_session, small_corpus):
    """The flagship links scored through ``link_mentions_scored_sharded``:
    over the corpus's distinct names in four shards, its per-shard top-k
    merge must reproduce the one-shard reference ``link_mentions_scored``
    on every mention of ``small_corpus``. Every mention there carries a
    wikilink, which short-cuts the top-k, so the targets are hidden."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from caligraph_ray.stages.alias import explode_mentions
    from caligraph_ray.stages.ed import (link_mentions_scored,
                                         link_mentions_scored_sharded)
    from caligraph_ray.stages.html_extract import parse_items
    from caligraph_ray.stages.relational import collect_pandas
    mentions = explode_mentions(parse_items(
        rd.from_arrow(small_corpus))).materialize()
    names = sorted(n for n in set(collect_pandas(mentions)['name']) if n)
    names_ds = rd.from_pandas(pd.DataFrame({'name': names})).repartition(4)
    assert names_ds.materialize().num_blocks() >= 3
    mentions = mentions.map_batches(
        lambda t: t.set_column(t.schema.get_field_index('name'), 'name',
                               pa.nulls(t.num_rows, pa.string())),
        batch_format='pyarrow').materialize()

    def links(ds):
        t = collect_pandas(ds)
        return sorted(zip(t['mention_uid'], t['entity'].fillna(''),
                          t['link_score'].round(12)))
    sharded = links(link_mentions_scored_sharded(mentions, names_ds))
    assert sharded == links(link_mentions_scored(mentions, names))
    assert any(e and s < 1.0 for _, e, s in sharded), sharded[:5]


def test_flagship_on_documents_smoke(ray_session):
    from caligraph_ray.pipelines.flagship import run_flagship_on_documents
    ds = run_flagship_on_documents('/root/testdata/sf0.001')
    rows = ds.take(50)
    assert len(rows) > 0
    assert set(rows[0].keys()) == {'subj', 'pred', 'obj', 'is_literal'}


def test_flagship_redirects_direct_matches_checkpointed(
        ray_session, small_corpus, tmp_path):
    """A direct run with redirects (which folds 03_mentions and drops its
    own handle on 01_combined) equals the checkpointed run with the same
    redirects, and the redirects change the triples. The checkpointed
    run still writes 02_categories and 03_mentions, with the same rows as
    01_combined's category and mention rows."""
    import os

    import pandas as pd
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    from caligraph_ray.stages.relational import collect_pandas
    from caligraph_ray.state.checkpoint import pipeline_report

    def redirects():
        return rd.from_pandas(pd.DataFrame({'src': ['Bern', 'Paris'],
                                            'tgt': ['Berlin', 'Pariss']}))

    direct = _run(small_corpus, redirects_ds=redirects())
    assert direct != _run(small_corpus)
    root = str(tmp_path)
    ckpt = run_flagship_checkpointed(
        rd.from_arrow(small_corpus).repartition(4), root,
        redirects_ds=redirects())
    assert {(r['subj'], r['pred'], r['obj'], r['is_literal'])
            for r in ckpt.take_all()} == direct

    rows = {k: v['rows_out'] for k, v in pipeline_report(root).items()}
    kinds = collect_pandas(rd.read_parquet(os.path.join(root, '01_combined'))
                           .select_columns(['kind']))['kind'].value_counts()
    assert rows['02_categories'] == kinds['cat'] == 112
    assert rows['03_mentions'] == kinds['m'] == 562


def test_direct_run_replaces_an_earlier_sink(ray_session, tmp_path):
    """A direct run into a directory that holds a finished sink from an
    earlier run returns, and leaves on disk, its own triples; only a
    checkpointed run may serve a sink it did not write."""
    import json
    import os

    import ray.data as rd
    out = str(tmp_path / 'sink')
    first = _run(generate_pages_table(40, seed=1), out_dir=out)
    table = generate_pages_table(80, seed=2)
    want = _run(table)
    assert want != first
    assert _run(table, out_dir=out) == want
    with open(os.path.join(out, '_PARTITIONS.json')) as f:
        assert json.load(f)['total_rows'] == len(want)
    assert {(r['subj'], r['pred'], r['obj'], r['is_literal'])
            for r in rd.read_parquet(out).take_all()} == want
