"""Regression tests for the durable sink's idempotence contract
(stages/triples.materialize_triples): a rerun against the same out_dir
must never double rows — finished sinks are skipped via _SUCCESS, partial
sinks (no marker) are wiped before the rewrite."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _triples_df(n=8):
    return pd.DataFrame({
        'subj': [f's{i % 4}' for i in range(n)],
        'pred': ['p'] * n,
        'obj': [f'o{i}' for i in range(n)],
        'is_literal': [False] * n})


def test_double_write_does_not_double_rows(ray_session, tmp_path):
    import ray.data as rd
    from caligraph_ray.stages.triples import materialize_triples
    out = str(tmp_path / 'sink')
    df = _triples_df()
    ds = rd.from_pandas(df).repartition(2)
    first = materialize_triples(ds, out_dir=out).to_pandas()
    marker_mtime = os.path.getmtime(os.path.join(out, '_SUCCESS'))
    second = materialize_triples(rd.from_pandas(df).repartition(2),
                                 out_dir=out).to_pandas()
    assert len(first) == len(second) == len(df)
    # second run skipped the write entirely (marker untouched)
    assert os.path.getmtime(os.path.join(out, '_SUCCESS')) == marker_mtime
    assert sorted(map(tuple, first[['subj', 'pred', 'obj']].values.tolist())) == \
        sorted(map(tuple, second[['subj', 'pred', 'obj']].values.tolist()))


def test_partial_sink_is_wiped_and_rewritten(ray_session, tmp_path):
    import ray.data as rd
    from caligraph_ray.stages.triples import materialize_triples
    out = str(tmp_path / 'sink')
    # fake a crashed run: parquet junk present, no _SUCCESS marker
    os.makedirs(os.path.join(out, 'subj_bucket=99'))
    pq.write_table(
        pa.table({'subj': ['junk'], 'pred': ['junk'], 'obj': ['junk'],
                  'is_literal': [False]}),
        os.path.join(out, 'subj_bucket=99', 'junk.parquet'))
    df = _triples_df()
    got = materialize_triples(rd.from_pandas(df).repartition(2),
                              out_dir=out).to_pandas()
    assert len(got) == len(df)
    assert 'junk' not in set(got['subj'])
    assert os.path.exists(os.path.join(out, '_SUCCESS'))


def test_empty_kg_writes_a_complete_empty_sink(ray_session, tmp_path):
    """A corpus with no listings yields no triples; the sink still
    completes (marker and manifest) instead of failing on a missing dir."""
    import json

    import ray.data as rd
    from caligraph_ray.stages.triples import materialize_triples
    out = str(tmp_path / 'sink')
    empty = rd.from_pandas(_triples_df()).filter(lambda r: False)
    assert materialize_triples(empty, out_dir=out).count() == 0
    assert os.path.exists(os.path.join(out, '_SUCCESS'))
    with open(os.path.join(out, '_PARTITIONS.json')) as f:
        assert json.load(f)['total_rows'] == 0
