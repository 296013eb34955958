"""Checkpoint/resume semantics (north rule: resumable from checkpoint with
per-partition lineage)."""

import json
import os

import pytest

from caligraph_ray.state.checkpoint import (is_complete, pipeline_report,
                                            read_lineage, run_stage)


def test_run_stage_writes_lineage_and_skips_on_rerun(ray_session, tmp_path):
    import ray.data as rd
    calls = {'n': 0}

    def build():
        calls['n'] += 1
        return rd.range(100)

    root = str(tmp_path)
    out1 = run_stage(root, 'stage_a', build)
    assert out1.count() == 100
    assert calls['n'] == 1
    assert is_complete(root, 'stage_a')
    lin = read_lineage(root, 'stage_a')
    assert lin['rows_out'] == 100 and lin['n_files'] >= 1 and lin['wall_sec'] >= 0

    out2 = run_stage(root, 'stage_a', build)
    assert out2.count() == 100
    assert calls['n'] == 1  # build skipped: resumed from _SUCCESS


def _parquet_footers(d):
    import pyarrow.parquet as pq
    return {f: pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
            for f in sorted(os.listdir(d)) if f.endswith('.parquet')}


def test_fresh_stage_is_one_execution(ray_session, tmp_path, monkeypatch):
    """A fresh stage writes its blocks itself and hands them downstream: it
    neither goes through Dataset.write_parquet nor reads its Parquet back."""
    import ray.data as rd

    def forbidden(*a, **k):
        raise AssertionError('a fresh stage must not call this')

    monkeypatch.setattr(rd, 'read_parquet', forbidden)
    monkeypatch.setattr(rd.Dataset, 'write_parquet', forbidden)
    out = run_stage(str(tmp_path), 'fresh',
                    lambda: rd.range(100, override_num_blocks=4))
    assert sorted(r['id'] for r in out.take_all()) == list(range(100))
    assert read_lineage(str(tmp_path), 'fresh')['rows_out'] == 100


def test_rows_per_file_matches_parquet_footers(ray_session, tmp_path):
    import ray.data as rd
    root = str(tmp_path)
    run_stage(root, 'st', lambda: rd.range(1000, override_num_blocks=7)
              .filter(lambda r: r['id'] % 3 != 0))
    lin = read_lineage(root, 'st')
    footers = _parquet_footers(os.path.join(root, 'st'))
    assert lin['rows_per_file'] == footers
    assert lin['n_files'] == len(footers)
    assert lin['rows_out'] == sum(footers.values()) == 666


def test_empty_stage_writes_no_files_and_resumes_empty(ray_session, tmp_path):
    import ray.data as rd
    root = str(tmp_path)
    calls = {'n': 0}

    def build():
        calls['n'] += 1
        return rd.range(50, override_num_blocks=3).filter(lambda r: False)

    assert run_stage(root, 'empty', build).count() == 0
    assert _parquet_footers(os.path.join(root, 'empty')) == {}
    lin = read_lineage(root, 'empty')
    assert lin['rows_out'] == 0 and lin['n_files'] == 0
    assert run_stage(root, 'empty', build).count() == 0
    assert calls['n'] == 1


def _sorted_rows(ds, key):
    from caligraph_ray.stages.relational import collect_rows
    return sorted(collect_rows(ds), key=lambda r: r[key])


@pytest.mark.parametrize('blocks', ['null_and_string', 'pandas_lists'])
def test_stage_reads_back_equal_after_resume(ray_session, tmp_path, blocks):
    """Blocks whose Arrow schemas differ (a null-typed column next to a
    string one) and pandas blocks with list values: the resumed Parquet
    holds the rows the fresh run handed downstream."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    def build():
        if blocks == 'null_and_string':
            return rd.from_arrow([
                pa.table({'k': [0, 1], 'x': pa.nulls(2)}),
                pa.table({'k': [2, 3], 'x': ['a', None]})])
        return rd.from_pandas([
            pd.DataFrame({'k': [0, 1], 'xs': [['a', 'b'], []]}),
            pd.DataFrame({'k': [2], 'xs': [['c']]})])

    root = str(tmp_path)
    fresh = _sorted_rows(run_stage(root, 'st', build), 'k')
    resumed = _sorted_rows(run_stage(root, 'st', build), 'k')
    assert fresh == resumed == _sorted_rows(build(), 'k')


def test_rerun_of_partially_written_stage_has_no_duplicates(ray_session,
                                                             tmp_path):
    """A crash mid-write leaves part files and no _SUCCESS; the rerun
    rewrites the stage instead of adding to those files, and a retried write
    task overwrites the file of its block."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from caligraph_ray.state.checkpoint import _write_block

    root = str(tmp_path)
    d = os.path.join(root, 'st')
    os.makedirs(d)
    for i in (0, 1, 9):
        pq.write_table(pa.table({'id': pa.array(range(5), pa.int64())}),
                       os.path.join(d, f'part-{i:05d}.parquet'))

    out = run_stage(root, 'st', lambda: rd.range(40, override_num_blocks=4))
    assert sorted(r['id'] for r in out.take_all()) == list(range(40))
    resumed = run_stage(root, 'st', lambda: rd.range(0))
    assert sorted(r['id'] for r in resumed.take_all()) == list(range(40))
    assert sum(_parquet_footers(d).values()) == 40

    block = ray.put(pa.table({'id': [7, 8]}))
    path = os.path.join(str(tmp_path), 'retried.parquet')
    for _ in range(2):
        assert ray.get(_write_block.remote(block, path)) == 2
    assert pq.read_table(path).column('id').to_pylist() == [7, 8]


def test_partial_stage_is_rerun(ray_session, tmp_path):
    import ray.data as rd
    root = str(tmp_path)
    d = os.path.join(root, 'stage_b')
    os.makedirs(d)
    with open(os.path.join(d, 'orphan.parquet'), 'w') as f:
        f.write('garbage from a crashed run')
    out = run_stage(root, 'stage_b', lambda: rd.range(10))
    assert out.count() == 10
    assert not os.path.exists(os.path.join(d, 'orphan.parquet'))


def _triples(ds):
    return {(r['subj'], r['pred'], r['obj'], r['is_literal'])
            for r in ds.take_all()}


@pytest.fixture(scope='module')
def corpus_120():
    """120 pages (seed 42): past the 80-page fixture, re-fetched URLs
    share mention uids. ``me_threshold=1.0`` (no mention→entity edge
    qualifies, so every cluster is NE_<id>) changes its triples."""
    from caligraph_ray.corpus import generate_pages_table
    return generate_pages_table(120, seed=42)


def test_flagship_checkpointed_resumes(ray_session, corpus_120, tmp_path):
    import shutil

    import ray.data as rd
    from caligraph_ray.pipelines.flagship import (run_flagship,
                                                  run_flagship_checkpointed)

    def pages():
        return rd.from_arrow(corpus_120).repartition(4)

    root = str(tmp_path)
    rows1 = _triples(run_flagship_checkpointed(pages(), root))
    report = pipeline_report(root)
    assert set(report) == {'01_combined', '02_categories', '03_mentions', '04_linked', '05_triples'}
    mtime_items = os.path.getmtime(os.path.join(root, '01_combined', '_SUCCESS'))

    # wipe the last stage → rerun recomputes only it, reusing earlier stages
    shutil.rmtree(os.path.join(root, '05_triples'))
    rows2 = _triples(run_flagship_checkpointed(pages(), root))
    assert rows1 == rows2
    assert os.path.getmtime(os.path.join(root, '01_combined', '_SUCCESS')) == mtime_items

    # checkpointed result == direct result
    assert rows1 == _triples(run_flagship(pages()))

    # partitioned triple sink exists
    out_parts = os.listdir(os.path.join(root, 'triples_out'))
    assert any(p.startswith('subj_bucket=') for p in out_parts)

    # a rebuilt 05_triples replaces the sink: wipe it and rerun with a
    # threshold whose triples differ on this corpus
    shutil.rmtree(os.path.join(root, '05_triples'))
    no_me = _triples(run_flagship(pages(), me_threshold=1.0))
    assert no_me != rows1
    assert _triples(run_flagship_checkpointed(pages(), root,
                                              me_threshold=1.0)) == no_me
    assert _triples(rd.read_parquet(os.path.join(root, 'triples_out'))
                    .drop_columns(['subj_bucket'])) == no_me


def test_flagship_checkpoint_fingerprints_every_setting(ray_session,
                                                        corpus_120, tmp_path):
    """me_threshold and markup change the triples, so a rerun of one root
    with a different value rebuilds instead of serving the earlier
    stages."""
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import (run_flagship,
                                                  run_flagship_checkpointed)

    def pages():
        return rd.from_arrow(corpus_120).repartition(4)

    root = str(tmp_path)
    default = _triples(run_flagship_checkpointed(pages(), root))
    no_me = _triples(run_flagship_checkpointed(pages(), root,
                                               me_threshold=1.0))
    assert no_me == _triples(run_flagship(pages(), me_threshold=1.0))
    assert no_me != default
    stamp = os.path.getmtime(os.path.join(root, '01_combined', '_SUCCESS'))

    wiki = _triples(run_flagship_checkpointed(pages(), root, me_threshold=1.0,
                                              markup='wikitext'))
    assert wiki == _triples(run_flagship(pages(), me_threshold=1.0,
                                         markup='wikitext'))
    assert wiki != no_me
    assert os.path.getmtime(
        os.path.join(root, '01_combined', '_SUCCESS')) != stamp


def test_training_data_prep_checkpointed_resume(ray_session, tmp_path):
    """The LLM-data composite's checkpointed variant: same output as the
    direct run, and a rerun against the same root reuses every stage
    (dirs untouched)."""
    import os

    import numpy as np
    import pandas as pd
    import ray

    from caligraph_ray.pipelines.data_prep import (
        training_data_prep, training_data_prep_checkpointed)

    rng = np.random.RandomState(3)
    words = ['the', 'of', 'and'] + [f'w{i}' for i in range(60)]
    docs = pd.DataFrame({
        'doc_id': np.arange(200, dtype='int64'),
        'text': [' '.join(['the', 'of'] + list(rng.choice(
                     words, size=rng.randint(10, 38))))
                 for _ in range(200)],
        'source': [f'host{i % 7}.org' for i in range(200)]})
    ds = ray.data.from_pandas(docs).repartition(3)

    direct = training_data_prep(ds).to_pandas() \
        .sort_values(['doc_id']).reset_index(drop=True)
    root = str(tmp_path / 'prep')
    first = training_data_prep_checkpointed(ds, root).to_pandas() \
        .sort_values(['doc_id']).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        direct.sort_index(axis=1), first.sort_index(axis=1))

    stamps = {n: os.path.getmtime(os.path.join(root, n, '_SUCCESS'))
              for n in ('01_gated', '02_clean', '03_packed')}
    again = training_data_prep_checkpointed(ds, root).to_pandas() \
        .sort_values(['doc_id']).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        first.sort_index(axis=1), again.sort_index(axis=1))
    for n, t in stamps.items():
        assert os.path.getmtime(os.path.join(root, n, '_SUCCESS')) == t, n

    # a changed config invalidates the stale checkpoints instead of
    # silently reusing them
    other = training_data_prep_checkpointed(ds, root, capacity=64)
    assert other.count() >= first['last_seq'].max()
