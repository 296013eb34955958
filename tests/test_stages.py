"""Stage-level tests over Ray (session-scoped ray fixture)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from caligraph_ray.stages.canonicalize import (_UnionFind, connected_components,
                                               _split_component)


@pytest.fixture(scope='module')
def rd(ray_session):
    import ray.data
    return ray.data


def test_alias_index_and_linking(ray_session, rd, small_corpus):
    from caligraph_ray.stages.alias import (alias_counts, explode_mentions,
                                            link_mentions_join)
    from caligraph_ray.stages.html_extract import parse_items
    pages = rd.from_arrow(small_corpus)
    items = parse_items(pages).materialize()
    mentions = explode_mentions(items).materialize()
    assert mentions.count() > 0
    assert alias_counts(mentions).count() > 0
    linked = link_mentions_join(mentions).materialize()
    rows = linked.take_all()
    # every wikilink mention keeps its target with score 1
    for r in rows:
        if r['name'] is not None:
            assert r['entity'] == r['name'] and r['link_score'] == 1.0
    # unlinked mentions of known surfaces resolve to the majority entity
    resolved = [r for r in rows if r['name'] is None and r['entity'] is not None]
    assert all(0 < r['link_score'] <= 1 for r in resolved)


@pytest.fixture
def cc_spy(monkeypatch):
    """Edge counts seen by the contraction (``_forest_tail``) and by each
    distinct step of its adaptive loop (``_distinct_edges``)."""
    from caligraph_ray.stages import canonicalize as canon_mod
    seen = {'_forest_tail': [], '_distinct_edges': []}

    def spy(name):
        real = getattr(canon_mod, name)

        def counting(ds, *a, **kw):
            out = real(ds, *a, **kw)
            seen[name].append(out.count())
            return out
        monkeypatch.setattr(canon_mod, name, counting)

    spy('_forest_tail')
    spy('_distinct_edges')
    return seen


def test_connected_components_matches_unionfind(ray_session, rd, cc_spy):
    """Driver union-find within the default limit; over a forced one (700
    edges, a forest floor of at most 499), contraction first."""
    rng = np.random.RandomState(5)
    n_nodes, n_edges = 500, 700
    src = rng.randint(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.randint(0, n_nodes, n_edges).astype(np.int64)
    edges = rd.from_arrow(pa.Table.from_pydict(
        {'src': src, 'dst': dst})).repartition(8)
    uf = _UnionFind()
    for a, b in zip(src, dst):
        uf.union(int(a), int(b))
    want = {n: uf.find(n) for n in set(src.tolist()) | set(dst.tolist())}
    # identity labels (isolated/self-loop nodes) are implicit on both sides:
    # consumers resolve with labels.get(n, n)
    want = {n: l for n, l in want.items() if l != n}
    for driver_limit, contractions in ((5_000_000, 0), (600, 1)):
        got = connected_components(edges, driver_limit=driver_limit)
        got = {n: l for n, l in got.items() if l != n}
        assert got == want
        assert len(cc_spy['_forest_tail']) == contractions


def test_connected_components_adaptive_converges(ray_session, rd, cc_spy):
    """Long chain, given three times (forward, reversed, forward again) so
    the 717 edges exceed a forced driver_limit that sits above the true
    forest floor (#nodes − #components = 239): the adaptive loop must
    converge to the correct components instead of raising."""
    n = 240
    chain = np.arange(n - 1, dtype=np.int64)
    src = np.concatenate([chain, chain + 1, chain])
    dst = np.concatenate([chain + 1, chain, chain + 1])
    edges = rd.from_arrow(pa.Table.from_pydict(
        {'src': src, 'dst': dst})).repartition(8)
    got = connected_components(edges, contraction_passes=2,
                               driver_limit=n + 10)
    assert set(got) == set(range(1, n))
    assert all(v == 0 for v in got.values())
    assert cc_spy['_forest_tail'] and cc_spy['_forest_tail'][0] <= n + 10


def test_connected_components_converges_after_distinct(ray_session, rd,
                                                       cc_spy):
    """One 60-leaf star in each of 8 blocks: every block contracts to the
    same 60 (leaf, 0) edges, so the 480-edge tail after the one mandatory
    pass is all duplicates over the limit, and the distributed distinct
    brings it to the 60-edge forest within it."""
    leaves = np.arange(1, 61, dtype=np.int64)
    src = np.tile(leaves, 8)
    dst = np.zeros(len(src), np.int64)
    edges = rd.from_arrow(pa.Table.from_pydict(
        {'src': src, 'dst': dst})).repartition(8)
    got = connected_components(edges, contraction_passes=1, driver_limit=100)
    assert got == {int(l): 0 for l in leaves}
    assert cc_spy['_distinct_edges'] == [60]
    assert cc_spy['_forest_tail'] == [60]


def test_connected_components_true_overflow_raises(ray_session, rd):
    """A forced limit BELOW the true forest floor must still raise (the
    returned node map would not fit either) — with lineage counters."""
    n = 64
    src = np.arange(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    edges = rd.from_arrow(pa.Table.from_pydict(
        {'src': src, 'dst': dst})).repartition(4)
    with pytest.raises(RuntimeError, match='edge counts'):
        connected_components(edges, contraction_passes=2, driver_limit=10,
                             max_passes=6)


def test_split_component_nasty_linker():
    # two entities bridged by a weak chain: m1 -e1 strong, m2 -e2 strong,
    # m1-m2 weak → mentions split to their entities (path threshold prunes)
    e1, e2 = -10, -20
    edges = [(1, e1, 0.99), (2, e2, 0.99), (1, 2, 0.9)]
    out = _split_component([e1, e2, 1, 2], edges, path_threshold=0.95)
    assert out[1] == e1 and out[2] == e2
    # with a permissive threshold the weak chain keeps them together but
    # Dijkstra still assigns each mention to its nearest entity
    out2 = _split_component([e1, e2, 1, 2], edges, path_threshold=0.5)
    assert out2[1] == e1 and out2[2] == e2
    # unassigned mentions form their own NEW_ENTITY cluster
    edges3 = [(1, e1, 0.99), (2, e2, 0.99), (3, 4, 0.9), (1, 3, 0.4)]
    out3 = _split_component([e1, e2, 1, 2, 3, 4], edges3, path_threshold=0.8)
    assert out3[3] == out3[4] == 3  # min-id cluster of the unassigned pair


def test_exact_dedup_with_planted_dups(ray_session, rd):
    from caligraph_ray.stages.dedup import exact_dedup
    docs = pd.DataFrame({
        'doc_id': [1, 2, 3, 4, 5],
        'text': ['alpha beta', 'gamma', 'alpha beta', 'delta', 'gamma'],
    })
    out = exact_dedup(rd.from_pandas(docs)).to_pandas()
    groups = dict(zip(out['text_hash'], out['rep_id']))
    assert len(groups) == 3
    assert sorted(out['rep_id']) == [1, 2, 4]


def test_minhash_finds_planted_near_dups(ray_session, rd):
    from caligraph_ray.stages.dedup import minhash_candidate_pairs
    base = ('the quick brown fox jumps over the lazy dog while the cat '
            'sleeps on the warm mat near the door of the old house').split()
    near = list(base)
    near[7] = 'happy'
    far = ('completely unrelated content about databases and query engines '
           'processing large amounts of tabular data every day').split()
    docs = pd.DataFrame({'doc_id': [1, 2, 3],
                         'text': [' '.join(base), ' '.join(near), ' '.join(far)]})
    pairs = minhash_candidate_pairs(rd.from_pandas(docs), jaccard_threshold=0.5).to_pandas()
    assert {(1, 2)} == set(zip(pairs['a'], pairs['b']))


def test_simhash_pairs_planted(ray_session, rd):
    from caligraph_ray.stages.dedup import simhash_dedup_pairs
    base = ('one two three four five six seven eight nine ten eleven twelve '
            'thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty').split()
    near = list(base)
    near[3] = 'FOUR'
    far = 'alpha beta gamma delta epsilon zeta eta theta iota kappa'.split()
    docs = pd.DataFrame({'doc_id': [1, 2, 3],
                         'text': [' '.join(base), ' '.join(near), ' '.join(far)]})
    pairs = simhash_dedup_pairs(rd.from_pandas(docs), max_hamming=16).to_pandas()
    got = set(zip(pairs['a'], pairs['b']))
    assert (1, 2) in got and (1, 3) not in got


def test_fingerprint_overlap_pairs_planted(ray_session, rd):
    from caligraph_ray.stages.dedup import fingerprint_overlap_pairs
    base = ('the quick brown fox jumps over the lazy dog and then runs far '
            'away into the deep dark forest before midnight strikes twice')
    # doc 2 copies a long passage of doc 1 (shares many 16-char windows);
    # doc 3 is unrelated text of similar length
    near = base[:80] + ' completely different tail content here'
    far = ('zebra xylophone quartz jackdaw vexing wizard brew grumpy night '
           'owls fly south every single winter without fail or pause')
    docs = pd.DataFrame({'doc_id': [1, 2, 3], 'text': [base, near, far]})
    pairs = fingerprint_overlap_pairs(rd.from_pandas(docs),
                                      min_shared=2).to_pandas()
    got = set(zip(pairs['a'], pairs['b']))
    assert (1, 2) in got and (1, 3) not in got and (2, 3) not in got
    shared = pairs.set_index(['a', 'b'])['score'].loc[(1, 2)]
    assert 2 <= shared <= 8


def test_brute_force_topk_matches_numpy(ray_session, rd):
    from caligraph_ray.stages.similarity import brute_force_topk
    rng = np.random.RandomState(3)
    mat = rng.normal(size=(200, 16))
    ds = rd.from_pandas(pd.DataFrame({'vec_id': np.arange(200),
                                      'embedding': list(mat)}))
    q = mat[:2]
    out = brute_force_topk(ds, q, k=5)
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qn @ mn.T
    for qi in range(2):
        want = np.lexsort((np.arange(200), -sims[qi]))[:5]
        got = out[out['query_idx'] == qi]['vec_id'].tolist()
        assert got == want.tolist()
        assert out[out['query_idx'] == qi]['score'].iloc[0] == round(sims[qi].max(), 6)


def test_lsh_topk_recall(ray_session, rd):
    from caligraph_ray.stages.similarity import brute_force_topk, lsh_topk
    rng = np.random.RandomState(4)
    mat = rng.normal(size=(500, 32))
    ds = rd.from_pandas(pd.DataFrame({'vec_id': np.arange(500),
                                      'embedding': list(mat)}))
    q = mat[:3]  # queries present in corpus → top hit must be themselves
    exact = brute_force_topk(ds, q, k=5)
    approx = lsh_topk(ds, q, k=5, n_planes=8, probe_hamming=2)
    for qi in range(3):
        a = set(approx[approx['query_idx'] == qi]['vec_id'])
        e = set(exact[exact['query_idx'] == qi]['vec_id'])
        assert qi in a  # self-hit always in the same bucket
        assert len(a & e) >= 1


def test_two_phase_count_matches_pandas(ray_session, rd):
    from caligraph_ray.stages.relational import two_phase_count
    rng = np.random.RandomState(0)
    df = pd.DataFrame({'k': rng.choice(['a', 'b', 'c'], 1000),
                       'j': rng.randint(0, 5, 1000)})
    out = two_phase_count(rd.from_pandas(df).repartition(7), ['k', 'j']).to_pandas()
    want = df.groupby(['k', 'j']).size().reset_index(name='cnt')
    got = out.sort_values(['k', 'j']).reset_index(drop=True)
    want = want.sort_values(['k', 'j']).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype({'cnt': 'int64'}), want.astype({'cnt': 'int64'}))


def test_triples_sink_resumable_layout(ray_session, rd, tmp_path):
    from caligraph_ray.stages.triples import materialize_triples
    import os
    t = pa.Table.from_pydict({
        'subj': ['S1', 'S2', 'S1', 'S1'],
        'pred': ['p', 'p', 'p', 'q'],
        'obj': ['o1', 'o2', 'o1', 'o3'],
        'is_literal': [False, False, False, True],
    })
    out = materialize_triples(rd.from_arrow(t), out_dir=str(tmp_path), n_buckets=4)
    rows = out.take_all()
    assert len(rows) == 3  # exact dup removed
    parts = [d for d in os.listdir(tmp_path) if d.startswith('subj_bucket=')]
    assert parts, 'expected hash-partitioned output directories'
    # each partition file is internally sorted (subj, pred, obj)
    import pyarrow.parquet as pq
    for d in parts:
        for f in os.listdir(os.path.join(tmp_path, d)):
            df = pq.read_table(os.path.join(tmp_path, d, f)).to_pandas()
            assert df.equals(df.sort_values(['subj', 'pred', 'obj'],
                                            kind='mergesort').reset_index(drop=True))
    # per-partition lineage counters (north rule): manifest totals must
    # equal the durable row count, one entry per partition dir
    import json
    with open(os.path.join(tmp_path, '_PARTITIONS.json')) as f:
        manifest = json.load(f)
    assert manifest['total_rows'] == 3
    assert sorted(manifest['partitions']) == sorted(parts)
    assert sum(manifest['partitions'].values()) == 3
    # idempotent sink: a rerun (resume) must not double rows in the durable copy
    out2 = materialize_triples(rd.from_arrow(t), out_dir=str(tmp_path), n_buckets=4)
    assert out2.count() == 3
    assert os.path.exists(os.path.join(tmp_path, '_SUCCESS'))


def test_approx_distinct_matches_exact(ray_session, rd):
    from caligraph_ray.functions.sketches import approx_distinct
    import pandas as pd
    import numpy as np
    rng = np.random.RandomState(1)
    df = pd.DataFrame({'k': rng.randint(0, 5000, 40_000)})
    exact = df['k'].nunique()
    est = approx_distinct(rd.from_pandas(df).repartition(6), 'k')
    assert abs(est - exact) / exact < 0.05


def test_shuffle_join_matches_pandas(ray_session, rd):
    from caligraph_ray.stages.relational import shuffle_join
    rng = np.random.RandomState(3)
    l = pd.DataFrame({'k': rng.choice(list('abcdefgh'), 300), 'x': rng.randint(0, 99, 300)})
    r = pd.DataFrame({'kk': list('abcdexyz'), 'y': range(8)})
    got = shuffle_join(rd.from_pandas(l).repartition(5),
                       rd.from_pandas(r).repartition(2), 'k', 'kk').to_pandas()
    want = l.merge(r, left_on='k', right_on='kk')
    assert sorted(map(tuple, got[['k', 'x', 'y']].values.tolist())) == \
        sorted(map(tuple, want[['k', 'x', 'y']].values.tolist()))
    got_l = shuffle_join(rd.from_pandas(l).repartition(5),
                         rd.from_pandas(r).repartition(2), 'k', 'kk',
                         how='left').to_pandas()
    want_l = l.merge(r, how='left', left_on='k', right_on='kk')
    assert len(got_l) == len(want_l)
    assert got_l['y'].isna().sum() == want_l['y'].isna().sum()


def test_build_context_join_equals_broadcast(ray_session, rd):
    import ray
    from caligraph_ray.stages.listing_rules import build_context
    subj = pd.DataFrame({
        'url': ['https://x/wiki/List_of_lakes'] * 3 + ['https://x/wiki/List_of_towns'] * 2,
        'page_id': [1, 1, 1, 2, 2],
        'topsection': ['A'] * 3 + ['B'] * 2,
        'section': ['s'] * 5,
        'entity': ['Erie', 'Tahoe', 'Mead', 'Springfield', 'Erie'],
    })
    facts = pd.DataFrame({
        'subj': ['Erie', 'Erie', 'Tahoe', 'Springfield'],
        'pred': ['rdf:type', 'locatedIn', 'rdf:type', 'partOf'],
        'obj': ['Lake', 'List of lakes', 'Lake', 'List of towns'],
        'is_literal': [False] * 4,
    })
    tbe = {'Erie': ['Lake'], 'Tahoe': ['Lake']}
    pbe = {'Erie': [('locatedIn', 'List of lakes')],
           'Springfield': [('partOf', 'List of towns')]}
    bc = build_context(rd.from_pandas(subj).repartition(2),
                       facts_ref=ray.put((tbe, pbe))).to_pandas()
    jn = build_context(rd.from_pandas(subj).repartition(2),
                       facts_ds=rd.from_pandas(facts).repartition(2)).to_pandas()
    cols = ['url', 'page_id', 'entity', 'page_type', 'page_entity']
    key = lambda d: d.sort_values(['page_id', 'entity']).reset_index(drop=True)
    bc, jn = key(bc), key(jn)
    pd.testing.assert_frame_equal(bc[cols], jn[cols], check_dtype=False)
    assert [list(x) for x in bc['ent_types']] == [list(x) for x in jn['ent_types']]
    assert [list(x) for x in bc['rels_to_page']] == [list(x) for x in jn['rels_to_page']]


def test_seeded_split_and_sample_deterministic(ray_session, rd):
    from caligraph_ray.stages.relational import seeded_sample, train_val_test_split
    df = pd.DataFrame({'k': np.arange(1000)})
    parts1 = [sorted(p.to_pandas()['k']) for p in
              train_val_test_split(rd.from_pandas(df), seed=7)]
    parts2 = [sorted(p.to_pandas()['k']) for p in
              train_val_test_split(rd.from_pandas(df), seed=7)]
    assert parts1 == parts2                        # same seed → same split
    assert sorted(sum(parts1, [])) == list(range(1000))   # partition of input
    assert abs(len(parts1[0]) - 600) < 50 and abs(len(parts1[1]) - 200) < 50
    s1 = sorted(seeded_sample(rd.from_pandas(df), 0.2, seed=3).to_pandas()['k'])
    s2 = sorted(seeded_sample(rd.from_pandas(df), 0.2, seed=3).to_pandas()['k'])
    assert s1 == s2 and 100 < len(s1) < 320


def test_lsh_index_topk_matches_scan_and_is_sublinear(ray_session, rd):
    from caligraph_ray.stages.similarity import LshIndex, lsh_index_topk, lsh_topk
    rng = np.random.RandomState(9)
    mat = rng.normal(size=(400, 24))
    ds = rd.from_pandas(pd.DataFrame({'vec_id': np.arange(400),
                                      'embedding': list(mat)}))
    q = mat[:3]
    idx_out = lsh_index_topk(ds, q, k=5, n_planes=10, probe_hamming=2)
    scan_out = lsh_topk(ds, q, k=5, n_planes=10, probe_hamming=2)
    # identical semantics: same buckets probed → same candidates → same top-k
    key = lambda d: sorted(map(tuple, d[['query_idx', 'vec_id']].values.tolist()))
    assert key(idx_out) == key(scan_out)
    for qi in range(3):   # self-hit lands in its own bucket
        assert qi in set(idx_out[idx_out['query_idx'] == qi]['vec_id'])
    # sub-linearity: a query touches only its probed buckets' members
    index = LshIndex(np.arange(400), mat, n_planes=10)
    sig = int(index.lsh.signature(mat[:1] / np.linalg.norm(mat[0]))[0])
    probed = sum(len(index.buckets.get(s, ())) for s in index._probe_sigs(sig, 2))
    assert probed < 400   # strictly fewer candidates than the corpus


def test_bucketed_map_small_and_large_paths_agree(ray_session, rd, monkeypatch):
    """The small-input broadcast exchange and the sort-based shuffle must be
    semantically identical — force each path on the same input."""
    import caligraph_ray.stages.relational as rel
    rng = np.random.RandomState(11)
    df = pd.DataFrame({'k': rng.choice(list('abcdefgh'), 2000),
                       'v': rng.randint(0, 100, 2000)})

    def agg(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby('k', sort=False)['v'].sum().reset_index()
        return g

    # a list-valued column that is all-null in every other block: the
    # keying stage emits Arrow blocks for the all-null blocks and pandas
    # blocks (lists do not survive an Arrow round trip) for the others,
    # so every coarse bucket mixes both block formats
    parts = [pd.DataFrame({
        'k': rng.choice(list('abcdefgh'), 50),
        'v': rng.randint(0, 100, 50),
        'tags': [None] * 50 if i % 2 else
                [list(range(j % 3 + 1)) for j in range(50)]})
        for i in range(4)]
    mixed = pd.concat(parts, ignore_index=True)

    def agg_tags(bucket: pd.DataFrame) -> pd.DataFrame:
        n_tags = bucket['tags'].map(
            lambda t: len(t) if isinstance(t, (list, np.ndarray)) else 0)
        return bucket.assign(n_tags=n_tags).groupby('k', sort=False).agg(
            v=('v', 'sum'), n_tags=('n_tags', 'sum')).reset_index()

    def run():
        out = rel.bucketed_map(rd.from_pandas(df).repartition(5), ['k'], agg)
        with monkeypatch.context() as m:
            m.setattr(rel, 'AGG_BATCH_SIZE', 50)   # one batch per block
            out_mixed = rel.bucketed_map(rd.from_pandas(parts), ['k'],
                                         agg_tags)
            got_mixed = rel.collect_pandas(out_mixed)
        return (out.to_pandas().sort_values('k').reset_index(drop=True),
                got_mixed.sort_values('k').reset_index(drop=True))

    small, small_mixed = run()
    monkeypatch.setattr(rel, 'SMALL_EXCHANGE_BYTES', 0)   # force real shuffle
    large, large_mixed = run()
    pd.testing.assert_frame_equal(small, large, check_dtype=False)
    want = df.groupby('k')['v'].sum().reset_index().sort_values('k').reset_index(drop=True)
    pd.testing.assert_frame_equal(small.astype({'v': 'int64'}),
                                  want.astype({'v': 'int64'}), check_dtype=False)
    want_mixed = mixed.assign(n_tags=mixed['tags'].map(
        lambda t: len(t) if isinstance(t, list) else 0)).groupby('k').agg(
        v=('v', 'sum'), n_tags=('n_tags', 'sum')).reset_index()
    for got in (small_mixed, large_mixed):
        pd.testing.assert_frame_equal(got.astype('int64', errors='ignore')
                                      .astype({'k': object}),
                                      want_mixed.astype({'k': object}),
                                      check_dtype=False)


def test_joins_null_keys_never_match(ray_session, rd):
    # SQL: NULL = NULL is not true — a null key must match nothing in an
    # inner join and stay unmatched (NaN-padded) in a left join, for both
    # the shuffle and the broadcast implementation; pandas merge alone
    # would happily join NaN keys to each other
    from caligraph_ray.stages.relational import broadcast_join, shuffle_join
    l = pd.DataFrame({'k': ['a', None, 'b'], 'x': [1, 2, 3]})
    r = pd.DataFrame({'kk': ['a', None], 'y': [10, 20]})

    got = shuffle_join(rd.from_pandas(l), rd.from_pandas(r),
                       'k', 'kk').to_pandas()
    assert sorted(map(tuple, got[['k', 'x', 'y']].values.tolist())) == \
        [('a', 1, 10)]
    got_l = shuffle_join(rd.from_pandas(l), rd.from_pandas(r), 'k', 'kk',
                         how='left').to_pandas().sort_values('x')
    assert len(got_l) == 3
    assert [v if pd.notna(v) else None for v in got_l['y']] == [10, None, None]

    got_b = broadcast_join(rd.from_pandas(l), r, 'k', 'kk').to_pandas()
    assert sorted(map(tuple, got_b[['k', 'x', 'y']].values.tolist())) == \
        [('a', 1, 10)]
    got_bl = broadcast_join(rd.from_pandas(l), r, 'k', 'kk',
                            how='left').to_pandas().sort_values('x')
    assert len(got_bl) == 3
    assert [v if pd.notna(v) else None for v in got_bl['y']] == [10, None, None]


def test_shuffle_join_int_keys_with_nulls(ray_session, rd):
    # arrow→pandas demotes an int64 block containing a null to float64;
    # the coarse key must hash by VALUE so '1' (int block) and '1.0'
    # (float block) land in the same bucket — a dtype-dependent key split
    # every match out of existence
    l = pd.DataFrame({'k': pd.array([1, 2, 3], dtype='int64'),
                      'x': [10, 20, 30]})
    r = pd.DataFrame({'kk': pd.array([1, 2, None], dtype='Int64'),
                      'y': [100, 200, 300]})
    got = shuffle_join_import()(rd.from_pandas(l), rd.from_pandas(r),
                                'k', 'kk').to_pandas()
    assert sorted(map(tuple, got[['x', 'y']].values.tolist())) == \
        [(10, 100), (20, 200)]


def shuffle_join_import():
    from caligraph_ray.stages.relational import shuffle_join
    return shuffle_join


def test_two_phase_count_int_keys_with_null_batches(ray_session, rd):
    # one union side carries a null (float64-demoted int keys), the other
    # does not (int64): the same key value must aggregate into ONE row
    from caligraph_ray.stages.relational import two_phase_count
    a = pd.DataFrame({'k': pd.array([0, 1, 2], dtype='int64')})
    b = pd.DataFrame({'k': pd.array([0, 1, None], dtype='Int64')})
    ds = rd.from_pandas(a).union(rd.from_pandas(b))
    out = two_phase_count(ds, ['k'], 'cnt').to_pandas()
    by_key = {(-1 if pd.isna(r['k']) else int(r['k'])): int(r['cnt'])
              for _, r in out.iterrows()}
    assert by_key == {0: 2, 1: 2, 2: 1, -1: 1}


def test_kmeans_centroids_trains(ray_session, rd=None):
    """Distributed Lloyd iterations: crafted 3-cluster data separates, and
    the spherical k-means objective (mean cosine to assigned centroid)
    never degrades with more iterations."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from caligraph_ray.stages.similarity import (kmeans_assignments,
                                                 kmeans_centroids)
    rng = np.random.RandomState(7)
    centers = rng.randn(3, 16) * 4
    vecs = np.vstack([c + rng.randn(40, 16) * 0.05 for c in centers])
    df = pd.DataFrame({'vec_id': np.arange(len(vecs), dtype='int64'),
                       'embedding': [v for v in vecs]})
    ds = rd.from_pandas(df).repartition(2)

    def objective(n_iters):
        cmat, assign_fn = kmeans_centroids(ds, n_centroids=3,
                                           n_iters=n_iters)
        a = assign_fn(df)
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        cn = cmat / np.linalg.norm(cmat, axis=1, keepdims=True)
        return float(np.mean(np.sum(vn * cn[a], axis=1)))

    o1, o3 = objective(1), objective(3)
    assert o3 >= o1 - 1e-9
    assert o3 > 0.99   # crafted tight clusters must be recovered

    lab = kmeans_assignments(ds, n_centroids=3, n_iters=3).to_pandas() \
        .sort_values('vec_id').reset_index(drop=True)
    got = lab['centroid'].to_numpy()
    # each crafted cluster maps to exactly one centroid label
    for g in range(3):
        assert len(set(got[g * 40:(g + 1) * 40])) == 1
    assert len({got[0], got[40], got[80]}) == 3
