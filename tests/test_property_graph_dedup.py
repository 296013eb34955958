"""Property-based equivalence for the graph / dedup / sketch families vs
single-process brute-force references, over hypothesis-generated inputs.

These target the *distributed* plumbing (contraction passes, arrow LSH
exchanges, per-batch sketch merge) — the brute references recompute the
declared contract from scratch:

* connected_components  ≡ union-find, label = min node id of the component,
  also over a per-block edge projection whose blocks repeat edges
* _split_component      unchanged by dropping exact-duplicate edge rows
* closure_pairs         ≡ BFS transitive closure over a random DAG
* exact_dedup           ≡ groupby(text).min(id)
* ngram_jaccard_pairs   ≡ ALL pairs with exact shingle-Jaccard ≥ t
  (prefix filtering is lossless, so equality — not just soundness)
* simhash_dedup_pairs   ≡ ALL pairs with hamming(simhash) ≤ k
  (4×16-bit pigeonhole is lossless for k ≤ 3)
* approx_distinct       ≡ single-process HLL on the same values
  (register merge is order/partition invariant → exact float equality)
"""

import hashlib
import itertools
from collections import deque

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=list(HealthCheck))

_WORDS = ['aa', 'bb', 'cc', 'dd']


# --- connected components ---------------------------------------------------

@st.composite
def edge_list(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    nodes = st.integers(min_value=0, max_value=12)
    return [(draw(nodes), draw(nodes)) for _ in range(n)]


def _brute_components(edges):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = {n for e in edges for n in e}
    return {n: find(n) for n in nodes}


@SETTINGS
@given(edge_list(), st.integers(min_value=0, max_value=3))
def test_connected_components_matches_union_find(ray_session, edges, passes):
    """Both regimes: driver union-find within ``driver_limit`` (the
    default), and the contraction passes ``connected_components`` runs
    above it (``_forest_tail``, whose tail fits the default limit)."""
    import ray.data as rd
    from caligraph_ray.stages.canonicalize import (_driver_components,
                                                   _forest_tail,
                                                   connected_components)
    df = pd.DataFrame({'src': np.array([a for a, _ in edges], dtype='int64'),
                       'dst': np.array([b for _, b in edges], dtype='int64')})
    ds = rd.from_pandas(df).repartition(3)
    direct = connected_components(ds, contraction_passes=passes)
    contracted = _driver_components(_forest_tail(ds,
                                                 contraction_passes=passes))
    want = _brute_components(edges)
    # the distributed tail only sees nodes that appear in forest edges;
    # isolated self-loop-only nodes are singleton components either way
    for got in (direct, contracted):
        for n, lbl in want.items():
            assert got.get(n, n) == lbl, (n, got, want)


@st.composite
def edge_blocks(draw):
    """An edge list spread over 1-3 blocks, plus repeats of some of its
    edges, each in a block of its own draw."""
    edges = draw(edge_list())
    n_blocks = draw(st.integers(min_value=1, max_value=3))
    blocks = [[] for _ in range(n_blocks)]
    for e in edges:
        blocks[draw(st.integers(0, n_blocks - 1))].append(e)
    for e in draw(st.lists(st.sampled_from(edges), max_size=10)):
        blocks[draw(st.integers(0, n_blocks - 1))].append(e)
    return blocks


@SETTINGS
@given(edge_blocks())
def test_projected_components_match_union_find(ray_session, blocks):
    """``connected_components`` over rows whose edges are a per-block
    projection: each block's task returns its raw edge count and its
    distinct pairs, and the labels equal ``_UnionFind`` over the raw
    edges. The input also holds an empty Arrow block and a column-less
    empty block (what ``_small_exchange`` returns for an empty part)."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from caligraph_ray.stages import canonicalize as canon_mod

    def rows(block):
        return pa.table({'a': pa.array([a for a, _ in block], pa.int64()),
                         'b': pa.array([b for _, b in block], pa.int64())})

    def project(t):
        return pa.table({'src': t.column('a'), 'dst': t.column('b')})

    parts = [rows(b) for b in blocks] + [rows([]), pd.DataFrame()]
    ds = rd.from_pandas_refs([ray.put(p) for p in parts]).materialize()
    raw = [e for b in blocks for e in b]
    uf = canon_mod._UnionFind()
    for a, b in raw:
        uf.union(a, b)
    want = {n: uf.find(n) for n in {n for e in raw for n in e}}

    counts, pairs = canon_mod._project_blocks(ds, project)
    assert ray.get(counts) == [len(b) for b in blocks] + [0, 0]
    for t, b in zip(ray.get(pairs), blocks + [[], []]):
        assert sorted(zip(t.column('src').to_pylist(),
                          t.column('dst').to_pylist())) == sorted(set(b))

    limits = [len(raw)]
    if len(raw) > len(uf.parent):   # a cycle or a repeat: contraction fits
        limits.append(len(raw) - 1)
    for limit in limits:
        got = canon_mod.connected_components(ds, driver_limit=limit,
                                             project=project)
        for n, lbl in want.items():
            assert got.get(n, n) == lbl, (limit, n, got, want)


@st.composite
def split_edges(draw):
    """Weighted edges among mentions 0-6 and entities -1..-3, with exact
    repeats, and a path threshold."""
    node = st.integers(min_value=-3, max_value=6)
    weight = st.sampled_from([1.0, 0.9, 0.8, 0.6])
    edges = draw(st.lists(st.tuples(node, node, weight), min_size=1,
                          max_size=14))
    edges += draw(st.lists(st.sampled_from(edges), max_size=8))
    edges = draw(st.permutations(edges))
    return edges, draw(st.sampled_from([0.5, 0.75, 0.85]))


@SETTINGS
@given(split_edges())
def test_distinct_edge_rows_keep_split_assignment(case):
    """The component exchange drops exact-duplicate edge rows
    (``_distinct_rows``); ``_split_component`` and ``_split_bucket`` give
    the same assignment and names with and without the repeats."""
    import pyarrow as pa
    from caligraph_ray.stages.canonicalize import (_distinct_rows,
                                                   _split_bucket,
                                                   _split_component)
    edges, threshold = case
    nodes = sorted({n for e in edges for n in e[:2]})
    distinct = list(dict.fromkeys(edges))
    assert _split_component(nodes, distinct, threshold) == \
        _split_component(nodes, edges, threshold)

    uf = {}

    def find(x):
        while uf.get(x, x) != x:
            x = uf[x]
        return x
    for a, b, _ in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            uf[max(ra, rb)] = min(ra, rb)
    table = pa.table({
        '_comp': pa.array([find(a) for a, _, _ in edges], pa.int64()),
        'src': pa.array([a for a, _, _ in edges], pa.int64()),
        'dst': pa.array([b for _, b, _ in edges], pa.int64()),
        'weight': pa.array([w for _, _, w in edges], pa.float64()),
        'ent': pa.array([f'E{-b}' if b < 0 else None for _, b, _ in edges],
                        pa.string())})
    deduped = _distinct_rows(table)
    assert deduped.num_rows == len(distinct)
    assert _split_bucket(deduped, threshold) == _split_bucket(table, threshold)


@SETTINGS
@given(edge_list())
def test_connected_components_ds_matches_union_find(ray_session, edges):
    """The fully distributed (Dataset-returning) CC: min-label propagation
    labels must equal the union-find labels on every node that appears in
    an edge, and a multi-round chain must converge (not just star graphs)."""
    import ray.data as rd
    from caligraph_ray.stages.canonicalize import connected_components_ds
    # append a 6-node path so propagation needs several rounds
    edges = list(edges) + [(900, 901), (901, 902), (902, 903),
                           (903, 904), (904, 905)]
    df = pd.DataFrame({'src': np.array([a for a, _ in edges], dtype='int64'),
                       'dst': np.array([b for _, b in edges], dtype='int64')})
    out = connected_components_ds(rd.from_pandas(df).repartition(3)) \
        .to_pandas()
    got = dict(zip(out['node'].astype(int), out['comp'].astype(int)))
    want = _brute_components(edges)
    assert got == want


def test_connected_components_ds_nonconvergence_raises(ray_session):
    import pytest
    import ray.data as rd
    from caligraph_ray.stages.canonicalize import connected_components_ds
    chain = pd.DataFrame({'src': np.arange(0, 9, dtype='int64'),
                          'dst': np.arange(1, 10, dtype='int64')})
    with pytest.raises(RuntimeError, match='did not converge'):
        connected_components_ds(rd.from_pandas(chain), max_rounds=2)


# --- taxonomy transitive closure --------------------------------------------

@st.composite
def dag_edges(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    idx = st.integers(min_value=0, max_value=7)
    out = set()
    for _ in range(n):
        i, j = draw(idx), draw(idx)
        if i == j:
            continue
        i, j = min(i, j), max(i, j)
        out.add((f'n{i}', f'n{j}'))   # parent index < child index → acyclic
    return sorted(out)


@SETTINGS
@given(dag_edges())
def test_closure_pairs_matches_bfs_closure(ray_session, edges):
    import ray.data as rd
    from caligraph_ray.stages.taxonomy import closure_pairs
    if not edges:
        return
    df = pd.DataFrame({'child': [c for _, c in edges],
                       'parent': [p for p, _ in edges]})
    got = closure_pairs(rd.from_pandas(df).repartition(2),
                        merge=False).to_pandas()
    got_set = {(r['node'], r['anc']) for _, r in got.iterrows()}
    parents = {}
    for p, c in edges:
        parents.setdefault(c, set()).add(p)
    want = set()
    nodes = {n for e in edges for n in e}
    for n in nodes:
        seen, dq = set(), deque([n])
        while dq:
            for p in parents.get(dq.popleft(), ()):
                if p not in seen:
                    seen.add(p)
                    dq.append(p)
        want |= {(n, a) for a in seen}
    assert got_set == want


# --- exact dedup --------------------------------------------------------------

@st.composite
def doc_frame(draw, max_words=6):
    n = draw(st.integers(min_value=1, max_value=16))
    texts = [' '.join(draw(st.lists(st.sampled_from(_WORDS), min_size=0,
                                    max_size=max_words)))
             for _ in range(n)]
    return pd.DataFrame({'doc_id': np.arange(n, dtype='int64'),
                         'text': texts})


@SETTINGS
@given(doc_frame())
def test_exact_dedup_matches_groupby_min(ray_session, df):
    import ray.data as rd
    from caligraph_ray.stages.dedup import exact_dedup
    got = exact_dedup(rd.from_pandas(df).repartition(2)).to_pandas()
    want = {hashlib.md5(t.encode()).hexdigest(): int(g['doc_id'].min())
            for t, g in df.groupby('text')}
    assert {r['text_hash']: int(r['rep_id'])
            for _, r in got.iterrows()} == want


# --- n-gram Jaccard pairs (prefix filtering is LOSSLESS → exact equality) ----

def _shingles(text, n):
    from caligraph_ray.functions.hashing import stable_hash64
    toks = [t for t in text.split(' ') if t]
    if len(toks) < n:
        return {stable_hash64(' '.join(toks))}
    return {stable_hash64(' '.join(toks[i:i + n]))
            for i in range(len(toks) - n + 1)}


@SETTINGS
@given(doc_frame(), st.sampled_from([0.5, 0.8, 1.0]))
def test_ngram_jaccard_pairs_exact_equality(ray_session, df, threshold):
    import ray.data as rd
    from caligraph_ray.functions.hashing import jaccard
    from caligraph_ray.stages.dedup import ngram_jaccard_pairs
    got = ngram_jaccard_pairs(rd.from_pandas(df).repartition(2),
                              n=2, threshold=threshold).to_pandas()
    got_pairs = {(int(r['a']), int(r['b'])) for _, r in got.iterrows()}
    sh = {int(r['doc_id']): _shingles(r['text'], 2) for _, r in df.iterrows()}
    want = {(a, b) for a, b in itertools.combinations(sorted(sh), 2)
            if jaccard(sh[a], sh[b]) >= threshold}
    assert got_pairs == want


# --- simhash pairs (pigeonhole bucketing is LOSSLESS for k ≤ 3) --------------

@SETTINGS
@given(doc_frame(max_words=4), st.integers(min_value=0, max_value=3))
def test_simhash_pairs_exact_equality(ray_session, df, max_hamming):
    import ray.data as rd
    from caligraph_ray.functions.hashing import hamming64, simhash64
    from caligraph_ray.stages.dedup import simhash_dedup_pairs
    got = simhash_dedup_pairs(rd.from_pandas(df).repartition(2),
                              max_hamming=max_hamming).to_pandas()
    got_pairs = {(int(r['a']), int(r['b'])) for _, r in got.iterrows()}
    sig = {int(r['doc_id']): simhash64([t for t in r['text'].split(' ') if t])
           for _, r in df.iterrows()}
    want = {(a, b) for a, b in itertools.combinations(sorted(sig), 2)
            if hamming64(sig[a], sig[b]) <= max_hamming}
    assert got_pairs == want


# --- HLL: distributed merge ≡ single-process sketch --------------------------

@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1,
                max_size=200),
       st.integers(min_value=1, max_value=5))
def test_approx_distinct_merge_invariant(ray_session, values, parts):
    import ray.data as rd
    from caligraph_ray.functions.sketches import HyperLogLog, approx_distinct
    df = pd.DataFrame({'v': np.array(values, dtype='int64')})
    got = approx_distinct(rd.from_pandas(df).repartition(parts), 'v')
    ref = HyperLogLog(12)
    ref.add(str(v) for v in values)
    assert got == ref.cardinality()
    true = len({str(v) for v in values})
    assert abs(got - true) <= max(2.0, 0.1 * true)
