"""Both linkers emit ``surface_rep`` from one norm_surface exchange, the
alignment edges need no further exchange, and canonicalization runs
inside one component exchange.

* Exchange counts, pinned with a counter around
  ``relational.bucket_exchange``: ``link_mentions_join`` makes one call,
  ``build_alignment_edges`` on its output none, ``canonicalize()`` on it
  one, and the whole ``run_flagship(linking='join')``
  exactly three (the linking exchange, the component exchange and the
  sink dedup), with no ``shuffle_join`` and no ``Dataset.unique``.
* Streaming-execution counts of whole flagship runs, pinned with
  ``state.executions.count_executions``: no mention count pass, no
  categories barrier and no materialized alignment edges on a direct run,
  and on a scored run no ``surface_rep`` exchange of its own.
* The connected-components gate reads the raw edge counts of the
  per-block projection, and above ``driver_limit`` fetches no pair array.
* Edge inputs for the surface kernel, in both exchange regimes: its
  (entity, link_score) equal a plain-Python Counter reference's, and
  the component partition of its edges equals a plain-Python star
  construction's.
* Collecting a small exchange's output starts no execution: its blocks
  are the refs its reducer tasks returned.
* A default checkpointed run resumed after ``03_mentions`` scans the
  mentions once, in its linking exchange. Resumed after ``04_linked``, a
  run of either linker reads linked rows that carry ``surface_rep`` and
  makes no ``surface_rep`` exchange; a scored ``04_linked`` written
  before scored rows carried it is rebuilt once.
* Edge inputs for the component exchange, in both exchange regimes and
  both connected-components regimes (union-find over the collected
  pairs, and contraction forced by a ``driver_limit`` under the edge
  count), from rows carrying a plain-Python ``surface_rep`` and from
  rows without it, which take it from ``alias.with_surface_rep`` and
  ``alias.edge_rows``: ``canonicalize()``'s node map and the join tail's
  subject triples equal a plain-Python ``_UnionFind`` +
  ``_split_component`` reference, and the join flagship equals
  ``oracle_triples`` on pages with re-fetched URLs and one component
  holding 90 % of the mentions.
* The callers handed rows of any linker (``edin_clusters``, the
  nastylinker matcher) move only the four edge columns through their
  ``surface_rep`` exchange.
"""

import pandas as pd
import pytest

from caligraph_ray.config import (MENTION_ENTITY_THRESHOLD,
                                  MENTION_MENTION_THRESHOLD, MM_SCORE,
                                  PATH_THRESHOLD)
from caligraph_ray.stages import canonicalize as canon_mod
from caligraph_ray.stages import relational
from caligraph_ray.stages.canonicalize import (_split_component, _UnionFind,
                                               entity_node_id)


@pytest.fixture
def exchange_calls(monkeypatch):
    """Per-name call counts of the exchanges a plan may start."""
    import ray.data as rd
    calls = {'bucket_exchange': 0, 'shuffle_join': 0, 'unique': 0}

    def counter(name, real):
        def counting(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        return counting

    for name in ('bucket_exchange', 'shuffle_join'):
        monkeypatch.setattr(relational, name,
                            counter(name, getattr(relational, name)))
    monkeypatch.setattr(rd.Dataset, 'unique',
                        counter('unique', rd.Dataset.unique))
    return calls


@pytest.fixture
def executions():
    """Names of the streaming executions the test body starts."""
    from caligraph_ray.state.executions import count_executions
    with count_executions() as names:
        yield names


def _mentions(small_corpus):
    import ray.data as rd
    from caligraph_ray.stages.alias import explode_mentions
    from caligraph_ray.stages.html_extract import parse_items
    return explode_mentions(parse_items(rd.from_arrow(small_corpus))).materialize()


def test_link_then_edges_make_one_exchange(ray_session, small_corpus,
                                           exchange_calls):
    from caligraph_ray.stages.alias import link_mentions_join
    from caligraph_ray.stages.canonicalize import build_alignment_edges
    mentions = _mentions(small_corpus)
    linked = link_mentions_join(mentions).materialize()
    assert exchange_calls['bucket_exchange'] == 1
    edges = build_alignment_edges(linked).materialize()
    assert edges.count() > 0
    assert exchange_calls['bucket_exchange'] == 1


def test_canonicalize_makes_one_exchange(ray_session, small_corpus,
                                         exchange_calls):
    from caligraph_ray.stages.alias import link_mentions_join
    from caligraph_ray.stages.canonicalize import canonicalize
    linked = link_mentions_join(_mentions(small_corpus)).materialize()
    exchange_calls['bucket_exchange'] = 0
    assert canonicalize(linked).materialize().count() > 0
    assert exchange_calls == {'bucket_exchange': 1, 'shuffle_join': 0,
                              'unique': 0}


def test_join_flagship_makes_three_exchanges(ray_session, small_corpus,
                                             exchange_calls, executions):
    """Four streaming executions on ``small_corpus`` (seven before the
    mention count, the categories barrier and the materialized alignment
    edges went): the parse into the slim union, the linking exchange's
    input, the component exchange's input and the sink dedup's input."""
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship
    out = run_flagship(rd.from_arrow(small_corpus), linking='join')
    assert len(executions) == 4, executions
    assert out.count() > 0
    assert exchange_calls == {'bucket_exchange': 3, 'shuffle_join': 0,
                              'unique': 0}


def test_scored_flagship_executions(ray_session, small_corpus, executions):
    """Five streaming executions on ``small_corpus``: the parse, the
    distinct-names exchange, the linking (the scorer fused into the
    ``surface_rep`` exchange's keying map), the component exchange's
    input and the sink dedup. The distinct names keep their count column:
    selecting ``name`` after the exchange would be an execution of its
    own."""
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship
    out = run_flagship(rd.from_arrow(small_corpus), linking='scored')
    assert len(executions) == 5, executions
    assert any('MapBatches(link)->MapBatches(add_bucket)' in e
               for e in executions), executions
    assert out.count() > 0


def test_checkpointed_flagship_executions(ray_session, small_corpus,
                                          executions, tmp_path):
    """Under the checkpointing hook every stage stays a materialized,
    written stage: nine streaming executions on ``small_corpus``. The
    linking exchange's input is one, the component exchange's input
    another, and the 05_triples stage that reads its output a third."""
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    out = run_flagship_checkpointed(rd.from_arrow(small_corpus),
                                    str(tmp_path))
    assert len(executions) == 9, executions
    assert out.count() > 0


def test_collecting_small_exchange_starts_no_execution(ray_session,
                                                       executions):
    """A small exchange's output holds the refs its reducer tasks
    returned, so collecting it fetches them without an execution."""
    import ray.data as rd
    ds = rd.from_pandas(pd.DataFrame({'k': [1, 2, 2, 3]})).materialize()
    out = relational.two_phase_count(ds, ['k'])
    before = len(executions)
    got = relational.collect_pandas(out)
    assert executions[before:] == []
    assert sorted(zip(got['k'], got['cnt'])) == [(1, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize('linking', ['join', 'scored'])
def test_resumed_run_makes_no_surface_rep_exchange(
        ray_session, small_corpus, tmp_path, exchange_calls, linking):
    """A checkpointed run of either linker resumed after ``04_linked``
    reads linked rows that carry ``surface_rep``. The resumed run makes
    two exchanges, the component exchange and the sink dedup: no
    ``surface_rep`` exchange, and no linking exchange."""
    import shutil

    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    pages = rd.from_arrow(small_corpus)
    first = _triple_set(run_flagship_checkpointed(pages, str(tmp_path),
                                                  linking=linking))
    shutil.rmtree(tmp_path / '05_triples')
    exchange_calls['bucket_exchange'] = 0
    resumed = run_flagship_checkpointed(pages, str(tmp_path), linking=linking)
    assert exchange_calls == {'bucket_exchange': 2, 'shuffle_join': 0,
                              'unique': 0}
    assert _triple_set(resumed) == first


def test_scored_linked_without_surface_rep_rebuilds_once(
        ray_session, small_corpus, tmp_path):
    """A scored ``04_linked`` written before scored rows carried
    ``surface_rep``: its rows lack the column and its fingerprint lacks
    the contract key. A resumed run rebuilds it, with the column, into
    the same sink; the run after that resumes it."""
    import json
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    from caligraph_ray.state.checkpoint import fingerprint_of, read_lineage
    root = str(tmp_path)
    pages = rd.from_arrow(small_corpus)
    first = _triple_set(run_flagship_checkpointed(pages, root,
                                                  linking='scored'))
    linked = tmp_path / '04_linked'
    for part in linked.glob('part-*.parquet'):
        pq.write_table(pq.read_table(part).drop_columns(['surface_rep']),
                       part)
    lineage = read_lineage(root, '04_linked')
    lineage['fingerprint'] = fingerprint_of(
        {'n_pages': small_corpus.num_rows, 'markup': 'html',
         'redirects': False, 'linking': 'scored'})
    (linked / '_LINEAGE.json').write_text(json.dumps(lineage))
    for d in ('05_triples', 'triples_out'):
        shutil.rmtree(tmp_path / d)

    def rebuilt():
        parts = sorted(linked.glob('part-*.parquet'))
        return parts and all('surface_rep' in pq.read_schema(p).names
                             for p in parts)

    assert not rebuilt()
    assert _triple_set(run_flagship_checkpointed(
        pages, root, linking='scored')) == first
    assert rebuilt()
    stamp = os.path.getmtime(linked / '_SUCCESS')
    assert _triple_set(run_flagship_checkpointed(
        pages, root, linking='scored')) == first
    assert os.path.getmtime(linked / '_SUCCESS') == stamp


def test_resume_after_mentions_scans_them_once(
        ray_session, small_corpus, tmp_path, exchange_calls, executions):
    """The resume the benchmark times: a default checkpointed run resumed
    after ``03_mentions`` (``04_linked``, ``05_triples`` and the sink
    deleted) makes three exchanges (linking, component, sink dedup), runs
    no alias-count operator, and writes the first run's sink. That is five
    streaming executions: the linking exchange's input (the one scan of
    ``03_mentions``), the component exchange's input, the 05_triples
    stage, the sink dedup's input and the sink write."""
    import shutil

    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    pages = rd.from_arrow(small_corpus)
    first = _triple_set(run_flagship_checkpointed(pages, str(tmp_path)))
    for d in ('04_linked', '05_triples', 'triples_out'):
        shutil.rmtree(tmp_path / d)
    exchange_calls['bucket_exchange'] = 0
    before = len(executions)
    resumed = run_flagship_checkpointed(pages, str(tmp_path))
    resumed_executions = executions[before:]
    assert exchange_calls == {'bucket_exchange': 3, 'shuffle_join': 0,
                              'unique': 0}
    assert len(resumed_executions) == 5, resumed_executions
    assert not any('_partial_alias_counts' in e for e in resumed_executions), \
        resumed_executions
    assert _triple_set(resumed) == first


# --- edge inputs -------------------------------------------------------------

def _frame(rows):
    return pd.DataFrame({
        'mention_uid': pd.Series([r[0] for r in rows], dtype='int64'),
        'norm_surface': pd.Series([r[1] for r in rows], dtype=object),
        'name': pd.Series([r[2] for r in rows], dtype=object)})


def _hot_rows():
    rows = [(i, 'hot', 'Hot A' if i % 3 == 0 else ('Hot B' if i % 3 == 1 else None))
            for i in range(1, 91)]
    rows += [(100 + i, f'cold{i % 4}', None if i % 2 else f'Cold {i % 4}')
             for i in range(10)]
    return rows


CASES = {
    'empty': [],
    'all_names_null': [(1, 'a', None), (2, 'a', None), (3, 'b', None),
                       (4, 'c', None)],
    'hot_surface': _hot_rows(),
    'empty_surface': [(1, '', 'E1'), (2, '', 'E1'), (3, '', None),
                      (4, 'x', 'E1'), (5, 'x', None), (6, '', None)],
    'duplicate_uids': [(7, 's', 'S1'), (7, 's', None), (3, 's', None),
                       (3, 's', 'S2'), (9, 's', 'S1'), (9, 't', None),
                       (9, 't', 'T1')],
    # 'a\x00b' ranks X (3) over Z (1); 'a\x00c' has Y (2): one surface
    # code for both would interleave their candidates
    'nul_prefix': [(1, 'a\x00b', 'X'), (2, 'a\x00b', 'X'), (3, 'a\x00b', 'X'),
                   (4, 'a\x00b', 'Z'), (5, 'a\x00c', 'Y'), (6, 'a\x00c', 'Y'),
                   (7, 'a\x00b', None), (8, 'a\x00c', None), (9, 'a', None)],
}


def _links(df):
    """mention_uid → sorted [(entity, link_score)] (uids may repeat)."""
    out = {}
    if not len(df):
        return out
    for u, e, s in zip(df['mention_uid'], df['entity'], df['link_score']):
        out.setdefault(int(u), []).append(
            (e if isinstance(e, str) else None, round(float(s), 12)))
    return {u: sorted(v, key=repr) for u, v in out.items()}


def _partition(edge_pairs):
    uf = _UnionFind()
    for a, b in edge_pairs:
        uf.union(int(a), int(b))
    groups = {}
    for n in list(uf.parent):
        groups.setdefault(uf.find(n), set()).add(n)
    return sorted(sorted(g) for g in groups.values() if len(g) > 1)


def _star_partition(rows, links):
    """Plain-Python alignment graph: me edges over the reference links,
    stars from each surface's min uid (every surface, '' included)."""
    pairs = []
    for u, lst in links.items():
        for e, s in lst:
            if e is not None and s > MENTION_ENTITY_THRESHOLD:
                pairs.append((u, entity_node_id(e)))
    by_surf = {}
    for u, surf, _ in rows:
        by_surf.setdefault(surf, []).append(u)
    for uids in by_surf.values():
        rep = min(uids)
        pairs += [(rep, u) for u in uids if u != rep]
    return _partition(pairs)


@pytest.mark.parametrize('regime', ['small', 'large'])
@pytest.mark.parametrize('case', sorted(CASES))
def test_surface_kernel_edge_inputs(ray_session, monkeypatch, case, regime):
    import ray.data as rd
    from caligraph_ray.stages.alias import link_mentions_join
    from caligraph_ray.stages.canonicalize import build_alignment_edges
    from caligraph_ray.stages.relational import collect_pandas
    from test_property_alias import _ref_links
    if regime == 'large':
        monkeypatch.setattr(relational, 'SMALL_EXCHANGE_BYTES', -1)
    rows = CASES[case]
    ds = rd.from_pandas(_frame(rows)).repartition(3).materialize()
    want = {}
    for u, e, s in _ref_links(_frame(rows)):
        want.setdefault(u, []).append((e, s))
    want = {u: sorted(v, key=repr) for u, v in want.items()}
    linked = link_mentions_join(ds).materialize()
    assert _links(collect_pandas(linked)) == want
    e = collect_pandas(build_alignment_edges(linked))
    got = [] if e.empty else list(zip(e['src'], e['dst']))
    assert _partition(got) == _star_partition(rows, want)


# --- component exchange edge inputs ------------------------------------------

def _linked_frame(rows):
    """(uid, surface, entity, link_score, is_subject) → linked mention rows;
    url and label follow the uid, so a repeated uid is a re-fetched URL."""
    return pd.DataFrame({
        'mention_uid': pd.Series([r[0] for r in rows], dtype='int64'),
        'norm_surface': pd.Series([r[1] for r in rows], dtype=object),
        'entity': pd.Series([r[2] for r in rows], dtype=object),
        'link_score': pd.Series([r[3] for r in rows], dtype='float64'),
        'is_subject': pd.Series([r[4] for r in rows], dtype=bool),
        'url': pd.Series([f'https://en.wikipedia.org/wiki/Page_{r[0] % 4}'
                          for r in rows], dtype=object),
        'label': pd.Series([f'{r[1]} {r[0]}' for r in rows], dtype=object)})


def _ne(c):
    return f'NE_{c & 0x7FFFFFFFFFFFFFFF:x}'


def _reference(rows):
    """Plain-Python canonicalization of linked rows → ({node: (cluster,
    entity)}, subject triples): me edges, stars from each surface's min
    uid, union-find components, ``_split_component`` per component."""
    edges = [(u, entity_node_id(e), min(s, 1.0)) for u, _, e, s, _ in rows
             if e is not None and s > MENTION_ENTITY_THRESHOLD]
    by_surf = {}
    for u, surf, *_ in rows:
        by_surf.setdefault(surf, set()).add(u)
    for uids in by_surf.values():
        uids = sorted(uids)
        edges += [(uids[0], u, MM_SCORE) for u in uids[1:]]
    uf = _UnionFind()
    for a, b, _ in edges:
        uf.union(a, b)
    by_comp = {}
    for e in edges:
        by_comp.setdefault(uf.find(e[0]), []).append(e)
    assignment = {}
    for es in by_comp.values():
        assignment.update(_split_component(
            sorted({n for e in es for n in e[:2]}), es, PATH_THRESHOLD))
    names = {entity_node_id(e): e for _, _, e, _, _ in rows if e is not None}
    nodes = {n: (c, names.get(c)) for n, c in assignment.items()}
    triples = set()
    frame = _linked_frame(rows)
    for u, subj, url, label in zip(frame['mention_uid'], frame['is_subject'],
                                   frame['url'], frame['label']):
        if subj:
            c = assignment.get(int(u), int(u))
            name = names[c] if c in names else _ne(c)
            page = url.rsplit('/', 1)[-1].replace('_', ' ')
            triples |= {(name, 'mentionedIn', page, False),
                        (name, 'label', label, True)}
    return nodes, triples


def _hot_component():
    # 90 of 100 rows share one surface and one entity
    rows = [(i, 'hot', 'Hot' if i % 3 else None, 1.0 if i % 3 else 0.0,
             i % 2 == 0) for i in range(1, 91)]
    return rows + [(100 + i, f'cold{i % 3}', f'Cold{i % 3}' if i % 2 else None,
                    1.0 if i % 2 else 0.7, True) for i in range(10)]


COMPONENT_CASES = {
    'no_edges': [(1, 'a', None, 0.0, True), (2, 'b', None, 0.0, True),
                 (3, 'c', 'E', 0.5, True), (4, 'd', None, 0.0, False)],
    # 4 (unlinked, unique surface) and 5 (link under the threshold) have
    # no edge: their subjects are NE_<uid>
    'subject_outside_graph': [(1, 'x', 'E', 1.0, True), (2, 'x', 'E', 1.0, False),
                              (3, 'x', None, 0.0, True), (4, 'y', None, 0.0, True),
                              (5, 'z', 'F', 0.9, True)],
    # E1 and E2 share one component; 12 reaches 5 through a second
    # surface, and 20/21 sit three hops (0.9^3 < PATH_THRESHOLD) from E1
    'two_entities_split': [(10, 'm', 'E1', 1.0, True), (11, 'm', 'E2', 1.0, True),
                           (11, 'm', 'E2', 1.0, True), (12, 'm', None, 0.0, True),
                           (12, 'n', None, 0.0, False), (5, 'n', None, 0.0, True),
                           (20, 'n', None, 0.0, True), (21, 'n', None, 0.0, True)],
    'hot_component': _hot_component(),
    # uid 7 and 9 were re-fetched with other links
    'duplicate_uids': [(7, 's', 'S1', 1.0, True), (7, 's', 'S2', 1.0, True),
                       (3, 's', None, 0.0, True), (9, 's', 'S1', 1.0, False),
                       (9, 't', 'T1', 1.0, True), (9, 't', None, 0.0, True),
                       (4, 't', None, 0.0, True)],
    'nul_names': [(1, 's1', 'a\x00b', 1.0, True), (2, 's1', 'a\x00b', 1.0, True),
                  (3, 's2', 'a\x00c', 1.0, True), (4, 's2', None, 0.0, True),
                  (5, 's3', 'a', 1.0, True), (6, 's3', 'a', 1.0, False)],
}


def _set_regimes(monkeypatch, exchange, cc):
    """Force the large exchange and/or contraction in connected_components
    (a driver_limit one under the raw edge count, which is above the
    forest floor whenever the edges hold a cycle or a duplicate). Returns
    the list of edge counts that were contracted."""
    if exchange == 'large':
        monkeypatch.setattr(relational, 'SMALL_EXCHANGE_BYTES', -1)
    contracted = []
    if cc == 'contract':
        real = canon_mod.connected_components

        def contracting(edges_ds, **kw):
            project = kw.get('project')
            e = relational.collect_pandas(
                edges_ds if project is None else edges_ds.map_batches(
                    project, batch_format='pyarrow', batch_size=None))
            uf = _UnionFind()
            for a, b in zip(e.get('src', []), e.get('dst', [])):
                uf.union(int(a), int(b))
            if len(e) > len(uf.parent):   # #edges > #nodes - #components
                contracted.append(len(e))
                kw['driver_limit'] = len(e) - 1
            return real(edges_ds, **kw)

        monkeypatch.setattr(canon_mod, 'connected_components', contracting)
    return contracted


def _node_map(ds):
    """canonicalize() rows → {node: (cluster, entity or None)}."""
    t = relational.collect_pandas(ds)
    if t.empty:
        return {}
    return {int(n): (int(c), e if isinstance(e, str) else None)
            for n, c, e in zip(t['node'], t['cluster'], t['entity'])}


def _no_cats():
    """An empty category-row Dataset: the subject triples alone."""
    import pyarrow as pa
    import ray.data as rd
    return rd.from_arrow(pa.table({'url': pa.array([], pa.string()),
                                   'cat_name': pa.array([], pa.string())}))


def _triple_set(ds):
    t = relational.collect_pandas(ds)
    if t.empty:
        return set()
    return set(zip(t['subj'], t['pred'], t['obj'], t['is_literal'].astype(bool)))


def _with_surface_rep(frame):
    """Linked rows plus ``surface_rep``, each surface's min uid, computed
    with pandas."""
    return frame.assign(surface_rep=frame.groupby('norm_surface')[
        'mention_uid'].transform('min'))


# ids ``<case>-<exchange>-<cc>`` for rows without ``surface_rep``, with a
# ``-surface_rep`` suffix for rows that carry it
EDGE_INPUTS = [
    pytest.param(case, exchange, cc, rep, id='-'.join(
        [case, exchange, cc] + (['surface_rep'] if rep else [])))
    for rep in (False, True) for cc in ('driver', 'contract')
    for exchange in ('small', 'large') for case in sorted(COMPONENT_CASES)]


@pytest.mark.parametrize('case,exchange,cc,rep', EDGE_INPUTS)
def test_component_exchange_edge_inputs(ray_session, monkeypatch, case,
                                        exchange, cc, rep):
    """Rows carrying ``surface_rep`` go to ``canonicalize()`` as they
    are. Rows without it take it from the exchanges their callers use:
    ``alias.edge_rows`` (the nastylinker matcher's four columns) for the
    node map, ``alias.with_surface_rep`` (the scored flagship's whole
    rows) for the subject triples."""
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import _assemble_triples
    from caligraph_ray.stages.alias import edge_rows, with_surface_rep
    rows = COMPONENT_CASES[case]
    want_nodes, want_triples = _reference(rows)
    contracted = _set_regimes(monkeypatch, exchange, cc)
    frame = _linked_frame(rows)
    if rep:
        ds = rd.from_pandas(_with_surface_rep(frame)).repartition(3) \
            .materialize()
        by_rows, by_edges = ds, ds
    else:
        ds = rd.from_pandas(frame).repartition(3).materialize()
        by_rows, by_edges = with_surface_rep(ds), edge_rows(ds)

    assert _node_map(canon_mod.canonicalize(by_edges)) == want_nodes
    assert _triple_set(_assemble_triples(
        by_rows, _no_cats(), MENTION_ENTITY_THRESHOLD,
        MENTION_MENTION_THRESHOLD, PATH_THRESHOLD)) == want_triples
    if cc == 'contract' and case != 'no_edges':
        assert len(contracted) == 2   # both calls contracted


def test_surface_bucket_exchange_moves_only_edge_columns(ray_session,
                                                         monkeypatch):
    """``edin_clusters`` and the nastylinker matcher take linked rows of
    any linker, so each gives them ``surface_rep`` in an exchange that
    moves only the four columns the edges read."""
    import ray.data as rd
    from caligraph_ray.pipelines.registry import make_matcher
    from caligraph_ray.stages.canonicalize import edin_clusters
    rows = COMPONENT_CASES['two_entities_split']
    ds = rd.from_pandas(_linked_frame(rows)).repartition(3).materialize()
    moved, real = [], relational.bucketed_map

    def recording(ds_in, *a, **kw):
        moved.append(ds_in.schema().names)
        return real(ds_in, *a, **kw)

    monkeypatch.setattr(relational, 'bucketed_map', recording)
    edge_columns = ['mention_uid', 'norm_surface', 'entity', 'link_score']
    assert _node_map(make_matcher('nastylinker')(ds)) == _reference(rows)[0]
    assert moved == [edge_columns]
    moved.clear()
    assert relational.collect_pandas(edin_clusters(ds)).shape[0] > 0
    assert moved[0] == edge_columns


def _refetch_pages():
    """Ten fetches of four URLs: nine of ten items link one entity, the
    tenth links an entity of its own fetch, so re-fetches share its uid."""
    pages = []
    for j in range(10):
        items = ''.join(
            f'<li><a href="/wiki/United_States">United States</a> item {k}</li>'
            for k in range(9)) + \
            f'<li><a href="/wiki/Town_{j}">Town {j}</a> elsewhere</li>'
        html = (f'<html><head><title>Page {j % 4}</title></head><body>'
                f'<h1>Page {j % 4}</h1><h2>List</h2><ul>{items}</ul>'
                f'<div id="catlinks">Categories: <a href="/wiki/Category:'
                f'Things">Things</a></div></body></html>')
        pages.append((f'https://en.wikipedia.org/wiki/Page_{j % 4}',
                      html.encode()))
    return pages


@pytest.mark.parametrize('cc', ['driver', 'contract'])
@pytest.mark.parametrize('exchange', ['small', 'large'])
def test_join_flagship_refetched_hot_component_matches_oracle(
        ray_session, monkeypatch, exchange, cc):
    import pyarrow as pa
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship
    from oracle_kg import oracle_triples
    pages = _refetch_pages()
    contracted = _set_regimes(monkeypatch, exchange, cc)
    table = pa.table({'url': [u for u, _ in pages],
                      'html': pa.array([h for _, h in pages], pa.binary())})
    got = _triple_set(run_flagship(rd.from_arrow(table).repartition(3),
                                   linking='join'))
    assert got == oracle_triples(pages)
    assert len(contracted) == (1 if cc == 'contract' else 0)


def test_cc_gate_reads_raw_counts_and_fetches_no_pairs_above_it(
        ray_session, monkeypatch):
    """One block of linked rows whose edges repeat: the gate compares
    ``driver_limit`` with the raw edge count, so a limit at the distinct
    count still contracts, and then none of the projection's pair arrays
    is fetched; at the raw count the pairs go to driver union-find. Both
    give the reference labels."""
    import ray
    import ray.data as rd
    rows = [(1, 1, 'E', 1.0), (1, 1, 'E', 1.0), (2, 1, 'E', 1.0),
            (2, 1, None, 0.0), (3, 1, None, 0.0), (5, 5, 'F', 1.0),
            (6, 5, None, 0.0), (6, 5, None, 0.0)]
    ds = rd.from_pandas(pd.DataFrame({
        'mention_uid': pd.Series([r[0] for r in rows], dtype='int64'),
        'surface_rep': pd.Series([r[1] for r in rows], dtype='int64'),
        'entity': pd.Series([r[2] for r in rows], dtype=object),
        'link_score': pd.Series([r[3] for r in rows], dtype='float64')})
    ).repartition(1).materialize()
    project = canon_mod._edge_projection(MENTION_ENTITY_THRESHOLD,
                                         MENTION_MENTION_THRESHOLD)
    raw = [(1, entity_node_id('E')), (1, entity_node_id('E')),
           (2, entity_node_id('E')), (1, 2), (1, 2), (1, 3),
           (5, entity_node_id('F')), (5, 6), (5, 6)]
    uf = _UnionFind()
    for a, b in raw:
        uf.union(a, b)
    want = {n: uf.find(n) for n in list(uf.parent)}

    projected, fetched, contracted = [], set(), []
    real_project, real_get = canon_mod._project_blocks, ray.get
    real_tail = canon_mod._forest_tail

    def recording_project(mat, proj=None):
        out = real_project(mat, proj)
        projected.append(out)
        return out

    def recording_get(refs, *a, **kw):
        fetched.update(refs if isinstance(refs, list) else [refs])
        return real_get(refs, *a, **kw)

    def recording_tail(edges, *a, **kw):
        contracted.append(True)
        return real_tail(edges, *a, **kw)

    monkeypatch.setattr(canon_mod, '_project_blocks', recording_project)
    monkeypatch.setattr(ray, 'get', recording_get)
    monkeypatch.setattr(canon_mod, '_forest_tail', recording_tail)

    got = canon_mod.connected_components(ds, driver_limit=len(set(raw)),
                                         project=project)
    assert got == want
    assert contracted == [True]
    counts, pairs = projected[0]
    assert set(counts) <= fetched
    assert not set(pairs) & fetched

    projected.clear()
    contracted.clear()
    got = canon_mod.connected_components(ds, driver_limit=len(raw),
                                         project=project)
    assert got == want
    assert contracted == []
    assert set(projected[0][1]) <= fetched
