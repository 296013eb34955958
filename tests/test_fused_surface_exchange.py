"""The join path links and builds its alignment edges inside one
norm_surface exchange.

* Exchange counts, pinned with a counter around
  ``relational.bucket_exchange``: ``link_mentions_join`` makes one call,
  ``build_alignment_edges`` on its output none, and the whole
  ``run_flagship(linking='join', canon='join')`` at most four (the linking
  exchange, the per-component split, the labels join and the sink dedup).
* Edge inputs for the surface kernel, in both exchange regimes: its
  (entity, link_score) equal the broadcast ``link_mentions`` result, and
  the component partition of its edges equals a plain-Python star
  construction's.
"""

import pandas as pd
import pytest

from caligraph_ray.config import MENTION_ENTITY_THRESHOLD
from caligraph_ray.stages import relational
from caligraph_ray.stages.canonicalize import _UnionFind, entity_node_id


@pytest.fixture
def exchange_calls(monkeypatch):
    calls = []
    real = relational.bucket_exchange

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(relational, 'bucket_exchange', counting)
    return calls


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
    assert len(exchange_calls) == 1
    edges = build_alignment_edges(linked).materialize()
    assert edges.count() > 0
    assert len(exchange_calls) == 1


def test_join_flagship_makes_at_most_four_exchanges(ray_session, small_corpus,
                                                    exchange_calls):
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship
    out = run_flagship(rd.from_arrow(small_corpus), linking='join',
                       canon='join')
    assert out.count() > 0
    assert len(exchange_calls) <= 4


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
    """Plain-Python alignment graph: me edges over the broadcast links,
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
    from caligraph_ray.stages.alias import (build_alias_index, link_mentions,
                                            link_mentions_join)
    from caligraph_ray.stages.canonicalize import build_alignment_edges
    from caligraph_ray.stages.relational import collect_pandas
    if regime == 'large':
        monkeypatch.setattr(relational, 'SMALL_EXCHANGE_BYTES', -1)
    rows = CASES[case]
    ds = rd.from_pandas(_frame(rows)).repartition(3).materialize()
    ref, _ = build_alias_index(ds)
    want = _links(collect_pandas(link_mentions(ds, ref)))
    linked = link_mentions_join(ds).materialize()
    assert _links(collect_pandas(linked)) == want
    expected = _star_partition(rows, want)
    for edges in (build_alignment_edges(linked),
                  # rows without surface_rep take the rep-only kernel
                  build_alignment_edges(link_mentions(ds, ref).materialize())):
        e = collect_pandas(edges)
        got = [] if e.empty else list(zip(e['src'], e['dst']))
        assert _partition(got) == expected
