"""Canonicalization: alignment edges → connected components → cluster
splitting (north-star D4/D5; reference matching/greedy_clustering.py).

Graph model (NASTyLinker, reference greedy_clustering.py:26-94):
  * nodes: mention_uids (negative space: entity names hashed to ids)
  * mention→entity edges where link_score > me_threshold
  * mention→mention edges between mentions sharing a norm_surface
    (score mm_score > mm_threshold), as a star from the surface's min
    mention_uid (``surface_rep``) to each other mention of it: linear in
    the mentions, with the components of the clique, so a head surface
    ('United States') never builds a quadratic group.

Both linkers emit ``surface_rep`` in their norm_surface exchange, so the
edges are a per-row function of the linked rows and no edge Dataset is
materialized: one task per row block projects the block to its raw edge
count and its distinct (src, dst) pairs. Connected components read the
counts first:
while their sum is within the driver limit the pairs go to driver
union-find. Above it no pair array reaches the driver; the distinct pairs,
left where their tasks stored them, run as repeated block-local union-find
contractions (per-partition spanning forests, the distributed analogue of
the reference's bottom-up clustering D5,
matching/bottomup_clustering.py:33-83): each pass shrinks every block
of edges to ≤ nodes-1 forest edges, a shuffle-repartition remixes blocks,
and the tail (provably ≤ #distinct nodes - #components edges) finishes
with driver union-find. One exchange keyed on the component then splits
each component with more than one entity node NASTyLinker-style, by
multi-source Dijkstra over edge weights with path score threshold
(greedy_clustering.py:83-94), and names its entity clusters from the
entity names its mention→entity edges carry. Its keying map computes each
row block's edges again, drops exact-duplicate edge rows, and selects the
rows carried along (the flagship's subject mentions), which are resolved
in the same bucket.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import (MENTION_ENTITY_THRESHOLD, MENTION_MENTION_THRESHOLD,
                      MM_SCORE, PATH_THRESHOLD, TOKEN_BATCH_SIZE)
from ..functions.hashing import stable_hash64


def entity_node_id(name: str) -> int:
    """Entity nodes live in negative id space; mention_uids are ≥ 0."""
    return -stable_hash64('ent:' + name) - 1


# --- edge generation -------------------------------------------------------

EDGE_SCHEMA = pa.schema([('src', pa.int64()), ('dst', pa.int64()),
                         ('weight', pa.float64()), ('ent', pa.string())])


def _alignment_edges_batch(batch: pa.Table, me_threshold: float,
                           mm_score: Optional[float]) -> pa.Table:
    """Linked mention rows → mention→entity edges (link_score >
    me_threshold) plus, given ``mm_score``, star edges ``surface_rep →
    mention_uid`` where the two differ. Entity ids hash once per distinct
    entity; each mention→entity edge carries its entity name in ``ent``
    (null on star edges), so a component names its own entity clusters."""
    uid = batch.column('mention_uid').to_numpy()
    ent = batch.column('entity').combine_chunks().cast(pa.string())
    score = batch.column('link_score').to_numpy()   # null → NaN: no edge
    keep = pc.is_valid(ent).to_numpy(zero_copy_only=False) & (score > me_threshold)
    names = ent.filter(pa.array(keep))
    enc = pc.dictionary_encode(names)
    ent_ids = np.array([entity_node_id(e) for e in enc.dictionary.to_pylist()],
                       dtype=np.int64)
    src = [uid[keep]]
    dst = [ent_ids[enc.indices.to_numpy(zero_copy_only=False)]]
    weight = [np.minimum(score[keep], 1.0)]
    ents = [names]
    if mm_score is not None:
        rep = batch.column('surface_rep').to_numpy()
        star = rep != uid
        src.append(rep[star])
        dst.append(uid[star])
        weight.append(np.full(int(star.sum()), mm_score))
        ents.append(pa.nulls(int(star.sum()), pa.string()))
    return pa.Table.from_arrays(
        [pa.array(np.concatenate(a), t.type) for a, t in
         zip((src, dst, weight), EDGE_SCHEMA)] + [pa.concat_arrays(ents)],
        schema=EDGE_SCHEMA)


def build_alignment_edges(linked_mentions_ds,
                          me_threshold: float = MENTION_ENTITY_THRESHOLD,
                          mm_threshold: float = MENTION_MENTION_THRESHOLD,
                          mm_score: float = MM_SCORE):
    """linked mention rows carrying ``surface_rep`` → undirected edge
    Dataset (src, dst, weight, ent), one task per row block."""
    return linked_mentions_ds.map_batches(
        _edge_projection(me_threshold, mm_threshold, mm_score),
        batch_format='pyarrow', batch_size=None)


def _edge_projection(me_threshold: float, mm_threshold: float,
                     mm_score: float = MM_SCORE):
    """``project(pa.Table)``: a block of linked rows → its alignment edges.
    Both linkers emit ``surface_rep`` (``alias.with_surface_rep``), so the
    edges are a per-row function of the linked rows, with no exchange;
    star edges are drawn only when ``mm_score`` beats ``mm_threshold``."""
    return functools.partial(
        _alignment_edges_batch, me_threshold=me_threshold,
        mm_score=mm_score if mm_score > mm_threshold else None)


# --- connected components --------------------------------------------------

class _UnionFind:
    __slots__ = ('parent',)

    def __init__(self):
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if ra > rb:  # smaller id wins → deterministic component labels
            ra, rb = rb, ra
        self.parent[rb] = ra


def _contract_block(batch: pa.Table) -> pa.Table:
    """Block-local union-find → spanning-forest edges (node, root)."""
    uf = _UnionFind()
    src = batch.column('src').to_numpy()
    dst = batch.column('dst').to_numpy()
    for a, b in zip(src, dst):
        uf.union(int(a), int(b))
    nodes = set(map(int, src)) | set(map(int, dst))
    out_src, out_dst = [], []
    for n in nodes:
        r = uf.find(n)
        if r != n:
            out_src.append(n)
            out_dst.append(r)
    return pa.Table.from_pydict({'src': pa.array(out_src, pa.int64()),
                                 'dst': pa.array(out_dst, pa.int64())})


def _distinct_edges(ds):
    """Two-phase distinct over (src, dst): per-batch dedup, then one
    key-bucketed exchange dedup — removes the (node → same root) duplicates
    a node accumulates by appearing in several blocks."""
    from .relational import bucketed_map

    def dd(b: pd.DataFrame) -> pd.DataFrame:
        return b.drop_duplicates()

    return bucketed_map(ds.map_batches(dd, batch_format='pandas'),
                        ['src', 'dst'], dd)


def connected_components_ds(edges_ds, max_rounds: int = 64):
    """(node, comp) DATASET via min-label propagation — the fully
    distributed CC for the regime the dict-returning
    ``connected_components`` refuses with "consume components
    distributed": when even the node→component MAP is too large for the
    driver, this is that consumer. ``comp`` = min node id of the
    component, so labels equal the union-find labels exactly
    (hypothesis-pinned against ``_UnionFind``).

    Shape per round: one labels ⋈ symmetric-edges ``shuffle_join``, a
    node-keyed two-phase min, and one compare-join whose CHANGED count is
    the only value reaching the driver. Plain min propagation converges
    in O(component diameter) rounds — single digits on web host graphs
    and near-dup clusters, the graphs this serves; a pathological
    path-graph chain needs O(n) rounds, which ``max_rounds`` bounds with
    a raise carrying the per-round changed counts (switch such graphs to
    the contraction-based ``connected_components``, whose passes halve
    chains geometrically). Isolated nodes (absent from edges) are absent
    from the output — callers left-join their node dim and default
    comp = own id, exactly as with the dict variant's ``.get(n, n)``."""
    from .relational import (arrow_filter, pin_arrow, shuffle_join,
                             two_phase_count, two_phase_pandas_agg)

    def sym(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'node': pd.concat([batch['src'], batch['dst']],
                              ignore_index=True),
            'nbr': pd.concat([batch['dst'], batch['src']],
                             ignore_index=True)})

    sym_ds = pin_arrow(edges_ds.map_batches(sym, batch_format='pandas'),
                       node='int', nbr='int').materialize()
    labels = pin_arrow(
        two_phase_count(sym_ds.map_batches(lambda df: df[['node']],
                                           batch_format='pandas'),
                        ['node'], alias='_c').drop_columns(['_c'])
        .map_batches(lambda t: pa.Table.from_pydict(
            {'node': t.column('node'), 'lab': t.column('node')}),
            batch_format='pyarrow'),
        node='int', lab='int').materialize()

    lineage: List[int] = []
    for _ in range(max_rounds):
        as_dim = labels.map_batches(
            lambda t: pa.Table.from_pydict({'ln': t.column('node'),
                                            'nlab': t.column('lab')}),
            batch_format='pyarrow')
        j = shuffle_join(sym_ds, as_dim, left_on='nbr', right_on='ln',
                         how='inner')
        votes = pin_arrow(j, node='int', nlab='int')
        own = labels.map_batches(
            lambda t: pa.Table.from_pydict({'node': t.column('node'),
                                            'nlab': t.column('lab')}),
            batch_format='pyarrow')
        new_labels = pin_arrow(
            two_phase_pandas_agg(own.union(votes), ['node'],
                                 {'nlab': ('nlab', 'min')})
            .map_batches(lambda df: df.rename(columns={'nlab': 'lab'}),
                         batch_format='pandas'),
            node='int', lab='int').materialize()
        old_dim = labels.map_batches(
            lambda t: pa.Table.from_pydict({'onode': t.column('node'),
                                            'olab': t.column('lab')}),
            batch_format='pyarrow')
        cmp = shuffle_join(new_labels, old_dim, left_on='node',
                           right_on='onode', how='inner')
        changed = arrow_filter(
            pin_arrow(cmp, lab='int', olab='int'),
            lambda t: pc.not_equal(t['lab'], t['olab'])).count()
        labels = new_labels
        lineage.append(int(changed))
        if changed == 0:
            return labels.map_batches(
                lambda t: pa.Table.from_pydict(
                    {'node': t.column('node'), 'comp': t.column('lab')}),
                batch_format='pyarrow')
    raise RuntimeError(
        f'connected_components_ds did not converge in {max_rounds} '
        f'min-propagation rounds (per-round changed counts: {lineage}); '
        f'the graph has a very long path — use the contraction-based '
        f'connected_components instead.')


@ray.remote(num_returns=2)
def _src_dst(block, project: Optional[Callable] = None):
    """The per-block projection: one block (Arrow or pandas; an empty
    reducer output may have no columns) → (its raw edge count, its
    distinct (src, dst) pairs as an Arrow table), after
    ``project(pa.Table)`` maps a row block to its edges when given. The
    count is a separate return, so the driver can read it without
    fetching the pairs."""
    if not len(block):
        return 0, pa.table({'src': pa.array([], pa.int64()),
                            'dst': pa.array([], pa.int64())})
    if project is not None:
        from ray.data.block import BlockAccessor
        block = project(BlockAccessor.for_block(block).to_arrow())
    pairs = pa.table({'src': pa.array(np.asarray(block['src'], np.int64)),
                      'dst': pa.array(np.asarray(block['dst'], np.int64))})
    return pairs.num_rows, _distinct_rows(pairs)


def _project_blocks(mat, project: Optional[Callable] = None):
    """One ``_src_dst`` task per block → (count refs, pair refs)."""
    from .relational import _block_refs
    refs = [_src_dst.remote(b, project) for b in _block_refs(mat)]
    return [c for c, _ in refs], [p for _, p in refs]


def _union_labels(pair_refs) -> Dict[int, int]:
    """Driver union-find over fetched pair tables → {node: label} for
    every non-root node."""
    uf = _UnionFind()
    for t in ray.get(pair_refs):
        for a, c in zip(t.column('src').to_numpy().tolist(),
                        t.column('dst').to_numpy().tolist()):
            uf.union(a, c)
    return {n: uf.find(n) for n in list(uf.parent)}


def _driver_components(mat) -> Dict[int, int]:
    """Driver union-find over a materialized edge Dataset (Arrow or pandas
    blocks). Each block is projected to its distinct src/dst pairs where
    it lives, so no other column reaches the driver."""
    return _union_labels(_project_blocks(mat)[1])


def _forest_tail(edges_ds, contraction_passes: int = 2,
                 driver_limit: int = 5_000_000,
                 fan_in: Optional[int] = None, max_passes: int = 32):
    """Edge Dataset → materialized (src, dst) Dataset of at most
    ``driver_limit`` edges with the same connected components: the
    distributed contraction passes bound the tail to ≤ (#nodes -
    #components) forest edges, each pass halving the partition count
    (geometric fan-in from ``fan_in``, default = current block count), so
    chains collapse geometrically (pointer-jumping analogue).

    ADAPTIVE: after the mandatory ``contraction_passes``, the tail is
    measured each pass (edge count, then distinct-edge count — a node seen
    in several blocks carries duplicate forest edges that a two-phase
    distinct removes without any driver state). Passes continue until the
    deduped tail fits ``driver_limit``; the per-pass lineage counters are
    carried in the error raised only when the tail stops shrinking above
    budget (the true forest is ≥ #nodes − #components edges, and the node
    map built from it is the same size — a tail genuinely over budget
    means the caller must raise ``driver_limit`` or consume components
    distributed) or ``max_passes`` is exhausted."""
    ds = edges_ds.select_columns(['src', 'dst'])
    if fan_in is None:
        try:
            fan_in = max(2, ds.num_blocks())
        except Exception:
            fan_in = 8
    parts = fan_in
    lineage: List[int] = []
    passes = 0
    prev_dedup: Optional[int] = None
    while True:
        ds = ds.map_batches(_contract_block, batch_format='pyarrow')
        parts = max(2, parts // 2)
        ds = ds.repartition(parts, shuffle=True)
        passes += 1
        if passes < contraction_passes:
            continue
        ds = ds.materialize()
        n = ds.count()
        lineage.append(n)
        if n <= driver_limit:
            return ds
        ds = _distinct_edges(ds).materialize()
        nd = ds.count()
        lineage.append(nd)
        if nd <= driver_limit:
            return ds
        stalled = prev_dedup is not None and nd >= prev_dedup
        prev_dedup = nd
        if passes >= max_passes or stalled:
            raise RuntimeError(
                f'connected_components forest tail does not fit the driver '
                f'after {passes} passes (per-pass edge counts: {lineage}; '
                f'limit {driver_limit}). The deduped tail stopped shrinking '
                f'— it is (close to) the true forest, and the returned node '
                f'map would be the same size: raise driver_limit or consume '
                f'components distributed.')


def connected_components(edges_ds, contraction_passes: int = 2,
                         driver_limit: int = 5_000_000,
                         fan_in: Optional[int] = None,
                         max_passes: int = 32,
                         project: Optional[Callable] = None) -> Dict[int, int]:
    """Edge Dataset → {node: component_label} (label = min node id; roots
    are absent, so consumers resolve with ``labels.get(n, n)``).

    ``project(pa.Table) -> edges``: when given, ``edges_ds`` holds rows
    and each block's edges are ``project`` of the block, computed where
    the block lives; no edge Dataset is ever materialized.

    One task per block projects it to its raw edge count and its distinct
    (src, dst) pairs. The gate reads the counts first: while their sum
    (the raw, pre-dedup edge count) is within ``driver_limit``, the pairs
    go to driver union-find. Above it no pair array is fetched: the
    distinct pairs stay where their tasks stored them and are the input
    of the distributed contraction passes (``_forest_tail``, which takes
    the other arguments), whose forest tail goes to the driver instead,
    so no block is projected twice."""
    import ray.data as rd
    counts, pairs = _project_blocks(edges_ds.materialize(), project)
    if sum(ray.get(counts)) <= driver_limit:
        return _union_labels(pairs)
    return _driver_components(_forest_tail(rd.from_arrow_refs(pairs),
                                           contraction_passes, driver_limit,
                                           fan_in, max_passes))


# --- NASTyLinker component splitting --------------------------------------

def _split_component(nodes: List[int], edges: List[Tuple[int, int, float]],
                     path_threshold: float) -> Dict[int, int]:
    """Reference greedy_clustering.py:83-94: multi-source Dijkstra from the
    entity nodes over -log2(weight) distances; mentions whose best path
    score 2^-d stays > threshold join that entity's cluster, the rest are
    re-clustered among themselves. Returns node → cluster label."""
    ents = [n for n in nodes if n < 0]
    if len(ents) <= 1:
        label = min(nodes)
        return {n: label for n in nodes}
    adj: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
    for a, b, w in edges:
        d = -math.log2(max(min(w, 1.0), 1e-12))
        adj[a].append((b, d))
        adj[b].append((a, d))
    dist: Dict[int, float] = {e: 0.0 for e in ents}
    source: Dict[int, int] = {e: e for e in ents}
    heap = [(0.0, e, e) for e in ents]
    heapq.heapify(heap)
    while heap:
        d, n, s = heapq.heappop(heap)
        if d > dist.get(n, float('inf')):
            continue
        for m, w in adj[n]:
            nd = d + w
            if nd < dist.get(m, float('inf')):
                dist[m] = nd
                source[m] = s
                heapq.heappush(heap, (nd, m, s))
    assignment: Dict[int, int] = {}
    unassigned: List[int] = []
    for n in nodes:
        score = 2 ** (-dist[n]) if n in dist else 0.0
        if n < 0:
            assignment[n] = source.get(n, n)
        elif score > path_threshold:
            assignment[n] = source[n]
        else:
            unassigned.append(n)
    # re-cluster unassigned mentions among themselves (CC of induced subgraph)
    if unassigned:
        un = set(unassigned)
        uf = _UnionFind()
        for a, b, _ in edges:
            if a in un and b in un:
                uf.union(a, b)
        for n in unassigned:
            assignment[n] = uf.find(n)
    return assignment


def _label_of(labels: Dict[int, int], x: np.ndarray) -> np.ndarray:
    """``labels.get(n, n)`` for every n of ``x``."""
    return np.fromiter((labels.get(n, n) for n in x.tolist()), np.int64,
                       count=len(x))


def _split_bucket(edges: pa.Table, path_threshold: float):
    """One exchange bucket's edge rows (``_comp`` + EDGE_SCHEMA) →
    (node → cluster, entity node id → name): ``_split_component`` per
    component, names off the mention→entity edges' ``ent``."""
    comp = edges.column('_comp').to_numpy()
    order = np.argsort(comp, kind='stable')
    comp = comp[order]
    src, dst, weight = (edges.column(c).to_numpy()[order].tolist()
                        for c in ('src', 'dst', 'weight'))
    cuts = (np.flatnonzero(np.diff(comp)) + 1).tolist()
    assignment: Dict[int, int] = {}
    for lo, hi in zip([0] + cuts, cuts + [len(comp)]):
        if lo < hi:
            nodes = sorted(set(src[lo:hi]) | set(dst[lo:hi]))
            assignment.update(_split_component(
                nodes, list(zip(src[lo:hi], dst[lo:hi], weight[lo:hi])),
                path_threshold))
    named = pc.is_valid(edges.column('ent'))
    names = dict(zip(edges.column('dst').filter(named).to_pylist(),
                     edges.column('ent').filter(named).to_pylist()))
    return assignment, names


def edin_clusters(linked_mentions_ds,
                  me_threshold: float = MENTION_ENTITY_THRESHOLD,
                  mm_threshold: float = MENTION_MENTION_THRESHOLD,
                  cluster_threshold: float = 0.5):
    """EDIN-style clustering (D7, reference greedy_clustering.py:105-137):
    mention-mention CC only; a cluster keeps an entity iff that entity is
    the top link for ≥ cluster_threshold of its mentions. Returns
    (node, cluster, entity|None) rows."""
    from .alias import edge_rows
    from .relational import bucketed_map

    # mention-mention components (no entity nodes in the graph)
    mm_only = build_alignment_edges(edge_rows(linked_mentions_ds),
                                    me_threshold=2.0, mm_threshold=mm_threshold)
    labels_ref = ray.put(connected_components(mm_only))

    def tag(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import get_broadcast
        comp = _label_of(get_broadcast(labels_ref),
                         batch.column('mention_uid').to_numpy())
        return batch.append_column('component', pa.array(comp, pa.int64()))

    tagged = linked_mentions_ds.select_columns(
        ['mention_uid', 'entity', 'link_score']).map_batches(
        tag, batch_format='pyarrow', batch_size=TOKEN_BATCH_SIZE)

    def vote(bucket: pd.DataFrame) -> pd.DataFrame:
        out = []
        for comp, g in bucket.groupby('component', sort=False):
            voters = g[(g['entity'].notna()) & (g['link_score'] > me_threshold)]
            ent = None
            if not voters.empty:
                # stable sort over the entity-sorted groupby output: vote
                # ties resolve to the lexicographically smallest entity
                # (quicksort would leave tie order unspecified)
                top = voters.groupby('entity').size() \
                    .sort_values(ascending=False, kind='mergesort')
                if top.iloc[0] / len(g) >= cluster_threshold:
                    ent = top.index[0]
            for uid in g['mention_uid']:
                out.append({'node': int(uid), 'cluster': int(comp), 'entity': ent})
        return pd.DataFrame(out, columns=['node', 'cluster', 'entity'])

    return bucketed_map(tagged, ['component'], vote)


def _distinct_rows(t: pa.Table) -> pa.Table:
    """``t`` with exact-duplicate rows dropped (nulls compare equal)."""
    return t.group_by(t.column_names, use_threads=False).aggregate([])


def canonicalize(linked_mentions_ds,
                 me_threshold: float = MENTION_ENTITY_THRESHOLD,
                 mm_threshold: float = MENTION_MENTION_THRESHOLD,
                 path_threshold: float = PATH_THRESHOLD,
                 carried: Optional[tuple] = None):
    """Full canonicalization: alignment edges → CC → ONE exchange keyed on
    the component, whose buckets split each component (NASTyLinker) and
    name its entity clusters from the edges' ``ent`` column. Only the CC
    node map reaches the driver; it is broadcast back once.

    The linked rows carry ``surface_rep``, whichever linker emitted them
    (``alias.edge_rows`` gives it to rows that lack it), so the edges are a
    per-row function of them and no edge Dataset is materialized: the rows
    are, ``connected_components`` projects each row block to its edges
    where it lives, and the exchange's one keying map computes them again
    from the same blocks, with exact-duplicate edge rows dropped, next to
    the block's carried rows.

    Without ``carried``: a Dataset (node:int64, cluster:int64,
    entity:string|null) over every alignment-graph node, where entity is
    the linked entity name for entity-labeled clusters and null for
    NEW_ENTITY clusters (reference entity_disambiguation/__init__.py:26-33:
    new ids assigned past the known-id space).

    With ``carried = (row_filter, schema, emit)``: the rows that
    ``row_filter(pa.Table) -> pa.Table`` selects from each block of the
    input's own rows (cast to ``schema``, which holds an int64
    ``mention_uid`` and no column named like an edge column) ride the same
    exchange to their mention's component bucket and get ``cluster`` (the
    row's own uid when the mention has no edge) and ``entity`` appended;
    ``emit(pa.Table) -> pa.Table`` turns each bucket's carried rows into
    the returned rows.
    """
    import ray.data as rd

    from ..state.broadcast import get_broadcast
    from .relational import _coarse_key, bucket_exchange, default_coarse

    row_filter, carried_schema, emit = carried or (None, pa.schema([]), None)
    project = _edge_projection(me_threshold, mm_threshold)
    rows = linked_mentions_ds.materialize()  # CC and the exchange read it
    labels = connected_components(rows, project=project)
    if not labels and carried is None:
        return rd.from_arrow(pa.Table.from_pydict(
            {'node': pa.array([], pa.int64()), 'cluster': pa.array([], pa.int64()),
             'entity': pa.array([], pa.string())}))
    labels_ref = ray.put(labels)
    coarse = default_coarse()

    def tag(t: pa.Table, key: str, lead: pa.Schema,
            trail: pa.Schema) -> pa.Table:
        """Rows → ``_coarse``, ``_comp`` = label of ``key``, then edge
        columns before carried ones: the other side's are typed nulls, so
        every block has one schema."""
        comp = _label_of(get_broadcast(labels_ref), t.column(key).to_numpy())
        ck = _coarse_key(pd.DataFrame({'c': comp}), ['c'], coarse)

        def nulls(schema):
            return [pa.nulls(t.num_rows, f.type) for f in schema]
        return pa.Table.from_arrays(
            [pa.array(ck.to_numpy(), pa.int32()), pa.array(comp, pa.int64())]
            + nulls(lead) + t.columns + nulls(trail),
            names=['_coarse', '_comp'] + lead.names + t.column_names
            + trail.names)

    def key_block(t: pa.Table) -> pa.Table:
        """A block's distinct edges, then its carried rows."""
        parts = [tag(_distinct_rows(project(t)), 'src', pa.schema([]),
                     carried_schema)]
        if carried is not None:
            kept = row_filter(t).select(carried_schema.names) \
                .cast(carried_schema)
            parts.append(tag(kept, 'mention_uid', EDGE_SCHEMA, pa.schema([])))
        return pa.concat_tables(parts)

    tagged = rows.map_batches(key_block, batch_format='pyarrow',
                              batch_size=None)

    def resolve(bucket: pa.Table) -> pa.Table:
        is_edge = pc.is_valid(bucket.column('src'))
        assignment, names = _split_bucket(bucket.filter(is_edge), path_threshold)
        if carried is None:
            clusters = list(assignment.values())
            return pa.Table.from_pydict({
                'node': pa.array(list(assignment), pa.int64()),
                'cluster': pa.array(clusters, pa.int64()),
                'entity': pa.array([names.get(c) for c in clusters], pa.string())})
        rows = bucket.filter(pc.invert(is_edge)).select(carried_schema.names)
        uids = rows.column('mention_uid').to_pylist()
        clusters = [assignment.get(u, u) for u in uids]
        return emit(rows.append_column('cluster', pa.array(clusters, pa.int64()))
                    .append_column('entity', pa.array(
                        [names.get(c) for c in clusters], pa.string())))

    return bucket_exchange(tagged, resolve, coarse=coarse, batch_format='pyarrow')
