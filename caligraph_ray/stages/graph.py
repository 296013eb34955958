"""Iterative graph ranking over edge Datasets (PageRank).

The reference's graph layer is driver-side networkx (hierarchy_graph.py);
at 10^12 nodes an iterative rank is a sequence of edge-keyed exchanges
instead. Each iteration is: ranks ⋈ edges on src (one co-partitioned
shuffle_join), a vectorized per-edge contribution map, a two-phase
groupby-sum onto dst, and a left join back onto the node dim for the
teleport term — no driver collect of ranks or edges at any point.

Exactness contract (what lets a SQL engine replay every iteration
bit-for-bit): ranks are int64 fixed-point (``scale`` units of total
mass), the per-edge contribution is the FLOORED integer
``(rank(src) * 85 * w) // (100 * out_w(src))`` and the teleport term is
``(15 * scale) // (100 * n_nodes)`` — floor divisions only, no floats,
so engine rounding can never diverge. Python's unbounded ints carry the
intermediate ``rank*85*w`` product (HUGEINT on the SQL side); emitted
ranks stay well inside int64. Dangling mass (nodes without out-edges)
is dropped, the standard simplification — document when reusing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import AGG_BATCH_SIZE

PAGERANK_SCALE = 1_000_000_000_000   # 10^12 fixed-point units of rank mass


def _pin(ds, **cols):
    """Alias of relational.pin_arrow (the graph exchanges were its first
    user — see that docstring)."""
    from .relational import pin_arrow
    return pin_arrow(ds, **cols)


def transition_edges(events_ds, user_col: str = 'user_id',
                     ts_col: str = 'ts', id_col: str = 'event_id',
                     type_col: str = 'event_type'):
    """(src, dst, w) weighted edges from consecutive same-user events
    (order: ts, then id as the total tie-break — the lead() contract).
    One user-keyed exchange + a two-phase pair count."""
    from .relational import bucketed_map, two_phase_count

    def pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.sort_values([user_col, ts_col, id_col], kind='mergesort')
        src = b[type_col]
        dst = b.groupby(user_col, sort=False)[type_col].shift(-1)
        keep = dst.notna()
        return pd.DataFrame({'src': src[keep], 'dst': dst[keep]})

    seq = bucketed_map(events_ds, [user_col], pairs)
    return two_phase_count(seq, ['src', 'dst'], alias='w')


def pagerank_int(edges_ds, iters: int = 3, scale: int = PAGERANK_SCALE,
                 seeds=None):
    """Integer fixed-point PageRank (damping 0.85) over a (src, dst, w)
    edge Dataset; returns (node, rank_q). ``iters`` exchanges, each
    join-shaped — see module doc for the exactness contract.

    ``seeds``: optional node list for PERSONALIZED PageRank — the initial
    mass and the 15% teleport mass distribute over the seed set only
    (floor-divided per seed), instead of uniformly over all nodes; the
    random walk restarts at the seeds, ranking nodes by proximity to
    them. Same integer-exactness contract; the seed set is a broadcast
    dim by contract (ray.put once, read per worker)."""
    from ray.data.aggregate import Sum

    from .relational import shuffle_join, two_phase_count

    edges_ds = _pin(edges_ds, src='str', dst='str', w='int').materialize()

    # node dim: distinct src ∪ dst (two-phase over the tagged union)
    def node_union(batch: pa.Table) -> pa.Table:
        vals = (batch.column('src').to_pylist()
                + batch.column('dst').to_pylist())
        return pa.Table.from_pydict({'node': pa.array(vals, pa.string())})

    nodes = _pin(two_phase_count(
        edges_ds.map_batches(node_union, batch_format='pyarrow'),
        ['node'], alias='_c').drop_columns(['_c']), node='str').materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        import ray.data as rd
        return rd.from_arrow(pa.Table.from_pydict(
            {'node': pa.array([], pa.string()),
             'rank_q': pa.array([], pa.int64())}))

    # out-weight joined onto every edge once (src-keyed exchange); the join
    # output is pandas blocks, so re-pin before it feeds the per-iteration
    # ranks join below (groupby-aggregate outputs are pandas blocks too —
    # pin them or the join falls back to the object-dtype exchange)
    outw = _pin(edges_ds.groupby('src').aggregate(Sum('w', alias_name='ow')),
                src='str', ow='int')
    edges = _pin(shuffle_join(edges_ds, outw, left_on='src', right_on='src',
                              how='inner'),
                 src='str', dst='str', w='int', ow='int').materialize()

    if seeds is None:
        tele_const = (15 * scale) // (100 * n_nodes)
        r0 = scale // n_nodes
        seed_ref = None
    else:
        import ray as _ray
        seed_set = frozenset(str(s) for s in seeds)
        if not seed_set:
            raise ValueError('personalized pagerank needs a non-empty '
                             'seeds list')
        # drop seeds absent from the graph: they would silently discard
        # their share of the initial/teleport mass (all-zero ranks in the
        # worst case). One broadcast-dim filter pass over the node dim;
        # the collected survivors are bounded by len(seeds).
        _sref = _ray.put(seed_set)

        def _in_seeds(t: pa.Table) -> pa.Table:
            from ..state.broadcast import get_broadcast
            ss = get_broadcast(_sref)
            mask = pa.array([v in ss for v in t.column('node').to_pylist()])
            return t.filter(mask)

        from .relational import collect_rows
        present = frozenset(r['node'] for r in collect_rows(
            nodes.map_batches(_in_seeds, batch_format='pyarrow')))
        if not present:
            raise ValueError('no personalized-pagerank seed is present in '
                             'the graph')
        seed_set = present
        n_seeds = len(seed_set)
        tele_const = (15 * scale) // (100 * n_seeds)
        r0 = scale // n_seeds
        seed_ref = _ray.put(seed_set)

    def init(t: pa.Table) -> pa.Table:
        if seed_ref is None:
            r = [r0] * t.num_rows
        else:
            from ..state.broadcast import get_broadcast
            ss = get_broadcast(seed_ref)
            r = [r0 if n in ss else 0 for n in t.column('node').to_pylist()]
        return pa.Table.from_pydict({'node': t.column('node'),
                                     'rank_q': pa.array(r, pa.int64())})

    ranks = nodes.map_batches(init, batch_format='pyarrow')

    for _ in range(iters):
        joined = shuffle_join(edges, ranks, left_on='src', right_on='node',
                              how='inner')

        def contrib(df: pd.DataFrame) -> pa.Table:
            if df.empty:
                return pa.Table.from_pydict(
                    {'dst': pa.array([], pa.string()),
                     '_c': pa.array([], pa.int64())})
            # unbounded-int product (HUGEINT analog): rank*85*w can pass
            # 2^63 at web-scale edge weights before the floor division
            c = [(int(r) * 85 * int(w)) // (100 * int(ow))
                 for r, w, ow in zip(df['rank_q'], df['w'], df['ow'])]
            return pa.Table.from_pydict(
                {'dst': pa.array(df['dst'], pa.string(), from_pandas=True),
                 '_c': pa.array(c, pa.int64())})

        inflow = _pin(joined.map_batches(contrib, batch_format='pandas')
                      .groupby('dst').aggregate(Sum('_c',
                                                    alias_name='inflow')),
                      dst='str', inflow='int')
        merged = shuffle_join(nodes, inflow, left_on='node', right_on='dst',
                              how='left')

        def add_teleport(df: pd.DataFrame) -> pa.Table:
            if df.empty:
                return pa.Table.from_pydict(
                    {'node': pa.array([], pa.string()),
                     'rank_q': pa.array([], pa.int64())})
            infl = df['inflow'].map(lambda v: 0 if pd.isna(v) else int(v))
            if seed_ref is None:
                tele = tele_const
            else:
                from ..state.broadcast import get_broadcast
                ss = get_broadcast(seed_ref)
                tele = df['node'].map(
                    lambda n: tele_const if n in ss else 0)
            return pa.Table.from_pydict(
                {'node': pa.array(df['node'], pa.string(), from_pandas=True),
                 'rank_q': pa.array((infl + tele).astype('int64'),
                                    pa.int64())})

        ranks = merged.map_batches(add_teleport, batch_format='pandas') \
            .materialize()

    return ranks


def undirected_edges(edges_ds, src_col: str = 'src', dst_col: str = 'dst'):
    """Canonical distinct undirected edge set: (a, b) with a < b, self-loops
    dropped, duplicates collapsed via the two-phase count exchange."""
    from .relational import two_phase_count

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        s, d = batch[src_col], batch[dst_col]
        a = s.where(s < d, d)
        b = d.where(s < d, s)
        out = pd.DataFrame({'a': a, 'b': b})
        return out[out['a'] != out['b']]

    pairs = edges_ds.map_batches(canon, batch_format='pandas',
                                 batch_size=AGG_BATCH_SIZE)
    return two_phase_count(pairs, ['a', 'b'], alias='cnt').drop_columns(['cnt'])


def triangles(und_edges_ds):
    """Distributed triangle enumeration via degree orientation (the
    scalable wedge-join algorithm): orient every undirected edge from the
    lower-(degree, node) endpoint to the higher, generate each node's
    out-neighbor pairs as wedges, and keep wedges whose closing pair is
    itself an oriented edge. Under this orientation every out-degree is
    O(sqrt(m)) on any graph (arboricity bound), so the wedge exchange is
    O(m^1.5) worst-case and near-linear on sparse web/host graphs — the
    shape that survives 100 TB, unlike a driver-side networkx triangle
    scan. Three exchanges total: degree count, wedge groupby, wedge⋈edge
    join (NUL-packed pair keys — exercises the value-pure _col_hash
    contract). Emits one row per triangle, canonical (x < y < z).
    Input must be the canonical undirected edge set (``undirected_edges``).
    """
    from .relational import grouped_map, shuffle_join, two_phase_count

    und = _pin(und_edges_ds, a='str', b='str').materialize()

    def explode_nodes(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'node': pd.concat([batch['a'], batch['b']],
                                               ignore_index=True)})

    deg = two_phase_count(und.map_batches(explode_nodes,
                                          batch_format='pandas'),
                          ['node'], alias='deg')

    j = shuffle_join(und, deg.map_batches(
        lambda t: t.rename_columns(['na', 'dega']), batch_format='pyarrow'),
        left_on='a', right_on='na', how='inner')
    j = shuffle_join(_pin(j, a='str', b='str', dega='int'),
                     deg.map_batches(
        lambda t: t.rename_columns(['nb', 'degb']), batch_format='pyarrow'),
        left_on='b', right_on='nb', how='inner')

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({'u': pd.Series([], dtype=object),
                                 'v': pd.Series([], dtype=object)})
        # lower (deg, node) endpoint points at the higher — total order
        a_first = (df['dega'] < df['degb']) | (
            (df['dega'] == df['degb']) & (df['a'] < df['b']))
        return pd.DataFrame({'u': df['a'].where(a_first, df['b']),
                             'v': df['b'].where(a_first, df['a'])})

    oriented = j.map_batches(orient, batch_format='pandas',
                             batch_size=AGG_BATCH_SIZE).materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # out-neighbors in orientation order; O(sqrt(m)) per node
        nb = sorted(g['v'])
        if len(nb) < 2:
            return pd.DataFrame()
        us, vs, ws = [], [], []
        u = g['u'].iloc[0]
        for i in range(len(nb) - 1):
            for k in range(i + 1, len(nb)):
                us.append(u)
                vs.append(nb[i])
                ws.append(nb[k])
        return pd.DataFrame({'wu': us, 'wv': vs, 'ww': ws})

    wedge_ds = grouped_map(oriented, ['u'], wedges)

    def pack(df: pd.DataFrame, c1: str, c2: str) -> pd.Series:
        # orientation order is NOT value order, so the closing edge (v, w)
        # can be oriented either way — key on the VALUE-canonical pair
        lo = df[c1].where(df[c1] < df[c2], df[c2])
        hi = df[c2].where(df[c1] < df[c2], df[c1])
        return lo.astype(str) + '\x00' + hi.astype(str)

    def key_wedges(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            return pa.Table.from_pydict(
                {c: pa.array([], pa.string())
                 for c in ('wu', 'wv', 'ww', '_pk')})
        pk = pack(df, 'wv', 'ww')
        return pa.Table.from_pydict(
            {'wu': pa.array(df['wu'], pa.string(), from_pandas=True),
             'wv': pa.array(df['wv'], pa.string(), from_pandas=True),
             'ww': pa.array(df['ww'], pa.string(), from_pandas=True),
             '_pk': pa.array(pk, pa.string(), from_pandas=True)})

    def key_edges(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            return pa.Table.from_pydict(
                {'_pk': pa.array([], pa.string()),
                 '_hit': pa.array([], pa.int64())})
        return pa.Table.from_pydict(
            {'_pk': pa.array(pack(df, 'u', 'v'), pa.string(),
                             from_pandas=True),
             '_hit': pa.array(np.ones(len(df), dtype='int64'))})

    wk = wedge_ds.map_batches(key_wedges, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
    ek = oriented.map_batches(key_edges, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
    closed = shuffle_join(wk, ek, left_on='_pk', right_on='_pk', how='inner')

    def canon_triple(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({'x': pd.Series([], dtype=object),
                                 'y': pd.Series([], dtype=object),
                                 'z': pd.Series([], dtype=object)})
        tri = np.sort(df[['wu', 'wv', 'ww']].to_numpy(dtype=object), axis=1)
        return pd.DataFrame({'x': tri[:, 0], 'y': tri[:, 1], 'z': tri[:, 2]})

    return closed.map_batches(canon_triple, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)


def bfs_hops(edges_ds, source, max_hops: int = 4):
    """Bounded-depth distributed BFS over a (src, dst[, w]) edge Dataset:
    shortest hop count from ``source`` for every node within ``max_hops``.
    Each round is ONE frontier ⋈ edges co-partitioned shuffle_join plus a
    node-keyed min-combine — the iterative-frontier shape that replaces a
    driver-side graph walk at 10^12 edges. Only the CURRENT frontier
    (nodes first reached last round) joins the edge set, so a round's
    exchange is proportional to the frontier, not to everything seen.
    Deterministic integer hops; a SQL engine replays it as a
    depth-bounded recursive CTE with a min() fold."""
    import numpy as np
    import ray.data as rd
    from ray.data.aggregate import Min

    from .relational import arrow_filter, shuffle_join

    edges = _pin(edges_ds, src='str', dst='str').materialize()
    labels = rd.from_arrow(pa.Table.from_pydict(
        {'node': pa.array([str(source)], pa.string()),
         'hops': pa.array([0], pa.int64())}))
    for h in range(1, max_hops + 1):
        frontier = arrow_filter(
            labels, lambda t, _h=h: __import__('pyarrow').compute.equal(
                t['hops'], _h - 1))
        if not frontier.count():
            break
        reached = shuffle_join(frontier, edges, left_on='node',
                               right_on='src', how='inner')

        def step(df: pd.DataFrame, _h=h) -> pa.Table:
            if df.empty:
                return pa.Table.from_pydict(
                    {'node': pa.array([], pa.string()),
                     'hops': pa.array([], pa.int64())})
            return pa.Table.from_pydict(
                {'node': pa.array(df['dst'], pa.string(), from_pandas=True),
                 'hops': pa.array(np.full(len(df), _h, 'int64'))})

        contrib = reached.map_batches(step, batch_format='pandas',
                                      batch_size=AGG_BATCH_SIZE)
        labels = _pin(labels.union(contrib).groupby('node')
                      .aggregate(Min('hops', alias_name='hops')),
                      node='str', hops='int').materialize()
    return labels


def kcore_prune(und_edges_ds, k: int = 2, rounds: int = 3):
    """Bounded k-core via ``rounds`` of degree peeling over a canonical
    undirected edge Dataset (a, b): each round drops every edge with an
    endpoint of degree < k, the classic iterative reduction toward the
    k-core fixpoint (bounded rounds keep the exchange count fixed and the
    SQL twin a finite CTE chain; the full core is the fixpoint of the same
    loop — run until the edge count stops changing). Each round is one
    two-phase degree count + two degree-dim shuffle joins — nothing
    driver-side, so 10^12 edges peel at cluster width. Returns (node, deg)
    of the surviving subgraph."""
    from .relational import shuffle_join, two_phase_count

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'node': pd.concat([batch['a'], batch['b']],
                                               ignore_index=True)})

    edges = _pin(und_edges_ds, a='str', b='str').materialize()
    for _ in range(rounds):
        deg = two_phase_count(
            edges.map_batches(explode, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE),
            ['node'], alias='deg')
        keep = deg.map_batches(
            lambda df: df[df['deg'] >= k][['node']],
            batch_format='pandas')
        j = shuffle_join(edges, keep.map_batches(
            lambda t: t.rename_columns(['ka']), batch_format='pyarrow'),
            left_on='a', right_on='ka', how='inner')
        edges = _pin(shuffle_join(_pin(j, a='str', b='str'),
                                  keep.map_batches(
            lambda t: t.rename_columns(['kb']), batch_format='pyarrow'),
            left_on='b', right_on='kb', how='inner'),
            a='str', b='str').materialize()
        if not edges.count():
            break
    return two_phase_count(
        edges.map_batches(explode, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE), ['node'], alias='deg')


def label_propagation(und_edges_ds, iters: int = 3):
    """Synchronous label-propagation community detection (Raghavan et al.
    2007) with a deterministic contract: every node starts as its own
    label; each round EVERY node simultaneously adopts the most frequent
    label among its neighbors, ties → smallest label. Bounded ``iters``
    rounds (classic LPA oscillates on bipartite structures; a fixed round
    budget is the deterministic, engine-replayable variant).

    Shape per round: one labels ⋈ symmetric-edges shuffle_join plus the
    mode exchange (two-phase pair counts → per-node argmax) — label state
    never touches the driver. Input: the canonical undirected edge set
    (``undirected_edges``). Returns (node, lab)."""
    from .relational import mode_per_group, shuffle_join, two_phase_count

    und = und_edges_ds.materialize()

    def sym(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'node': pd.concat([batch['a'], batch['b']], ignore_index=True),
            'nbr': pd.concat([batch['b'], batch['a']], ignore_index=True)})

    sym_ds = und.map_batches(sym, batch_format='pandas',
                             batch_size=AGG_BATCH_SIZE).materialize()

    def only_node(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[['node']]

    nodes = two_phase_count(sym_ds.map_batches(only_node,
                                               batch_format='pandas'),
                            ['node'], alias='c').drop_columns(['c'])

    def self_label(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({'ln': t.column('node'),
                                     'lab': t.column('node')})

    labels = nodes.map_batches(self_label, batch_format='pyarrow')
    for _ in range(max(iters, 0)):
        j = shuffle_join(sym_ds, labels, left_on='nbr', right_on='ln',
                         how='inner')

        def project(batch: pd.DataFrame) -> pd.DataFrame:
            return batch[['node', 'lab']]

        votes = j.map_batches(project, batch_format='pandas',
                              batch_size=AGG_BATCH_SIZE)
        new = mode_per_group(votes, 'node', 'lab', alias='lab')

        def as_dim(t: pa.Table) -> pa.Table:
            return pa.Table.from_pydict({'ln': t.column('node'),
                                         'lab': t.column('lab')})

        labels = new.map_batches(as_dim, batch_format='pyarrow').materialize()

    def out(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({'node': t.column('ln'),
                                     'lab': t.column('lab')})

    return labels.map_batches(out, batch_format='pyarrow')


def shortest_paths_int(edges_ds, source, rounds: int = 4,
                       cost_scale: int = 1_000_000):
    """Bounded-round distributed Bellman-Ford over a weighted (src, dst,
    w) edge Dataset: minimum path cost from ``source`` over paths of ≤
    ``rounds`` edges, with integer edge cost ``cost_scale // w`` (heavily
    travelled transitions are cheap). Each round is ONE frontier ⋈ edges
    co-partitioned shuffle_join plus a node-keyed min-combine — the same
    iterative-frontier shape as :func:`bfs_hops`; only nodes whose
    distance IMPROVED last round re-relax, so a converged region stops
    paying for the iteration. Costs are exact integers (min-combine can
    never diverge by a ulp) and a SQL engine replays the result as a
    depth-bounded recursive CTE + min() fold.

    Frontier tracking rides inside the min-combine: labels carry the
    round that set them, encoded losslessly as ``dist·(rounds+2) + r``
    (r ≤ rounds+1 < the multiplier), so one integer Min aggregate yields
    both the best distance and whether it is fresh this round.

    Weights must be positive: a ``w <= 0`` edge raises ``ValueError``
    (cost is ``cost_scale // w``: zero would divide by zero and a negative
    weight would give a negative cost)."""
    import numpy as np
    import ray.data as rd
    from ray.data.aggregate import Min

    from .relational import arrow_filter, shuffle_join

    enc = rounds + 2

    def with_cost(df: pd.DataFrame) -> pa.Table:
        w = df['w'].to_numpy(dtype=np.int64)
        # -1 marks a non-positive weight (valid costs are >= 0); the driver
        # raises on it below, where a ValueError reaches the caller unwrapped
        cost = np.where(w > 0, cost_scale // np.maximum(w, 1), -1)
        return pa.Table.from_pydict(
            {'src': pa.array(df['src'].astype(str), pa.string()),
             'dst': pa.array(df['dst'].astype(str), pa.string()),
             'cost': pa.array(cost.astype('int64'))})

    edges = edges_ds.map_batches(with_cost, batch_format='pandas',
                                 batch_size=AGG_BATCH_SIZE).materialize()
    min_cost = edges.min('cost') if edges.count() else None
    if min_cost is not None and min_cost < 0:
        raise ValueError('shortest_paths_int: edge weights must be positive')
    labels = rd.from_arrow(pa.Table.from_pydict(
        {'node': pa.array([str(source)], pa.string()),
         'key': pa.array([0], pa.int64())}))   # dist 0, set in round 0
    for r in range(1, rounds + 1):
        def _is_fresh(t, _r=r):
            # no pc.mod kernel: key % enc == key - (key // enc) * enc
            # (keys are non-negative; pc.divide on int64 truncates)
            q = pc.divide(t['key'], pa.scalar(enc, pa.int64()))
            rem = pc.subtract(t['key'],
                              pc.multiply(q, pa.scalar(enc, pa.int64())))
            return pc.equal(rem, _r - 1)

        frontier = arrow_filter(labels, _is_fresh)
        frontier = frontier.map_batches(
            lambda t: pa.Table.from_pydict(
                {'node': t['node'],
                 'dist': pc.divide(t['key'],
                                   pa.scalar(enc, pa.int64()))}),
            batch_format='pyarrow')
        if not frontier.count():
            break
        reached = shuffle_join(frontier, edges, left_on='node',
                               right_on='src', how='inner')

        def step(df: pd.DataFrame, _r=r) -> pa.Table:
            if df.empty:
                return pa.Table.from_pydict(
                    {'node': pa.array([], pa.string()),
                     'key': pa.array([], pa.int64())})
            d = df['dist'].to_numpy(dtype=np.int64) \
                + df['cost'].to_numpy(dtype=np.int64)
            return pa.Table.from_pydict(
                {'node': pa.array(df['dst'], pa.string(), from_pandas=True),
                 'key': pa.array(d * enc + _r)})

        contrib = reached.map_batches(step, batch_format='pandas',
                                      batch_size=AGG_BATCH_SIZE)
        labels = _pin(labels.union(contrib).groupby('node')
                      .aggregate(Min('key', alias_name='key')),
                      node='str', key='int').materialize()

    def decode(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {'node': t['node'],
             'cost': pc.divide(t['key'], pa.scalar(enc, pa.int64()))})

    return labels.map_batches(decode, batch_format='pyarrow')


def hits_int(edges_ds, iters: int = 2, scale: int = 1_000_000):
    """Integer fixed-point HITS (hubs & authorities) over a (src, dst)
    edge Dataset — the link-analysis complement of PageRank: authorities
    collect hub mass along in-edges, hubs collect authority mass along
    out-edges, alternating for ``iters`` rounds. Each half-round is ONE
    edges ⋈ scores co-partitioned shuffle_join plus a node-keyed
    two-phase sum — the same join-shaped iteration contract as
    :func:`pagerank_int`, so the exchange volume is |edges| per round
    regardless of node count.

    Exactness contract: normalization is by the round's MAX (not L2) —
    ``s' = s_raw · scale // max(s_raw)`` in unbounded-int arithmetic
    (raw · scale can pass 2^63 at web-scale in-degrees before the floor
    division) — so every score is an exact integer and a SQL engine
    replays the chain bit-for-bit. Returns (node, hub_q, auth_q) with 0
    for nodes the mass never reaches."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from .relational import shuffle_join, two_phase_count

    e = _pin(two_phase_count(
        edges_ds.map_batches(lambda t: t.select(['src', 'dst']),
                             batch_format='pyarrow'),
        ['src', 'dst'], alias='_c').drop_columns(['_c']),
        src='str', dst='str').materialize()

    def node_union(batch: pa.Table) -> pa.Table:
        vals = (batch.column('src').to_pylist()
                + batch.column('dst').to_pylist())
        return pa.Table.from_pydict({'node': pa.array(vals, pa.string())})

    nodes = _pin(two_phase_count(
        e.map_batches(node_union, batch_format='pyarrow'),
        ['node'], alias='_c').drop_columns(['_c']), node='str').materialize()
    if nodes.count() == 0:
        return rd.from_arrow(pa.Table.from_pydict(
            {'node': pa.array([], pa.string()),
             'hub_q': pa.array([], pa.int64()),
             'auth_q': pa.array([], pa.int64())}))

    def const_scores(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {'node': t.column('node'),
             's': pa.array([scale] * t.num_rows, pa.int64())})

    def propagate(scores, from_col: str, to_col: str):
        """One half-round: sum scores along (from → to), re-key to the
        node dim with 0 fill, normalize by the round max."""
        joined = shuffle_join(e, scores, left_on=from_col, right_on='node',
                              how='inner')
        raw = _pin(joined.map_batches(
            lambda df, _t=to_col: pa.Table.from_pydict(
                {'node': pa.array(df[_t], pa.string(), from_pandas=True),
                 '_r': pa.array(df['s'].map(int), pa.int64())})
            if not df.empty else pa.Table.from_pydict(
                {'node': pa.array([], pa.string()),
                 '_r': pa.array([], pa.int64())}),
            batch_format='pandas')
            .groupby('node').aggregate(Sum('_r', alias_name='raw')),
            node='str', raw='int').materialize()
        agg = raw.aggregate(Max('raw', alias_name='m'))
        m = int(agg['m']) if agg and agg.get('m') is not None else 0
        merged = shuffle_join(nodes, raw, left_on='node', right_on='node',
                              how='left')

        def norm(df: pd.DataFrame) -> pa.Table:
            if df.empty:
                return pa.Table.from_pydict(
                    {'node': pa.array([], pa.string()),
                     's': pa.array([], pa.int64())})
            vals = [0 if (pd.isna(v) or m == 0)
                    else (int(v) * scale) // m for v in df['raw']]
            return pa.Table.from_pydict(
                {'node': pa.array(df['node'], pa.string(), from_pandas=True),
                 's': pa.array(vals, pa.int64())})

        return _pin(merged.map_batches(norm, batch_format='pandas'),
                    node='str', s='int').materialize()

    hub = _pin(nodes.map_batches(const_scores, batch_format='pyarrow'),
               node='str', s='int').materialize()
    auth = None
    for _ in range(iters):
        auth = propagate(hub, 'src', 'dst')
        hub = propagate(auth, 'dst', 'src')

    merged = shuffle_join(hub.map_batches(
        lambda t: t.rename_columns(['node', 'hub_q']),
        batch_format='pyarrow'),
        auth.map_batches(
            lambda t: t.rename_columns(['node', 'auth_q']),
            batch_format='pyarrow'),
        left_on='node', right_on='node', how='inner')
    return merged.map_batches(
        lambda df: pa.Table.from_pydict(
            {'node': pa.array(df['node'], pa.string(), from_pandas=True),
             'hub_q': pa.array(df['hub_q'].map(int), pa.int64()),
             'auth_q': pa.array(df['auth_q'].map(int), pa.int64())})
        if not df.empty else pa.Table.from_pydict(
            {'node': pa.array([], pa.string()),
             'hub_q': pa.array([], pa.int64()),
             'auth_q': pa.array([], pa.int64())}),
        batch_format='pandas')
