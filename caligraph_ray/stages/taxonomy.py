"""Taxonomy / class-hierarchy assembly — the reference's core product
(BaseGraph impl/util/base_graph.py:7-142, HierarchyGraph
impl/util/hierarchy_graph.py:12-255, CaLiGraph merge
impl/caligraph/graph.py:97-341), Ray-Data-first.

Execution split (SURVEY.md §7.6): edge EXTRACTION and closure
MATERIALIZATION onto members run distributed (keyed shuffles, broadcast
map_batches); hierarchy ASSEMBLY (node merge D3, cycle resolution,
transitive reduction, unconnected-node attachment) runs driver-side over
the (child, parent) edge dim — a |categories|-sized table, the same
broadcast-budget class as the taxonomy DAG in SURVEY.md §1.2. The heavy
output — rdf:type closure over every member entity — never touches the
driver: ancestors are a broadcast dict read once per worker process.

Semantics mirrored from the reference (deterministic stand-ins where the
reference uses spaCy/WordNet):
* canonical label  — get_canonical_label (nlp.py:89-101; ours functions/strings.py)
* node merge       — hierarchy_graph.py:183-250: direct merge (equal
  important-word sets with a parent), synonym merge (stand-in: equal
  singularized important-word sets), category-set merge (≥2 siblings with
  the same canonical label), then the independent-node merge loop with
  parts union and parent×child edge rewiring
* cycle resolution — hierarchy_graph.py:137-151: remove cycle edges from
  deeper to shallower nodes (pass 1 strictly deeper, pass 2 equal-or-deeper)
* append_unconnected — hierarchy_graph.py:62-82: lexical-head match first
  (aggressive), root fallback
* transitive reduction — hierarchy_graph.py:252-255
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import AGG_BATCH_SIZE
from ..functions.nlp import lexical_head, singularize
from ..functions.strings import get_canonical_label, tokenize

ROOT = '__root__'

_STOPWORDS = frozenset({
    'a', 'an', 'the', 'of', 'in', 'by', 'from', 'and', 'or', 'for', 'to',
    'with', 'on', 'at', 'as', 'its',
})


def _important_words(label: str) -> frozenset:
    """Lower-cased non-stopword tokens of the canonical label (reference
    nlp_util.without_stopwords over get_canonical_label)."""
    return frozenset(w.lower() for w in tokenize(get_canonical_label(label))
                     if w.lower() not in _STOPWORDS and w.isalnum())


def _singular_words(words: Iterable[str]) -> frozenset:
    return frozenset(singularize(w) for w in words)


class Hierarchy:
    """Driver-side DAG with labels + parts (reference HierarchyGraph).

    Plain dict adjacency (no networkx): deterministic iteration via sorted
    traversal, cheap at the |categories| scale this layer is bounded by.
    """

    def __init__(self):
        self._parents: Dict[str, Set[str]] = defaultdict(set)
        self._children: Dict[str, Set[str]] = defaultdict(set)
        self._labels: Dict[str, str] = {}
        self._parts: Dict[str, Set[str]] = defaultdict(set)
        self.add_node(ROOT, label=ROOT)

    # --- structure -----------------------------------------------------

    def add_node(self, node: str, label: Optional[str] = None,
                 parts: Optional[Iterable[str]] = None):
        if node not in self._labels:
            self._labels[node] = label if label is not None else node
            self._parents[node]
            self._children[node]
        if parts:
            self._parts[node] |= set(parts)
            return self
        if node not in self._parts:
            self._parts[node] = {node} if node != ROOT else set()
        return self

    def add_edge(self, parent: str, child: str):
        # nodes exist even for a dropped self-loop edge (the reference's
        # nx.DiGraph.add_edge(u, u) keeps u; cycle resolution removes the
        # loop, append_unconnected later attaches the orphan)
        self.add_node(parent)
        self.add_node(child)
        if parent == child:
            return self
        self._parents[child].add(parent)
        self._children[parent].add(child)
        return self

    def remove_edge(self, parent: str, child: str):
        self._parents[child].discard(parent)
        self._children[parent].discard(child)
        return self

    def remove_node(self, node: str):
        for p in list(self._parents[node]):
            self.remove_edge(p, node)
        for c in list(self._children[node]):
            self.remove_edge(node, c)
        del self._parents[node], self._children[node], self._labels[node]
        self._parts.pop(node, None)
        return self

    @property
    def nodes(self) -> Set[str]:
        return set(self._labels)

    @property
    def content_nodes(self) -> Set[str]:
        return set(self._labels) - {ROOT}

    def edges(self) -> List[Tuple[str, str]]:
        return sorted((p, c) for c, ps in self._parents.items() for p in ps)

    def parents(self, node: str) -> Set[str]:
        return set(self._parents.get(node, ()))

    def children(self, node: str) -> Set[str]:
        return set(self._children.get(node, ()))

    def label(self, node: str) -> str:
        return self._labels.get(node, node)

    def parts(self, node: str) -> Set[str]:
        return set(self._parts.get(node, ()))

    # --- traversal -----------------------------------------------------

    def depths(self) -> Dict[str, int]:
        """BFS depth from root; unreachable nodes get a depth past the
        deepest reachable one (reference uses shortest path from root)."""
        depth = {ROOT: 0}
        dq = deque([ROOT])
        while dq:
            n = dq.popleft()
            for c in sorted(self._children.get(n, ())):
                if c not in depth:
                    depth[c] = depth[n] + 1
                    dq.append(c)
        far = max(depth.values(), default=0) + 1
        for n in self._labels:
            depth.setdefault(n, far)
        return depth

    def ancestors(self, node: str) -> Set[str]:
        out: Set[str] = set()
        dq = deque([node])
        while dq:
            n = dq.popleft()
            for p in self._parents.get(n, ()):
                if p not in out:
                    out.add(p)
                    dq.append(p)
        return out

    def descendants(self, node: str) -> Set[str]:
        out: Set[str] = set()
        dq = deque([node])
        while dq:
            n = dq.popleft()
            for c in self._children.get(n, ()):
                if c not in out:
                    out.add(c)
                    dq.append(c)
        return out

    def closure(self, include_root: bool = False) -> Dict[str, Set[str]]:
        """node → all ancestors, computed bottom-up in one topological pass."""
        order = self._topo_order()
        anc: Dict[str, Set[str]] = {}
        for n in order:
            s: Set[str] = set()
            for p in self._parents.get(n, ()):
                s.add(p)
                s |= anc.get(p, set())
            anc[n] = s
        if not include_root:
            anc = {n: s - {ROOT} for n, s in anc.items()}
        return anc

    def _topo_order(self) -> List[str]:
        indeg = {n: len(ps) for n, ps in self._parents.items()}
        dq = deque(sorted(n for n, d in indeg.items() if d == 0))
        out = []
        while dq:
            n = dq.popleft()
            out.append(n)
            for c in sorted(self._children.get(n, ())):
                indeg[c] -= 1
                if indeg[c] == 0:
                    dq.append(c)
        if len(out) != len(self._labels):   # cycle remains: append rest
            out.extend(sorted(set(self._labels) - set(out)))
        return out

    def _find_cycle(self) -> Optional[List[str]]:
        """One directed cycle (deterministic DFS over sorted adjacency)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: 0 for n in self._labels}
        parent_edge: Dict[str, str] = {}
        for start in sorted(self._labels):
            if color[start] != WHITE:
                continue
            stack = [(start, iter(sorted(self._children.get(start, ()))))]
            color[start] = GRAY
            while stack:
                n, it = stack[-1]
                advanced = False
                for c in it:
                    if color[c] == WHITE:
                        color[c] = GRAY
                        parent_edge[c] = n
                        stack.append((c, iter(sorted(self._children.get(c, ())))))
                        advanced = True
                        break
                    if color[c] == GRAY:   # back edge: cycle c →…→ n → c
                        cyc = [c]
                        cur = n
                        while cur != c:
                            cyc.append(cur)
                            cur = parent_edge[cur]
                        cyc.reverse()
                        return cyc
                if not advanced:
                    color[n] = BLACK
                    stack.pop()
        return None

    # --- reference algorithms -----------------------------------------

    def resolve_cycles(self):
        """Reference hierarchy_graph.py:137-151: remove cycle edges pointing
        from deeper to shallower nodes — pass 1 strictly deeper, pass 2
        equal-or-deeper (the second pass guarantees progress on flat cycles)."""
        for comparator in (lambda a, b: a > b, lambda a, b: a >= b):
            while True:
                cycle = self._find_cycle()
                if cycle is None:
                    break
                depth = self.depths()
                removed = False
                for i in range(len(cycle)):
                    u, v = cycle[i], cycle[(i + 1) % len(cycle)]
                    if comparator(depth[u], depth[v]):
                        self.remove_edge(u, v)
                        removed = True
                if not removed:
                    break   # no qualifying edge under this comparator
        return self

    def merge_nodes(self):
        """Reference hierarchy_graph.py:183-250 (node merge, subsumes D3)."""
        canonical: Dict[str, str] = {}
        for n in self.content_nodes:
            lbl = self.label(n)
            can = get_canonical_label(lbl)
            if can != lbl:
                canonical[n] = can
        remaining = set(canonical)

        important: Dict[str, frozenset] = {
            n: _important_words(canonical[n]) for n in remaining}
        direct: Dict[str, Set[str]] = defaultdict(set)
        for n in sorted(remaining):
            for p in self.parents(n):
                if p not in important:
                    important[p] = _important_words(self.label(p))
            exact = {p for p in self.parents(n) if important[n] == important[p]}
            if exact:
                direct[n] = exact
                continue
            for p in self.parents(n):   # synonym merge: singular-form match
                if (important[n] and important[p]
                        and _singular_words(important[n]) == _singular_words(important[p])):
                    direct[n].add(p)

        catset: Dict[str, Set[str]] = defaultdict(set)
        for n in sorted(remaining - set(direct)):
            for p in self.parents(n) - {ROOT}:
                similar = {c for c in self.children(p)
                           if c in canonical and canonical[c] == canonical[n]}
                if len(similar) > 1:
                    catset[n].add(p)

        merges = {n: direct.get(n, set()) | catset.get(n, set())
                  for n in set(direct) | set(catset)}
        while merges:
            targets_of_others = {t for ts in merges.values() for t in ts}
            independent = sorted(set(merges) - targets_of_others)
            if not independent:      # merge cycle: break deterministically
                independent = [sorted(merges)[0]]
            for n in independent:
                targets = merges.pop(n)
                for t in targets:
                    if t in self._labels:
                        self._parts[t] |= self.parts(n)
                ps, cs = self.parents(n), self.children(n)
                for p in ps:
                    for c in cs:
                        if p != c:
                            self.add_edge(p, c)
                self.remove_node(n)
        return self

    def append_unconnected(self, aggressive: bool = True):
        """Reference hierarchy_graph.py:62-82: cycle-free first, then attach
        parentless nodes to lexical-head matches (aggressive) or the root."""
        self.resolve_cycles()
        if aggressive:
            unconnected = sorted(n for n in self.content_nodes if not self.parents(n))
            head_to_nodes: Dict[str, Set[str]] = defaultdict(set)
            for n in self.content_nodes:
                if self.parents(n):     # only connected nodes are candidates
                    h = lexical_head(self.label(n))
                    if h:
                        head_to_nodes[singularize(h).lower()].add(n)
            for n in unconnected:
                h = lexical_head(self.label(n))
                if not h:
                    continue
                cands = head_to_nodes.get(singularize(h).lower(), set())
                cands = cands - self.descendants(n) - {n}
                for p in sorted(cands):
                    self.add_edge(p, n)
        for n in sorted(self.content_nodes):
            if not self.parents(n):
                self.add_edge(ROOT, n)
        return self

    def remove_transitive_edges(self):
        """Transitive reduction of the DAG (reference hierarchy_graph.py:252-255)."""
        anc = self.closure(include_root=True)
        for p, c in self.edges():
            # edge is transitive if some other parent of c descends from p
            others = self.parents(c) - {p}
            if any(p in anc.get(o, ()) for o in others):
                self.remove_edge(p, c)
        return self

    def remove_unrelated_edges(self, hypernyms: Dict[str, Set[str]]):
        """Reference hierarchy_graph.py:154-161: drop edges whose parent and
        child head nouns are neither equal (after singularization) nor in a
        hypernym relation per the merged evidence (heuristics.compute_hypernyms);
        orphans re-attach afterwards."""
        from .heuristics import is_hypernym

        def head(n: str):
            h = lexical_head(self.label(n))
            return singularize(h).lower() if h else None

        to_remove = []
        for p, c in self.edges():
            if p == ROOT:
                continue
            ph, ch = head(p), head(c)
            if ph is None or ch is None:
                continue
            if not is_hypernym(hypernyms, ph, ch):
                to_remove.append((p, c))
        for p, c in to_remove:
            self.remove_edge(p, c)
        self.append_unconnected()
        return self

    def resolve_disjointness(self, disjoint_pairs: Iterable[Tuple[str, str]],
                             types_of: Dict[str, Set[str]]):
        """Reference graph.py:270-288 (_find_conflicting_edges) simplified to
        explicit inputs: remove parent→child edges where the child's types
        intersect a type disjoint with one of the parent's types; re-attach
        orphans afterwards."""
        dis: Dict[str, Set[str]] = defaultdict(set)
        for a, b in disjoint_pairs:
            dis[a].add(b)
            dis[b].add(a)
        to_remove = []
        for p, c in self.edges():
            if p == ROOT:
                continue
            parent_disjoint = {d for t in types_of.get(p, ()) for d in dis.get(t, ())}
            if types_of.get(c, set()) & parent_disjoint:
                to_remove.append((p, c))
        for p, c in to_remove:
            self.remove_edge(p, c)
        self.append_unconnected(aggressive=False)
        return self


def class_node_name(label: str) -> str:
    """Category/list label → output class-node name (reference
    _convert_label_to_clg_node, impl/caligraph/graph.py:262-266):
    canonical label (by-phrase/alpha-split suffixes stripped) →
    singularized head → capitalized. 'Engineering societies by country' →
    'Engineering society'; 'List of sportswomen' → 'Sportswoman' via
    ``list_label_to_class``."""
    from ..functions.nlp import singularize_phrase
    from ..functions.strings import capitalize as cap
    return cap(singularize_phrase(get_canonical_label(label).strip()))


import re as _re  # noqa: E402

_LIST_OF_RE = _re.compile(r'^Lists? of\s+', _re.IGNORECASE)
_CATEGORY_NS_RE = _re.compile(r'^Category:\s*')


def list_label_to_class(label: str) -> str:
    """'List of engineering societies' → 'Engineering society';
    'Category:Engineering societies by country' → 'Engineering society'
    (the list→class mapping of impl/listpage/mapping.py:35-111 reduced to
    its deterministic label part)."""
    label = _CATEGORY_NS_RE.sub('', label.replace('_', ' '))
    label = _LIST_OF_RE.sub('', label)
    return class_node_name(label)


def build_class_hierarchy(edge_rows, merge: bool = True) -> Hierarchy:
    """(child_label, parent_label) rows over RAW category/list labels →
    class hierarchy: labels map through ``list_label_to_class`` so
    'Engineering societies by country' and 'List of engineering societies'
    land on ONE node 'Engineering society' whose parts carry the raw
    sources (the CaLiGraph category+list merge surface,
    impl/caligraph/graph.py:97-151)."""
    h = Hierarchy()
    for child, parent in sorted(edge_rows):
        cn = list_label_to_class(child)
        pn = list_label_to_class(parent)
        h.add_node(cn, parts={child})
        h.add_node(pn, parts={parent})
        if cn != pn:
            h.add_edge(pn, cn)
    h.resolve_cycles()
    if merge:
        h.merge_nodes()
    h.append_unconnected()
    return h


# --- distributed pieces -----------------------------------------------------

def build_hierarchy(edges_ds, child_col: str = 'child', parent_col: str = 'parent',
                    merge: bool = True, hypernyms: Optional[Dict[str, Set[str]]] = None
                    ) -> Hierarchy:
    """Distinct (child, parent) edge Dataset → assembled Hierarchy:
    cycle resolution → node merge → (optional) hypernym-guarded semantic
    edge filter → unconnected attachment. The edge dim is
    |categories|-sized; the distinct-ing shuffle runs distributed and only
    the deduplicated edges reach the driver. Pass ``hypernyms`` (merged
    evidence from heuristics.compute_hypernyms) to also drop edges whose
    head nouns are unrelated (reference remove_unrelated_edges)."""
    from .relational import collect_rows, two_phase_count
    edge_rows = collect_rows(two_phase_count(edges_ds, [child_col, parent_col], 'cnt')
                             .drop_columns(['cnt']))
    h = Hierarchy()
    for r in sorted(edge_rows, key=lambda r: (r[child_col], r[parent_col])):
        h.add_edge(r[parent_col], r[child_col])
    h.resolve_cycles()
    if merge:
        h.merge_nodes()
    if hypernyms is not None:
        h.remove_unrelated_edges(hypernyms)
    h.append_unconnected()
    return h


def subclass_triples(h: Hierarchy):
    """Hierarchy → (child, rdfs:subClassOf, parent) triples Dataset."""
    import ray.data as rd
    from .triples import TRIPLES_SCHEMA
    edges = [(p, c) for p, c in h.edges() if p != ROOT]
    return rd.from_arrow(pa.Table.from_pydict({
        'subj': [c for _, c in edges],
        'pred': ['rdfs:subClassOf'] * len(edges),
        'obj': [p for p, _ in edges],
        'is_literal': [False] * len(edges),
    }, schema=TRIPLES_SCHEMA))


def closure_pairs(edges_ds, child_col: str = 'child', parent_col: str = 'parent',
                  merge: bool = False):
    """(child, parent) edges → (node, anc) transitive-closure Dataset.

    Assembly is driver-side (small dim); EMISSION is distributed: the
    ancestor dict is broadcast once and each distinct node's closure rows
    are emitted inside map_batches — at 10^12 member rows downstream, the
    closure join cost is where the work is, and that stays in the cluster."""
    from .relational import two_phase_count
    h = build_hierarchy(edges_ds, child_col, parent_col, merge=merge)
    anc = {n: sorted(s) for n, s in h.closure().items() if n != ROOT}
    # raw label → (possibly merged) hierarchy node, so merge=True callers
    # get the merged taxonomy's closure instead of silent empty lookups
    raw_to_node = {part: n for n in h.content_nodes for part in h.parts(n)}
    anc_ref = ray.put((anc, raw_to_node))

    # closure domain = every node of the taxonomy, so parent-only
    # (top-level) nodes emit their ancestry too — the node stream is the
    # distinct union of both edge endpoints, mapped raw→node BEFORE the
    # distinct so merged raw labels collapse to one closure row set
    def endpoints(b: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import get_broadcast
        _, raw_ = get_broadcast(anc_ref)
        raws = pd.concat([b[child_col], b[parent_col]], ignore_index=True)
        return pd.DataFrame({'_n': raws.map(lambda r: raw_.get(r, r))})

    nodes = two_phase_count(
        edges_ds.map_batches(endpoints, batch_format='pandas'),
        ['_n'], 'cnt').drop_columns(['cnt'])

    def emit(batch: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import get_broadcast
        anc_, _ = get_broadcast(anc_ref)
        out_n, out_a = [], []
        for n in batch['_n']:
            for a in anc_.get(n, ()):
                out_n.append(n)
                out_a.append(a)
        return pd.DataFrame({'node': out_n, 'anc': out_a})

    return nodes.map_batches(emit, batch_format='pandas', batch_size=AGG_BATCH_SIZE)


def member_type_triples(membership_ds, h: Hierarchy,
                        cat_col: str = 'cat_name', member_col: str = 'member'):
    """Materialize rdf:type triples for every member with the full type
    closure (reference get_transitive_dbpedia_types, graph.py:85-92):
    member rdf:type node + every ancestor of the node. Membership rows are
    the big side → broadcast ancestors, stateless map_batches, no shuffle."""
    from .triples import TRIPLES_SCHEMA
    part_to_node: Dict[str, str] = {}
    for n in h.content_nodes:
        for part in h.parts(n):
            part_to_node[part] = n
    anc = {n: sorted(s - {ROOT}) for n, s in h.closure().items()}
    state_ref = ray.put((part_to_node, anc))

    def emit(batch: pd.DataFrame) -> pa.Table:
        from ..state.broadcast import get_broadcast
        p2n, anc_ = get_broadcast(state_ref)
        subj, obj = [], []
        for cat, member in zip(batch[cat_col], batch[member_col]):
            node = p2n.get(cat)
            if node is None:
                continue
            subj.append(member)
            obj.append(node)
            for a in anc_.get(node, ()):
                subj.append(member)
                obj.append(a)
        return pa.Table.from_pydict({
            'subj': subj,
            'pred': ['rdf:type'] * len(subj),
            'obj': obj,
            'is_literal': [False] * len(subj),
        }, schema=TRIPLES_SCHEMA)

    return membership_ds.map_batches(emit, batch_format='pandas',
                                     batch_size=AGG_BATCH_SIZE)
