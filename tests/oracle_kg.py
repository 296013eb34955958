"""Single-process oracle of the flagship KG semantics.

Re-implements the pipeline spec with plain dicts/Counters (no Ray, no
shared stage code except the pure parse/split functions, which have their
own unit goldens) so the distributed plumbing — broadcast alias join, salted
groupby, CC contraction, hash join, dedup shuffle — is what the comparison
actually validates.
"""

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Set, Tuple

from caligraph_ray.config import (MENTION_ENTITY_THRESHOLD,
                                  MENTION_MENTION_THRESHOLD, PATH_THRESHOLD)
from caligraph_ray.functions.hashing import stable_hash64
from caligraph_ray.functions.strings import is_valid_entity_label, normalize_surface
from caligraph_ray.stages.canonicalize import _split_component, entity_node_id
from caligraph_ray.stages.html_extract import parse_page


def oracle_triples(pages: List[Tuple[str, bytes]],
                   me_threshold: float = MENTION_ENTITY_THRESHOLD,
                   mm_threshold: float = MENTION_MENTION_THRESHOLD,
                   mm_score: float = 0.9,
                   path_threshold: float = PATH_THRESHOLD) -> Set[Tuple[str, str, str, bool]]:
    """pages [(url, html)] → expected (subj, pred, obj, is_literal) set."""
    # duplicate urls (crawl re-fetches) produce distinct page rows; the
    # pipeline parses every row, so the oracle does too
    mentions = []  # (uid, url, listing_idx, item_idx, midx, name, label, surf, is_subj)
    categories = []  # (url, cat)
    for url, html in pages:
        page = parse_page(url, html)
        if page is None:
            continue
        for cat in page.categories:
            categories.append((url, cat))
        for lst in page.listings:
            for item in lst.items:
                subject_assigned = False
                for mi, m in enumerate(item.mentions):
                    is_subj = (not subject_assigned and item.depth == 1
                               and m.start == 0 and is_valid_entity_label(m.label))
                    subject_assigned = subject_assigned or is_subj
                    uid = stable_hash64(f'{url}#{lst.listing_idx}#{item.item_idx}#{mi}')
                    mentions.append((uid, url, lst.listing_idx, item.item_idx, mi,
                                     m.name, m.label, normalize_surface(m.label), is_subj))

    # alias index + linking
    alias: Dict[str, Counter] = defaultdict(Counter)
    for (uid, url, li, ii, mi, name, label, surf, is_subj) in mentions:
        if name is not None and surf != '':
            alias[surf][name] += 1
    linked = []  # (uid, url, entity|None, score, label, surf, is_subj)
    for (uid, url, li, ii, mi, name, label, surf, is_subj) in mentions:
        if name is not None:
            linked.append((uid, url, name, 1.0, label, surf, is_subj))
        elif surf in alias:
            cands = sorted(alias[surf].items(), key=lambda x: (-x[1], x[0]))
            total = sum(alias[surf].values())
            linked.append((uid, url, cands[0][0], cands[0][1] / total, label, surf, is_subj))
        else:
            linked.append((uid, url, None, 0.0, label, surf, is_subj))

    # edges
    edges: List[Tuple[int, int, float]] = []
    for (uid, url, ent, score, label, surf, is_subj) in linked:
        if ent is not None and score > me_threshold:
            edges.append((uid, entity_node_id(ent), min(score, 1.0)))
    by_surf: Dict[str, List[int]] = defaultdict(list)
    for (uid, url, ent, score, label, surf, is_subj) in linked:
        by_surf[surf].append(uid)
    if mm_score > mm_threshold:
        for surf, uids in by_surf.items():
            uids = sorted(set(uids))
            for other in uids[1:]:
                edges.append((uids[0], other, mm_score))

    # CC + split
    parent: Dict[int, int] = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:
            parent[x], x = r, parent[x]
        return r

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra

    for a, b, w in edges:
        union(a, b)
    comp_edges: Dict[int, List[Tuple[int, int, float]]] = defaultdict(list)
    for a, b, w in edges:
        comp_edges[find(a)].append((a, b, w))
    assignment: Dict[int, int] = {}
    for root, es in comp_edges.items():
        nodes = sorted({n for e in es for n in e[:2]})
        assignment.update(_split_component(nodes, es, path_threshold))

    ent_name = {entity_node_id(e): e for (uid, url, e, s, l, sf, isj) in linked if e}

    def canonical_for(uid, ent, score):
        if uid in assignment:
            c = assignment[uid]
            if c in ent_name:
                return ent_name[c]
            return f'NE_{c & 0x7FFFFFFFFFFFFFFF:x}'
        if ent is not None and score > me_threshold:
            return ent
        return f'NE_{uid & 0x7FFFFFFFFFFFFFFF:x}'

    triples: Set[Tuple[str, str, str, bool]] = set()
    for (uid, url, ent, score, label, surf, is_subj) in linked:
        if not is_subj:
            continue
        canon = canonical_for(uid, ent, score)
        page = url.rsplit('/', 1)[-1].replace('_', ' ')
        triples.add((canon, 'mentionedIn', page, False))
        triples.add((canon, 'label', label, True))
    for url, cat in categories:
        page = url.rsplit('/', 1)[-1].replace('_', ' ')
        triples.add((page, 'subject', 'Category:' + cat, False))
    return triples


def oracle_taxonomy_triples(categories: List[Tuple[str, str, str]]
                            ) -> Set[Tuple[str, str, str, bool]]:
    """category rows [(member_url, cat_name, parent_cat)] → expected
    rdfs:subClassOf and rdf:type triples of the full KG's taxonomy layer.

    The hierarchy is assembled from the distinct (child, parent) edges in
    the order ``taxonomy.build_hierarchy`` uses; the type closure walks
    ``Hierarchy.parents`` upward per node, so it does not share
    ``Hierarchy.closure``'s topological pass."""
    from caligraph_ray.stages.taxonomy import ROOT, Hierarchy
    h = Hierarchy()
    for child, parent in sorted({(c, p) for _, c, p in categories}):
        h.add_edge(parent, child)
    h.resolve_cycles()
    h.merge_nodes()
    h.append_unconnected()

    out = {(c, 'rdfs:subClassOf', p, False)
           for c in h.nodes for p in h.parents(c) if p != ROOT}
    node_of = {part: n for n in h.content_nodes for part in h.parts(n)}

    def types(node: str) -> Set[str]:
        seen, stack = {node}, [node]
        while stack:
            for p in h.parents(stack.pop()):
                if p != ROOT and p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    for url, cat, _ in categories:
        if cat in node_of:
            member = url.rsplit('/', 1)[-1].replace('_', ' ')
            out |= {(member, 'rdf:type', t, False) for t in types(node_of[cat])}
    return out
