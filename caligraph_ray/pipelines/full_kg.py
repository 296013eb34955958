"""Full KG construction: flagship mention pipeline + Cat2Ax axiom induction
+ listing-rule mining, all triple streams unioned into the sorted,
hash-partitioned sink (the complete analogue of the reference's
extract_and_serialize, impl/caligraph/__init__.py:11-29).
"""

from __future__ import annotations

from typing import Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..stages.alias import link_mentions_join
from ..stages.cat2ax import axioms_to_triples, extract_axioms
from ..stages.html_extract import parse_pages
from ..stages.listing_rules import (apply_rules, build_context,
                                    mine_relation_rules, mine_type_rules)
from ..stages.triples import materialize_triples
from .flagship import _assemble_triples


def _url_title(url: str) -> str:
    return url.rsplit('/', 1)[-1].replace('_', ' ')


def run_full_kg(pages_ds, categories_ds=None, facts_ds=None,
                out_dir: Optional[str] = None,
                me_threshold: float = 0.95, mm_threshold: float = 0.8,
                path_threshold: float = 0.75,
                rule_mean_threshold: float = 0.75, rule_min_pages: int = 2):
    """pages (+ optional category hierarchy & existing-KB facts) → triples.

    categories_ds: (cat_name, parent_cat, member_url) — the F2 companion.
    facts_ds: (subj, pred, obj, is_literal) — the F5 companion.
    """
    # fuse the parse into the slim (mentions ∪ cats) projection — the fat
    # parsed item rows never hit the object store (see run_flagship; this
    # removed the non-scaling store floor on the end-to-end legs)
    from .flagship import _cats_of, _mentions_cats_batch, _mentions_of
    combined = parse_pages(pages_ds).map_batches(
        _mentions_cats_batch, batch_format='pyarrow').materialize()
    cats = combined.map_batches(_cats_of, batch_format='pyarrow').materialize()
    mentions = combined.map_batches(_mentions_of,
                                    batch_format='pyarrow').materialize()
    del combined
    # one norm_surface exchange links each surface bucket, as in
    # run_flagship (nothing driver-sized leaves the cluster)
    linked = link_mentions_join(mentions).materialize()

    streams = [_assemble_triples(linked, cats, me_threshold, mm_threshold,
                                 path_threshold)]

    # taxonomy layer: assemble the class hierarchy from (cat, parent) edges
    # (driver-side over the small edge dim — cycle resolution + node merge +
    # unconnected attachment), then emit rdfs:subClassOf for the hierarchy
    # and the full rdf:type closure for every member (distributed via
    # broadcast ancestors) — reference impl/caligraph/graph.py:97-341
    if categories_ds is not None:
        from ..stages.taxonomy import (build_hierarchy, member_type_triples,
                                       subclass_triples)
        edges = categories_ds.map_batches(
            lambda b: pd.DataFrame({'child': b['cat_name'],
                                    'parent': b['parent_cat']}),
            batch_format='pandas')
        hierarchy = build_hierarchy(edges)
        streams.append(subclass_triples(hierarchy))

        def to_membership(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({'cat_name': batch['cat_name'],
                                 'member': [_url_title(u) for u in batch['member_url']]})

        membership = categories_ds.map_batches(to_membership, batch_format='pandas')
        streams.append(member_type_triples(membership, hierarchy))

        # Cat2Ax over the category hierarchy + membership (member = page title)
        if facts_ds is not None:
            axioms = extract_axioms(categories_ds, membership, facts_ds)
            streams.append(axioms_to_triples(axioms, membership, facts_ds))

            # Cali2Ax: reuse the category patterns on the OUTPUT taxonomy
            # nodes with each node's member property frequencies (A9 incl.
            # transitive fallback) — reference cali2ax.py:26-94
            from ..stages.entity_stats import cali2ax_axioms, cali2ax_triples
            part_to_node = {part: n for n in hierarchy.content_nodes
                            for part in hierarchy.parts(n)}
            p2n_ref = ray.put(part_to_node)

            def to_type_entities(batch: pd.DataFrame) -> pd.DataFrame:
                from ..state.broadcast import get_broadcast
                p2n = get_broadcast(p2n_ref)
                nodes = [p2n.get(c) for c in batch['cat_name']]
                out = pd.DataFrame({'entity': batch['member'], 'type': nodes})
                return out.dropna(subset=['type'])

            type_entities = membership.map_batches(to_type_entities,
                                                   batch_format='pandas')
            type_labels = {n: n for n in hierarchy.content_nodes}
            ax2 = cali2ax_axioms(categories_ds, membership, facts_ds,
                                 type_entities, type_labels,
                                 hierarchy=hierarchy)
            streams.append(cali2ax_triples(ax2, type_entities))

    # listing rules over subject-entity context — the entity-facts side is a
    # distributed hash join (aggregate_entity_facts ⋈ subjects), never a
    # driver dict: the per-entity dim does not fit one object at 10^12 rows
    if facts_ds is not None:
        subjects = linked.map_batches(
            lambda t: t.filter(pc.and_kleene(
                pc.equal(t.column('is_subject'), pa.scalar(True)),
                pc.is_valid(t.column('entity')))),
            batch_format='pyarrow')

        # mentions carry topsection/section (J2 context travels with the row)
        subj_ctx = subjects.select_columns(
            ['url', 'page_id', 'topsection', 'section', 'entity'])
        ctx = build_context(subj_ctx, facts_ds=facts_ds).materialize()
        from ..stages.relational import collect_pandas
        trules = collect_pandas(mine_type_rules(ctx, rule_mean_threshold, rule_min_pages))
        rrules = collect_pandas(mine_relation_rules(ctx, rule_mean_threshold, rule_min_pages))
        if len(trules) or len(rrules):
            streams.append(apply_rules(ctx, trules, rrules))

    all_triples = streams[0]
    for s in streams[1:]:
        all_triples = all_triples.union(s)
    return materialize_triples(all_triples, out_dir=out_dir)
