"""The full KG's extra triple streams: taxonomy, Cat2Ax, Cali2Ax and
listing rules over the linked mentions (the layers the reference's
extract_and_serialize, impl/caligraph/__init__.py:11-29, runs on top of
its parse and link pass).

``run_flagship(pages, categories_ds=..., facts_ds=...)`` builds the full KG:
it parses, links and canonicalizes as for any run, then unions the streams
``kg_streams`` returns into its raw triples before the one sink.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.urls import page_titles
from ..stages.cat2ax import axioms_to_triples, extract_axioms
from ..stages.listing_rules import (apply_rules, build_context,
                                    mine_relation_rules, mine_type_rules)


def kg_streams(linked, categories_ds, facts_ds) -> list:
    """Linked mention rows + the companion tables → the extra raw triple
    Datasets of the full KG (none when both companions are absent).

    categories_ds: (cat_name, parent_cat, member_url) — the F2 companion.
    facts_ds: (subj, pred, obj, is_literal) — the F5 companion.
    """
    streams = []
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

        membership = categories_ds.map_batches(
            lambda t: pa.table({'cat_name': t.column('cat_name'),
                                'member': page_titles(t.column('member_url'))}),
            batch_format='pyarrow')
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
        # the miners' own thresholds (mean confidence 0.75, 2 pages)
        trules = collect_pandas(mine_type_rules(ctx))
        rrules = collect_pandas(mine_relation_rules(ctx))
        if len(trules) or len(rrules):
            streams.append(apply_rules(ctx, trules, rrules))
    return streams
