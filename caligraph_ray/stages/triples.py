"""Triple assembly + hash-partitioned, per-partition-sorted, resumable sink.

North-star final stage: dedup (subj, pred, obj, is_literal) triples, then
hash-partition by subj and sort WITHIN each partition before the Parquet
write (analogue of the reference's 16 NT result files,
impl/caligraph/serialize.py:21-52). The output contract is
"hash-partitioned, sorted per partition": all facts of one subject co-locate
in one sorted partition, which is what downstream joins and resumable reads
need — without the all-to-all range shuffle of a global ``ds.sort`` (the
dominant scaling cost at cluster scale; one hash shuffle + independent
per-bucket sorts replaces sample + range-exchange + merge).
"""

from __future__ import annotations

import os
import shutil
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import AGG_BATCH_SIZE, OUTPUT_PARTITIONS
from ..functions.hashing import stable_hash64

TRIPLES_SCHEMA = pa.schema([
    ('subj', pa.string()),
    ('pred', pa.string()),
    ('obj', pa.string()),
    ('is_literal', pa.bool_()),
])


def add_subject_bucket(batch: pa.Table, n_buckets: int = OUTPUT_PARTITIONS) -> pa.Table:
    subs = batch.column('subj').to_pylist()
    bucket = np.fromiter((stable_hash64(s) % n_buckets for s in subs),
                         dtype=np.int32, count=len(subs))
    return batch.append_column('subj_bucket', pa.array(bucket, pa.int32()))


def materialize_triples(triples_ds, out_dir: Optional[str] = None,
                        n_buckets: int = OUTPUT_PARTITIONS, sort: bool = True):
    """Dedup → hash-partition by subj → per-partition sort (subj, pred, obj)
    → optional partitioned Parquet write.

    Returns the final Dataset (each subj_bucket partition internally sorted;
    ONE hash shuffle total — the dedup's bucket shuffle carries the sink
    partitioning, no extra exchange and no global range sort).

    The write is idempotent: the sink directory carries a ``_SUCCESS``
    marker. A rerun whose marker exists skips the write and re-reads the
    durable copy (same contract as ``state/checkpoint.run_stage``); a
    partial sink (no marker) is wiped before rewriting, so a resumed or
    repeated run can never double rows."""
    sort_cols = ['subj', 'pred', 'obj']

    if out_dir and os.path.exists(os.path.join(out_dir, '_SUCCESS')):
        import ray.data as rd
        return rd.read_parquet(out_dir).drop_columns(['subj_bucket'])

    keys = ['subj', 'pred', 'obj', 'is_literal']

    def batch_dedup(batch: pa.Table) -> pa.Table:
        g = batch.group_by(keys).aggregate([([], 'count_all')])
        return g.drop_columns(['count_all'])

    pre = triples_ds.map_batches(batch_dedup, batch_format='pyarrow',
                                 batch_size=AGG_BATCH_SIZE)
    bucketed = pre.map_batches(lambda b: add_subject_bucket(b, n_buckets),
                               batch_format='pyarrow')

    def finish_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=keys)
        # a coarse bucket may hold several subj_buckets; the global sort by
        # (bucket, subj, pred, obj) keeps every subj_bucket's rows
        # contiguous AND internally sorted, which the partitioned write and
        # the per-partition-sorted contract both preserve
        return g.sort_values(['subj_bucket'] + sort_cols,
                             kind='mergesort') if sort else g

    # same size-gated exchange as every other keyed stage: broadcast
    # exchange under the gate (sub-second), real sort shuffle above it
    from .relational import bucketed_map
    ds = bucketed_map(bucketed, ['subj_bucket'], finish_bucket)
    if out_dir:
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)  # partial output from a crashed run
        ds.write_parquet(out_dir, partition_cols=['subj_bucket'])
        os.makedirs(out_dir, exist_ok=True)  # an empty KG writes no file
        # per-partition lineage counters (north rule): row counts per
        # subj_bucket from the parquet FOOTERS — metadata only, no data
        # scan — committed before _SUCCESS so a complete sink always
        # carries its manifest
        import json as _json

        import pyarrow.parquet as _pq
        parts = {}
        for name in sorted(os.listdir(out_dir)):
            p = os.path.join(out_dir, name)
            if os.path.isdir(p) and name.startswith('subj_bucket='):
                parts[name] = sum(
                    _pq.ParquetFile(os.path.join(p, f)).metadata.num_rows
                    for f in os.listdir(p) if f.endswith('.parquet'))
        with open(os.path.join(out_dir, '_PARTITIONS.json'), 'w') as f:
            _json.dump({'partitions': parts,
                        'total_rows': int(sum(parts.values()))}, f,
                       indent=1)
        with open(os.path.join(out_dir, '_SUCCESS'), 'w') as f:
            f.write('')
        import ray.data as rd
        return rd.read_parquet(out_dir).drop_columns(['subj_bucket'])
    return ds.drop_columns(['subj_bucket'])


def sunburst_type_distribution(triples_ds, type_pred: str = 'rdf:type',
                               hierarchy=None) -> dict:
    """Per-type entity counts as nested sunburst JSON (S9, reference
    serialize.py:306-342). Aggregation is distributed; the small result is
    shaped driver-side. With a ``hierarchy`` (stages/taxonomy.Hierarchy)
    the children nest along subClassOf edges as in the reference; without
    one the distribution is flat under 'Thing'."""
    from .relational import arrow_filter, collect_rows, two_phase_count
    typed = arrow_filter(triples_ds, lambda t: pc.equal(t['pred'], type_pred))
    counts = {r['obj']: int(r['cnt'])
              for r in collect_rows(two_phase_count(typed, ['obj'], 'cnt'))}
    if hierarchy is None:
        children = [{'name': t, 'value': c}
                    for t, c in sorted(counts.items(), key=lambda x: (-x[1], x[0]))]
        return {'name': 'Thing', 'children': children}

    from .taxonomy import ROOT

    def node_json(n: str):
        kids = [node_json(c) for c in sorted(hierarchy.children(n))]
        kids = [k for k in kids if k is not None]
        value = counts.get(n, 0)
        if not kids and value == 0:
            return None
        out = {'name': n if n != ROOT else 'Thing'}
        if value:
            out['value'] = value
        if kids:
            out['children'] = kids
        return out

    return node_json(ROOT) or {'name': 'Thing', 'children': []}


# the reference serializes its KG into named result files by triple family
# (impl/caligraph/serialize.py:21-52: ontology, types, labels, relations,
# provenance, …); the registry below is the analogue over our predicates
RESULT_FILE_REGISTRY = {
    'ontology': lambda pred, lit: pred in ('rdfs:subClassOf', 'rdfs:subPropertyOf'),
    'types': lambda pred, lit: pred == 'rdf:type',
    'labels': lambda pred, lit: lit and pred == 'label',
    'provenance': lambda pred, lit: pred in ('mentionedIn', 'subject'),
    'relations': lambda pred, lit: True,    # fallback bucket
}


def serialize_kg(triples_ds, out_dir: str,
                 base_uri: str = 'http://caligraph.org/resource/') -> dict:
    """Write the triple set as NAMED N-Triples result files by family
    (S8 registry analogue) plus a stats JSON; returns the per-file row
    counts. Each family filter runs as a streaming pass; NT formatting is
    the columnar to_nt_lines map."""
    import json
    import os

    import pyarrow.compute as pc

    from ..sources.nt import write_nt
    os.makedirs(out_dir, exist_ok=True)

    # ONE upstream execution: materialize the input, assign each triple its
    # family ONCE (first registry match; memoized per distinct (pred, lit)
    # since predicate cardinality is tiny), then each family pass is a
    # vectorized equality filter over the materialized blocks. The naive
    # shape — five filter+write passes over a LAZY dataset plus the stats
    # aggregations — re-ran the whole producing pipeline 8×, then re-counted
    # rows by re-reading every written NT file line-by-line on the driver.
    def tag(batch: pa.Table) -> pa.Table:
        preds = batch.column('pred').to_pylist()
        lits = batch.column('is_literal').to_pylist()
        memo: dict = {}

        def fam_of(p, l):
            for fname, fn in RESULT_FILE_REGISTRY.items():
                if fn(p, l):
                    return fname
            return 'relations'
        fam = [memo.get((p, l)) or memo.setdefault((p, l), fam_of(p, l))
               for p, l in zip(preds, lits)]
        return batch.append_column('family', pa.array(fam, pa.string()))

    tagged = triples_ds.map_batches(tag, batch_format='pyarrow').materialize()
    counts = {}
    for name in RESULT_FILE_REGISTRY:
        part = tagged.map_batches(
            lambda b, name=name: b.filter(
                pc.equal(b.column('family'), name)).drop_columns(['family']),
            batch_format='pyarrow').materialize()
        counts[name] = part.count()
        write_nt(part, os.path.join(out_dir, name), base_uri=base_uri)
    stats = graph_statistics(tagged.drop_columns(['family']))
    with open(os.path.join(out_dir, 'stats.json'), 'w') as f:
        json.dump({'files': counts, **stats}, f, indent=2)
    return counts


def graph_statistics(triples_ds) -> dict:
    """Final-graph summary counts (A15, reference serialize.py:345-396)."""
    from .relational import collect_rows, two_phase_count
    n_triples = triples_ds.count()
    per_pred = {r['pred']: int(r['cnt'])
                for r in collect_rows(two_phase_count(triples_ds, ['pred'], 'cnt'))}
    n_subjects = two_phase_count(triples_ds, ['subj'], 'cnt').count()
    return {'n_triples': int(n_triples), 'n_subjects': int(n_subjects),
            'triples_per_predicate': per_pred}


def to_nt_lines(batch: pa.Table, base_uri: str = 'http://caligraph.org/resource/') -> pa.Table:
    """Columnar N-Triples formatting (reference impl/util/serialize.py:20-77):
    subject/predicate as URIs, object as URI or escaped literal."""
    from ..sources.nt import encode_resource_name, escape_literal

    def uri(name: str) -> str:
        return '<' + base_uri + encode_resource_name(name) + '>'
    subs = batch.column('subj').to_pylist()
    preds = batch.column('pred').to_pylist()
    objs = batch.column('obj').to_pylist()
    lits = batch.column('is_literal').to_pylist()
    lines = []
    for s, p, o, lit in zip(subs, preds, objs, lits):
        if lit:
            o_str = '"' + escape_literal(o) + '"'
        else:
            o_str = uri(o)
        lines.append(f'{uri(s)} {uri(p)} {o_str} .')
    return pa.Table.from_pydict({'nt': pa.array(lines, pa.string())})
