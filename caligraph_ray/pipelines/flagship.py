"""Flagship KG-construction pipeline (SURVEY.md §7.2 end-to-end slice).

read pages → map_batches(parse: text + listings + mentions) → flat item rows
→ explode mentions → link in one norm_surface exchange (its buckets link
their rows, or add ``surface_rep`` to the scored ED stack's) →
canonicalization: alignment edges + connected components, then one
component-keyed exchange that splits each component NASTyLinker style and
emits its subject mentions' triples → dedup/sort → hash-partitioned
Parquet.

Exercises every execution pattern of the north star: stateless Arrow
map_batches, broadcast small sides (the scored linker's name shards),
per-process model caches, keyed exchanges, CC merge and a
sort-materialize sink.

A direct run (no ``stage_hook``) materializes only what a later step
reads more than once or needs as a barrier: the slim union, the linked
rows and each exchange's input. The mention and category rows stay lazy
views over the slim union, and the alignment edges are computed per block
of their source rows, never materialized: on the 80-page test corpus,
four serial streaming executions (join) or five (scored).
"""

from __future__ import annotations

import shutil
from typing import Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import (MENTION_ENTITY_THRESHOLD, MENTION_MENTION_THRESHOLD,
                      PATH_THRESHOLD)
from ..functions.urls import page_titles
from ..stages.alias import link_mentions_join, with_surface_rep
from ..stages.canonicalize import canonicalize
from ..stages.triples import TRIPLES_SCHEMA, materialize_triples
from .full_kg import kg_streams


def _mentions_cats_batch(t: pa.Table) -> pa.Table:
    """PARSED batch → slim (mention ∪ category ∪ drop-marker) union batch.

    Fusing the projection into the parse consumption means the pipeline
    never materializes the full parsed union (item token lists dominate its
    bytes); only mention rows plus (url, page_id, cat_name) category rows
    are pinned for the later phases. Pages the parser dropped (kind='drop',
    e.g. over the 60 s row budget) pass through as slim url-only marker
    rows so per-partition drop accounting (north-rule lineage) survives the
    fusion — every downstream view filters on its own kind."""
    from ..stages.alias import MENTIONS_SCHEMA, _explode_mentions_batch
    items = t.filter(pc.equal(t.column('kind'), pa.scalar('item'))) \
             .drop_columns(['kind', 'cat_name'])
    m = _explode_mentions_batch(items)
    m = m.append_column('cat_name', pa.nulls(m.num_rows, pa.string()))
    m = m.append_column('kind', pa.array(['m'] * m.num_rows, pa.string()))
    parts = [m]
    for kind in ('cat', 'drop'):
        ct = t.filter(pc.equal(t.column('kind'), pa.scalar(kind)))
        cols = {}
        for f in MENTIONS_SCHEMA:
            if f.name in ('url', 'page_id'):
                cols[f.name] = ct.column(f.name).cast(f.type)
            else:
                cols[f.name] = pa.nulls(ct.num_rows, f.type)
        cols['cat_name'] = ct.column('cat_name') if kind == 'cat' \
            else pa.nulls(ct.num_rows, pa.string())
        cols['kind'] = pa.array([kind] * ct.num_rows, pa.string())
        parts.append(pa.Table.from_pydict(cols, schema=m.schema))
    return pa.concat_tables(parts)


def _subjects_of(t: pa.Table) -> pa.Table:
    """Subject-mention rows of a linked batch."""
    return t.filter(pc.equal(t.column('is_subject'), pa.scalar(True)))


def _mentions_of(t: pa.Table) -> pa.Table:
    """Mention-row view of the combined (mentions ∪ cats) union."""
    return t.filter(pc.equal(t.column('kind'), pa.scalar('m'))) \
            .drop_columns(['kind', 'cat_name'])


def _cats_of(t: pa.Table) -> pa.Table:
    """Category-row view of the combined (mentions ∪ cats) union."""
    t = t.filter(pc.equal(t.column('kind'), pa.scalar('cat')))
    return t.select(['url', 'page_id', 'cat_name'])


def _scored_linked(mentions, embedder_factory=None, reranker_factory=None):
    """Scored-ED linking against the distinct non-empty wikilink-target
    names, kept in the object store as shards (two-phase distinct, then
    ed.link_mentions_scored_sharded). The scorer fuses into the keying
    map of ``alias.with_surface_rep``'s exchange: it runs once per mention
    block before the shuffle, never in a reducer."""
    from ..stages.ed import link_mentions_scored_sharded
    from ..stages.relational import arrow_filter, two_phase_count

    named = arrow_filter(
        mentions, lambda t: pc.and_(pc.is_valid(t['name']),
                                    pc.not_equal(t['name'], pa.scalar(''))))
    names_ds = two_phase_count(named.select_columns(['name']), ['name'])
    return with_surface_rep(link_mentions_scored_sharded(
        mentions, names_ds, embedder_factory=embedder_factory,
        reranker_factory=reranker_factory))


def run_flagship(pages_ds, out_dir: Optional[str] = None,
                 me_threshold: float = MENTION_ENTITY_THRESHOLD,
                 mm_threshold: float = MENTION_MENTION_THRESHOLD,
                 path_threshold: float = PATH_THRESHOLD,
                 concurrency: Optional[int] = None, linking: str = 'join',
                 redirects_ds=None, canon: str = 'join',
                 markup: str = 'html', embedder_factory=None,
                 reranker_factory=None, stage_hook=None,
                 categories_ds=None, facts_ds=None):
    """pages Dataset (F1 schema) → deduped, sorted triples Dataset.

    ``categories_ds`` (cat_name, parent_cat, member_url) and ``facts_ds``
    (subj, pred, obj, is_literal) are the full KG's companion tables: when
    either is given, the taxonomy, Cat2Ax, Cali2Ax and listing-rule
    streams of ``full_kg.kg_streams`` join the raw triples before the sink.

    ``linking``: 'join' (one norm_surface exchange; each surface bucket
    counts, argmaxes and links its own rows, nothing driver-side) or
    'scored' (the full ED stack: bi-encoder embed → candidate top-k →
    cross-encoder rerank, deterministic stand-ins behind the real model
    interfaces, run as warm stateless tasks — stages/ed.py — in front of
    a norm_surface exchange that adds ``surface_rep``). Both emit
    (entity, link_score, surface_rep) and canonicalize through
    ``canonicalize()``'s component exchange; ``canon`` accepts only
    'join', which names it.

    ``stage_hook(name, build) -> Dataset`` intercepts every wide stage
    boundary (01_combined parse+slim-union, 02_categories, 03_mentions,
    04_linked, 05_triples) — the same seam as
    ``data_prep.training_data_prep``, so ``run_flagship_checkpointed`` is
    THIS code path with Parquet+lineage persistence, never a drifting
    re-implementation. Without a hook, only the stages the streaming plan
    genuinely needs pinned are materialized: 02_categories is a stage only
    under a hook (otherwise a lazy view the sink reads), mentions stays a
    lazy filter view, and assembled triples stream into the sink.

    A run writes its own sink under ``out_dir``, replacing any earlier one;
    only a hook that resumes 05_triples (``run_flagship_checkpointed``)
    serves the finished sink of an earlier run."""
    from ..stages.html_extract import parse_pages
    if canon != 'join':
        raise ValueError(
            f"canon={canon!r}: the surface canonicalization path was removed; "
            f"'join' (the component-exchange tail) is the only value")
    if linking not in ('join', 'scored'):
        raise ValueError(
            f"linking={linking!r}: the broadcast alias-linking path "
            f"('broadcast', 'auto') was removed; 'join' (the norm_surface "
            f"exchange) and 'scored' are the values")
    # ONE parse per page, fused straight into the mention/category
    # projection: only the SLIM (mentions ∪ cats) union is materialized —
    # never the full parsed item rows with their token lists, whose
    # object-store footprint (and spill) was the non-scaling floor of the
    # end-to-end leg. ``markup``: 'html' (crawl analogue) or 'wikitext'
    # (XML-dump path via sources/xml_dump.dump_to_pages).
    if markup == 'wikitext':
        from ..stages.wikitext import parse_wikitext_pages as _parse
    else:
        _parse = parse_pages
    run = stage_hook or (lambda name, build: build().materialize())
    parsed = _parse(pages_ds, concurrency=concurrency)
    combined = run('01_combined',
                   lambda: parsed.map_batches(_mentions_cats_batch,
                                              batch_format='pyarrow'))

    def cats_view():
        return combined.map_batches(_cats_of, batch_format='pyarrow')
    # only the sink reads the categories: without a hook they stay a lazy
    # view over the pinned union, like the mentions below
    cats = run('02_categories', cats_view) if stage_hook is not None \
        else cats_view()
    mentions = combined.map_batches(_mentions_of, batch_format='pyarrow')

    if redirects_ds is not None:
        # D2: fold wikilink targets through the redirect map (levenshtein≤2
        # spelling guard) BEFORE alias grouping, so distinct surfaces that
        # redirect to one entity merge (reference resource.py:290-305)
        from ..stages.redirects import fold_redirects
        mentions = run('03_mentions',
                       lambda: fold_redirects(mentions, redirects_ds,
                                              col='name'))
        del combined
    elif stage_hook is not None:
        # resumability wants the exploded mentions durable; the extra write
        # is the checkpointing price and only paid when a hook is installed
        mentions = run('03_mentions', lambda: mentions)
    # else: mentions stays a LAZY filter over the pinned slim union — the
    # linker fuses the cheap arrow mask into its own scan. Re-materializing
    # the filter was a full extra write pass of ~95% of the union's rows
    # (15 s at 2M pages / 16 CPUs) that bought nothing: the union IS the
    # pinned copy.
    if linking == 'scored':
        # the constructor-swap seam reaches the full pipeline: pass
        # factories returning TRAINED models (functions/train_transformer)
        # and the whole KG build runs on learned weights
        linked = run('04_linked', lambda: _scored_linked(
            mentions, embedder_factory=embedder_factory,
            reranker_factory=reranker_factory))
    else:
        linked = run('04_linked', lambda: link_mentions_join(mentions))

    all_triples = _assemble_triples(linked, cats, me_threshold, mm_threshold,
                                    path_threshold)
    for stream in kg_streams(linked, categories_ds, facts_ds):
        all_triples = all_triples.union(stream)

    def triples():
        # these triples replace whatever an earlier run left in the sink
        # (materialize_triples reuses any sink that carries _SUCCESS)
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        return all_triples
    # default path streams the assembled triples straight into the sink;
    # under a hook they persist as their own resumable stage
    all_triples = run('05_triples', triples) if stage_hook is not None \
        else triples()
    return materialize_triples(all_triples, out_dir=out_dir)


def run_flagship_checkpointed(pages_ds, root: str,
                              me_threshold: float = MENTION_ENTITY_THRESHOLD,
                              mm_threshold: float = MENTION_MENTION_THRESHOLD,
                              path_threshold: float = PATH_THRESHOLD,
                              linking: str = 'join',
                              redirects_ds=None, markup: str = 'html',
                              categories_ds=None, facts_ds=None, **kw):
    """Checkpointed flagship: ``run_flagship`` with a ``stage_hook`` that
    persists every wide stage as Parquet + _LINEAGE.json + _SUCCESS under
    ``root`` — the SAME code path as the direct run (the data_prep.py
    pattern), so the two can never drift. A rerun (after a crash or a
    partial run) skips completed stages (north-rule resumability); a
    changed corpus/config invalidates stale checkpoints via per-stage
    fingerprints. The final triples land hash-partitioned under
    ``root``/triples_out (idempotent sink: wipe-or-skip via _SUCCESS);
    a run that rebuilds 05_triples drops the old sink first, so the sink
    never serves triples of an earlier build. The companion tables of the
    full KG (``categories_ds``, ``facts_ds``) enter 05_triples'
    fingerprint by row count, so adding, removing or changing one
    rebuilds that stage and the sink. Drop accounting (pages the
    parser rejected) rides the 01_combined stage as kind='drop' marker rows
    and is stamped into its lineage."""
    import json as _json
    import os

    from ..state.checkpoint import read_lineage, run_stage

    # fingerprint: input size + every setting that changes a stage's rows —
    # a rerun of the same root with a different corpus or config
    # invalidates stale checkpoints instead of silently reusing them
    n_pages = pages_ds.count()
    fp_in = {'n_pages': int(n_pages), 'markup': markup,
             'redirects': redirects_ds is not None}
    # 'surface_rep': a scored 04_linked written without it rebuilds once
    fp_link = fp_in | {'linking': linking, 'surface_rep': True}
    fp_cfg = fp_link | {'me': me_threshold, 'mm': mm_threshold,
                        'path': path_threshold}
    fp_cfg |= {name: int(ds.count()) for name, ds in
               (('categories', categories_ds), ('facts', facts_ds))
               if ds is not None}
    fps = {'01_combined': fp_in, '02_categories': fp_in,
           '03_mentions': fp_in, '04_linked': fp_link,
           '05_triples': fp_cfg}
    out_dir = os.path.join(root, 'triples_out')

    def hook(name, build):
        out = run_stage(root, name, build, fingerprint=fps[name])
        if name == '01_combined':
            lin = read_lineage(root, name)
            if lin is not None and 'parse_drops' not in lin:
                n_drops = out.map_batches(
                    lambda t: t.filter(pc.equal(t.column('kind'),
                                                pa.scalar('drop'))),
                    batch_format='pyarrow').count()
                lin['parse_drops'] = int(n_drops)
                with open(os.path.join(root, name, '_LINEAGE.json'),
                          'w') as f:
                    _json.dump(lin, f, indent=2)
        return out

    return run_flagship(pages_ds, out_dir=out_dir,
                        me_threshold=me_threshold, mm_threshold=mm_threshold,
                        path_threshold=path_threshold, linking=linking,
                        redirects_ds=redirects_ds, markup=markup,
                        stage_hook=hook, categories_ds=categories_ds,
                        facts_ds=facts_ds, **kw)


_SUBJECT_SCHEMA = pa.schema([('mention_uid', pa.int64()), ('url', pa.string()),
                             ('label', pa.string())])


def _subject_triples(t: pa.Table) -> pa.Table:
    """One component bucket's resolved subject rows → per subject mention,
    (name, mentionedIn, page) + (name, label, surface-label): a cluster's
    name is its entity name, else NE_<cluster>."""
    import numpy as np
    n = t.num_rows
    name = [e if e is not None else f'NE_{int(c) & 0x7FFFFFFFFFFFFFFF:x}'
            for e, c in zip(t.column('entity').to_pylist(),
                            t.column('cluster').to_pylist())]
    obj = np.empty(2 * n, dtype=object)
    obj[0::2] = page_titles(t.column('url')).to_numpy()
    obj[1::2] = t.column('label').to_numpy(zero_copy_only=False)
    pred = np.empty(2 * n, dtype=object)
    pred[0::2] = 'mentionedIn'
    pred[1::2] = 'label'
    lit = np.zeros(2 * n, dtype=bool)
    lit[1::2] = True
    return pa.Table.from_pydict(
        {'subj': np.repeat(np.array(name, dtype=object), 2), 'pred': pred,
         'obj': obj, 'is_literal': lit}, schema=TRIPLES_SCHEMA)


def _assemble_triples(linked, cats, me_threshold, mm_threshold, path_threshold):
    """Canonicalize + emit; returns the raw (pre-dedup) triples Dataset:
    the subject triples of ``canonicalize()`` plus the category triples.

    No surface-sized dim is collected. Only the connected-components node
    map reaches the driver (its size bounded by ``connected_components``'
    ``driver_limit``) and is broadcast back once. The subject mentions
    ride ``canonicalize()``'s component-keyed exchange as carried rows, so
    each bucket splits its components, names the clusters and emits its
    subjects' triples in one pass. Mentions absent from the alignment
    graph (no qualifying link, unique surface) are singletons named
    NE_<own uid>. The result equals the single-process oracle
    (test_flagship), re-fetched URLs' colliding ``mention_uid``s
    included."""
    subject_triples = canonicalize(
        linked, me_threshold, mm_threshold, path_threshold=path_threshold,
        carried=(_subjects_of, _SUBJECT_SCHEMA, _subject_triples))
    return subject_triples.union(_category_triples(cats))


def _category_triples(cats):
    def category_triples(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.Table.from_pydict({
            'subj': page_titles(batch.column('url')),
            'pred': ['subject'] * n,
            'obj': ['Category:' + c for c in batch.column('cat_name').to_pylist()],
            'is_literal': [False] * n,
        }, schema=TRIPLES_SCHEMA)

    return cats.map_batches(category_triples, batch_format='pyarrow')


# --- driver-testdata adapter ----------------------------------------------

# tokens treated as known entities when rendering documents as pages
LINKED_VOCAB = ('spark', 'customer', 'join', 'merge', 'window',
                'vector', 'stream', 'batch', 'hash', 'filter')
DOC_CHUNK = 6          # tokens per rendered enum item
MIN_DOC_TOKENS = 13    # ceil(n/6) >= 3 items → page passes usefulness filter


def render_document_page(doc_id: int, text: str, lang: str, source: str) -> dict:
    """Deterministically wrap one driver `documents` row into the F1 page
    shape so the flagship pipeline can consume the driver testdata: tokens
    are chunked into enum items; LINKED_VOCAB tokens become wiki links."""
    tokens = [t for t in text.split(' ') if t]
    title = f'Document {doc_id}'
    lis = []
    for i in range(0, len(tokens), DOC_CHUNK):
        chunk = tokens[i:i + DOC_CHUNK]
        parts = []
        for t in chunk:
            if t in LINKED_VOCAB:
                parts.append(f'<a href="/wiki/{t.capitalize()}">{t}</a>')
            else:
                parts.append(t)
        lis.append('<li>' + ' '.join(parts) + '</li>')
    html = (f'<html><head><title>{title}</title></head><body><h1>{title}</h1>'
            f'<h2>Content</h2><ul>{"".join(lis)}</ul>'
            f'<div id="catlinks">Categories: '
            f'<a href="/wiki/Category:Documents_from_{source}">Documents from {source}</a>'
            f'</div></body></html>')
    plain_lines = [title, title, 'Content']
    plain_lines += [' '.join(tokens[i:i + DOC_CHUNK]) for i in range(0, len(tokens), DOC_CHUNK)]
    plain_lines += [f'Categories: Documents from {source}']
    text_out = '\n'.join(plain_lines)
    return {
        'url': f'https://ex.org/wiki/Document_{doc_id}',
        'warc_ts': 1_700_000_000_000_000 + doc_id * 1_000_000,
        'html': html.encode('utf-8'),
        'text': text_out,
        'lang': lang,
    }


def documents_to_pages(docs_ds):
    """driver documents Dataset → F1 pages Dataset (stateless map_batches).

    The driver tables are single parquet files → ONE input block → one
    downstream parse task; split to ~512-row blocks first so the parse
    fans out (a real crawl has thousands of files and skips this)."""
    docs_ds = docs_ds.repartition(target_num_rows_per_block=512)

    def render(batch: pd.DataFrame) -> pa.Table:
        recs = [render_document_page(int(r.doc_id), r.text, r.lang, r.source)
                for r in batch.itertuples()]
        return pa.Table.from_pydict({
            'url': [r['url'] for r in recs],
            'warc_ts': pa.array([r['warc_ts'] for r in recs], pa.timestamp('us')),
            'html': pa.array([r['html'] for r in recs], pa.binary()),
            'text': [r['text'] for r in recs],
            'lang': [r['lang'] for r in recs],
        })
    return docs_ds.map_batches(render, batch_format='pandas', batch_size=1024)


def run_flagship_on_documents(sf_dir: str, out_dir: Optional[str] = None, **kw):
    from ..stages.relational import read_table
    docs = read_table(sf_dir, 'documents',
                      ['doc_id', 'text', 'lang', 'source'])
    return run_flagship(documents_to_pages(docs), out_dir=out_dir, **kw)
