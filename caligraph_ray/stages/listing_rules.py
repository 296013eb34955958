"""Listing-rule mining: derive new types/relations from listing context
(reference impl/listing/extract.py:22-299, A6/A7 + context table J2).

Semantics (two-level aggregation, extract.py:90-147):
  * context rows: one per subject entity occurrence —
    (page_id, page_type, topsection, section, entity, …)
  * level 1: per (rule_key, page): share of subject entities carrying the
    target (a type, or a relation to the page entity)
  * level 2: per rule_key: mean share over pages + page count → a rule fires
    when mean ≥ threshold and pages ≥ min_pages (reference thresholds from
    config.yaml listing.*)
  * application: subject entities inside matching listings that LACK the
    target get it asserted (anti-join against existing facts,
    extract.py:286-289 — broadcast key set, no shuffle).

Page-type dim and entity facts are broadcast small sides (ray.put once).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import AGG_BATCH_SIZE
from ..state.broadcast import get_broadcast
from .relational import bucketed_map, two_phase_pandas_agg

RULE_KEY = ['page_type', 'topsection', 'section']


def aggregate_entity_facts(facts_ds):
    """facts (subj, pred, obj, is_literal) → one row per subj:
    (subj, types: list, props: list of [pred, obj]) — the per-entity fact
    dim as a DATASET (never a driver dict), built with one keyed shuffle."""
    from .relational import bucketed_map

    def agg(bucket: pd.DataFrame) -> pd.DataFrame:
        t = bucket[bucket['pred'] == 'rdf:type']
        p = bucket[(bucket['pred'] != 'rdf:type') & (~bucket['is_literal'].astype(bool))]
        types = t.groupby('subj', sort=False)['obj'].agg(lambda s: sorted(s))
        props = p.groupby('subj', sort=False)[['pred', 'obj']].apply(
            lambda g: sorted([a, b] for a, b in zip(g['pred'], g['obj'])))
        subjects = sorted(set(bucket['subj']))
        return pd.DataFrame({
            'subj': subjects,
            'types': [list(types.get(s, [])) for s in subjects],
            'props': [list(props.get(s, [])) for s in subjects],
        })

    return bucketed_map(facts_ds, ['subj'], agg)


def build_context(subjects_ds, page_type_fn=None, facts_ref=None, facts_ds=None):
    """subject-entity rows (url, page_id, topsection, section, entity) →
    context rows + per-entity target flags.

    ``page_type_fn(url) → str`` classifies pages (the reference uses page
    types from the taxonomy; default: leading word of the page title).
    Entity facts come from ONE of:
    * ``facts_ds`` — facts Dataset, combined via a co-partitioned hash join
      (the scale path: nothing driver-side), or
    * ``facts_ref`` — ray.put'd (types_by_ent, props_by_ent) dicts (fine
      while the per-entity dim fits the broadcast budget)."""
    if page_type_fn is None:
        def page_type_fn(url):
            title = url.rsplit('/', 1)[-1].replace('_', ' ')
            return title.split(' ')[0] if title else ''

    if facts_ds is not None:
        from .relational import shuffle_join
        facts_agg = aggregate_entity_facts(facts_ds)
        joined = shuffle_join(subjects_ds, facts_agg, 'entity', 'subj', how='left')

        def ctx_joined(batch: pd.DataFrame) -> pd.DataFrame:
            titles = [u.rsplit('/', 1)[-1].replace('_', ' ') for u in batch['url']]
            out = batch[['url', 'page_id', 'topsection', 'section', 'entity']].copy()
            # a bucket holding the facts side's null-padded rows gives object
            out['page_id'] = out['page_id'].astype('int64')
            out['page_type'] = [page_type_fn(u) for u in batch['url']]
            out['page_entity'] = titles
            out['ent_types'] = [sorted(t) if isinstance(t, (list, np.ndarray)) else []
                                for t in batch['types']]
            out['rels_to_page'] = [
                sorted(p for (p, v) in pr if v == title)
                if isinstance(pr, (list, np.ndarray)) else []
                for pr, title in zip(batch['props'], titles)]
            return out

        return joined.map_batches(ctx_joined, batch_format='pandas',
                                  batch_size=AGG_BATCH_SIZE)

    def ctx(batch: pd.DataFrame) -> pd.DataFrame:
        tbe, pbe = get_broadcast(facts_ref) if facts_ref is not None else ({}, {})
        page_types, page_ents = [], []
        types_l, rel_to_page = [], []
        for url, ent in zip(batch['url'], batch['entity']):
            title = url.rsplit('/', 1)[-1].replace('_', ' ')
            page_types.append(page_type_fn(url))
            page_ents.append(title)
            types_l.append(sorted(tbe.get(ent, ())) if ent else [])
            rel_to_page.append(sorted(p for (p, v) in pbe.get(ent, ()) if v == title)
                               if ent else [])
        out = batch[['url', 'page_id', 'topsection', 'section', 'entity']].copy()
        out['page_type'] = page_types
        out['page_entity'] = page_ents
        out['ent_types'] = types_l
        out['rels_to_page'] = rel_to_page
        return out

    return subjects_ds.map_batches(ctx, batch_format='pandas', batch_size=AGG_BATCH_SIZE)


def _mine(ctx_ds, target_col: str, mean_threshold: float, min_pages: int,
          std_threshold: float = None, min_page_entities: int = 3):
    """Shared two-level miner over a list-valued target column — the
    reference's full statistics (extract.py:90-147, 206-258):

    level 1 (per rule_key × page): per-target hit counts + total subjects;
    pages with < min_page_entities subjects are dropped (entity_counter
    > 2, extract.py:101).

    level 2 (per rule_key × target), over the rule_key's ACTIVE pages
    (pages contributing ≥1 target row — dfp semantics):
      micro_mean = Σ hits / Σ subjects-of-active-pages   (clip 0..1)
      macro_mean = Σ per-page conf / page_count          (zero-fill: pages
                   lacking the target contribute 0 via the denominator)
      micro_std  = (Σ|micro_mean − conf| + (page_count − n_pages)·micro_mean)
                   / page_count                          (zero-fill deviations)
    A rule fires when micro_mean > mean_threshold, n_pages ≥ min_pages and
    (when set) micro_std < std_threshold (reference thresholds
    config.yaml listing.*: mean .9/.85, std .2)."""
    # level 1, vectorized: totals via group size, hits via explode
    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        keys = RULE_KEY + ['page_id']
        tot = batch.groupby(keys, sort=False, dropna=False).size().rename('n_total').reset_index()
        tot['target'] = ''
        tot['n_hit'] = 0
        ex = batch[keys + [target_col]].explode(target_col).dropna(subset=[target_col])
        hit = ex.groupby(keys + [target_col], sort=False,
                         dropna=False).size() \
            .rename('n_hit').reset_index().rename(columns={target_col: 'target'})
        hit['n_total'] = 0
        cols = keys + ['target', 'n_total', 'n_hit']
        return pd.concat([tot[cols], hit[cols]], ignore_index=True)

    partials = ctx_ds.map_batches(partial, batch_format='pandas', batch_size=AGG_BATCH_SIZE)
    per_page = two_phase_pandas_agg(
        partials, RULE_KEY + ['page_id', 'target'],
        {'n_total': ('n_total', 'sum'), 'n_hit': ('n_hit', 'sum')})

    def level2(bucket: pd.DataFrame) -> pd.DataFrame:
        out_rows = []
        # dropna=False: a NULL rule-key (nullable topsection/section) still
        # contributes totals and rules, matching the SQL NULL-group convention
        for key, g in bucket.groupby(RULE_KEY, sort=False, dropna=False):
            totals = g[g['target'] == ''].drop_duplicates('page_id') \
                .set_index('page_id')['n_total']
            totals = totals[totals >= min_page_entities]
            tg = g[(g['target'] != '') & (g['n_hit'] > 0)]
            tg = tg[tg['page_id'].isin(totals.index)]
            if tg.empty:
                continue
            active = pd.Index(tg['page_id'].unique())
            denom = float(totals.loc[active].sum())
            page_count = len(active)
            for target, tgg in tg.groupby('target', sort=False):
                hits = tgg.groupby('page_id')['n_hit'].sum()
                micro_mean = min(hits.sum() / denom, 1.0) if denom else 0.0
                conf = (hits / totals.loc[hits.index]).clip(0.0, 1.0)
                macro_mean = float(conf.sum()) / page_count
                dev = float((micro_mean - conf).abs().sum())
                micro_std = (dev + (page_count - len(conf)) * micro_mean) / page_count
                n_pages = int(len(conf))
                if (micro_mean > mean_threshold and n_pages >= min_pages
                        and (std_threshold is None or micro_std < std_threshold)):
                    out_rows.append(dict(zip(RULE_KEY, key)) |
                                    {'target': target,
                                     'mean_share': round(micro_mean, 6),
                                     'micro_mean': round(micro_mean, 6),
                                     'macro_mean': round(macro_mean, 6),
                                     'micro_std': round(micro_std, 6),
                                     'n_pages': n_pages,
                                     'page_count': int(page_count)})
        cols = RULE_KEY + ['target', 'mean_share', 'micro_mean', 'macro_mean',
                           'micro_std', 'n_pages', 'page_count']
        return pd.DataFrame(out_rows, columns=cols)

    return bucketed_map(per_page, RULE_KEY, level2)


def mine_type_rules(ctx_ds, mean_threshold: float = 0.75, min_pages: int = 2,
                    std_threshold: float = None):
    """Rules (rule_key → type): most subject entities of these listings have
    the type (A6, extract.py:79-147)."""
    return _mine(ctx_ds, 'ent_types', mean_threshold, min_pages, std_threshold)


def mine_relation_rules(ctx_ds, mean_threshold: float = 0.75, min_pages: int = 2,
                        std_threshold: float = None):
    """Rules (rule_key → predicate): most subject entities relate to the
    page entity via the predicate (A7, extract.py:169-258)."""
    return _mine(ctx_ds, 'rels_to_page', mean_threshold, min_pages, std_threshold)


def apply_rules(ctx_ds, type_rules: pd.DataFrame, relation_rules: pd.DataFrame):
    """Assert missing targets on matching listings (anti-join vs existing
    facts is already encoded in ent_types/rels_to_page: only entities
    LACKING the target produce a new triple — extract.py:286-299)."""
    t_rules: Dict[tuple, List[str]] = defaultdict(list)
    for _, r in type_rules.iterrows():
        t_rules[(r['page_type'], r['topsection'], r['section'])].append(r['target'])
    r_rules: Dict[tuple, List[str]] = defaultdict(list)
    for _, r in relation_rules.iterrows():
        r_rules[(r['page_type'], r['topsection'], r['section'])].append(r['target'])
    rules_ref = ray.put((dict(t_rules), dict(r_rules)))

    def emit(batch: pd.DataFrame) -> pa.Table:
        from .triples import TRIPLES_SCHEMA
        tr, rr = get_broadcast(rules_ref)
        subj, pred, obj, lit = [], [], [], []
        # column-zip iteration (no per-row Series construction)
        for ent, pt, top, sec, ent_types, rels, page_ent in zip(
                batch['entity'], batch['page_type'], batch['topsection'],
                batch['section'], batch['ent_types'], batch['rels_to_page'],
                batch['page_entity']):
            if not ent:
                continue
            key = (pt, top, sec)
            trs = tr.get(key)
            if trs:
                have = set(ent_types) if len(ent_types) else ()
                for t in trs:          # new type if entity lacks it
                    if t not in have:
                        subj.append(ent); pred.append('rdf:type')
                        obj.append(t); lit.append(False)
            rrs = rr.get(key)
            if rrs:
                have_r = set(rels) if len(rels) else ()
                for p in rrs:          # new relation to the page entity
                    if p not in have_r:
                        subj.append(ent); pred.append(p)
                        obj.append(page_ent); lit.append(False)
        return pa.Table.from_pydict({'subj': subj, 'pred': pred, 'obj': obj,
                                     'is_literal': lit}, schema=TRIPLES_SCHEMA)

    return ctx_ds.map_batches(emit, batch_format='pandas', batch_size=AGG_BATCH_SIZE)
