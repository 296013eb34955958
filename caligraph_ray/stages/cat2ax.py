"""Cat2Ax-style axiom induction, Ray-Data-first (north-star pillar).

Reference: "Uncovering the Semantics of Wikipedia Categories" as implemented
in impl/category/cat2ax.py + impl/category/category_set.py. Three phases:

1. **Category sets** (category_set.py:27-87): group categories by parent,
   recursively split children on shared front/back words → candidate sets
   with (first_words, last_words) patterns. Ray: ``groupby(parent)`` +
   ``map_groups`` (per-parent work is tiny; the shuffle is the cost).
2. **Pattern mining** (cat2ax.py:100-139): per candidate set, score
   predicates/types against per-category statistics (A3) using surface
   scores; keep the median-positive winners. Ray: candidate-set rows
   ``map_batches`` against broadcast per-category statistics (statistics are
   |categories|-sized → broadcast below budget, hash-join by cat at scale).
3. **Axiom application** (cat2ax.py:188-346): compile front/back/enclosing
   pattern tries on the driver, broadcast, match every category label in a
   stateless ``map_batches``; keep prop/type axioms scoring ≥ pattern_conf.

Axiom → triple materialization applies each category's axioms to its members
(reference impl/caligraph/entity.py:134-153 add_axiom_information).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import AGG_BATCH_SIZE, CAT2AX_PATTERN_CONF
from ..functions.strings import remove_by_phrase, tokenize
from ..state.broadcast import get_broadcast
from .relational import collect_rows, two_phase_count

# --- phase 0: per-category statistics (A3, reference category.py:222-237) ---


def category_statistics(membership_ds, facts_ds):
    """membership (cat_name, member) × facts (subj, pred, obj) →
    driver dict cat → {'n': members, 'types': {t: freq}, 'props': {(p,v): freq}}.

    Frequencies are count/n_members. The membership↔facts combination is a
    distributed hash join on member==subj (neither side is collected or
    broadcast — the per-entity fact dim is dataset-sized at 10^12 rows);
    only the FINAL per-category dict is collected, a |categories|-sized dim
    that pattern mining needs random access to (the reference holds the same
    dict in DbpCategoryStore)."""
    from .relational import shuffle_join
    member_counts = {r['cat_name']: int(r['cnt'])
                     for r in collect_rows(two_phase_count(membership_ds, ['cat_name'], 'cnt'))}

    # facts is triple-scale: skip the gate's measuring materialization
    joined = shuffle_join(membership_ds, facts_ds, 'member', 'subj',
                          how='inner', right_hint='fact')

    def to_kind(batch: pd.DataFrame) -> pd.DataFrame:
        # literal-valued props STAY in the stats: the reference mines
        # patterns over res.get_properties() which includes datatype facts
        # (category.py:229-230) — year/number axioms are Cat2Ax's showcase
        it = batch['pred'] == 'rdf:type'
        return pd.DataFrame({
            'cat_name': batch['cat_name'],
            'kind': np.where(it, 't', 'p'),
            'k1': np.where(it, batch['obj'], batch['pred']),
            'k2': np.where(it, '', batch['obj']),
        })

    exploded = joined.map_batches(to_kind, batch_format='pandas',
                                  batch_size=AGG_BATCH_SIZE)
    counts = collect_rows(two_phase_count(exploded, ['cat_name', 'kind', 'k1', 'k2'], 'cnt'))

    stats: Dict[str, dict] = {}
    for cat, n in member_counts.items():
        stats[cat] = {'n': n, 'types': {}, 'props': {}}
    for r in counts:
        cat = r['cat_name']
        if cat not in stats:
            continue
        freq = int(r['cnt']) / stats[cat]['n']
        if r['kind'] == 't':
            stats[cat]['types'][r['k1']] = freq
        else:
            stats[cat]['props'][(r['k1'], r['k2'])] = freq
    return stats


# --- phase 1: category sets -------------------------------------------------


def _find_best_group(docs: Dict[str, List[str]], idx: int) -> Tuple[set, Optional[str]]:
    """Most frequent word at position idx (reference category_set.py:75-87);
    ties broken deterministically by (count desc, word asc)."""
    word_counts = Counter()
    for toks in docs.values():
        if len(toks) > idx and len(toks) >= -idx:
            word_counts[toks[idx]] += 1
    if not word_counts:
        return set(), None
    best = min(word_counts.items(), key=lambda x: (-x[1], x[0]))[0]
    grp = {c for c, toks in docs.items()
           if len(toks) > idx and len(toks) >= -idx and toks[idx] == best}
    return grp, best


def find_child_sets(parent: str, docs: Dict[str, List[str]],
                    current_pattern=((), ())) -> List[dict]:
    """Recursive affix grouping (reference category_set.py:45-72)."""
    if len(docs) < 2:
        return []
    front_grp, front_word = _find_best_group(docs, len(current_pattern[0]))
    back_grp, back_word = _find_best_group(docs, -len(current_pattern[1]) - 1)
    if len(front_grp) >= len(back_grp):
        grp, new_pattern = front_grp, (current_pattern[0] + (front_word,), current_pattern[1])
    else:
        grp, new_pattern = back_grp, (current_pattern[0], (back_word,) + current_pattern[1])
    count = len(grp)
    score = count / len(docs)
    if count < 2 or score < 0.5:
        if current_pattern[0] or current_pattern[1]:
            return [{'parent': parent, 'children': sorted(docs),
                     'first_words': list(current_pattern[0]),
                     'last_words': list(current_pattern[1])}]
        return []
    grouped = {c: d for c, d in docs.items() if c in grp}
    ungrouped = {c: d for c, d in docs.items() if c not in grp}
    return (find_child_sets(parent, grouped, new_pattern)
            + find_child_sets(parent, ungrouped, current_pattern))


def category_sets(categories_ds):
    """(cat_name, parent_cat) Dataset → candidate-set rows
    (parent, children:list, first_words:list, last_words:list)."""
    pairs = two_phase_count(categories_ds, ['cat_name', 'parent_cat'], 'cnt') \
        .drop_columns(['cnt'])

    def per_parent(g: pd.DataFrame) -> pd.DataFrame:
        parent = g.iloc[0]['parent_cat']
        docs = {c: tokenize(remove_by_phrase(c)) for c in g['cat_name']}
        sets_ = find_child_sets(parent, docs)
        if not sets_:
            return pd.DataFrame({'parent': pd.Series(dtype='object'),
                                 'children': pd.Series(dtype='object'),
                                 'first_words': pd.Series(dtype='object'),
                                 'last_words': pd.Series(dtype='object')})
        return pd.DataFrame(sets_)

    return pairs.groupby('parent_cat').map_groups(per_parent, batch_format='pandas')


# --- phase 2: pattern mining ------------------------------------------------


def build_type_lexicalisations(facts_ds) -> Dict[str, str]:
    """word → type map from KB type names (stand-in for the reference's
    Hearst-derived type lexicalisations, nif_parser.py:18-63): the lowercase
    type name and naive plural forms lexicalise the type. Only the DISTINCT
    type names (a small dim) reach the driver — never the fact rows."""
    from .relational import arrow_filter
    type_rows = collect_rows(two_phase_count(
        arrow_filter(facts_ds, lambda t: pc.equal(t['pred'], 'rdf:type')),
        ['obj'], 'cnt'))
    types = {r['obj'] for r in type_rows}
    lex: Dict[str, str] = {}
    irregular = {'Person': ['person', 'people', 'persons']}
    for t in sorted(types):
        words = irregular.get(t)
        if words is None:
            w = t.lower()
            words = [w]
            if w.endswith('y'):
                words.append(w[:-1] + 'ies')
            elif w.endswith(('s', 'x', 'ch', 'sh')):
                words.append(w + 'es')
            else:
                words.append(w + 's')
        for w in words:
            lex[w] = t
    return lex


def _type_surface_scores(words: Sequence[str], lex: Dict[str, str]) -> Dict[str, float]:
    """Reference cat2ax.py:164-182 simplified to the word→type lex map:
    matched types get score max(share, 1/len(words))."""
    scores: Counter = Counter()
    for w in words:
        t = lex.get(w.lower())
        if t:
            scores[t] += 1.0
    total = sum(scores.values())
    out = {t: s / total for t, s in scores.items()}
    if words:
        floor = 1 / len(words)
        for w in words:
            t = lex.get(w.lower())
            if t:
                out[t] = max(out.get(t, 0.0), floor)
    return out


def extract_patterns(sets_rows: List[dict], cat_stats: Dict[str, dict],
                     lex: Dict[str, str]) -> Dict[Tuple[tuple, tuple], dict]:
    """Reference cat2ax.py:100-139: per candidate set take the
    median-positive predicate/type evidence. Driver-side over the (small)
    candidate-set list; per-set work uses the broadcast stats."""
    patterns: Dict[Tuple[tuple, tuple], dict] = defaultdict(
        lambda: {'preds': defaultdict(list), 'types': defaultdict(list)})
    for cs in sets_rows:
        first_words = list(cs['first_words'])
        last_words = list(cs['last_words'])
        pred_freqs: Dict[str, List[float]] = defaultdict(list)
        type_freqs: Dict[str, List[float]] = defaultdict(list)
        tss = _type_surface_scores(first_words + last_words, lex)
        matched = []
        for cat in cs['children']:
            if cat not in cat_stats:
                continue
            toks = tokenize(remove_by_phrase(cat))
            match = ' '.join(toks[len(first_words):len(toks) - len(last_words)])
            if not match:
                continue
            matched.append((cat, match))
        count = len(matched)
        for cat, match in matched:
            st = cat_stats[cat]
            for (p, v), freq in st['props'].items():
                if v == match:  # surface score 1.0 for exact value match
                    pred_freqs[p].append(freq)
            for t, tf in st['types'].items():
                if t in tss:
                    type_freqs[t].append(tf * tss[t])
        key = (tuple(first_words), tuple(last_words))
        if pred_freqs:
            padded = {p: f + [0.0] * (count - len(f)) for p, f in pred_freqs.items()}
            p, freqs = max(padded.items(), key=lambda x: (float(np.median(x[1])), x[0]))
            med = float(np.median(freqs))
            if med > 0:
                patterns[key]['preds'][p].extend([med] * count)
        if type_freqs:
            padded = {t: f + [0.0] * (count - len(f)) for t, f in type_freqs.items()}
            max_med = max(float(np.median(f)) for f in padded.values())
            if max_med > 0:
                for t, f in padded.items():
                    if float(np.median(f)) >= max_med:
                        patterns[key]['types'][t].extend([max_med] * count)
    return dict(patterns)


# --- phase 3: tries + application -------------------------------------------

MARKER_HIT = '__hit__'
MARKER_REVERSE = '__rev__'


def _confidence_patterns(patterns: Dict[tuple, dict], has_front: bool,
                         has_back: bool) -> Dict[tuple, dict]:
    """Normalize evidence counts to confidences (reference cat2ax.py:213-225)."""
    out = {}
    for (front, back), ap in patterns.items():
        if bool(front) == has_front and bool(back) == has_back:
            preds_sum = sum(len(f) for f in ap['preds'].values())
            types_sum = sum(len(f) for f in ap['types'].values())
            out[(front, back)] = {
                'preds': {p: len(f) / preds_sum for p, f in ap['preds'].items()} if preds_sum else {},
                'types': {t: len(f) / types_sum for t, f in ap['types'].items()} if types_sum else {},
            }
    return out


def _fill_trie(trie: dict, front: list, back: list, leaf: dict):
    node = trie
    for w in front:
        node = node.setdefault(w, {})
    if back:
        node = node.setdefault(MARKER_REVERSE, {})
        for w in reversed(back):
            node = node.setdefault(w, {})
    node[MARKER_HIT] = leaf


def build_pattern_tries(patterns: Dict[tuple, dict]) -> Tuple[dict, dict, dict]:
    """front / back / enclosing tries (reference cat2ax.py:191-202)."""
    front_trie, back_trie, enclosing_trie = {}, {}, {}
    for (f, b), ap in _confidence_patterns(patterns, True, False).items():
        _fill_trie(front_trie, list(f), [], ap)
    for (f, b), ap in _confidence_patterns(patterns, False, True).items():
        _fill_trie(back_trie, [], list(b), ap)
    for (f, b), ap in _confidence_patterns(patterns, True, True).items():
        _fill_trie(enclosing_trie, list(f), list(b), ap)
    return front_trie, back_trie, enclosing_trie


def _detect(trie: dict, words: List[str]):
    """Longest-prefix walk (reference cat2ax.py:309-324): returns
    (axiom_patterns, (front_len, back_len)) or (None, None)."""
    node, length = trie, 0
    for w in words:
        if w in node:
            node = node[w]
            length += 1
            continue
        break
    if MARKER_HIT in node and length < len(words):
        return node[MARKER_HIT], (length, 0)
    if MARKER_REVERSE in node:
        rnode, rlength = node[MARKER_REVERSE], 0
        for w in reversed(words[length:]):
            if w in rnode:
                rnode = rnode[w]
                rlength += 1
                continue
            break
        if MARKER_HIT in rnode and length + rlength < len(words):
            return rnode[MARKER_HIT], (length, rlength)
    return None, None


def apply_patterns_to_label(cat: str, tries: Tuple[dict, dict, dict],
                            stats: Optional[dict], lex: Dict[str, str],
                            pattern_conf: float = CAT2AX_PATTERN_CONF) -> List[dict]:
    """All axioms for one category label (reference cat2ax.py:245-346)."""
    words = tokenize(remove_by_phrase(cat))
    if not words or stats is None:
        return []
    prop_axioms, type_axioms = [], []
    for trie in tries:
        ap, lengths = _detect(trie, words)
        if not ap:
            continue
        fl, bl = lengths
        diff_words = words[fl:len(words) - bl] if bl else words[fl:]
        text_diff = ' '.join(diff_words)
        words_same = words[:fl] + (words[len(words) - bl:] if bl else [])
        # property axioms: value must equal the variable part
        best = None
        for (p, v), freq in stats['props'].items():
            if v == text_diff and p in ap['preds']:
                score = freq * ap['preds'][p]
                if best is None or score > best[2]:
                    best = (p, v, score)
        if best and best[2] >= pattern_conf:
            prop_axioms.append(best)
        # type axioms
        tss = _type_surface_scores(words_same, lex)
        tbest = None
        for t, freq in stats['types'].items():
            if t in ap['types'] and t in tss:
                score = freq * ap['types'][t] * tss[t]
                if tbest is None or score > tbest[1]:
                    tbest = (t, score)
        if tbest and tbest[1] >= pattern_conf:
            type_axioms.append(tbest)
    out = []
    by_pred: Dict[str, Tuple[str, str, float]] = {}
    for (p, v, s) in prop_axioms:
        if p not in by_pred or s > by_pred[p][2]:
            by_pred[p] = (p, v, s)
    for p, v, s in by_pred.values():
        out.append({'cat_name': cat, 'axiom': 'prop', 'pred': p, 'value': v,
                    'confidence': round(s, 6)})
    if type_axioms:
        t, s = max(type_axioms, key=lambda x: x[1])
        out.append({'cat_name': cat, 'axiom': 'type', 'pred': 'rdf:type',
                    'value': t, 'confidence': round(s, 6)})
    return out


def extract_axioms(categories_ds, membership_ds, facts_ds,
                   pattern_conf: float = CAT2AX_PATTERN_CONF,
                   conceptual_only: bool = False):
    """Full Cat2Ax run → axioms Dataset (cat_name, axiom, pred, value,
    confidence). categories_ds: (cat_name, parent_cat); membership_ds:
    (cat_name, member); facts_ds: (subj, pred, obj, is_literal).

    ``conceptual_only`` applies the reference's conceptual-category filter
    (plural lexical head, M16 / category/graph.py:62-71) before mining."""
    import ray.data as rd

    if conceptual_only:
        from ..functions.nlp import has_plural_head
        categories_ds = categories_ds.map_batches(
            lambda b: b[[has_plural_head(c) for c in b['cat_name']]],
            batch_format='pandas')

    stats = category_statistics(membership_ds, facts_ds)
    lex = build_type_lexicalisations(facts_ds)
    sets_rows = collect_rows(category_sets(categories_ds))
    patterns = extract_patterns(sets_rows, stats, lex)
    tries = build_pattern_tries(patterns)
    state_ref = ray.put((tries, stats, lex))

    cats = two_phase_count(categories_ds, ['cat_name'], 'cnt').drop_columns(['cnt'])

    def apply_batch(batch: pd.DataFrame) -> pd.DataFrame:
        tries_, stats_, lex_ = get_broadcast(state_ref)
        rows: List[dict] = []
        for cat in batch['cat_name']:
            rows.extend(apply_patterns_to_label(cat, tries_, stats_.get(cat), lex_,
                                                pattern_conf))
        if not rows:
            return pd.DataFrame({'cat_name': pd.Series(dtype='object'),
                                 'axiom': pd.Series(dtype='object'),
                                 'pred': pd.Series(dtype='object'),
                                 'value': pd.Series(dtype='object'),
                                 'confidence': pd.Series(dtype='float64')})
        return pd.DataFrame(rows)

    return cats.map_batches(apply_batch, batch_format='pandas',
                            batch_size=AGG_BATCH_SIZE)


def literal_flags_for_pairs(facts_ds, pairs) -> Dict[Tuple[str, str], bool]:
    """(pred, obj) → is_literal for a SMALL set of pairs, looked up in the
    fact table with a broadcast filter (only matching rows leave the
    cluster). Lets axiom materialization emit mined literal values as
    literal triples, exactly as the facts state them."""
    from .relational import two_phase_count
    if not pairs:
        return {}
    pairs_ref = ray.put(set(pairs))

    def flags(batch: pd.DataFrame) -> pd.DataFrame:
        pp = get_broadcast(pairs_ref)
        keep = pd.Series([k in pp for k in zip(batch['pred'], batch['obj'])],
                         index=batch.index)
        b = batch[keep]
        return pd.DataFrame({'pred': b['pred'], 'value': b['obj'],
                             'lit': b['is_literal'].astype(bool)})

    rows = collect_rows(two_phase_count(
        facts_ds.map_batches(flags, batch_format='pandas'),
        ['pred', 'value', 'lit'], 'n'))
    return {(r['pred'], r['value']): bool(r['lit']) for r in rows}


def axioms_to_triples(axioms_ds, membership_ds, facts_ds=None):
    """Materialize axioms onto category members (entity.py:134-153):
    (member, pred, value) for each member of an axiom'd category. With
    ``facts_ds`` the mined values inherit the literal flag of the facts
    they were mined from; without it every axiom emits as a resource."""
    ax_rows = collect_rows(axioms_ds)
    lit_map = literal_flags_for_pairs(
        facts_ds, {(a['pred'], a['value']) for a in ax_rows}) \
        if facts_ds is not None else {}
    by_cat: Dict[str, List[dict]] = defaultdict(list)
    for a in ax_rows:
        by_cat[a['cat_name']].append(a)
    ref = ray.put((dict(by_cat), lit_map))

    def emit(batch: pd.DataFrame) -> pa.Table:
        axioms, lits = get_broadcast(ref)
        subj, pred, obj, lit = [], [], [], []
        for cat, member in zip(batch['cat_name'], batch['member']):
            for a in axioms.get(cat, ()):  # axioms per member's category
                subj.append(member)
                pred.append(a['pred'])
                obj.append(a['value'])
                lit.append(lits.get((a['pred'], a['value']), False))
        from .triples import TRIPLES_SCHEMA
        return pa.Table.from_pydict({'subj': subj, 'pred': pred, 'obj': obj,
                                     'is_literal': lit}, schema=TRIPLES_SCHEMA)

    return membership_ds.map_batches(emit, batch_format='pandas',
                                     batch_size=AGG_BATCH_SIZE)
