"""Surface-form alias counts + most-frequent-entity linking (north-star
ST9/J1/A2/D2).

Counts (A2, reference impl/dbpedia/resource.py:173-194): ``alias_counts``
counts (norm_surface, entity) pairs over all wikilink mentions with a
two-phase aggregate — partial counts inside ``map_batches`` (one row per
key per batch, bounding shuffle volume by #batches × #distinct-keys-per-
batch even for head surfaces like 'United States') followed by a small
``groupby().sum()``.

Linking (J1, reference wikimarkup_parser.py:50-59): ``link_mentions_join``
resolves unlinked mentions to the most frequent entity of their surface
form with no index object at all — one exchange on norm_surface, and each
bucket counts, takes the argmax and links its own rows
(``link_surface_bucket``), emitting the surface representative the
alignment edges need on the way.

Scored rows take ``surface_rep`` from the same exchange, linking nothing
(``with_surface_rep``), so both linkers emit one contract; no other module
calls ``link_surface_bucket``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import TOKEN_BATCH_SIZE
from ..functions.hashing import stable_hash64
from ..functions.strings import normalize_surface_array

MENTIONS_SCHEMA = pa.schema([
    ('mention_uid', pa.int64()),
    ('url', pa.string()),
    ('page_id', pa.int64()),
    ('listing_idx', pa.int32()),
    ('item_idx', pa.int32()),
    ('mention_idx', pa.int32()),
    ('topsection', pa.string()),    # listing context carried through (J2)
    ('section', pa.string()),
    ('name', pa.string()),          # linked target or null
    ('label', pa.string()),
    ('norm_surface', pa.string()),
    ('is_subject', pa.bool_()),     # deterministic subject-entity heuristic
])


def _explode_mentions_batch(batch: pa.Table) -> pa.Table:
    """Item rows → mention rows, vectorized with Arrow list kernels
    (list_flatten + parent indices + take); only the uid hash runs per row
    (blake2b — the deterministic universal-key contract). The
    subject-entity heuristic (deterministic stand-in for the reference's
    transformer mention detector ST3, mention_detection/__init__.py): the
    first mention starting at token 0 of a depth-1 item with a valid label
    is the item's subject entity."""
    import pyarrow.compute as pc
    mcol = batch.column('mentions')
    if mcol.num_chunks != 1:
        mcol = mcol.combine_chunks()
    marr = mcol.chunk(0) if isinstance(mcol, pa.ChunkedArray) else mcol
    flat = pc.list_flatten(marr)
    parents = pc.list_parent_indices(marr).to_numpy(zero_copy_only=False)
    total = len(flat)
    if total == 0:
        return pa.Table.from_pydict({n: [] for n in MENTIONS_SCHEMA.names},
                                    schema=MENTIONS_SCHEMA)
    lengths = pc.list_value_length(marr).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths.astype(np.float64)).astype(np.int64)
    # mention index within its item: arange minus each segment's start
    starts_of_seg = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    mention_idx = np.arange(total, dtype=np.int64) - np.repeat(starts_of_seg, lengths)

    names = flat.field('name')
    labels = flat.field('label')
    m_start = flat.field('start').to_numpy(zero_copy_only=False)

    def take_col(col_name):
        c = batch.column(col_name)
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        return c.take(pa.array(parents))

    urls = take_col('url')
    depth_taken = take_col('depth').to_numpy(zero_copy_only=False)

    # valid entity label, vectorized (len > 2, not purely numeric)
    valid = pc.and_(
        pc.greater(pc.utf8_length(labels), 3 - 1),
        pc.invert(pc.match_substring_regex(labels, r'^\d+([.,]\d+)*$'))
    ).to_numpy(zero_copy_only=False)
    valid = np.nan_to_num(valid.astype(np.float64)).astype(bool)
    candidate = valid & (m_start == 0) & (depth_taken == 1)

    # first candidate per item: min mention_idx among candidates per segment
    BIG = np.int64(1 << 62)
    cand_idx = np.where(candidate, mention_idx, BIG)
    nonempty = lengths > 0
    if nonempty.any():
        seg_min = np.minimum.reduceat(cand_idx, starts_of_seg[nonempty])
        min_per_parent = np.full(len(lengths), BIG)
        min_per_parent[nonempty] = seg_min
    else:
        min_per_parent = np.full(len(lengths), BIG)
    is_subject = candidate & (mention_idx == min_per_parent[parents])

    # per-row uid hash (deterministic key contract; cheap vs parse cost)
    url_list = urls.to_pylist()
    li_list = take_col('listing_idx').to_pylist()
    ii_list = take_col('item_idx').to_pylist()
    uids = np.fromiter(
        (stable_hash64(f'{u}#{li}#{ii}#{mi}')
         for u, li, ii, mi in zip(url_list, li_list, ii_list, mention_idx)),
        dtype=np.int64, count=total)

    return pa.Table.from_pydict({
        'mention_uid': pa.array(uids, pa.int64()),
        'url': urls,
        'page_id': take_col('page_id'),
        'listing_idx': take_col('listing_idx'),
        'item_idx': take_col('item_idx'),
        'mention_idx': pa.array(mention_idx, pa.int32()),
        'topsection': take_col('topsection'),
        'section': take_col('section'),
        'name': names,
        'label': labels,
        'norm_surface': normalize_surface_array(labels),
        'is_subject': pa.array(is_subject),
    }, schema=MENTIONS_SCHEMA)


def explode_mentions(items_ds):
    """items Dataset → mention rows Dataset (stateless map_batches)."""
    return items_ds.map_batches(_explode_mentions_batch, batch_format='pyarrow',
                                batch_size=TOKEN_BATCH_SIZE)


def _partial_alias_counts(batch: pa.Table) -> pa.Table:
    """Phase-1 combiner: per-batch (norm_surface, name) counts."""
    t = batch.select(['norm_surface', 'name'])
    t = t.filter(pc.and_kleene(pc.is_valid(t.column('name')),
                               pc.not_equal(t.column('norm_surface'), pa.scalar(''))))
    if t.num_rows == 0:
        return pa.Table.from_pydict({'norm_surface': pa.array([], pa.string()),
                                     'name': pa.array([], pa.string()),
                                     'cnt': pa.array([], pa.int64())})
    grouped = t.group_by(['norm_surface', 'name']).aggregate([([], 'count_all')])
    return grouped.rename_columns(['norm_surface', 'name', 'cnt'])


def alias_counts(mentions_ds):
    """(norm_surface, name, freq) Dataset via two-phase aggregation
    (arrow partial combine per batch, coarse-bucket final merge)."""
    from .relational import two_phase_pandas_agg
    # batch_size=None: whole blocks, zero-copy from plasma — an explicit
    # batch_size re-slices materialized blocks, which costs ~25% of this
    # scan at 2M pages for a kernel whose output is tiny either way
    partial = mentions_ds.map_batches(_partial_alias_counts, batch_format='pyarrow',
                                      batch_size=None)
    return two_phase_pandas_agg(partial, ['norm_surface', 'name'],
                                {'freq': ('cnt', 'sum')})


# --- linking inside one norm_surface exchange ------------------------------

def _alias_order(codes: np.ndarray, freqs: np.ndarray,
                 names: np.ndarray) -> np.ndarray:
    """Candidate-row order (surface code, freq desc, name asc): each
    surface's alias argmax heads its run. Names compare as Python strings;
    pandas' multi-key sort factorizes them through a path that truncates at
    an embedded NUL and orders NUL-distinct keys arbitrarily."""
    o = np.argsort(names, kind='stable')
    return o[np.lexsort((-freqs[o], codes[o]))]


def link_surface_bucket(t: pa.Table, link: bool = True) -> pa.Table:
    """A ``norm_surface`` bucket of mention rows (each surface whole) → the
    rows plus ``surface_rep`` (the surface's min mention_uid; '' and null
    are surfaces too) and, with ``link``, (entity, link_score): wikilinked
    rows keep their target at 1.0, the others take the surface's alias
    argmax at freq/total (surface '' has none, as in ``alias_counts``) or
    stay NIL. Groups are Arrow dictionary codes, which
    hash bytes, so NUL-distinct keys never merge."""
    surf = pc.dictionary_encode(t.column('norm_surface').combine_chunks(),
                                null_encoding='encode')
    code = surf.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_surf = len(surf.dictionary)
    rep = np.full(n_surf, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, code, t.column('mention_uid').to_numpy())
    if link:
        names = t.column('name').combine_chunks().cast(pa.string())
        linked = pc.is_valid(names).to_numpy(zero_copy_only=False)
        usable = pc.fill_null(pc.not_equal(surf.dictionary, ''), False) \
            .to_numpy(zero_copy_only=False)
        cand = linked & usable[code]
        top_idx = np.full(n_surf, -1, dtype=np.int64)
        top_score = np.zeros(n_surf)
        name_dict = pa.array([], pa.string())
        if cand.any():
            enc = pc.dictionary_encode(names.filter(pa.array(cand)))
            name_dict = enc.dictionary
            n_names = len(name_dict)
            pairs, freq = np.unique(
                code[cand] * n_names + enc.indices.to_numpy(zero_copy_only=False),
                return_counts=True)
            ps, pn = pairs // n_names, pairs % n_names
            total = np.zeros(n_surf, dtype=np.int64)
            np.add.at(total, ps, freq)
            o = _alias_order(ps, freq,
                             np.asarray(name_dict.to_pylist(), dtype=object)[pn])
            first = o[np.r_[True, ps[o][1:] != ps[o][:-1]]]
            top_idx[ps[first]] = pn[first]
            top_score[ps[first]] = freq[first] / total[ps[first]]
        top_name = name_dict.take(pa.array(top_idx, mask=top_idx < 0))
        t = t.append_column('entity', pc.if_else(
            pa.array(linked), names, top_name.take(pa.array(code))))
        t = t.append_column('link_score', pa.array(
            np.where(linked, 1.0, top_score[code]), pa.float64()))
    return t.append_column('surface_rep', pa.array(rep[code], pa.int64()))


def link_mentions_join(mentions_ds):
    """mention rows → + (entity, link_score, surface_rep), linked WITHOUT
    a driver-side index in ONE norm_surface exchange whose buckets link
    their own rows (``link_surface_bucket``). ``surface_rep`` is what
    ``canonicalize.build_alignment_edges`` builds the star edges from, with
    no further exchange (reference resource.py:173-194 semantics,
    distributed)."""
    from .relational import bucketed_map
    return bucketed_map(mentions_ds, ['norm_surface'], link_surface_bucket,
                        batch_format='pyarrow')


def with_surface_rep(linked_ds):
    """Linked rows → + ``surface_rep``, in one norm_surface exchange that
    links nothing. A map in front of it (the scored linker) fuses into
    its keying map, so it runs once per block before the shuffle."""
    from .relational import bucketed_map
    return bucketed_map(linked_ds, ['norm_surface'],
                        lambda t: link_surface_bucket(t, link=False),
                        batch_format='pyarrow')


def edge_rows(linked_ds):
    """Linked rows of any origin → the four columns the alignment edges
    read + ``surface_rep`` (``edin_clusters``, the nastylinker matcher)."""
    return with_surface_rep(linked_ds.select_columns(
        ['mention_uid', 'norm_surface', 'entity', 'link_score']))
