"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup (SURVEY.md §2.7 + training-data additions).

Shapes:
* exact      — content-hash column → hash-partition groupby → min-id rep
* minhash    — signature per doc (stateless tasks, process-cached params)
               → explode (band, bucket) rows → bucket groupby → candidate
               pairs → Jaccard verify → connected components →
               (doc_id, dup_group)
* simhash    — 64-bit signature → bucket by 4×16-bit sub-keys (hamming≤3
               guarantees a shared sub-key) → verify hamming → CC
* ngram      — exact shingle-anchor buckets (pigeonhole-lossless) →
               exact Jaccard verify
* embedding  — EXACT block-pair matmul tasks over object-store blocks
               (never a driver-side matrix); approximate sub-quadratic
               variant via random-hyperplane LSH buckets
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import (AGG_BATCH_SIZE, EMBEDDING_DUP_COSINE, MINHASH_BANDS,
                      MINHASH_NUM_PERM, MINHASH_SHINGLE_SIZE,
                      NGRAM_JACCARD_THRESHOLD, SIMHASH_HAMMING_THRESHOLD)
from ..functions.hashing import MinHasher, hamming64, jaccard, simhash64, stable_hash64
from .canonicalize import _UnionFind


def exact_dedup(docs_ds, id_col: str = 'doc_id', text_col: str = 'text'):
    """(text_hash, rep_id): one representative (min id) per identical text.
    Per-batch partial min bounds shuffle volume; coarse-bucket final merge."""
    import hashlib
    from .relational import two_phase_pandas_agg

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'text_hash': [hashlib.md5(t.encode('utf-8')).hexdigest() for t in batch[text_col]],
            id_col: batch[id_col],
        })

    hashed = docs_ds.map_batches(add_hash, batch_format='pandas', batch_size=AGG_BATCH_SIZE)
    return two_phase_pandas_agg(hashed, ['text_hash'], {'rep_id': (id_col, 'min')})


_MH_CACHE: dict = {}


def _get_minhasher(num_perm=MINHASH_NUM_PERM, shingle=MINHASH_SHINGLE_SIZE,
                   bands=MINHASH_BANDS, shingle_hash=None) -> MinHasher:
    """Process-local MinHasher cache: permutation params built once per
    worker process (actor-style amortization with task-pool elasticity)."""
    key = (num_perm, shingle, bands, getattr(shingle_hash, '__name__', None))
    if key not in _MH_CACHE:
        _MH_CACHE[key] = MinHasher(num_perm, shingle, bands,
                                   shingle_hash=shingle_hash)
    return _MH_CACHE[key]


def minhash_signatures(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
                       shingle_hash=None):
    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        mh = _get_minhasher(shingle_hash=shingle_hash)
        sigs = [mh.signature([t for t in text.split(' ') if t]).astype(np.int64)
                for text in batch[text_col]]
        return pd.DataFrame({id_col: batch[id_col], 'sig': sigs})

    # stateless tasks: parallelism follows block count, no actor-pool cap
    return docs_ds.map_batches(sign, batch_format='pandas',
                               batch_size=AGG_BATCH_SIZE)


def _candidate_pairs_from_buckets(sig_ds, id_col: str, band_fn, verify_fn,
                                  max_bucket: int = 1000,
                                  sig_dtype: str = 'uint64'):
    """Shared LSH shape: explode (bucket_key:int64, id, payload:binary) →
    one coarse arrow-native exchange → singleton buckets dropped vectorized
    → per-bucket pairwise verify.

    The exchange rows stay ARROW end-to-end: int64 bucket keys (``band_fn``
    returns an int64 array per signature) and signatures packed to binary
    (``np.asarray(sig).tobytes()``), so blocks are zero-copy in plasma and
    no list-of-array pandas columns travel the wire. ``verify_fn`` receives
    the two signatures re-materialized as ``np.frombuffer(.., sig_dtype)``.

    Buckets are capped (sorted by id, deterministic): an over-full bucket
    means a degenerate key; only the first max_bucket members pair up —
    same contract as salting a hot key. Truncations are never silent: each
    is logged with bucket key and the dropped-member count (the repo's
    no-silent-caps rule)."""
    import logging
    from .relational import bucket_exchange, bucketed_map, default_coarse
    coarse = default_coarse()

    def explode(batch: pd.DataFrame) -> pa.Table:
        ids = batch[id_col].to_numpy()
        sig_list = list(batch['sig'])
        all_keys = [np.asarray(band_fn(s), dtype=np.int64) for s in sig_list]
        counts = np.fromiter((len(k) for k in all_keys), dtype=np.int64,
                             count=len(all_keys))
        payload = np.array([np.asarray(s).tobytes() for s in sig_list],
                           dtype=object)
        buckets = (np.concatenate(all_keys) if all_keys
                   else np.array([], dtype=np.int64))
        return pa.Table.from_pydict({
            id_col: pa.array(np.repeat(ids, counts).astype(np.int64)),
            'bucket': pa.array(buckets, pa.int64()),
            '_coarse': pa.array((buckets % coarse).astype(np.int32)),
            'sig': pa.array(list(np.repeat(payload, counts)), pa.binary()),
        })

    def pairs(g: pd.DataFrame) -> Optional[pd.DataFrame]:
        if len(g) < 2:
            return None
        g = g.drop_duplicates(subset=[id_col]).sort_values(id_col)
        if len(g) > max_bucket:
            logging.getLogger('caligraph_ray.dedup').warning(
                'LSH bucket %r truncated: %d of %d members dropped '
                '(degenerate key; raise max_bucket or salt upstream)',
                g['bucket'].iloc[0], len(g) - max_bucket, len(g))
            g = g.head(max_bucket)
        ids = g[id_col].to_numpy()
        sigs = [np.frombuffer(b, dtype=sig_dtype) for b in g['sig']]
        a_out, b_out, score_out = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                ok, score = verify_fn(sigs[i], sigs[j])
                if ok:
                    a_out.append(int(ids[i])); b_out.append(int(ids[j])); score_out.append(score)
        return pd.DataFrame({'a': np.array(a_out, dtype=np.int64),
                             'b': np.array(b_out, dtype=np.int64),
                             'score': np.array(score_out, dtype=np.float64)})

    def pairs_bucket(coarse_g: pd.DataFrame) -> pd.DataFrame:
        # almost every LSH bucket is a singleton — drop those VECTORIZED
        # before the per-group Python loop (a per-group call on tens of
        # thousands of 1-row groups costs more than the real pair work)
        dedup = coarse_g.drop_duplicates(subset=['bucket', id_col])
        sizes = dedup['bucket'].map(dedup['bucket'].value_counts())
        hot = dedup[sizes.to_numpy() >= 2]
        if not len(hot):
            return pd.DataFrame()
        outs = [pairs(sub) for _, sub in hot.groupby('bucket', sort=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            return pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    # the exchange: _coarse is already on the rows (computed arrow-side in
    # explode), so the exchange skips the pandas re-keying pass entirely
    found = bucket_exchange(
        sig_ds.map_batches(explode, batch_format='pandas',
                           batch_size=AGG_BATCH_SIZE),
        pairs_bucket, coarse=coarse)
    # cross-band duplicates of the same pair → keep one (coarse bucketed dedup)
    return bucketed_map(found, ['a', 'b'],
                        lambda b: b.drop_duplicates(subset=['a', 'b']))


def minhash_candidate_pairs(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
                            jaccard_threshold: float = NGRAM_JACCARD_THRESHOLD,
                            shingle_hash=None):
    """MinHash-LSH near-dup candidate pairs verified by estimated Jaccard.
    With the default 16 bands × 4 rows and threshold 0.8, banding is
    LOSSLESS for accepted pairs (est ≥ 0.8 → ≤ 12 unequal rows → ≥ 4 clean
    bands → always a candidate), so the SQL oracle can skip the banding and
    compare estimated Jaccard directly."""
    mh = MinHasher(MINHASH_NUM_PERM, MINHASH_SHINGLE_SIZE, MINHASH_BANDS)
    sigs = minhash_signatures(docs_ds, id_col, text_col, shingle_hash=shingle_hash)

    def band_fn(sig):
        bh = mh.band_hashes(np.asarray(sig, dtype=np.uint64)).astype(np.uint64)
        # salt each band index into its key so equal hashes in different
        # bands never collide (splitmix golden-ratio multiplier, wrapping)
        salt = np.arange(len(bh), dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return (bh ^ salt).astype(np.int64)

    def verify(sa, sb):
        est = MinHasher.estimate_jaccard(sa, sb)
        return est >= jaccard_threshold, est

    return _candidate_pairs_from_buckets(sigs, id_col, band_fn, verify,
                                         sig_dtype='uint64')


def pairs_to_groups(pairs_ds, all_ids: Optional[List[int]] = None,
                    driver_limit: Optional[int] = None) -> pd.DataFrame:
    """Candidate pairs → (id, group); group = min member id.

    Size-gated (measured pair count vs ``PAIR_GROUPS_DRIVER_LIMIT``): small
    pair sets take the driver union-find fast path; above the gate the pair
    Dataset routes through the adaptive distributed contraction of
    ``connected_components`` (canonicalize.py ``_forest_tail`` — passes
    until the spanning-forest tail fits the driver), because near-dup
    pairs scale WITH a web corpus and an O(N)-edge driver collect is a scale-killer.
    Both regimes label a component by its min member id, so outputs are
    identical (equality-pinned by test_dedup_scale_guards). Unpaired ids
    become singleton groups when ``all_ids`` is given."""
    if driver_limit is None:
        from ..config import PAIR_GROUPS_DRIVER_LIMIT
        driver_limit = PAIR_GROUPS_DRIVER_LIMIT
    from .relational import collect_rows
    mat = pairs_ds.materialize()
    members: set = set(all_ids) if all_ids else set()
    if mat.count() > driver_limit:
        from .canonicalize import _driver_components, _forest_tail

        def as_edges(t: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {'src': t.column('a').cast(pa.int64()),
                 'dst': t.column('b').cast(pa.int64())})

        # above this gate the raw pairs never reach the driver, even when
        # they would fit connected_components' own driver_limit: they are
        # always contracted first, and the tail is held to that limit's
        # default (tests force this gate to 0 to pin regime equality; a 0
        # tail budget would always raise)
        comp = _driver_components(_forest_tail(
            mat.map_batches(as_edges, batch_format='pyarrow')))
        members.update(comp)
        # component ROOTS are absent from the CC dict's keys (union-find
        # parent records losers only) but present as its values — a root's
        # group is itself, which comp.get(i, i) below yields
        members.update(comp.values())
        rows = sorted((i, comp.get(i, i)) for i in members)
        return pd.DataFrame({'doc_id': [r[0] for r in rows],
                             'group': [r[1] for r in rows]})
    uf = _UnionFind()
    for r in collect_rows(mat):
        a, b = int(r['a']), int(r['b'])
        uf.union(a, b)
        # track every paired node explicitly: uf.parent only records union
        # LOSERS, so component roots would otherwise be dropped
        members.add(a)
        members.add(b)
    rows = sorted((i, uf.find(i)) for i in members)
    return pd.DataFrame({'doc_id': [r[0] for r in rows], 'group': [r[1] for r in rows]})


def simhash_dedup_pairs(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
                        max_hamming: int = SIMHASH_HAMMING_THRESHOLD,
                        token_hash=None):
    """SimHash near-dup pairs: 4×16-bit sub-key bucketing (pigeonhole over
    hamming≤3) + exact hamming verify. ``token_hash=md5_hash64`` makes the
    signatures bit-identical to a DuckDB recomputation (md5_number_upper)."""
    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        sigs = [np.int64(simhash64([t for t in txt.split(' ') if t],
                                   hash_fn=token_hash) - (1 << 63))
                for txt in batch[text_col]]
        return pd.DataFrame({id_col: batch[id_col], 'sig': sigs})

    sig_ds = docs_ds.map_batches(sign, batch_format='pandas', batch_size=AGG_BATCH_SIZE)

    # NOTE: the int64↔uint64 offset must be pure-Python int arithmetic —
    # np.int64 + (1 << 63) silently promotes to float64 and corrupts the
    # low signature bits (wrong buckets AND wrong hamming)
    def band_fn(sig):
        h = int(sig) + (1 << 63)
        return np.array([(i << 16) | ((h >> (16 * i)) & 0xFFFF)
                         for i in range(4)], dtype=np.int64)

    def verify(sa, sb):
        d = hamming64(int(sa[0]) + (1 << 63), int(sb[0]) + (1 << 63))
        return d <= max_hamming, float(64 - d) / 64

    return _candidate_pairs_from_buckets(sig_ds, id_col, band_fn, verify,
                                         sig_dtype='int64')


def fingerprint_overlap_pairs(docs_ds, id_col: str = 'doc_id',
                              text_col: str = 'text', min_shared: int = 4,
                              window: int = 16, keep: int = 8, hash_fn=None):
    """Passage-level near-dup pairs via shared winnowing fingerprints (the
    MOSS candidate shape): each of a doc's ``keep`` fingerprints IS an LSH
    bucket key, and a candidate pair is kept when the EXACT fingerprint
    overlap reaches ``min_shared``. Rides the shared LSH machinery
    (arrow-native exchange, singleton-bucket vectorized drop, capped +
    logged degenerate buckets, cross-bucket pair dedup). Catches copied
    passages that whole-document MinHash misses at low overall similarity.
    ``hash_fn=md5_hash64`` makes the result DuckDB-replayable."""
    from .textstats import fingerprints
    fps = fingerprints(docs_ds, id_col=id_col, text_col=text_col,
                       window=window, keep=keep, hash_fn=hash_fn)

    def to_sigs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: b[id_col],
            'sig': [np.asarray(sorted(int(h) for h in fp), dtype=np.uint64)
                    for fp in b['fingerprint']]})

    sig_ds = fps.map_batches(to_sigs, batch_format='pandas',
                             batch_size=AGG_BATCH_SIZE)

    def band_fn(sig):
        # each fingerprint is its own bucket key (bit-reinterpret to int64)
        return np.asarray(sig, dtype=np.uint64).view(np.int64)

    def verify(sa, sb):
        shared = len(np.intersect1d(sa, sb))
        return shared >= min_shared, float(shared)

    return _candidate_pairs_from_buckets(sig_ds, id_col, band_fn, verify,
                                         sig_dtype='uint64')


def ngram_jaccard_pairs(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
                        n: int = MINHASH_SHINGLE_SIZE,
                        threshold: float = NGRAM_JACCARD_THRESHOLD):
    """Exact n-gram Jaccard near-dup pairs. Candidate generation via exact
    shingle-anchor buckets (rarest-shingle sampling), verification exact."""
    def shingle_sets(batch: pd.DataFrame) -> pd.DataFrame:
        sigs = []
        for text in batch[text_col]:
            toks = [t for t in text.split(' ') if t]
            if len(toks) < n:
                sh = {stable_hash64(' '.join(toks))}
            else:
                sh = {stable_hash64(' '.join(toks[i:i + n])) for i in range(len(toks) - n + 1)}
            sigs.append(np.array(sorted(sh), dtype=np.int64))
        return pd.DataFrame({id_col: batch[id_col], 'sig': sigs})

    sig_ds = docs_ds.map_batches(shingle_sets, batch_format='pandas', batch_size=AGG_BATCH_SIZE)

    def band_fn(sig):
        import math
        sh = np.asarray(sig)
        # prefix filtering: p = n - ceil(t*n) + 1 smallest shingles. The
        # epsilon guards float noise — int(n*(1-t))+1 under-counted by one
        # whenever t*n is an exact integer (n=10, t=0.8 → 2 instead of 3),
        # silently dropping pairs whose Jaccard EQUALS the threshold
        k = max(1, len(sh) - math.ceil(threshold * len(sh) - 1e-9) + 1)
        return sh[:k]

    def verify(sa, sb):
        a, b = set(map(int, sa)), set(map(int, sb))
        j = jaccard(a, b)
        return j >= threshold, j

    return _candidate_pairs_from_buckets(sig_ds, id_col, band_fn, verify,
                                         sig_dtype='int64')


def _pairs_from_sims(ids_a: np.ndarray, ids_b: np.ndarray, sims: np.ndarray,
                     threshold: float, same_block: bool) -> pd.DataFrame:
    """Vectorized (a<b, cosine≥threshold) extraction from a sim matrix.
    Within one block each unordered pair appears twice → keep a<b only;
    across blocks it appears once → reorder to (min, max)."""
    ii, jj = np.where(sims >= threshold)
    if len(ii) == 0:
        return pd.DataFrame({'a': np.array([], dtype=np.int64),
                             'b': np.array([], dtype=np.int64),
                             'cosine': np.array([], dtype=np.float64)})
    a = ids_a[ii]
    b = ids_b[jj]
    if same_block:
        mask = a < b
        lo, hi = a[mask], b[mask]
    else:
        mask = a != b
        lo = np.minimum(a[mask], b[mask])
        hi = np.maximum(a[mask], b[mask])
    sc = np.round(sims[ii, jj][mask], 6)
    return pd.DataFrame({'a': lo.astype(np.int64), 'b': hi.astype(np.int64),
                         'cosine': sc.astype(np.float64)})


def embedding_near_dup_pairs(emb_ds, id_col: str = 'vec_id', vec_col: str = 'embedding',
                             threshold: float = EMBEDDING_DUP_COSINE,
                             block_rows: int = 65536):
    """EXACT cosine ≥ threshold pairs (a<b), distributed block-pair matmuls.

    The dataset is normalized into Arrow blocks of ≤ block_rows vectors that
    stay in the object store (never collected to the driver, never broadcast
    whole); one Ray task per block pair (i ≤ j) does a single matmul and
    emits qualifying pairs. Exactness keeps the flops O(N²) but they spread
    over K(K+1)/2 independent tasks with O(block²) memory each — the
    brute-force baseline shape that survives any N. For sub-quadratic
    approximate near-dup at high thresholds use
    ``embedding_near_dup_pairs_lsh``. Raw Ray tasks are used here because
    the Dataset API has no self-cross-join; the partitioning assumption is
    only that one block pair fits a worker's heap."""
    import ray.data as rd

    def normalize_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict({
                'id': pa.array([], pa.int64()),
                'vec': pa.array([], pa.list_(pa.float64()))})
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in batch.column(vec_col).to_pylist()])
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        return pa.Table.from_pydict({
            'id': batch.column(id_col).cast(pa.int64()),
            'vec': pa.array(list(mat), pa.list_(pa.float64())),
        })

    normed = emb_ds.select_columns([id_col, vec_col]).map_batches(
        normalize_block, batch_format='pyarrow', batch_size=block_rows).materialize()
    block_refs = [br for bundle in normed.iter_internal_ref_bundles()
                  for br in bundle.block_refs]

    @ray.remote
    def pair_task(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ids_a = ta.column('id').to_numpy()
        mat_a = np.stack(ta.column('vec').to_numpy(zero_copy_only=False))
        if same:
            ids_b, mat_b = ids_a, mat_a
        else:
            ids_b = tb.column('id').to_numpy()
            mat_b = np.stack(tb.column('vec').to_numpy(zero_copy_only=False))
        sims = mat_a @ mat_b.T
        df = _pairs_from_sims(ids_a, ids_b, sims, threshold, same_block=same)
        return pa.Table.from_pydict({
            'a': pa.array(df['a'].to_numpy(), pa.int64()),
            'b': pa.array(df['b'].to_numpy(), pa.int64()),
            'cosine': pa.array(df['cosine'].to_numpy(), pa.float64())})

    refs = []
    for i in range(len(block_refs)):
        for j in range(i, len(block_refs)):
            refs.append(pair_task.remote(block_refs[i], block_refs[j], i == j))
    return rd.from_arrow_refs(refs)


def embedding_near_dup_pairs_auto(emb_ds, id_col: str = 'vec_id',
                                  vec_col: str = 'embedding',
                                  threshold: float = EMBEDDING_DUP_COSINE,
                                  block_rows: int = 65536,
                                  exact_max_blocks: Optional[int] = None):
    """Volume-gated near-dup router — the default entry point: EXACT
    block-pair matmuls while the corpus fits ``exact_max_blocks`` normalized
    blocks (task count K(K+1)/2 stays bounded), the sub-quadratic LSH
    variant above it, so the quadratic path can never silently ride to
    100 TB.
    The row count comes from dataset metadata (parquet row counts), not an
    extra execution. Routing is logged."""
    import logging

    from ..config import EMBEDDING_EXACT_MAX_BLOCKS
    if exact_max_blocks is None:
        exact_max_blocks = EMBEDDING_EXACT_MAX_BLOCKS
    n = emb_ds.count()
    n_blocks = -(-int(n) // block_rows) if n else 0
    if n_blocks > exact_max_blocks:
        logging.getLogger('caligraph_ray.dedup').warning(
            'embedding near-dup: %d blocks > exact budget %d — routing to '
            'the sub-quadratic LSH path (approximate; recall pinned in '
            'pytest at threshold ≥ 0.9)', n_blocks, exact_max_blocks)
        return embedding_near_dup_pairs_lsh(emb_ds, id_col=id_col,
                                            vec_col=vec_col,
                                            threshold=threshold)
    return embedding_near_dup_pairs(emb_ds, id_col=id_col, vec_col=vec_col,
                                    threshold=threshold,
                                    block_rows=block_rows)


def embedding_near_dup_pairs_lsh(emb_ds, id_col: str = 'vec_id',
                                 vec_col: str = 'embedding',
                                 threshold: float = EMBEDDING_DUP_COSINE,
                                 n_planes: int = 24, bands: int = 6):
    """Approximate sub-quadratic variant: random-hyperplane signatures split
    into bands; vectors sharing any band land in one LSH bucket and are
    exact-verified there (same groupby shape as the MinHash path; recall
    rises with bands, asserted in pytest at threshold ≥ 0.9)."""
    from .similarity import HyperplaneLSH

    rows_per_band = n_planes // bands

    def sign(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({id_col: pd.Series(dtype='int64'),
                                 'sig': pd.Series(dtype=object)})
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in batch[vec_col]])
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        lsh_key = ('hp', n_planes, mat.shape[1])
        if lsh_key not in _MH_CACHE:
            _MH_CACHE[lsh_key] = HyperplaneLSH(mat.shape[1], n_planes)
        bits = (mat @ _MH_CACHE[lsh_key].planes.T) > 0
        sigs = [np.concatenate((row.astype(np.float64), v))
                for row, v in zip(bits, mat)]
        return pd.DataFrame({id_col: batch[id_col], 'sig': sigs})

    sig_ds = emb_ds.select_columns([id_col, vec_col]).map_batches(
        sign, batch_format='pandas', batch_size=AGG_BATCH_SIZE)

    def band_fn(sig):
        bits = np.asarray(sig)[:n_planes].astype(np.int64)
        out = np.empty(bands, dtype=np.int64)
        for bi in range(bands):
            sub = bits[bi * rows_per_band:(bi + 1) * rows_per_band]
            packed = 0
            for b in sub:
                packed = (packed << 1) | int(b)
            out[bi] = (bi << 56) | packed
        return out

    def verify(sa, sb):
        va = sa[n_planes:]
        vb = sb[n_planes:]
        cos = float(va @ vb)
        return cos >= threshold, round(cos, 6)

    return _candidate_pairs_from_buckets(sig_ds, id_col, band_fn, verify,
                                         sig_dtype='float64')


def duplicate_spans(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
                    min_len: int = 5):
    """Exact cross-document duplicate SPANS (Lee et al. 2021
    'Deduplicating Training Data Makes Language Models Better' — the
    suffix-array exact-substring dedup, re-expressed as two keyed
    exchanges): every maximal aligned token run of length ≥ ``min_len``
    shared by two documents, as (da, db, a_start, b_start, length) with
    0-based token offsets and da < db.

    Shape: (1) stateless map emits one (gram-hash, doc, pos) row per
    ``min_len``-gram (63-bit md5 — equality agrees with string equality up
    to ~2^-63 collisions); (2) gram-keyed exchange self-merges each gram
    group into cross-doc position pairs; (3) (da, db)-keyed exchange
    merges pairs along diagonals (i − j) into maximal islands —
    gaps-and-islands, vectorized. A gram shared by D docs emits O(D²)
    pairs: at web scale drop top-frequency grams first (the boilerplate
    stage exists for exactly that) — this operator is the exact tail."""
    from ..functions.hashing import md5_hash64
    from .relational import bucketed_map

    L = int(min_len)

    def grams(batch: pd.DataFrame) -> pd.DataFrame:
        ids: List = []
        hs: List[int] = []
        pos: List[int] = []
        for did, text in zip(batch[id_col], batch[text_col]):
            toks = [t for t in (text or '').split(' ') if t]
            for i in range(len(toks) - L + 1):
                ids.append(did)
                pos.append(i)
                hs.append(md5_hash64(' '.join(toks[i:i + L]))
                          & 0x7FFFFFFFFFFFFFFF)
        return pd.DataFrame({'g': pd.Series(hs, dtype='int64'),
                             '_d': pd.Series(ids, dtype='int64'),
                             '_p': pd.Series(pos, dtype='int64')})

    gram_rows = docs_ds.map_batches(grams, batch_format='pandas',
                                    batch_size=AGG_BATCH_SIZE)

    def pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        m = bucket.merge(bucket, on='g')
        m = m[m['_d_x'] < m['_d_y']]
        if not len(m):
            return pd.DataFrame({'da': pd.Series(dtype='int64'),
                                 'db': pd.Series(dtype='int64'),
                                 'i': pd.Series(dtype='int64'),
                                 'j': pd.Series(dtype='int64')})
        return pd.DataFrame({'da': m['_d_x'].to_numpy(),
                             'db': m['_d_y'].to_numpy(),
                             'i': m['_p_x'].to_numpy(),
                             'j': m['_p_y'].to_numpy()})

    pair_rows = bucketed_map(gram_rows, ['g'], pairs)

    def spans(bucket: pd.DataFrame) -> pd.DataFrame:
        b = bucket.assign(diag=bucket['i'] - bucket['j']) \
            .sort_values(['da', 'db', 'diag', 'i'], kind='mergesort')
        same = (b[['da', 'db', 'diag']]
                == b[['da', 'db', 'diag']].shift()).all(axis=1).to_numpy()
        consec = same & (b['i'].diff().to_numpy() == 1)
        b = b.assign(_isl=np.cumsum(~consec))
        out = b.groupby('_isl', sort=False).agg(
            da=('da', 'first'), db=('db', 'first'),
            a_start=('i', 'min'), b_start=('j', 'min'),
            length=('i', 'size')).reset_index(drop=True)
        out['length'] = out['length'] + (L - 1)
        return out

    return bucketed_map(pair_rows, ['da', 'db'], spans)


def _ed_le1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check (early-exit scan, no DP table)."""
    la, lb = len(a), len(b)
    if a == b:
        return True
    if abs(la - lb) > 1:
        return False
    if la == lb:                       # one substitution allowed
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:                        # normalize: a is the shorter
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]          # one insertion into a


def edit_distance_pairs(docs_ds, text_col: str = 'text', min_len: int = 4,
                        min_freq: int = 1):
    """Vocabulary typo pairs — distinct corpus tokens at edit distance
    exactly 1 (the surface-form/alias merge primitive of entity
    canonicalization and query-log cleaning), without the O(V²) scan:
    FastSS deletion neighborhoods (Bocek et al. 2007). Each token of the
    distributed vocabulary (``token_counts``, already two-phase) explodes
    into itself + its single-character deletions; two tokens within edit
    distance 1 necessarily SHARE a neighborhood entry, so one
    neighborhood-keyed exchange brings every candidate pair into one task,
    where the exact ``_ed_le1`` scan verifies (shared-entry is necessary,
    not sufficient — 'ab'/'ba' share 'a' at distance 2). Emits canonical
    (a < b) pairs, deduped across buckets by keeping a pair only in its
    lexicographically-first shared entry. Filters: tokens shorter than
    ``min_len`` form hub neighborhoods ('a' ∈ N of every 2-char token) —
    the documented skew guard; ``min_freq`` prunes hapax noise."""
    import pyarrow.compute as pc

    from .relational import arrow_filter, bucketed_map
    from .textstats import token_counts

    vocab = token_counts(docs_ds, text_col=text_col)
    vocab = arrow_filter(vocab, lambda t: pc.and_(
        pc.greater_equal(pc.utf8_length(t['token']), min_len),
        pc.greater_equal(t['freq'], min_freq)))

    def neighborhoods(batch: pa.Table) -> pd.DataFrame:
        toks, keys = [], []
        for t in batch.column('token').to_pylist():
            toks.append(t)
            keys.append(t)
            for i in range(len(t)):
                toks.append(t)
                keys.append(t[:i] + t[i + 1:])
        return pd.DataFrame({'token': toks, 'nk': keys})

    rows = vocab.map_batches(neighborhoods, batch_format='pyarrow',
                             batch_size=AGG_BATCH_SIZE)

    def pairs(bucket: pd.DataFrame) -> Optional[pd.DataFrame]:
        # almost every neighborhood entry is a singleton — drop those
        # VECTORIZED before the per-group Python loop (same reasoning as
        # the LSH singleton-bucket drop in _candidate_pairs_from_buckets)
        sizes = bucket['nk'].map(bucket['nk'].value_counts())
        bucket = bucket[sizes.to_numpy() >= 2]
        if not len(bucket):
            return None
        out_a, out_b = [], []
        for nk, g in bucket.groupby('nk', sort=False):
            toks = sorted(set(g['token']))
            if len(toks) < 2:
                continue
            seen = set()
            for i in range(len(toks) - 1):
                for k in range(i + 1, len(toks)):
                    a, b = toks[i], toks[k]
                    if (a, b) in seen or not _ed_le1(a, b):
                        continue
                    seen.add((a, b))
                    out_a.append(a)
                    out_b.append(b)
        if not out_a:
            return None
        return pd.DataFrame({'a': out_a, 'b': out_b})

    # a pair verifies in EVERY shared neighborhood entry (2-3 of them) —
    # one pair-keyed two-phase count collapses the duplicates; cheaper
    # than computing each pair's canonical first-shared-entry in Python
    from .relational import two_phase_count
    return two_phase_count(bucketed_map(rows, ['nk'], pairs),
                           ['a', 'b']).drop_columns(['cnt'])


def semdedup_keep(emb_ds, n_centroids: int = 8, n_iters: int = 2,
                  threshold: float = 0.45, id_col: str = 'vec_id',
                  vec_col: str = 'embedding',
                  cluster_cap: Optional[int] = None):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication by k-means clustering the embedding space, then pruning
    within-cluster semantic duplicates. A vector is KEPT iff no other
    vector in its cluster has rounded cosine ≥ ``threshold`` and a
    smaller id — the deterministic keep-lowest-id variant of the paper's
    keep-one-per-duplicate-group rule. Emits (id, centroid, kept 0/1).

    Scale shape — the paper's core trick is that clustering bounds the
    pairwise work: training is the distributed Lloyd loop
    (similarity.kmeans_centroids — one stateless pass per iteration, K×D
    driver reduce), labeling is ONE stateless broadcast map fused with
    the embedding read (no assignment join), and the quadratic check runs
    per CLUSTER via one centroid-keyed exchange, so per-bucket cost is
    (N/K)² with K chosen ∝ N / target_cluster_size (the reference point:
    SemDeDup uses K=50k on LAION).

    MEGACLUSTER GUARD: the no-megacluster assumption is ENFORCED, not just
    documented. Cluster sizes are measured (one two-phase count over a
    K-row dim); any cluster above ``cluster_cap`` (default
    config.SEMDEDUP_CLUSTER_CAP) is split into C = ceil(size/cap)
    deterministic id-hash chunks and pruned via a chunk-PAIR exchange:
    bucket (c, p, q) compares chunk p against chunk q only (within-chunk
    lower-triangle when p == q), emitting per-vector ``killed`` partials
    folded by a two-phase max. Exact same keep decisions as the
    single-bucket path (equality-pinned by test_dedup_scale_guards), total
    work still (size)²/2 comparisons — inherent to exact SemDeDup — but
    per-task memory is bounded by 2·cap rows, so one dense web-scale
    cluster degrades into more tasks instead of one task-killer. Each
    split is logged (centroid, size, n_chunks) — no silent caps."""
    import logging
    from .relational import bucketed_map, collect_rows, two_phase_count, \
        two_phase_pandas_agg
    from .similarity import _normalize, kmeans_centroids

    if cluster_cap is None:
        from ..config import SEMDEDUP_CLUSTER_CAP
        cluster_cap = SEMDEDUP_CLUSTER_CAP
    cluster_cap = max(2, int(cluster_cap))

    cmat, _ = kmeans_centroids(emb_ds, n_centroids, n_iters,
                               id_col=id_col, vec_col=vec_col)
    ref = ray.put(cmat)

    def label(batch: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import get_broadcast
        if not len(batch):
            return pd.DataFrame({id_col: pd.Series(dtype='int64'),
                                 'centroid': pd.Series(dtype='int64'),
                                 vec_col: pd.Series(dtype=object)})
        cm = get_broadcast(ref)
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in batch[vec_col]])
        sims = np.round(_normalize(mat) @ _normalize(cm).T, 6)
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            'centroid': np.argmax(sims, axis=1).astype(np.int64),
            vec_col: list(batch[vec_col])})

    labeled = emb_ds.map_batches(label, batch_format='pandas',
                                 batch_size=4096).materialize()

    # cluster-size dim: ≤ n_centroids rows — driver-bounded by construction
    sizes = {int(r['centroid']): int(r['n']) for r in collect_rows(
        two_phase_count(labeled.map_batches(
            lambda df: df[[id_col, 'centroid']], batch_format='pandas'),
            ['centroid'], alias='n'))}
    chunks = {c: -(-n // cluster_cap) for c, n in sizes.items()
              if n > cluster_cap}
    for c, nch in sorted(chunks.items()):
        logging.getLogger('caligraph_ray.dedup').warning(
            'semdedup megacluster guard: cluster %d (%d rows > cap %d) '
            'split into %d chunk-pair buckets',
            c, sizes[c], cluster_cap, nch)

    def _vecs(g: pd.DataFrame) -> np.ndarray:
        return _normalize(np.stack([np.asarray(v, dtype=np.float64)
                                    for v in g[vec_col]]))

    def prune(bucket: pd.DataFrame) -> pd.DataFrame:
        out = []
        for cen, g in bucket.groupby('centroid', sort=False):
            g = g.sort_values(id_col, kind='mergesort')
            sims = np.round(_vecs(g) @ _vecs(g).T, 6)
            lower = np.tril(sims >= threshold, k=-1)   # only smaller ids
            kept = (~lower.any(axis=1)).astype(np.int64)
            out.append(pd.DataFrame({
                id_col: g[id_col].to_numpy(),
                'centroid': np.full(len(g), cen, dtype=np.int64),
                'kept': kept}))
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
            {id_col: pd.Series(dtype='int64'),
             'centroid': pd.Series(dtype='int64'),
             'kept': pd.Series(dtype='int64')})

    if not chunks:
        return bucketed_map(labeled, ['centroid'], prune)

    chunks_ref = ray.put(chunks)

    def split_small(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import get_broadcast
        ch = get_broadcast(chunks_ref)
        return df[~df['centroid'].isin(ch)]

    small_part = labeled.map_batches(split_small, batch_format='pandas')
    small_out = bucketed_map(small_part, ['centroid'], prune)

    def fan_out(df: pd.DataFrame) -> pd.DataFrame:
        """Replicate each megacluster row to its C chunk-pair buckets:
        a row in chunk i participates in every bucket (c, min(i,j),
        max(i,j)). C copies per row — the exchange carries C× the
        megacluster bytes, the price of bounding per-task memory."""
        from ..state.broadcast import get_broadcast
        ch = get_broadcast(chunks_ref)
        df = df[df['centroid'].isin(ch)]
        if not len(df):
            return pd.DataFrame({id_col: pd.Series(dtype='int64'),
                                 'centroid': pd.Series(dtype='int64'),
                                 vec_col: pd.Series(dtype=object),
                                 '_ci': pd.Series(dtype='int64'),
                                 '_p': pd.Series(dtype='int64'),
                                 '_q': pd.Series(dtype='int64')})
        outs = []
        for cen, g in df.groupby('centroid', sort=False):
            c_n = ch[int(cen)]
            ids = g[id_col].to_numpy(dtype=np.int64)
            ci = ids % c_n
            rep = np.repeat(np.arange(len(g)), c_n)
            j = np.tile(np.arange(c_n, dtype=np.int64), len(g))
            ci_rep = ci[rep]
            vecs = g[vec_col].to_numpy()   # object array: fancy-index, no loop
            outs.append(pd.DataFrame({
                id_col: ids[rep],
                'centroid': np.full(len(rep), cen, dtype=np.int64),
                vec_col: vecs[rep],
                '_ci': ci_rep,
                '_p': np.minimum(ci_rep, j),
                '_q': np.maximum(ci_rep, j)}))
        return pd.concat(outs, ignore_index=True)

    fanned = labeled.map_batches(fan_out, batch_format='pandas')

    def pair_prune(bucket: pd.DataFrame) -> pd.DataFrame:
        out = []
        for (cen, p, q), g in bucket.groupby(['centroid', '_p', '_q'],
                                             sort=False):
            g = g.drop_duplicates(subset=[id_col]) \
                 .sort_values(id_col, kind='mergesort')
            if p == q:
                sims = np.round(_vecs(g) @ _vecs(g).T, 6)
                lower = np.tril(sims >= threshold, k=-1)
                killed = lower.any(axis=1).astype(np.int64)
                out.append(pd.DataFrame({
                    id_col: g[id_col].to_numpy(),
                    'centroid': np.full(len(g), cen, dtype=np.int64),
                    'killed': killed}))
                continue
            gp = g[g['_ci'] == p]
            gq = g[g['_ci'] == q]
            if not len(gp) or not len(gq):
                sub = g
                out.append(pd.DataFrame({
                    id_col: sub[id_col].to_numpy(),
                    'centroid': np.full(len(sub), cen, dtype=np.int64),
                    'killed': np.zeros(len(sub), dtype=np.int64)}))
                continue
            sims = np.round(_vecs(gp) @ _vecs(gq).T, 6)
            hit = sims >= threshold
            idp = gp[id_col].to_numpy(dtype=np.int64)
            idq = gq[id_col].to_numpy(dtype=np.int64)
            # p-side killed by a smaller-id q-side hit, and vice versa
            kp = (hit & (idq[None, :] < idp[:, None])).any(axis=1)
            kq = (hit.T & (idp[None, :] < idq[:, None])).any(axis=1)
            out.append(pd.DataFrame({
                id_col: np.concatenate([idp, idq]),
                'centroid': np.full(len(idp) + len(idq), cen,
                                    dtype=np.int64),
                'killed': np.concatenate([kp, kq]).astype(np.int64)}))
        return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
            {id_col: pd.Series(dtype='int64'),
             'centroid': pd.Series(dtype='int64'),
             'killed': pd.Series(dtype='int64')})

    partials = bucketed_map(fanned, ['centroid', '_p', '_q'], pair_prune)
    folded = two_phase_pandas_agg(partials, [id_col, 'centroid'],
                                  {'killed': ('killed', 'max')})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(dtype=np.int64),
            'centroid': df['centroid'].to_numpy(dtype=np.int64),
            'kept': (1 - df['killed'].to_numpy(dtype=np.int64))})

    big_out = folded.map_batches(finish, batch_format='pandas')
    return small_out.union(big_out)


def cdc_chunks(docs_ds, window: int = 8, mask: int = 64,
               id_col: str = 'doc_id', text_col: str = 'text'):
    """Content-defined chunking (the FastCDC/rsync dedup primitive): a
    chunk boundary falls after every position whose trailing ``window``
    chars hash to ``0 mod mask``, so identical byte runs produce
    identical chunks REGARDLESS of their offset in the document — the
    property fixed-size blocking lacks and the reason CDC is the standard
    sub-document dedup unit for crawl snapshots. Expected chunk length ≈
    ``mask`` chars. Documents shorter than ``window`` are one chunk.

    The boundary hash here is md5 (functions/hashing.md5_hash64 ==
    DuckDB ``md5_number_upper``) so the whole operator replays in SQL; a
    production deployment would swap the boundary test for a Gear/Rabin
    rolling hash (one table lookup + shift per char instead of one md5
    per position) — the chunk/count plumbing is identical.

    Emits one row per (doc, chunk): id_col, chunk_hash (md5 of the chunk
    text, stringified uint64), chunk_len. Stateless one-pass map."""
    from ..functions.hashing import md5_hash64

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ids, hashes, lens = [], [], []
        for did, text in zip(batch[id_col], batch[text_col]):
            if not text:
                continue
            n = len(text)
            bounds = [0]
            for i in range(window, n + 1):
                if md5_hash64(text[i - window:i]) % mask == 0:
                    bounds.append(i)
            if bounds[-1] != n:
                bounds.append(n)
            for s, e in zip(bounds[:-1], bounds[1:]):
                if e > s:
                    ids.append(did)
                    hashes.append(str(md5_hash64(text[s:e])))
                    lens.append(e - s)
        return pd.DataFrame({id_col: np.array(ids, dtype=np.int64),
                             'chunk_hash': np.array(hashes, dtype=object),
                             'chunk_len': np.array(lens, dtype=np.int64)})

    return docs_ds.map_batches(per_batch, batch_format='pandas')


def cdc_chunk_dedup(docs_ds, window: int = 8, mask: int = 64,
                    min_docs: int = 2,
                    id_col: str = 'doc_id', text_col: str = 'text'):
    """Cross-document duplicate-chunk detection over :func:`cdc_chunks`:
    chunks shared by ≥ ``min_docs`` distinct documents, with doc and
    occurrence counts — the 'which byte runs recur across the crawl'
    signal feeding sub-document dedup decisions.

    Scale shape: (chunk_hash, doc) pairs collapse two-phase FIRST (a hot
    boilerplate chunk costs one partial row per batch per doc, not one
    shuffled row per occurrence), then ONE hash-keyed two-phase aggregate
    counts distinct docs and total occurrences per chunk."""
    from .relational import two_phase_count, two_phase_pandas_agg

    chunks = cdc_chunks(docs_ds, window=window, mask=mask,
                        id_col=id_col, text_col=text_col)
    pair_occ = two_phase_count(
        chunks.map_batches(lambda b: b[['chunk_hash', id_col]],
                           batch_format='pandas'),
        ['chunk_hash', id_col], alias='_occ')
    agg = two_phase_pandas_agg(
        pair_occ, ['chunk_hash'],
        {'n_docs': (None, 'count'), 'n_occ': ('_occ', 'sum')})

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b['n_docs'] >= min_docs].copy()
        out['n_docs'] = out['n_docs'].astype('int64')
        out['n_occ'] = out['n_occ'].astype('int64')
        return out[['chunk_hash', 'n_docs', 'n_occ']]

    return agg.map_batches(keep, batch_format='pandas')
