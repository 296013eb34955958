"""Entity-disambiguation stack: bi-encoder embedding, BM25 / ANN candidate
generation, cross-encoder reranking (reference ST4/ST7/ST8 + J7:
…/matching/biencoder.py:15-112, …/matching/lexical.py:22-90,
…/matching/crossencoder.py:81-104).

Every model is a DETERMINISTIC stand-in behind the exact actor interface
the real model would use — state loaded once in ``__init__``, batched
``__call__`` — so swapping in SentenceTransformer / a HF cross-encoder is
a constructor change, not a pipeline change (no GPU in this environment):

* ``HashEmbedder``      — feature-hashing text embedder (ST4 stand-in;
  reference biencoder batch 384, all-MiniLM-L12-v2)
* ``BM25Index``         — exact Okapi BM25 over tokenized labels (ST8;
  reference uses fastbm25, same formula, k1=1.5 b=0.75)
* ``CrossEncoderReranker`` — pair scorer keeping argmax entity per mention
  (ST7 stand-in; reference distilbert pair scorer, batch 128, top-4)

Execution shapes: embeddings are added per batch in an actor-pool
``map_batches``; candidate generation broadcasts the (small) entity matrix
once and does one matmul per batch (ME candidates) or groups by surface
(MM candidates, J7's shared-group-key self-join); reranking is a stateless
pair-scoring pass + per-mention argmax shuffle. The fused linkers
(``link_mentions_scored[_sharded]``) run all three as stateless tasks: the
models load once per worker process through the broadcast cache and each
batch makes one ``score_batch`` rerank call.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..config import AGG_BATCH_SIZE
from ..functions.hashing import stable_hash64


def _pool_size() -> Tuple[int, int]:
    """Default actor-pool bounds: at most one one-CPU actor per cluster CPU
    (size a real model pool by accelerator count via ``concurrency=``)."""
    try:
        cpus = int(ray.cluster_resources().get('CPU', 1))
    except Exception:
        cpus = os.cpu_count() or 1
    return (1, max(1, cpus))


# --- ST4: bi-encoder stand-in ----------------------------------------------

def hash_embed(text: str, dim: int = 64) -> np.ndarray:
    """Deterministic feature-hashing embedding: each token hashes to a
    (position, sign) pair; the result is L2-normalized. Similar token sets
    → similar vectors, which is the property the ED stack needs."""
    v = np.zeros(dim, dtype=np.float64)
    for tok in text.lower().split():
        h = stable_hash64(tok)
        v[h % dim] += 1.0 if (h >> 32) & 1 else -1.0
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


class HashEmbedder:
    """Actor-pool embedder (ST4 interface): 'model' prepared once per actor
    in __init__ (the real path loads SentenceTransformer here — reference
    biencoder.py:15-112); __call__ embeds one batch."""

    def __init__(self, text_col: str = 'label', out_col: str = 'embedding',
                 dim: int = 64):
        self.text_col = text_col
        self.out_col = out_col
        self.dim = dim

    def embed_batch(self, texts) -> np.ndarray:
        if not len(texts):
            return np.zeros((0, self.dim))
        return np.stack([hash_embed(t or '', self.dim) for t in texts])

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch[self.out_col] = list(self.embed_batch(list(batch[self.text_col])))
        return batch


def embed_texts(ds, text_col: str, out_col: str = 'embedding', dim: int = 64,
                concurrency: Optional[Tuple[int, int]] = None, batch_size: int = 384,
                embedder_cls: type = HashEmbedder,
                num_gpus: Optional[float] = None):
    """Add an embedding column (actor pool; batch 384 mirrors the reference
    bi-encoder batch size, entity_disambiguation/__init__.py:54).
    ``embedder_cls``: any (text_col, out_col, dim) actor class — the
    constructor-swap seam (functions.tiny_transformer.TransformerEmbedder
    is the proved real-model instance). ``num_gpus``: per-actor GPU share
    forwarded to the pool (the reference's hot path is GPU batch
    inference, mention_detection/__init__.py:41-46 — on a GPU cluster set
    num_gpus=1 and size concurrency to accelerator count; pinned by
    tests/test_gpu_seam.py)."""
    kw = {} if num_gpus is None else {'num_gpus': num_gpus}
    return ds.map_batches(
        embedder_cls,
        fn_constructor_kwargs={'text_col': text_col, 'out_col': out_col, 'dim': dim},
        batch_format='pandas', batch_size=batch_size,
        concurrency=concurrency or _pool_size(), **kw)


# --- ST8: BM25 --------------------------------------------------------------

BM25_K1 = 1.5
BM25_B = 0.75


class BM25Index:
    """Exact Okapi BM25 over a tokenized corpus (ST8; reference
    lexical.py:61-90 uses fastbm25 with defaults — same scoring here,
    idf = ln((N - df + .5)/(df + .5) + 1))."""

    def __init__(self, ids: List, texts: List[str]):
        self.ids = list(ids)
        self.docs = [t.lower().split() for t in texts]
        self.doc_len = np.array([len(d) for d in self.docs], dtype=np.float64)
        self.avgdl = float(self.doc_len.mean()) if len(self.docs) else 0.0
        self.n = len(self.docs)
        df: Counter = Counter()
        self.tf: List[Dict[str, int]] = []
        for d in self.docs:
            c = Counter(d)
            self.tf.append(dict(c))
            for tok in c:
                df[tok] += 1
        self.idf = {t: math.log((self.n - f + 0.5) / (f + 0.5) + 1)
                    for t, f in df.items()}

    def score(self, query_tokens: List[str], doc_idx: int) -> float:
        tf = self.tf[doc_idx]
        dl = self.doc_len[doc_idx]
        s = 0.0
        for t in query_tokens:
            f = tf.get(t)
            if not f:
                continue
            s += self.idf[t] * (f * (BM25_K1 + 1)) / (
                f + BM25_K1 * (1 - BM25_B + BM25_B * dl / self.avgdl))
        return s

    def topk(self, query: str, k: int) -> List[Tuple[object, float]]:
        qt = query.lower().split()
        scores = [(self.score(qt, i), self.ids[i]) for i in range(self.n)]
        scores = [(s, i) for s, i in scores if s > 0]
        scores.sort(key=lambda x: (-x[0], x[1]))
        return [(i, s) for s, i in scores[:k]]


def bm25_topk(queries_ds, corpus_ids: List, corpus_texts: List[str],
              query_col: str = 'label', k: int = 4,
              concurrency: Optional[Tuple[int, int]] = None):
    """Per-query BM25 top-k: the index is built ONCE PER ACTOR from the
    broadcast corpus (reference builds fastbm25 once; per-actor replication
    is the documented ST8 scale answer — shard the corpus per actor when the
    label dim outgrows one object)."""
    corpus_ref = ray.put((list(corpus_ids), list(corpus_texts)))

    class Searcher:
        def __init__(self):
            ids, texts = ray.get(corpus_ref)
            self.index = BM25Index(ids, texts)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            out_q, out_id, out_s = [], [], []
            for q in batch[query_col]:
                for did, s in self.index.topk(q, k):
                    out_q.append(q)
                    out_id.append(did)
                    out_s.append(round(s, 6))
            return pd.DataFrame({query_col: out_q, 'doc_id': out_id,
                                 'bm25': out_s})

    return queries_ds.map_batches(Searcher, batch_format='pandas',
                                  batch_size=AGG_BATCH_SIZE,
                                  concurrency=concurrency or _pool_size())


# --- J7: candidate generation ----------------------------------------------

def _topk_idx(scores: np.ndarray, tiebreak: np.ndarray, k: int) -> np.ndarray:
    """Top-k indices by (score desc, tiebreak asc) — identical result to a
    full ``np.lexsort((tiebreak, -scores))[:k]`` at O(E + t log t) instead
    of O(E log E) per call (t = k + boundary ties): argpartition to the
    k-th value, keep every score ≥ it (so boundary ties break exactly like
    the full sort), lexsort only that slice."""
    n = len(scores)
    if k >= n:
        cand = np.arange(n)
    else:
        kth = np.partition(-scores, k - 1)[k - 1]
        cand = np.where(-scores <= kth)[0]
    return cand[np.lexsort((tiebreak[cand], -scores[cand]))][:k]

def me_candidates_topk(mentions_ds, entity_ids: np.ndarray,
                       entity_mat: np.ndarray, k: int = 4,
                       mention_vec_col: str = 'embedding',
                       mention_id_col: str = 'mention_uid',
                       min_score: float = 0.0):
    """Mention→entity candidates: top-k entities by cosine per mention
    (reference ANN ME candidates, transformer_util.py:75-89 — here the
    normalized entity matrix is broadcast once and each batch does one
    matmul; an ANN index per actor is the same interface). Emits
    (mention_id, entity_id, score) with score ≥ min_score."""
    from ..state.broadcast import get_broadcast
    mat = np.asarray(entity_mat, dtype=np.float64)
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    state = ray.put((np.asarray(entity_ids), mat))

    eid_dtype = np.asarray(entity_ids).dtype

    def score_batch(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            # derive dtypes from the inputs — hardcoded int64 would emit
            # schema-divergent blocks for string/other id columns
            mdt = batch[mention_id_col].dtype \
                if mention_id_col in batch.columns else 'int64'
            return pd.DataFrame({mention_id_col: pd.Series(dtype=mdt),
                                 'entity_id': pd.Series(dtype=eid_dtype),
                                 'score': pd.Series(dtype='float64')})
        ids, emat = get_broadcast(state)
        q = np.stack([np.asarray(v, dtype=np.float64)
                      for v in batch[mention_vec_col]])
        q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        sims = q @ emat.T
        out_m, out_e, out_s = [], [], []
        kk = min(k, sims.shape[1])
        mids = batch[mention_id_col].to_numpy()
        for i in range(sims.shape[0]):
            idx = _topk_idx(sims[i], ids, kk)
            for j in idx:
                if sims[i][j] >= min_score:
                    out_m.append(mids[i])
                    out_e.append(ids[j])
                    out_s.append(round(float(sims[i][j]), 6))
        return pd.DataFrame({mention_id_col: out_m, 'entity_id': out_e,
                             'score': np.array(out_s, dtype=np.float64)})

    return mentions_ds.map_batches(score_batch, batch_format='pandas',
                                   batch_size=AGG_BATCH_SIZE)


def mm_candidates(mentions_ds, group_col: str = 'norm_surface',
                  id_col: str = 'mention_uid'):
    """Mention↔mention candidates via shared group key (J7, reference
    lexical.py:22-58): per-surface star pairs to the min mention — n−1
    edges per group, so the star to ALL members is already linear and the
    component semantics are exact. (An earlier max_group cap silently
    orphaned members past the cap into singleton components.)"""
    from .relational import grouped_map

    def star(g: pd.DataFrame) -> Optional[pd.DataFrame]:
        uids = np.sort(g[id_col].unique())
        if len(uids) < 2:
            return None
        return pd.DataFrame({'a': np.full(len(uids) - 1, uids[0], dtype=np.int64),
                             'b': uids[1:].astype(np.int64)})

    return grouped_map(mentions_ds.select_columns([group_col, id_col]),
                       [group_col], star)


# --- ST7: cross-encoder rerank ----------------------------------------------

class CrossEncoderReranker:
    """Pair-scoring actor (ST7 interface; reference crossencoder.py:81-104:
    distilbert pair scorer, batch 128). The deterministic stand-in scores a
    (mention_label, entity_label) pair by hash-embedding cosine with an
    exact-match bonus — monotone in label agreement, so argmax behavior
    matches what the real scorer would be trained toward."""

    def __init__(self, mention_col: str = 'label', entity_col: str = 'entity_label',
                 dim: int = 64):
        self.mention_col = mention_col
        self.entity_col = entity_col
        self.dim = dim
        # per-instance embedding memo: the linker scores each mention against
        # k candidates (k redundant mention embeds) and entity labels
        # repeat across every batch (the dim is bounded) — same floats,
        # just computed once. Capped so unbounded mention streams cannot
        # grow worker heap; eviction clears wholesale (regrows in one batch)
        self._memo: dict = {}

    def _emb(self, text: str) -> np.ndarray:
        v = self._memo.get(text)
        if v is None:
            if len(self._memo) >= 65536:
                self._memo.clear()
            v = self._memo[text] = hash_embed(text, self.dim)
        return v

    def score_pair(self, mention_label: str, entity_label: str) -> float:
        if not mention_label or not entity_label:
            return 0.0
        if mention_label.lower() == entity_label.lower():
            return 1.0
        cos = float(self._emb(mention_label) @ self._emb(entity_label))
        return round(0.5 + 0.5 * max(cos, -1.0) * 0.99, 6)

    def score_batch(self, mentions, entities) -> np.ndarray:
        """``score_pair`` over aligned lists, pair by pair (the same floats;
        one call per batch is the interface a real cross-encoder batches
        behind)."""
        return np.array([self.score_pair(m, e)
                         for m, e in zip(mentions, entities)], dtype=np.float64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch['ce_score'] = self.score_batch(batch[self.mention_col],
                                             batch[self.entity_col])
        return batch


def rerank_candidates(pairs_ds, mention_id_col: str = 'mention_uid',
                      mention_col: str = 'label',
                      entity_col: str = 'entity_label',
                      concurrency: Optional[Tuple[int, int]] = None,
                      batch_size: int = 128,
                      reranker_cls: type = CrossEncoderReranker,
                      num_gpus: Optional[float] = None):
    """Score every candidate pair (actor pool, batch 128 as the reference)
    then keep the argmax entity per mention (ties → lexicographically first
    entity label). Returns (mention_id, entity_label, ce_score).
    ``reranker_cls``: any (mention_col, entity_col) pair-scoring actor —
    the constructor-swap seam (TransformerCrossScorer is the proved
    real-model instance). ``num_gpus``: per-actor GPU share (the
    reference's cross-encoder runs batch 128 on GPU,
    matching/crossencoder.py:81-104)."""
    from .relational import bucketed_map
    kw = {} if num_gpus is None else {'num_gpus': num_gpus}
    scored = pairs_ds.map_batches(
        reranker_cls,
        fn_constructor_kwargs={'mention_col': mention_col, 'entity_col': entity_col},
        batch_format='pandas', batch_size=batch_size,
        concurrency=concurrency or _pool_size(), **kw)

    def argmax(bucket: pd.DataFrame) -> pd.DataFrame:
        s = bucket.sort_values([mention_id_col, 'ce_score', entity_col],
                               ascending=[True, False, True], kind='mergesort')
        s = s.drop_duplicates(subset=[mention_id_col], keep='first')
        return s[[mention_id_col, entity_col, 'ce_score']]

    return bucketed_map(scored, [mention_id_col], argmax)


# --- full scored-linking path ----------------------------------------------

class _LinkerState:
    """What every fused-linker task reads through ``get_broadcast``: refs to
    the embedded entity shards ((labels, normalized matrix) pairs) plus the
    two model factories. The broadcast cache keeps ONE deserialized copy
    per worker process, so the models and the shard LRU hung off it here
    are built once per process, never per batch."""

    def __init__(self, embedder_factory, reranker_factory, shard_refs,
                 max_cached_shards: int):
        self.factories = (embedder_factory, reranker_factory)
        self.shard_refs, self.max_cached_shards = shard_refs, max_cached_shards
        self._models = None
        self._shards: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def models(self):
        if self._models is None:
            self._models = (self.factories[0](), self.factories[1]())
        return self._models

    def shard(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Embedded shard ``i`` (LRU of ``max_cached_shards``; a miss is a
        zero-copy fetch from plasma, never a re-embed)."""
        got = self._shards.pop(i, None)
        if got is None:
            got = ray.get(self.shard_refs[i])
            if self._shards and len(self._shards) >= self.max_cached_shards:
                self._shards.pop(next(iter(self._shards)))
        self._shards[i] = got
        return got

    def candidates(self, q: np.ndarray, rows, kk: int) -> List[np.ndarray]:
        """Top-``kk`` entity labels of each mention in ``rows`` (embeddings
        ``q``): each shard's top-k merged into a running global top-k under
        the same (score desc, label asc) comparator as ``_topk_idx`` — so
        the candidate SET equals the full-matrix top-k (any global winner
        wins its shard too), whatever the sharding."""
        cand_s = [np.empty(0, dtype=np.float64) for _ in rows]
        cand_l = [np.empty(0, dtype=object) for _ in rows]
        for si in range(len(self.shard_refs)):
            labels, emat = self.shard(si)
            if not len(labels):
                continue
            sims = q @ emat.T
            ks = min(kk, len(labels))
            for r, i in enumerate(rows):
                idx = _topk_idx(sims[i], labels, ks)
                s, l = sims[i][idx], labels[idx]
                if len(cand_l[r]):   # the first shard needs no merge
                    s = np.concatenate([cand_s[r], s])
                    l = np.concatenate([cand_l[r], l])
                    keep = np.lexsort((l, -s))[:kk]
                    s, l = s[keep], l[keep]
                cand_s[r], cand_l[r] = s, l
        return cand_l


def _default_factories(dim: int, embedder_factory, reranker_factory):
    """The deterministic stand-ins wherever a factory is not given."""
    return (embedder_factory or (lambda: HashEmbedder(dim=dim)),
            reranker_factory or (lambda: CrossEncoderReranker(dim=dim)))


def _nil_links(batch: pd.DataFrame) -> pd.DataFrame:
    """Linking against an empty entity dim: wikilinked mentions keep their
    target at score 1.0 (the documented contract); only unlinked go NIL."""
    out = batch.copy()
    linked = out['name'].notna()
    out['entity'] = out['name'].where(linked, None)
    out['link_score'] = np.where(linked, 1.0, 0.0)
    return out


def _link_batch(batch: pd.DataFrame, st: _LinkerState, kk: int) -> pd.DataFrame:
    """The fused-linker kernel. Wikilinked rows keep ``(name, 1.0)``; the
    rest get their top-``kk`` candidates reranked by ONE ``score_batch``
    call over every (mention × candidate) pair of the batch. Per mention
    the argmax wins, ties to the lexicographically first label, and a zero
    best score stays NIL (the rule ``rerank_candidates`` applies)."""
    need = batch['name'].isna().to_numpy()
    entities: List[Optional[str]] = batch['name'].tolist()
    scores = np.where(need, 0.0, 1.0)
    rows = np.flatnonzero(need)
    if len(rows):
        emb, rr = st.models()
        # the whole batch, as each embedder's floats depend on its batch
        cands = st.candidates(emb.embed_batch(list(batch['label'])), rows, kk)
        labels = batch['label'].to_numpy(dtype=object)
        ms = [labels[i] or '' for i, c in zip(rows, cands) for _ in c]
        es = [str(e) for c in cands for e in c]
        ce = rr.score_batch(ms, es) if es else []
        pos = 0
        for i, c in zip(rows, cands):
            best_e, best_s = None, 0.0
            for e, s in zip(es[pos:pos + len(c)], ce[pos:pos + len(c)]):
                if s > best_s or (s == best_s and best_e is not None
                                  and e < best_e):
                    best_e, best_s = e, float(s)
            pos += len(c)
            entities[i] = best_e
            scores[i] = round(best_s, 6) if best_e is not None else 0.0
    batch['entity'] = np.array(entities, dtype=object)   # object even when empty
    batch['link_score'] = scores
    return batch


def _link_against_shards(mentions_ds, shard_refs, kk: int, embedder_factory,
                         reranker_factory, max_cached_shards: int):
    """Both fused linkers: one stateless ``map_batches`` function (no actor
    pool, so it fuses with its neighbours) over the broadcast state."""
    from ..state.broadcast import get_broadcast
    state = ray.put(_LinkerState(embedder_factory, reranker_factory,
                                 shard_refs, max_cached_shards))

    def link(batch: pd.DataFrame) -> pd.DataFrame:
        return _link_batch(batch, get_broadcast(state), kk)

    return mentions_ds.map_batches(link, batch_format='pandas',
                                   batch_size=AGG_BATCH_SIZE)


def link_mentions_scored(mentions_ds, entity_labels: List[str], k: int = 4,
                         dim: int = 64,
                         embedder_factory=None, reranker_factory=None):
    """The complete ED stack as a linking stage: embed mentions (ST4) →
    ME candidate top-k vs the broadcast entity matrix (J7/ST5) → cross-
    encoder rerank argmax (ST7) → (entity, link_score) columns with the
    ``link_mentions_join`` output contract. Wikilinked mentions keep their
    target (score 1.0); a mention stays NIL only when the entity dim is
    empty or its label is empty (score 0.0 beats nothing) — every
    other unlinked mention carries its argmax candidate with its RAW ce
    score. Acceptance thresholding is downstream (me_threshold in
    canonicalize, .95 as the reference), exactly as the reference scores
    all pairs and thresholds later; consumers must not treat a returned
    entity as accepted without applying their threshold.

    ``entity_labels``: the known-entity dim (small side, broadcast once).

    ``embedder_factory`` / ``reranker_factory``: zero-arg callables
    returning an ``embed_batch(texts) -> (n, d)`` embedder and a
    ``score_batch(mentions, entities) -> (n,)`` scorer — the
    constructor-swap seam. The defaults are the deterministic stand-ins;
    the factories run once on the driver (to embed the small entity dim)
    and once per WORKER PROCESS (stateless tasks, state in the broadcast
    cache), so a real model loads per worker, never per batch. With real
    models on accelerators, wire the three actor-pool stages (embed_texts
    → me_candidates_topk → rerank_candidates) yourself. The swap is proved
    end-to-end in tests/test_tiny_transformer.py with a real numpy
    transformer (multi-head attention forward pass)."""
    embedder_factory, reranker_factory = _default_factories(
        dim, embedder_factory, reranker_factory)
    ents = sorted(set(e for e in entity_labels if e))
    if not ents:
        return mentions_ds.map_batches(_nil_links, batch_format='pandas')
    emat = embedder_factory().embed_batch(ents)
    emat = emat / np.maximum(np.linalg.norm(emat, axis=1, keepdims=True), 1e-12)
    # the whole dim as ONE shard: its top-k is the plain _topk_idx
    shard = ray.put((np.array(ents, dtype=object), emat))
    return _link_against_shards(mentions_ds, [shard], min(k, len(ents)),
                                embedder_factory, reranker_factory, 1)


def link_mentions_scored_sharded(mentions_ds, names_ds, k: int = 4,
                                 dim: int = 64, embedder_factory=None,
                                 reranker_factory=None,
                                 max_cached_shards: int = 8):
    """``link_mentions_scored`` that never collects the entity-name dim
    (the flagship's scored linker): the DISTINCT names stay in the object
    store as block shards (``names_ds`` — one globally-distinct ``name``
    column), and each linker task streams its mention batch against the
    shards, merging per-shard top-k into the exact global top-k, so every
    emitted link is bit-identical to the broadcast variant (pinned by
    tests).

    Shard embeddings are PRECOMPUTED: one distributed pass embeds each
    name shard exactly once (one remote task per shard — an embed-call
    counter pins this in tests) and ray.puts the normalized (labels, emat)
    pair, so linker tasks only ever FETCH embedded shards from the object
    store — never re-embed. Per-process heap stays bounded by
    ``max_cached_shards`` embedded shards (LRU); evicted shards cost a
    re-FETCH (plasma, zero-copy float64), not a re-embed. At 10^12 rows
    prefer the IVF/LSH candidate path (similarity.py) when approximate
    candidates are acceptable."""
    embedder_factory, reranker_factory = _default_factories(
        dim, embedder_factory, reranker_factory)
    mat = names_ds.materialize()
    n_names = mat.count()
    if n_names == 0:
        return mentions_ds.map_batches(_nil_links, batch_format='pandas')

    @ray.remote
    def _embed_shard(df: pd.DataFrame) -> Tuple[np.ndarray, np.ndarray]:
        emb = embedder_factory()
        labels = df['name'].to_numpy(dtype=object)
        if not len(labels):
            return labels, np.empty((0, dim), dtype=np.float64)
        emat = emb.embed_batch([str(x) for x in labels])
        emat = emat / np.maximum(
            np.linalg.norm(emat, axis=1, keepdims=True), 1e-12)
        return labels, emat

    # ONE embed per shard, cluster-wide, from block refs only (the driver
    # never holds the names); the returned refs ride inside the broadcast
    # state, which keeps them alive (Ray refcounts nested refs)
    return _link_against_shards(
        mentions_ds, [_embed_shard.remote(r) for r in mat.to_pandas_refs()],
        min(k, n_names), embedder_factory, reranker_factory, max_cached_shards)


def md_predict_tokens(items_ds, model_weights=None, head=None,
                      tokens_col: str = 'tokens',
                      out_col: str = 'md_tags', concurrency=None,
                      batch_size: int = 500,
                      num_gpus: Optional[float] = None):
    """Distributed mention-detection inference with the TRAINED token
    classifier (the GPU-batch-inference slot of the reference,
    mention_detection/__init__.py:90-101, PREDICTION_BATCH_SIZE=500):
    an actor pool whose workers rebuild the TokenClassifier ONCE in
    ``__init__`` from the broadcast trained weights (``model_weights`` =
    the TinyTransformer state dict from ``snapshot_weights``; ``head`` =
    the trained (D, 2) readout) and tag every item's tokens per batch.
    Adds ``out_col``: list<int64> of 0/1 subject-token tags per row."""
    import ray as _ray

    from ..functions.train_transformer import (TokenClassifier,
                                               restore_weights)
    ref = _ray.put((model_weights, head))

    class MdTagger:
        def __init__(self):
            from ..state.broadcast import get_broadcast
            weights, hd = get_broadcast(ref)
            model = restore_weights(weights)
            if hd is None:   # untrained seam: seeded readout
                rng = np.random.RandomState(14)
                hd = rng.randn(model.dim, 2) / np.sqrt(model.dim)
            self.clf = TokenClassifier(model, np.asarray(hd))

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            out[out_col] = self.clf.predict_batch(
                [list(t) for t in batch[tokens_col]])
            return out

    kw = {} if num_gpus is None else {'num_gpus': num_gpus}
    return items_ds.map_batches(MdTagger, batch_format='pandas',
                                batch_size=batch_size,
                                concurrency=concurrency or _pool_size(),
                                **kw)
