"""Text-analysis operators over the documents table (SURVEY.md additions:
language-ID, quality scoring, token counting, fingerprinting, plus the
reference's surface-form / hypernym count aggregations A1/A2/A13).

All stages are two-phase: vectorized or dict-combined per batch, then a
small groupby over partials — a head token ('the') never travels as raw
rows through the shuffle.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import AGG_BATCH_SIZE
from ..functions.hashing import rolling_fingerprint

# deterministic English function-word list for the lang-ID heuristic
EN_STOPWORDS = frozenset({'the', 'a', 'an', 'of', 'and', 'to', 'in', 'is', 'it', 'for'})


def _split_tokens(text: str) -> List[str]:
    return [t for t in text.split(' ') if t]


def _ws_token_arrays(texts: pa.ChunkedArray):
    """Arrow-native replay of the module's whitespace-token contract
    (``_split_tokens``: split on ' ', drop empties) for COUNT-shaped
    operators: returns ``(flat_tokens, parent_idx, n_tokens)`` where
    ``flat_tokens`` is the StringArray of all non-empty tokens in document
    order, ``parent_idx`` the int64 row index each token belongs to, and
    ``n_tokens`` the per-row token count. ``pc.split_pattern`` +
    ``list_flatten``/``list_parent_indices`` + one vectorized empty filter —
    no per-row Python loop (property-pinned ≡ the Python path on
    adversarial whitespace by test_textstats_arrow_fastpath)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, '')
    toks = pc.split_pattern(texts, ' ')
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(flat, '')
    flat = flat.filter(nonempty)
    parent = parent[nonempty.to_numpy(zero_copy_only=False)]
    n_tokens = np.bincount(parent, minlength=len(texts)).astype(np.int64)
    return flat, parent, n_tokens


def _doc_token_tf(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(id, token, tf) exploded per-doc term frequencies — the shared
    first stage of every join-regime LM/TF-IDF/DSIR operator. Arrow-native:
    dictionary-encode the flat tokens, pack (row, code) into one uint64 and
    ``np.unique(return_counts=True)`` (1.4× the per-doc Counter loop it
    replaced, exact-equal rows; row and code each stay < 2^32 per batch by
    the AGG_BATCH_SIZE contract)."""
    id_type = batch.schema.field(id_col).type
    flat, parent, _ = _ws_token_arrays(batch.column(text_col))
    if not len(flat):
        return pa.Table.from_pydict({id_col: pa.array([], id_type),
                                     'token': pa.array([], pa.string()),
                                     'tf': pa.array([], pa.int64())})
    de = pc.dictionary_encode(flat)
    if isinstance(de, pa.ChunkedArray):
        de = de.combine_chunks()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.uint64)
    pair = (parent.astype(np.uint64) << np.uint64(32)) | codes
    u, counts = np.unique(pair, return_counts=True)
    rows = pa.array((u >> np.uint64(32)).astype(np.int64))
    toks = de.dictionary.take(
        pa.array((u & np.uint64(0xFFFFFFFF)).astype(np.int64)))
    ids = batch.column(id_col)
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.Table.from_pydict({
        id_col: ids.take(rows),
        'token': toks.cast(pa.string()),
        'tf': pa.array(counts.astype(np.int64))})


def token_counts(docs_ds, text_col: str = 'text', min_len: int = 0,
                 vocab: Optional[frozenset] = None):
    """(token, freq) via per-batch partial combine + groupby sum (A2/A13).
    Arrow-native partial: split/flatten + ``pc.value_counts`` (5.6× the
    per-batch Counter loop it replaced — this partial is the first pass of
    the whole LM chain: unigram/bigram LM, DSIR, perplexity buckets).
    Property-pinned ≡ the Counter reference."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        flat, _, _ = _ws_token_arrays(batch.column(text_col))
        if min_len:
            flat = flat.filter(pc.greater_equal(pc.utf8_length(flat),
                                                min_len))
        if vocab is not None:
            flat = flat.filter(pc.is_in(flat,
                                        value_set=pa.array(sorted(vocab))))
        vc = pc.value_counts(flat)
        # explicit cast keeps (token: string, cnt: int64) stable even for
        # an all-filtered batch (schema-divergent blocks break the groupby)
        return pa.Table.from_pydict(
            {'token': vc.field('values').cast(pa.string()),
             'cnt': vc.field('counts').cast(pa.int64())})

    pre = docs_ds.map_batches(partial, batch_format='pyarrow', batch_size=AGG_BATCH_SIZE)
    return pre.groupby('token').aggregate(Sum('cnt', alias_name='freq'))


def bigram_counts(docs_ds, text_col: str = 'text'):
    """(w1, w2, freq) adjacent-pair counts (A1 hypernym-pair analogue).
    Arrow-native partial: consecutive flat tokens whose parent row matches
    form the pair set; one C-speed ``Table.group_by`` per batch."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict(
            {'w1': pa.array([], pa.string()),
             'w2': pa.array([], pa.string()),
             'cnt': pa.array([], pa.int64())})
        flat, parent, _ = _ws_token_arrays(batch.column(text_col))
        if len(flat) < 2:
            return empty
        same = pa.array(parent[1:] == parent[:-1])
        w1 = flat.slice(0, len(flat) - 1).filter(same)
        w2 = flat.slice(1).filter(same)
        if not len(w1):
            return empty
        agg = pa.Table.from_pydict({'w1': w1, 'w2': w2}) \
            .group_by(['w1', 'w2']).aggregate([('w1', 'count')])
        return pa.Table.from_pydict(
            {'w1': agg.column('w1').cast(pa.string()),
             'w2': agg.column('w2').cast(pa.string()),
             'cnt': agg.column('w1_count').cast(pa.int64())})

    pre = docs_ds.map_batches(partial, batch_format='pyarrow', batch_size=AGG_BATCH_SIZE)
    return pre.groupby(['w1', 'w2']).aggregate(Sum('cnt', alias_name='freq'))


def quality_scores(docs_ds, id_col: str = 'doc_id', text_col: str = 'text'):
    """Per-doc quality metrics: token count, distinct tokens, mean token
    length, stopword ratio (rounded 6dp for cross-engine comparability).

    Deliberately NOT the arrow flatten path: this operator needs a
    per-doc DISTINCT (set semantics), and the measured arrow variant
    (split_pattern → dictionary_encode → packed-pair np.unique) ran 1.8×
    SLOWER end-to-end than CPython's per-doc ``str.split`` + ``set`` (both
    already C loops) — 3.4 s vs 1.8 s on a 60k-doc corpus at 8 CPUs. The
    count-only operators (``blocklist_flags``, ``gopher_quality_flags``)
    DO take the arrow path, where it measures 1.3-2.2× faster."""
    def score(batch: pd.DataFrame) -> pd.DataFrame:
        n_tokens, n_uniq, avg_len, stop_ratio = [], [], [], []
        for text in batch[text_col]:
            toks = _split_tokens(text)
            n = len(toks)
            n_tokens.append(n)
            n_uniq.append(len(set(toks)))
            avg_len.append(round(sum(map(len, toks)) / n, 6) if n else 0.0)
            stop_ratio.append(round(sum(t in EN_STOPWORDS for t in toks) / n, 6) if n else 0.0)
        return pd.DataFrame({id_col: batch[id_col], 'n_tokens': n_tokens,
                             'n_uniq_tokens': n_uniq, 'avg_token_len': avg_len,
                             'stopword_ratio': stop_ratio})
    return docs_ds.map_batches(score, batch_format='pandas', batch_size=AGG_BATCH_SIZE)


def lexical_diversity(docs_ds, id_col: str = 'doc_id',
                      text_col: str = 'text'):
    """Per-doc lexical-diversity quality signals, libm-free so every float
    replays bit-identically in SQL: type-token ratio ``u / n`` and the
    Gini–Simpson diversity index ``1 − Σ c·(c−1) / (n·(n−1))`` (the
    probability two tokens drawn without replacement differ — the exact
    rational counterpart of Shannon entropy, whose ``ln`` would NOT replay
    across libms). One single-division float per signal, floor-scaled 6dp.

    Arrow-native one-pass: split/flatten + dictionary-encode + packed-pair
    ``np.unique`` (the ``_doc_token_tf`` kernel) feeds per-doc bincounts —
    no per-row Python. Empty docs emit ``n_tokens = 0`` with both signals
    0.0 (the SQL coalesce contract)."""
    def score(batch: pa.Table) -> pd.DataFrame:
        n_rows = batch.num_rows
        flat, parent, n_tokens = _ws_token_arrays(batch.column(text_col))
        if len(flat):
            de = pc.dictionary_encode(flat)
            if isinstance(de, pa.ChunkedArray):
                de = de.combine_chunks()
            codes = de.indices.to_numpy(zero_copy_only=False).astype(np.uint64)
            pair = (parent.astype(np.uint64) << np.uint64(32)) | codes
            u_pair, tf = np.unique(pair, return_counts=True)
            doc_of = (u_pair >> np.uint64(32)).astype(np.int64)
            n_types = np.bincount(doc_of, minlength=n_rows).astype(np.int64)
            rep = np.bincount(doc_of, weights=(tf * (tf - 1)).astype(np.float64),
                              minlength=n_rows)
        else:
            n_types = np.zeros(n_rows, dtype=np.int64)
            rep = np.zeros(n_rows, dtype=np.float64)
        n = n_tokens.astype(np.float64)
        with np.errstate(divide='ignore', invalid='ignore'):
            ttr = np.where(n_tokens > 0,
                           np.floor(n_types / n * 1e6) / 1e6, 0.0)
            gini = np.where(n_tokens > 1,
                            np.floor((1.0 - rep / (n * (n - 1.0))) * 1e6) / 1e6,
                            0.0)
        ids = batch.column(id_col).to_pandas()
        return pd.DataFrame({id_col: ids, 'n_tokens': n_tokens,
                             'n_types': n_types,
                             'type_token_ratio': ttr,
                             'gini_diversity': gini})

    return docs_ds.map_batches(score, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


def lang_id(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
            threshold: float = 0.05):
    """Heuristic language ID: English function-word ratio ≥ threshold → 'en'
    (n-gram-free deterministic stand-in; the actor-pool shape matches a real
    fastText-style model stage)."""
    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        preds = []
        for text in batch[text_col]:
            toks = _split_tokens(text)
            ratio = (sum(t in EN_STOPWORDS for t in toks) / len(toks)) if toks else 0.0
            preds.append('en' if ratio >= threshold else 'unknown')
        return pd.DataFrame({id_col: batch[id_col], 'pred_lang': preds})
    return docs_ds.map_batches(classify, batch_format='pandas', batch_size=AGG_BATCH_SIZE)


def repetition_stats(docs_ds, id_col: str = 'doc_id', text_col: str = 'text'):
    """Gopher-style repetition quality filters (Rae et al. 2021 §A1.1),
    per document:

    * ``top_bigram_frac`` — characters covered by the most frequent word
      2-gram (count × len(bigram incl. separator) / total chars); ties
      break to the lexicographically smallest bigram.
    * ``dup_5gram_frac`` — fraction of 5-gram OCCURRENCES that are repeats
      ((total − distinct) / total; the count-based variant of the paper's
      duplicated-n-gram filter — well-defined under overlap and
      SQL-replayable).

    Both floor-quantized to 6dp (the module's engine-independent
    quantization — floor-scaling has no half-even-vs-half-away divergence,
    unlike round); docs too short for the n-gram get 0.0. Training
    pipelines drop docs above thresholds (the paper uses 0.20 / 0.15)."""
    import math

    def q6(v: float) -> float:
        return math.floor(v * 1_000_000) / 1_000_000

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        top_bg, dup5 = [], []
        for text in batch[text_col]:
            toks = _split_tokens(text)
            n_chars = len(text)
            if len(toks) < 2 or n_chars == 0:
                top_bg.append(0.0)
            else:
                counts: dict = {}
                for a, b in zip(toks, toks[1:]):
                    bg = a + ' ' + b
                    counts[bg] = counts.get(bg, 0) + 1
                best = min(((-c, bg) for bg, c in counts.items()))
                cnt, bg = -best[0], best[1]
                top_bg.append(q6(cnt * len(bg) / n_chars))
            if len(toks) < 5:
                dup5.append(0.0)
            else:
                total = len(toks) - 4
                distinct = len({tuple(toks[i:i + 5]) for i in range(total)})
                dup5.append(q6((total - distinct) / total))
        return pd.DataFrame({id_col: batch[id_col],
                             'top_bigram_frac': top_bg,
                             'dup_5gram_frac': dup5})
    return docs_ds.map_batches(score, batch_format='pandas',
                               batch_size=AGG_BATCH_SIZE)


def fingerprints(docs_ds, id_col: str = 'doc_id', text_col: str = 'text',
                 window: int = 16, keep: int = 8, hash_fn=None):
    """Winnowing-style rolling-hash document fingerprints. Pass
    ``hash_fn=md5_hash64`` for DuckDB-checkable signatures."""
    from ..functions.hashing import stable_hash64
    hf = hash_fn or stable_hash64

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        out = [rolling_fingerprint(t, window, keep, hash_fn=hf)
               for t in batch[text_col]]
        return pd.DataFrame({id_col: batch[id_col], 'fingerprint': out})
    return docs_ds.map_batches(fp, batch_format='pandas', batch_size=AGG_BATCH_SIZE)


# BPE-style pretokenizer (ASCII simplification of the published GPT-2
# pattern — contractions, letter runs, digit runs, symbol runs, each with an
# optional leading space; RE2-compatible so the DuckDB oracle can recount)
BPE_PRETOKEN_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s']+"
_BPE_RE = None


def bpe_pretoken_count(text: str) -> int:
    global _BPE_RE
    if _BPE_RE is None:
        import re
        _BPE_RE = re.compile(BPE_PRETOKEN_PATTERN)
    return len(_BPE_RE.findall(text))


def bpe_token_counts(docs_ds, id_col: str = 'doc_id', text_col: str = 'text'):
    """Per-document BPE-ish pretoken count (the training-data token-budget
    signal; whitespace counts come from token_counts/quality scoring)."""
    import pandas as pd

    def count(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({id_col: batch[id_col],
                             'n_pretokens': [bpe_pretoken_count(t)
                                             for t in batch[text_col]]})

    return docs_ds.map_batches(count, batch_format='pandas',
                               batch_size=AGG_BATCH_SIZE)


#: vocab rows above which unigram scoring stops broadcasting the token →
#: logprob dim and switches to the token-keyed shuffle-join regime (web-
#: scale vocab is unbounded; a driver collect + ray.put of O(10^9) tokens
#: is the ceiling the gate removes).
UNIGRAM_BROADCAST_LIMIT = int(__import__('os').environ.get(
    'UNIGRAM_BROADCAST_LIMIT', 2_000_000))


def unigram_logprob_scores(docs_ds, id_col: str = 'doc_id',
                           text_col: str = 'text',
                           vocab_broadcast_limit: Optional[int] = None):
    """Corpus-statistics quality scoring: per-document sum of unigram log
    probabilities (the KenLM-style fluency/rarity signal of training-data
    filters), computed distributed in two passes:

    1. corpus token counts (two-phase; vocab-dim shuffle),
    2. one broadcast of the token → logprob table, then a stateless scoring
       map over the documents — OR, when the measured vocab cardinality
       exceeds ``vocab_broadcast_limit`` (default UNIGRAM_BROADCAST_LIMIT),
       a token-keyed shuffle join of the per-doc distinct-token counts
       against the logprob dim followed by a per-doc sum (no driver
       collect, no broadcast: the scale regime for unbounded web vocab).
       Both regimes are bit-identical (forced-low-gate equivalence test).

    Per-token logprobs are quantized to integer fixed-point log2 units
    (``log2_fixed(freq) - log2_fixed(N)``, scale 2^-20 bits) BEFORE
    summation, so document scores are exact integer sums — and because the
    quantization kernel is pure integer shift-and-square arithmetic
    (functions/hashing.log2_fixed), a SQL engine replays every per-token
    value bit-for-bit: no ``ln`` last-ulp or rounding-mode divergence can
    flip a micro-unit (the round-2 driver gate caught exactly that with the
    earlier ``round(ln(f/N)*1e6)`` contract)."""
    import ray

    from ..functions.hashing import log2_fixed
    from ..state.broadcast import get_broadcast
    from .relational import collect_pandas

    limit = (UNIGRAM_BROADCAST_LIMIT if vocab_broadcast_limit is None
             else vocab_broadcast_limit)
    counts_ds = token_counts(docs_ds, text_col=text_col).materialize()
    n_vocab = counts_ds.count()
    if n_vocab > max(limit, 0):
        return _unigram_scores_join(docs_ds, counts_ds, id_col, text_col)

    counts = collect_pandas(counts_ds)
    if counts.empty:   # token-less corpus: schema-less empty counts frame
        lp: Dict[str, int] = {}
    else:
        n_total = int(counts['freq'].sum())
        l2_n = log2_fixed(n_total)
        # cache per distinct freq: Zipfian corpora have few distinct counts
        l2_cache: Dict[int, int] = {}
        def _lp(f: int) -> int:
            q = l2_cache.get(f)
            if q is None:
                q = l2_cache[f] = log2_fixed(f)
            return q - l2_n
        lp = {t: _lp(int(f))
              for t, f in zip(counts['token'], counts['freq'])}
    ref = ray.put(lp)

    def score(batch: pa.Table) -> pa.Table:
        lp_ = get_broadcast(ref)
        ids, sums, ns = [], [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text)
            if not toks:
                continue   # token-less docs have no LM score (SQL inner join)
            ids.append(i)
            sums.append(sum(lp_.get(t, 0) for t in toks))
            ns.append(len(toks))
        return pa.Table.from_pydict({
            id_col: pa.array(ids, pa.int64()),
            'logprob_q': pa.array(sums, pa.int64()),
            'n_tokens': pa.array(ns, pa.int64()),
        })

    return docs_ds.map_batches(score, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


def _unigram_scores_join(docs_ds, counts_ds, id_col: str, text_col: str):
    """Shuffle-join regime of unigram_logprob_scores: (doc_id, token, tf)
    exploded rows join the (token, lp_q) dim on one co-partitioned hash
    exchange, partial per-doc sums combine before the doc-keyed groupby.
    The only driver value is the scalar corpus total N."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import log2_fixed
    from .relational import shuffle_join

    agg = counts_ds.aggregate(Sum('freq', alias_name='n_total'))
    n_total = int(agg['n_total']) if agg and agg.get('n_total') else 0
    l2_n = log2_fixed(n_total) if n_total else 0

    def to_lp(batch: pa.Table) -> pa.Table:
        cache: Dict[int, int] = {}
        lp = []
        for f in batch.column('freq').to_pylist():
            q = cache.get(f)
            if q is None:
                q = cache[f] = log2_fixed(int(f)) - l2_n
            lp.append(q)
        return pa.Table.from_pydict(
            {'token': batch.column('token'),
             'lp_q': pa.array(lp, pa.int64())})

    lp_dim = counts_ds.map_batches(to_lp, batch_format='pyarrow')

    def explode(batch: pa.Table) -> pa.Table:
        return _doc_token_tf(batch, id_col, text_col)

    doc_tokens = docs_ds.map_batches(explode, batch_format='pyarrow',
                                     batch_size=AGG_BATCH_SIZE)
    joined = shuffle_join(doc_tokens, lp_dim,
                          left_on='token', right_on='token', how='inner')

    def part(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype='int64'),
                                 'lp_part': pd.Series([], dtype='int64'),
                                 'tf_part': pd.Series([], dtype='int64')})
        df = df.assign(_c=df['tf'].astype('int64') * df['lp_q'].astype('int64'))
        g = df.groupby(id_col, as_index=False, sort=False).agg(
            lp_part=('_c', 'sum'), tf_part=('tf', 'sum'))
        return g

    pre = joined.map_batches(part, batch_format='pandas')
    # two-phase final sum (Dataset.groupby().aggregate() pays a ~70 s
    # sort-aggregate floor on the many tiny partial blocks a join emits)
    from .relational import two_phase_pandas_agg
    return two_phase_pandas_agg(pre, [id_col],
                                {'logprob_q': ('lp_part', 'sum'),
                                 'n_tokens': ('tf_part', 'sum')})


def importance_weights(docs_ds, target_docs_ds, id_col: str = 'doc_id',
                       text_col: str = 'text',
                       vocab_broadcast_limit: Optional[int] = None):
    """DSIR-style data-selection importance weights (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"):
    per-document ``weight_q = Σ_tok tf(tok) · (lp_target(tok) −
    lp_raw(tok))`` — the log importance ratio between a TARGET
    distribution (e.g. the high-quality subset one wants more of) and the
    RAW corpus distribution. Documents are then importance-resampled by
    rank or softmax downstream; the weight itself is the operator.

    Both unigram distributions are Laplace-(+1)-smoothed over the RAW
    vocabulary V (``target_docs_ds`` must be a subset of ``docs_ds``, so
    target tokens ⊆ raw tokens): ``lp_X(tok) = log2f(freq_X(tok)+1) −
    log2f(N_X + |V|)`` in integer fixed-point log2 units
    (functions/hashing.log2_fixed, scale 2^-20), making document weights
    exact integer sums that a SQL engine replays bit-for-bit.

    Scale shape mirrors ``unigram_logprob_scores``: two token-count
    passes (two-phase each), ONE token-keyed join to form the weight dim,
    then broadcast scoring when |V| ≤ ``vocab_broadcast_limit`` (default
    UNIGRAM_BROADCAST_LIMIT) or an exploded token-keyed shuffle join +
    per-doc sum above it — no driver collect in the scale regime. Both
    regimes are bit-identical (forced-low-gate test)."""
    import ray
    from ray.data.aggregate import Sum

    from ..functions.hashing import log2_fixed
    from ..state.broadcast import get_broadcast
    from .relational import collect_pandas, shuffle_join

    limit = (UNIGRAM_BROADCAST_LIMIT if vocab_broadcast_limit is None
             else vocab_broadcast_limit)
    raw_counts = token_counts(docs_ds, text_col=text_col).materialize()
    tgt_counts = token_counts(target_docs_ds,
                              text_col=text_col).materialize()
    n_vocab = raw_counts.count()

    def _tot(ds) -> int:
        agg = ds.aggregate(Sum('freq', alias_name='n'))
        return int(agg['n']) if agg and agg.get('n') else 0

    n_raw, n_tgt = _tot(raw_counts), _tot(tgt_counts)
    if n_vocab == 0:
        return docs_ds.map_batches(
            lambda t: pa.Table.from_pydict(
                {id_col: pa.array([], pa.int64()),
                 'weight_q': pa.array([], pa.int64()),
                 'n_tokens': pa.array([], pa.int64())}),
            batch_format='pyarrow')
    l2_nr = log2_fixed(n_raw + n_vocab)
    l2_nt = log2_fixed(n_tgt + n_vocab)

    # weight dim: one token-keyed left join of the two count dims (a
    # token-less target yields a schema-less empty counts dataset — every
    # raw token then carries freq_t = 0)
    if tgt_counts.count() == 0:
        dim = raw_counts.map_batches(
            lambda t: t.append_column('freq_t',
                                      pa.nulls(len(t), pa.int64())),
            batch_format='pyarrow')
    else:
        tgt_renamed = tgt_counts.map_batches(
            lambda t: pa.Table.from_pydict(
                {'token': t.column('token'), 'freq_t': t.column('freq')}),
            batch_format='pyarrow')
        dim = shuffle_join(raw_counts, tgt_renamed,
                           left_on='token', right_on='token', how='left')

    def to_w(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({'token': pd.Series([], dtype=object),
                                 'w_q': pd.Series([], dtype='int64')})
        cache: Dict[int, int] = {}

        def l2(v: int) -> int:
            q = cache.get(v)
            if q is None:
                q = cache[v] = log2_fixed(v)
            return q

        fr = df['freq'].astype('int64')
        ft = df['freq_t'].fillna(0).astype('int64')
        w = [(l2(int(t) + 1) - l2_nt) - (l2(int(r) + 1) - l2_nr)
             for r, t in zip(fr, ft)]
        return pd.DataFrame({'token': df['token'],
                             'w_q': pd.Series(w, dtype='int64')})

    w_dim = dim.map_batches(to_w, batch_format='pandas')

    if n_vocab > max(limit, 0):
        # scale regime: exploded (doc, token, tf) rows shuffle-join the
        # weight dim; per-doc partial sums combine before the final groupby
        def explode(batch: pa.Table) -> pa.Table:
            return _doc_token_tf(batch, id_col, text_col)

        doc_tokens = docs_ds.map_batches(explode, batch_format='pyarrow',
                                         batch_size=AGG_BATCH_SIZE)
        joined = shuffle_join(doc_tokens, w_dim,
                              left_on='token', right_on='token',
                              how='inner')

        def part(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame(
                    {id_col: pd.Series([], dtype='int64'),
                     'w_part': pd.Series([], dtype='int64'),
                     'tf_part': pd.Series([], dtype='int64')})
            df = df.assign(
                _c=df['tf'].astype('int64') * df['w_q'].astype('int64'))
            return df.groupby(id_col, as_index=False, sort=False).agg(
                w_part=('_c', 'sum'), tf_part=('tf', 'sum'))

        pre = joined.map_batches(part, batch_format='pandas')
        from .relational import two_phase_pandas_agg
        return two_phase_pandas_agg(pre, [id_col],
                                    {'weight_q': ('w_part', 'sum'),
                                     'n_tokens': ('tf_part', 'sum')})

    wt = collect_pandas(w_dim)
    wmap = dict(zip(wt['token'], wt['w_q'].astype('int64')))
    ref = ray.put(wmap)

    def score(batch: pa.Table) -> pa.Table:
        w_ = get_broadcast(ref)
        ids, sums, ns = [], [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text)
            if not toks:
                continue   # token-less docs carry no weight (SQL inner join)
            ids.append(i)
            sums.append(sum(int(w_.get(t, 0)) for t in toks))
            ns.append(len(toks))
        return pa.Table.from_pydict({
            id_col: pa.array(ids, pa.int64()),
            'weight_q': pa.array(sums, pa.int64()),
            'n_tokens': pa.array(ns, pa.int64()),
        })

    return docs_ds.map_batches(score, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


def ngram_novelty(docs_ds, shingle_size: int = 5, id_col: str = 'doc_id',
                  text_col: str = 'text'):
    """Per-document n-gram novelty — the memorization/diversity signal of
    a training corpus (Lee et al. 2022 framing: repeated n-grams are what
    models memorize): ``n_shingles`` = distinct word n-grams in the doc,
    ``n_novel`` = those appearing in NO other document (corpus
    doc-frequency 1). Docs shorter than the shingle get one whole-text
    shingle (the minhash contract).

    Scale shape: ONE gram-keyed exchange — (doc, md5(gram)) pairs
    (distinct per doc) bucket on the 64-bit hash, each bucket computes
    every gram's doc-frequency and emits per-doc partials, then one tiny
    doc-keyed sum. Hashing the gram shrinks the exchange from ~30-byte
    strings to int64 keys (3-5× fewer bytes; both engines hash with md5
    so any 64-bit collision — ~10^-7 at 10^6 grams — hits both sides
    identically)."""
    from ..functions.hashing import md5_hash64
    from .relational import bucketed_map, two_phase_pandas_agg

    def explode(batch: pa.Table) -> pa.Table:
        ids, hs = [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text)
            if not toks:
                continue
            if len(toks) < shingle_size:
                doc_grams = {' '.join(toks)}
            else:
                doc_grams = {' '.join(toks[j:j + shingle_size])
                             for j in range(len(toks) - shingle_size + 1)}
            for g in doc_grams:
                ids.append(i)
                hs.append(np.int64(np.uint64(md5_hash64(g)) - (1 << 63)))
        return pa.Table.from_pydict({
            id_col: pa.array(ids, batch.schema.field(id_col).type),
            'h': pa.array(hs, pa.int64())})

    pairs = docs_ds.map_batches(explode, batch_format='pyarrow',
                                batch_size=AGG_BATCH_SIZE)

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        if bucket.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype='int64'),
                                 's_part': pd.Series([], dtype='int64'),
                                 'n_part': pd.Series([], dtype='int64')})
        df = bucket.groupby('h')['h'].transform('size')
        nov = (df.to_numpy() == 1).astype('int64')
        out = pd.DataFrame({id_col: bucket[id_col].to_numpy(),
                            '_nov': nov, '_one': np.ones(len(bucket),
                                                         dtype='int64')})
        return out.groupby(id_col, as_index=False, sort=False).agg(
            s_part=('_one', 'sum'), n_part=('_nov', 'sum'))

    pre = bucketed_map(pairs, ['h'], per_bucket)
    # two-phase final sum (NOT Dataset.groupby().aggregate(): Ray's
    # sort-based aggregate took 74 s on the ~200k-row partials the
    # hash exchange emits as many tiny blocks — the repo's own combiner
    # does the same reduction in under a second)
    return two_phase_pandas_agg(pre, [id_col],
                                {'n_shingles': ('s_part', 'sum'),
                                 'n_novel': ('n_part', 'sum')})


def blocklist_flags(docs_ds, terms: Sequence[str],
                    id_col: str = 'doc_id', text_col: str = 'text'):
    """C4-style blocklist filter (Raffel et al. 2020 'bad words' rule):
    per document, the count of TOKEN matches against a blocklist and the
    drop flag (any match). Token-exact matching (the module's
    whitespace-token contract) so any engine replays the counts; the real
    deployment swaps in the full published list — the operator is the
    same broadcast set + one stateless pass at any list size."""
    block_arr = pa.array(sorted(frozenset(terms)), pa.string())

    def flags(t: pa.Table) -> pa.Table:
        nrows = t.num_rows
        flat, parent, _ = _ws_token_arrays(t.column(text_col))
        hit = pc.is_in(flat, value_set=block_arr) \
            .to_numpy(zero_copy_only=False)
        n = np.bincount(parent[hit], minlength=nrows).astype(np.int64)
        return pa.Table.from_pydict({
            id_col: t.column(id_col),
            'n_blocked': pa.array(n, pa.int64()),
            'blocked': pa.array((n > 0).astype(np.int64), pa.int64())})

    return docs_ds.map_batches(flags, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


_GOPHER_STOPWORDS = ('the', 'be', 'to', 'of', 'and', 'that', 'have',
                     'with')


def gopher_quality_flags(docs_ds, id_col: str = 'doc_id',
                         text_col: str = 'text', min_words: int = 50,
                         max_words: int = 100_000):
    """The Gopher rule-based quality filter suite (Rae et al. 2021 §A1.1)
    as per-document pass/fail flags, every rule in INTEGER
    cross-multiplication (no float ratios, so any engine replays each flag
    bit-for-bit):

    * ``pass_word_count`` — min_words ≤ n ≤ max_words
    * ``pass_mean_word_len`` — 3·n ≤ Σ len(word) ≤ 10·n (mean in [3, 10])
    * ``pass_symbol_ratio`` — 10·(#hashes + #ellipses) ≤ n (ratio ≤ 0.1)
    * ``pass_alpha_ratio`` — 5·|words with an ASCII letter| ≥ 4·n (≥80%;
      ASCII-letter contract so regex engines agree — swap in \\p{L} on
      both sides for unicode corpora)
    * ``pass_stopwords`` — ≥ 2 distinct words from the paper's 8-word list
    * ``pass_all`` — conjunction

    Stateless one-pass map — Arrow-native: split/flatten/segment-bincount
    per rule, no per-row (let alone per-token) Python loop (≡ the
    ``_split_tokens`` reference by property test). A distinct-stopword
    presence pass runs one vectorized equality per list word (8 kernels,
    each O(tokens)); training pipelines drop pass_all = 0."""
    def flags(t: pa.Table) -> pa.Table:
        nrows = t.num_rows
        texts = t.column(text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, '')
        flat, parent, n = _ws_token_arrays(texts)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        total_len = np.bincount(parent, weights=lens,
                                minlength=nrows).astype(np.int64)
        symbols = (pc.count_substring(texts, '#').to_numpy(
            zero_copy_only=False)
            + pc.count_substring(texts, '...').to_numpy(
                zero_copy_only=False)).astype(np.int64)
        has_alpha = pc.match_substring_regex(flat, '[A-Za-z]') \
            .to_numpy(zero_copy_only=False)
        alpha = np.bincount(parent[has_alpha], minlength=nrows)
        n_stop = np.zeros(nrows, dtype=np.int64)
        for w in _GOPHER_STOPWORDS:
            eq = pc.equal(flat, w).to_numpy(zero_copy_only=False)
            n_stop += (np.bincount(parent[eq], minlength=nrows) > 0)
        f_wc = ((n >= min_words) & (n <= max_words)).astype(np.int64)
        f_ml = ((n > 0) & (3 * n <= total_len)
                & (total_len <= 10 * n)).astype(np.int64)
        f_sy = (10 * symbols <= n).astype(np.int64)
        f_al = (5 * alpha >= 4 * n).astype(np.int64)
        f_st = (n_stop >= 2).astype(np.int64)
        return pa.Table.from_pydict({
            id_col: t.column(id_col),
            'n_words': pa.array(n, pa.int64()),
            'pass_word_count': pa.array(f_wc, pa.int64()),
            'pass_mean_word_len': pa.array(f_ml, pa.int64()),
            'pass_symbol_ratio': pa.array(f_sy, pa.int64()),
            'pass_alpha_ratio': pa.array(f_al, pa.int64()),
            'pass_stopwords': pa.array(f_st, pa.int64()),
            'pass_all': pa.array(f_wc & f_ml & f_sy & f_al & f_st,
                                 pa.int64())})

    return docs_ds.map_batches(flags, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


def perplexity_buckets(docs_ds, id_col: str = 'doc_id',
                       text_col: str = 'text'):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020): per-document
    normalized LM score ``ppl_q = (-logprob_q) // n_tokens`` (integer
    floor-division of the exact fixed-point unigram score — lower = more
    fluent), split into head / middle / tail at the EXACT global tertiles
    of the ppl_q distribution (the smallest value whose cumulative count
    reaches ceil(q·n) — quantile_disc semantics on both engines).

    Scale shape: the unigram scorer's two gated regimes upstream; the cut
    computation is grouped_quantiles_exact's value-HISTOGRAM exchange
    (bounded by the distinct-score dim, never row count; the two cut
    scalars are the only driver values); assignment is one stateless map."""
    from .relational import collect_pandas, grouped_quantiles_exact

    scores = unigram_logprob_scores(docs_ds, id_col=id_col,
                                    text_col=text_col)

    def to_ppl(t: pa.Table) -> pa.Table:
        lp = t.column('logprob_q').to_numpy(zero_copy_only=False)
        nt = t.column('n_tokens').to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({
            id_col: t.column(id_col),
            'ppl_q': pa.array((-lp) // nt, pa.int64())})

    ppl = scores.map_batches(to_ppl, batch_format='pyarrow').materialize()

    def with_g(t: pa.Table) -> pa.Table:
        return t.append_column('g', pa.array([0] * len(t), pa.int8()))

    cuts = collect_pandas(grouped_quantiles_exact(
        ppl.map_batches(with_g, batch_format='pyarrow'), ['g'], 'ppl_q',
        qs=(0.33, 0.67)))
    if cuts.empty:
        return ppl.map_batches(
            lambda t: t.append_column('bucket',
                                      pa.array([''] * len(t), pa.string())),
            batch_format='pyarrow')
    q33, q67 = int(cuts['q33'].iloc[0]), int(cuts['q67'].iloc[0])

    def bucket(t: pa.Table) -> pa.Table:
        p = t.column('ppl_q').to_numpy(zero_copy_only=False)
        lab = np.where(p <= q33, 'head',
                       np.where(p <= q67, 'middle', 'tail'))
        return t.append_column('bucket', pa.array(lab, pa.string()))

    return ppl.map_batches(bucket, batch_format='pyarrow')


def passage_chunks(docs_ds, window: int = 64, stride: int = 48,
                   id_col: str = 'doc_id', text_col: str = 'text'):
    """Overlapping passage windows per document (the RAG/embedding
    chunking geometry): chunk i covers tokens [i·stride, i·stride+window)
    for every start < n_tokens, so tails are kept as short final chunks.
    Emits (doc_id, chunk_idx, start, n_chunk_tokens, first_token,
    last_token) — geometry plus boundary tokens, all engine-replayable.
    Stateless per-row map; streams at any corpus size."""
    if stride <= 0 or window <= 0:
        raise ValueError('window and stride must be positive')

    def chunk(batch: pa.Table) -> pa.Table:
        ids, idxs, starts, lens, firsts, lasts = [], [], [], [], [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text)
            n = len(toks)
            st = 0
            ci = 0
            while st < n:
                m = min(window, n - st)
                ids.append(i)
                idxs.append(ci)
                starts.append(st)
                lens.append(m)
                firsts.append(toks[st])
                lasts.append(toks[st + m - 1])
                st += stride
                ci += 1
        return pa.Table.from_pydict({
            id_col: pa.array(ids, batch.schema.field(id_col).type),
            'chunk_idx': pa.array(idxs, pa.int64()),
            'start': pa.array(starts, pa.int64()),
            'n_chunk_tokens': pa.array(lens, pa.int64()),
            'first_token': pa.array(firsts, pa.string()),
            'last_token': pa.array(lasts, pa.string()),
        })

    return docs_ds.map_batches(chunk, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


def mixture_sample(ds, rates_permille: Dict[str, int], stratum_col: str,
                   id_col: str, salt: str = 'mix:42'):
    """Deterministic mixture/domain sampling: per-stratum Bernoulli rates
    (training-data mixing — e.g. upsample low-resource languages,
    downsample boilerplate-heavy sources). Membership is the pure salted
    md5 function of the id, like hash_sample; unknown strata drop (rate
    0). No shuffle, no RNG state, resumable."""
    from ..functions.hashing import md5_hash64_batch

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        rates = batch[stratum_col].map(
            lambda s: rates_permille.get(s, 0)).to_numpy(dtype=np.int64)
        hv = md5_hash64_batch(batch[id_col], f'{salt}:')
        return batch[(hv % 1000).astype(np.int64) < rates]

    return ds.map_batches(keep, batch_format='pandas',
                          batch_size=AGG_BATCH_SIZE)


def tfidf_top_terms(docs_ds, k: int = 5, id_col: str = 'doc_id',
                    text_col: str = 'text'):
    """Per-document top-k TF-IDF terms, exact-integer contract: score_q =
    tf × (log2_fixed(N_docs) − log2_fixed(df)) so any engine replays every
    score bit-for-bit (same shift-and-square kernel as the unigram LM).

    Join-shaped from the start (the unbounded-vocab scale regime — no
    driver collect, no broadcast): (doc_id, token, tf) exploded rows
    shuffle-join the (token, idf_q) dim, then one doc-keyed top-k exchange
    ranks by (score desc, token asc). Only the scalar N_docs reaches the
    driver."""
    from ..functions.hashing import log2_fixed
    from .relational import shuffle_join, topk_per_group, two_phase_count

    def explode(batch: pa.Table) -> pa.Table:
        return _doc_token_tf(batch, id_col, text_col)

    dtf = docs_ds.map_batches(explode, batch_format='pyarrow',
                              batch_size=AGG_BATCH_SIZE).materialize()
    if dtf.count() == 0:    # token-less corpus: typed empty result (the
        import ray.data as rd   # downstream groupby would lose the schema)
        sch = dtf.schema()
        id_type = dict(zip(sch.names, sch.types))[id_col]
        return rd.from_arrow(pa.Table.from_pydict({
            id_col: pa.array([], id_type),
            'token': pa.array([], pa.string()),
            'score_q': pa.array([], pa.int64())}))
    df_dim = two_phase_count(dtf.select_columns(['token']), ['token'],
                             alias='df')
    n_docs = docs_ds.count()
    l2_n = log2_fixed(n_docs) if n_docs else 0

    def to_idf(batch: pa.Table) -> pa.Table:
        cache: Dict[int, int] = {}
        idf = []
        for f in batch.column('df').to_pylist():
            q = cache.get(f)
            if q is None:
                q = cache[f] = l2_n - log2_fixed(int(f))
            idf.append(q)
        return pa.Table.from_pydict({'token': batch.column('token'),
                                     'idf_q': pa.array(idf, pa.int64())})

    idf_dim = df_dim.map_batches(to_idf, batch_format='pyarrow')
    joined = shuffle_join(dtf, idf_dim, left_on='token', right_on='token',
                          how='inner')

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype='int64'),
                                 'token': pd.Series([], dtype='object'),
                                 'score_q': pd.Series([], dtype='int64')})
        return pd.DataFrame({
            id_col: df[id_col],
            'token': df['token'],
            'score_q': (df['tf'].astype('int64')
                        * df['idf_q'].astype('int64')),
        })

    scored = joined.map_batches(score, batch_format='pandas')
    return topk_per_group(scored, id_col, ['score_q', 'token'],
                          [False, True], k)


def split_contamination(docs_ds, id_col: str = 'doc_id',
                        text_col: str = 'text', shingle_size: int = 5,
                        test_split: int = 0, n_splits: int = 10):
    """Train/test contamination check: for every document of the held-out
    hash split, the number of distinct ``shingle_size``-gram shingles it
    shares with ANY training-split document. The split is the pure-md5 hash
    split (engine-independent); shingle hashes are md5-based so a SQL
    engine replays the whole check. One shingle-keyed exchange; the shingle
    dim is bounded by distinct n-grams, not document pairs."""
    import pandas as pd

    from ..functions.hashing import MinHasher, md5_hash64
    from .relational import bucketed_map, two_phase_count

    mh = MinHasher(shingle_size=shingle_size, shingle_hash=md5_hash64)

    def shingles(batch: pa.Table) -> pa.Table:
        ids, splits, hs = [], [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            split = md5_hash64(str(int(i))) % n_splits
            for h in mh.shingles(_split_tokens(text)):
                ids.append(i)
                splits.append(split)
                hs.append(np.int64(np.uint64(h) - (1 << 63)))
        return pa.Table.from_pydict({
            id_col: pa.array(ids, pa.int64()),
            'split': pa.array(splits, pa.int64()),
            'h': pa.array(hs, pa.int64()),
        })

    sh = docs_ds.map_batches(shingles, batch_format='pyarrow',
                             batch_size=AGG_BATCH_SIZE)

    def contaminated(bucket: pd.DataFrame) -> pd.DataFrame:
        train_hs = set(bucket.loc[bucket['split'] != test_split, 'h'])
        if not train_hs:
            return pd.DataFrame()
        hit = bucket[(bucket['split'] == test_split)
                     & bucket['h'].isin(train_hs)]
        return hit[[id_col, 'h']].drop_duplicates()

    hits = bucketed_map(sh, ['h'], contaminated)
    return two_phase_count(hits, [id_col], alias='shared_shingles')


# --- character-n-gram language ID --------------------------------------------

# function-word inventories the trigram profiles derive from (deterministic,
# no external model; the fastText-style profile classifier shape)
LANG_FUNCTION_WORDS = {
    'en': ('the and of to in that it is was for on are with as his they at '
           'be this have from or had by not but what all were when there'),
    'fr': ('le la les de des du et est une un dans que qui pour sur avec ne '
           'pas ce cette ses son au aux par plus mais ou comme elle nous'),
    'de': ('der die das und ist ein eine nicht mit von zu den dem des sich '
           'auf für als auch es an werden aus er hat dass sie nach wird'),
    'es': ('el la los las de del y es una un en que no con por para se su '
           'al lo como más pero sus le ha me si sin sobre este entre'),
}

_LANG_TRIGRAM_TOP = 20


def lang_trigram_profile(lang: str, top: int = _LANG_TRIGRAM_TOP) -> List[str]:
    """Top character trigrams (count desc, trigram asc) of the language's
    padded function-word text — the embedded 'model'."""
    words = LANG_FUNCTION_WORDS[lang].split()
    text = ''.join(f' {w} ' for w in words)
    counts: dict = {}
    for i in range(len(text) - 2):
        tg = text[i:i + 3]
        counts[tg] = counts.get(tg, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tg for tg, _ in ranked[:top]]


def lang_id_ngram(docs_ds, id_col: str = 'doc_id', text_col: str = 'text'):
    """Character-trigram language ID over en/fr/de/es (the brief's
    'language-ID (n-gram heuristic)'): score(lang) = Σ non-overlapping
    occurrences of the language's profile trigrams in ' '+lower(text)+' ';
    prediction = argmax score (ties → alphabetically first language),
    'unknown' when every score is 0. ``str.count`` and SQL's
    ``(length(t)-length(replace(t,tg,'')))/3`` count identically, so the
    classifier is engine-replayable (generated oracle)."""
    profiles = {l: lang_trigram_profile(l) for l in LANG_FUNCTION_WORDS}
    langs = sorted(profiles)

    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        texts = [' ' + (t or '').lower() + ' ' for t in batch[text_col]]
        import numpy as np
        scores = np.zeros((len(texts), len(langs)), dtype=np.int64)
        for li, lang in enumerate(langs):
            for tg in profiles[lang]:
                scores[:, li] += [t.count(tg) for t in texts]
        best = np.argmax(scores, axis=1)   # ties → first (alphabetical)
        preds = [langs[b] if scores[i, b] > 0 else 'unknown'
                 for i, b in enumerate(best)]
        return pd.DataFrame({id_col: batch[id_col], 'pred_lang': preds})

    return docs_ds.map_batches(classify, batch_format='pandas',
                               batch_size=AGG_BATCH_SIZE)


def packed_sequences(docs_ds, capacity: int = 512, id_col: str = 'doc_id',
                     text_col: str = 'text', coarse: Optional[int] = None):
    """Training-sequence packing (GPT-style concat-and-split): tokens of all
    documents, ordered by ``id_col``, are conceptually concatenated and cut
    every ``capacity`` tokens; each doc reports its global token offset and
    the first/last training sequence its span lands in. This is the doc →
    sequence index a 100 TB pretraining shard writer needs, computed
    WITHOUT any global sort-and-scan on one machine:

    1. slim per-doc token counts carry a RANGE bucket ``id // width``
       (width sized so buckets ≈ cluster tasks),
    2. per-bucket token totals aggregate two-phase; ONLY the O(coarse)
       bucket totals reach the driver, where an exclusive scan yields each
       bucket's global token offset (broadcast once via ray.put),
    3. one co-partitioned exchange per bucket: sort by id, local exclusive
       cumsum + the bucket's offset = the exact global prefix sum.

    Partitioning assumption (documented per the custom-operator contract):
    ids are roughly uniformly dense over [0, max_id] so range buckets
    balance; for sparse/hashed ids substitute a rank-partitioned bucket.
    All arithmetic is int64-exact, so a SQL window ``sum() OVER (ORDER BY
    id ROWS UNBOUNDED PRECEDING ... 1 PRECEDING)`` replays it bit-for-bit.
    Zero-token docs are dropped (they occupy no span; SQL WHERE mirror)."""
    import ray
    from ray.data.aggregate import Max

    from ..state.broadcast import get_broadcast
    from .relational import bucket_exchange, collect_pandas, default_coarse

    if coarse is None:
        coarse = default_coarse()

    def count(batch: pa.Table) -> pa.Table:
        ids, ns = [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            n = len(_split_tokens(text or ''))
            if n:
                ids.append(i)
                ns.append(n)
        return pa.Table.from_pydict({
            id_col: pa.array(ids, pa.int64()),
            'n_tokens': pa.array(ns, pa.int64()),
        })

    counts = docs_ds.map_batches(count, batch_format='pyarrow',
                                 batch_size=AGG_BATCH_SIZE).materialize()
    agg = counts.aggregate(Max(id_col, alias_name='m'))
    max_id = int(agg['m']) if agg and agg.get('m') is not None else 0
    width = max(1, max_id // coarse + 1)

    def add_bucket(t: pa.Table) -> pa.Table:
        b = (np.asarray(t.column(id_col)) // width).astype('int32')
        return t.append_column('_coarse', pa.array(b, pa.int32()))

    bucketed = counts.map_batches(add_bucket, batch_format='pyarrow',
                                  batch_size=AGG_BATCH_SIZE)

    # two-phase bucket totals: per-batch partial sums, tiny driver groupby
    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({'b': np.asarray(t.column('_coarse')),
                           'n': np.asarray(t.column('n_tokens'))})
        g = df.groupby('b', sort=False)['n'].sum().reset_index()
        return pa.Table.from_pydict({'b': pa.array(g['b'], pa.int32()),
                                     'n': pa.array(g['n'], pa.int64())})

    parts = collect_pandas(bucketed.map_batches(
        partial, batch_format='pyarrow', batch_size=AGG_BATCH_SIZE))
    offsets: Dict[int, int] = {}
    if len(parts):
        totals = parts.groupby('b')['n'].sum().sort_index()
        run = 0
        for b, n in totals.items():
            offsets[int(b)] = run
            run += int(n)
    ref = ray.put(offsets)

    def pack(t: pa.Table) -> pa.Table:
        off = get_broadcast(ref)
        df = pd.DataFrame({id_col: np.asarray(t.column(id_col)),
                           'n_tokens': np.asarray(t.column('n_tokens'))})
        df = df.sort_values(id_col, kind='mergesort')
        ids = df[id_col].to_numpy()
        ns = df['n_tokens'].to_numpy()
        excl = np.cumsum(ns) - ns
        bk = ids // width
        # per-bucket base: bucket's global offset minus its local start
        starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
        base = np.zeros(len(ids), dtype=np.int64)
        for s_i in starts:
            e_i = int(bk[s_i])
            base[s_i:] = off[e_i] - excl[s_i]   # overwritten by later buckets
        tok_offset = excl + base
        # pandas out: the exchange reducer concatenates bucket results with
        # pd.concat; all columns are null-free int64 so nothing can demote
        return pd.DataFrame({
            id_col: ids.astype('int64'),
            'n_tokens': ns.astype('int64'),
            'tok_offset': tok_offset.astype('int64'),
            'first_seq': (tok_offset // capacity).astype('int64'),
            'last_seq': ((tok_offset + ns - 1) // capacity).astype('int64'),
        })

    return bucket_exchange(bucketed, pack, coarse=coarse, batch_format='pyarrow')


#: distinct-host rows above which host_quality_docs stops broadcasting the
#: kept-host set and switches to a host-keyed shuffle join (web-scale host
#: cardinality is O(10^8); a driver collect of every host is the ceiling
#: the gate removes). Same pattern as UNIGRAM_BROADCAST_LIMIT.
HOST_BROADCAST_LIMIT = int(__import__('os').environ.get(
    'HOST_BROADCAST_LIMIT', 1_000_000))


def host_quality_docs(docs_ds, host_col: str = 'source',
                      id_col: str = 'doc_id', text_col: str = 'text',
                      min_uniq_permille: int = 430,
                      host_broadcast_limit: Optional[int] = None):
    """Host-level quality filtering (the RefinedWeb/FineWeb-style rule
    'drop every document from a low-quality host'): a host is kept when its
    corpus-wide lexical diversity clears a per-mille bar —
    ``sum(distinct_tokens) * 1000 >= min_uniq_permille * sum(tokens)``,
    integer cross-multiplied so both engines decide identically (no float
    ratio). Two phases:

    1. per-batch partial (host, Σuniq, Σtokens) sums combine before one
       small host-keyed groupby — a popular host never ships raw rows,
    2. kept hosts either broadcast (≤ ``host_broadcast_limit`` measured
       rows) into a stateless filter map, or — the web-scale regime —
       stay a Dataset and anti-drop via one host-keyed shuffle join.
       Both regimes are row-identical (forced-low-gate test)."""
    import ray

    from ray.data.aggregate import Sum

    from ..state.broadcast import get_broadcast
    from .relational import collect_pandas, shuffle_join

    limit = (HOST_BROADCAST_LIMIT if host_broadcast_limit is None
             else host_broadcast_limit)

    def stats(batch: pa.Table) -> pa.Table:
        hs: Dict[str, List[int]] = {}
        for h, text in zip(batch.column(host_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text or '')
            cur = hs.setdefault(h, [0, 0])
            cur[0] += len(set(toks))
            cur[1] += len(toks)
        keys = sorted(hs)
        return pa.Table.from_pydict({
            host_col: pa.array(keys, pa.string()),
            'u': pa.array([hs[k][0] for k in keys], pa.int64()),
            'n': pa.array([hs[k][1] for k in keys], pa.int64()),
        })

    per_host = (docs_ds.map_batches(stats, batch_format='pyarrow',
                                    batch_size=AGG_BATCH_SIZE)
                .groupby(host_col)
                .aggregate(Sum('u', alias_name='su'), Sum('n', alias_name='sn')))

    def keep_mask(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc
        ok = _pc.greater_equal(_pc.multiply(t.column('su'), 1000),
                               _pc.multiply(t.column('sn'),
                                            min_uniq_permille))
        return t.filter(ok).select([host_col])

    kept = per_host.map_batches(keep_mask, batch_format='pyarrow'
                                ).materialize()
    docs_slim = docs_ds.select_columns([id_col, host_col])
    if kept.count() <= max(limit, 0):
        keep_set = frozenset(collect_pandas(kept)[host_col]) \
            if kept.count() else frozenset()
        ref = ray.put(keep_set)

        def filt(t: pa.Table) -> pa.Table:
            ks = get_broadcast(ref)
            mask = pa.array([h in ks for h in
                             t.column(host_col).to_pylist()], pa.bool_())
            return t.filter(mask)

        return docs_slim.map_batches(filt, batch_format='pyarrow',
                                     batch_size=AGG_BATCH_SIZE)
    out = shuffle_join(docs_slim, kept, host_col, host_col, how='inner')
    return out


#: combined (vocab + frequent-bigram) dim rows above which
#: bigram_backoff_scores stops broadcasting and shuffle-joins (web-scale
#: bigram vocab is unbounded). Same pattern as UNIGRAM_BROADCAST_LIMIT.
BIGRAM_BROADCAST_LIMIT = int(__import__('os').environ.get(
    'BIGRAM_BROADCAST_LIMIT', 2_000_000))

#: fixed-point log2 penalty for the backoff branch (4.0 bits at F=20 —
#: the classic "stupid backoff"-style discount, integer so both engines
#: subtract identically)
BIGRAM_BACKOFF_PENALTY_Q = 4 << 20


def bigram_backoff_scores(docs_ds, id_col: str = 'doc_id',
                          text_col: str = 'text', min_count: int = 3,
                          penalty_q: int = BIGRAM_BACKOFF_PENALTY_Q,
                          dim_broadcast_limit: Optional[int] = None):
    """Bigram LM document scoring with stupid-backoff to the unigram model
    (the KenLM-style fluency signal, one order up from
    unigram_logprob_scores): for each adjacent pair (w1, w2) of a doc,

    * seen pair (corpus freq ≥ min_count):  lp = l2(bf) − l2(uf(w1))
      (the conditional log2 P(w2|w1)),
    * unseen pair (backoff):                lp = l2(uf(w2)) − l2(N) − penalty,

    with every l2 the integer shift-and-square ``log2_fixed`` kernel —
    per-pair values are exact int64, doc scores exact integer sums, and a
    SQL engine replays the whole model bit-for-bit (same recursive-CTE
    twin as the unigram contract). Emits (doc_id, logprob_q, n_pairs);
    docs with < 2 tokens drop (no pairs — SQL inner-join mirror).

    Regimes: the (unigram ∪ frequent-bigram) dims broadcast when their
    measured combined cardinality ≤ ``dim_broadcast_limit``; above it the
    exploded per-doc pair counts take three co-partitioned shuffle joins
    (pair → bigram dim, w1/w2 → unigram dim) with partial per-doc sums —
    no driver collect. Both regimes are bit-identical (forced-gate test)."""
    import ray
    from ray.data.aggregate import Sum

    from ..functions.hashing import log2_fixed
    from ..state.broadcast import get_broadcast
    from .relational import arrow_filter, collect_pandas

    limit = (BIGRAM_BROADCAST_LIMIT if dim_broadcast_limit is None
             else dim_broadcast_limit)
    uni_ds = token_counts(docs_ds, text_col=text_col).materialize()
    big_ds = arrow_filter(
        bigram_counts(docs_ds, text_col=text_col),
        lambda t: pc.greater_equal(t['freq'], min_count)).materialize()
    n_dim = uni_ds.count() + big_ds.count()
    if n_dim > max(limit, 0):
        return _bigram_scores_join(docs_ds, uni_ds, big_ds, id_col,
                                   text_col, penalty_q)

    uni = collect_pandas(uni_ds)
    big = collect_pandas(big_ds)
    l2_cache: Dict[int, int] = {}

    def _l2(f: int) -> int:
        q = l2_cache.get(f)
        if q is None:
            q = l2_cache[f] = log2_fixed(f)
        return q

    if uni.empty:
        u_l2: Dict[str, int] = {}
        l2_n = 0
    else:
        l2_n = _l2(int(uni['freq'].sum()))
        u_l2 = {t: _l2(int(f)) for t, f in zip(uni['token'], uni['freq'])}
    b_l2 = ({} if big.empty else
            {(a, b): _l2(int(f))
             for a, b, f in zip(big['w1'], big['w2'], big['freq'])})
    ref = ray.put((u_l2, b_l2, l2_n))

    def score(batch: pa.Table) -> pa.Table:
        u_, b_, n_ = get_broadcast(ref)
        ids, sums, ns = [], [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text or '')
            if len(toks) < 2:
                continue
            s = 0
            for a, b in zip(toks, toks[1:]):
                l2b = b_.get((a, b))
                if l2b is not None:
                    s += l2b - u_[a]
                else:
                    s += u_[b] - n_ - penalty_q
            ids.append(i)
            sums.append(s)
            ns.append(len(toks) - 1)
        return pa.Table.from_pydict({
            id_col: pa.array(ids, pa.int64()),
            'logprob_q': pa.array(sums, pa.int64()),
            'n_pairs': pa.array(ns, pa.int64()),
        })

    return docs_ds.map_batches(score, batch_format='pyarrow',
                               batch_size=AGG_BATCH_SIZE)


def _bigram_scores_join(docs_ds, uni_ds, big_ds, id_col: str, text_col: str,
                        penalty_q: int):
    """Shuffle-join regime of bigram_backoff_scores: per-doc distinct pair
    counts join the bigram dim (left, on the packed pair key) and the
    unigram dim (on w1 and on w2); the only driver value is the scalar N.
    All l2 values < 2^27, so the nullable-join float64 transit is exact."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import log2_fixed
    from .relational import shuffle_join

    agg = uni_ds.aggregate(Sum('freq', alias_name='n_total'))
    n_total = int(agg['n_total']) if agg and agg.get('n_total') else 0
    l2_n = log2_fixed(n_total) if n_total else 0

    def to_l2(col_out: str):
        def conv(batch: pa.Table) -> pa.Table:
            cache: Dict[int, int] = {}
            out = []
            for f in batch.column('freq').to_pylist():
                q = cache.get(f)
                if q is None:
                    q = cache[f] = log2_fixed(int(f))
                out.append(q)
            return batch.drop_columns(['freq']).append_column(
                col_out, pa.array(out, pa.int64()))
        return conv

    u_dim = uni_ds.map_batches(to_l2('l2u'), batch_format='pyarrow')
    b_dim = big_ds.map_batches(to_l2('l2b'), batch_format='pyarrow')

    def pack_pair(batch: pa.Table) -> pa.Table:
        pk = pc.binary_join_element_wise(batch.column('w1'),
                                         batch.column('w2'), '\x00')
        return batch.append_column('_pk', pk)

    b_dim = b_dim.map_batches(pack_pair, batch_format='pyarrow'
                              ).drop_columns(['w1', 'w2'])

    def explode(batch: pa.Table) -> pa.Table:
        ids, w1s, w2s, cs = [], [], [], []
        for i, text in zip(batch.column(id_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            toks = _split_tokens(text or '')
            for pair, c in Counter(zip(toks, toks[1:])).items():
                ids.append(i)
                w1s.append(pair[0])
                w2s.append(pair[1])
                cs.append(c)
        t = pa.Table.from_pydict({
            id_col: pa.array(ids, pa.int64()),
            'w1': pa.array(w1s, pa.string()),
            'w2': pa.array(w2s, pa.string()),
            'c': pa.array(cs, pa.int64())})
        return pack_pair(t)

    pairs = docs_ds.map_batches(explode, batch_format='pyarrow',
                                batch_size=AGG_BATCH_SIZE)
    j = shuffle_join(pairs, b_dim, left_on='_pk', right_on='_pk', how='left')
    j = shuffle_join(j, u_dim.map_batches(
        lambda t: t.rename_columns(['w1j', 'l2u1']), batch_format='pyarrow'),
        left_on='w1', right_on='w1j', how='inner')
    j = shuffle_join(j, u_dim.map_batches(
        lambda t: t.rename_columns(['w2j', 'l2u2']), batch_format='pyarrow'),
        left_on='w2', right_on='w2j', how='inner')

    def part(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({id_col: pd.Series([], dtype='int64'),
                                 'lp_part': pd.Series([], dtype='int64'),
                                 'c_part': pd.Series([], dtype='int64')})
        c = df['c'].astype('int64')
        matched = df['l2b'].notna()
        lp = np.where(
            matched,
            df['l2b'].fillna(0).astype('int64') - df['l2u1'].astype('int64'),
            df['l2u2'].astype('int64') - l2_n - penalty_q)
        g = (df.assign(_c=c * lp)
             .groupby(id_col, as_index=False, sort=False)
             .agg(lp_part=('_c', 'sum'), c_part=('c', 'sum')))
        return g

    pre = j.map_batches(part, batch_format='pandas')
    return pre.groupby(id_col).aggregate(
        Sum('lp_part', alias_name='logprob_q'),
        Sum('c_part', alias_name='n_pairs'))


def cooccurrence_pmi(docs_ds, text_col: str = 'text', window: int = 5,
                     min_pairs: int = 5):
    """Windowed co-occurrence PMI over the corpus (the relation-discovery /
    collocation signal of KG mining): unordered token pairs within
    ``window`` positions score

        pmi_q = l2(c_ab) + l2(T) − l2(c_a) − l2(c_b)

    in integer log2 fixed point (functions/hashing.log2_fixed), where c_ab
    is the windowed pair count, c_a/c_b the windowed-occurrence marginals
    (each token counted once per window slot it opens, i.e. its total
    pair-slot count), and T the total pair count — all exact int64, so the
    SQL twin replays every score bit-for-bit through the same recursive
    log2 CTE. Window capping keeps the explode LINEAR in document length
    (window × n tokens, not n²) — the 100 TB shape. ``min_pairs`` prunes
    the noise tail before the dim-sized pair aggregate."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import log2_fixed
    from .relational import arrow_filter

    def pair_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch.column(text_col).to_pylist():
            toks = _split_tokens(text or '')
            n = len(toks)
            for i in range(n - 1):
                for j in range(i + 1, min(i + window + 1, n)):
                    a, b = toks[i], toks[j]
                    if a > b:
                        a, b = b, a
                    c[(a, b)] += 1
        return pa.Table.from_pydict({
            'w1': pa.array([k[0] for k in c], pa.string()),
            'w2': pa.array([k[1] for k in c], pa.string()),
            'cnt': pa.array(list(c.values()), pa.int64())})

    pair_counts = (docs_ds.map_batches(pair_partial, batch_format='pyarrow',
                                       batch_size=AGG_BATCH_SIZE)
                   .groupby(['w1', 'w2'])
                   .aggregate(Sum('cnt', alias_name='c_ab'))).materialize()

    # marginals: each token's total pair-slot count = sum of its pair counts
    def explode_marg(t: pa.Table) -> pa.Table:
        w = pa.concat_arrays([t.column('w1').combine_chunks(),
                              t.column('w2').combine_chunks()])
        c = pa.concat_arrays([t.column('c_ab').combine_chunks()] * 2)
        return pa.Table.from_pydict({'tok': w, 'c': c})

    marg = (pair_counts.map_batches(explode_marg, batch_format='pyarrow')
            .groupby('tok').aggregate(Sum('c', alias_name='c_tok')))
    agg = pair_counts.aggregate(Sum('c_ab', alias_name='t'))
    total = int(agg['t']) if agg and agg.get('t') else 0
    if not total:
        import ray.data as rd
        return rd.from_pandas(pd.DataFrame({
            'w1': pd.Series(dtype=object), 'w2': pd.Series(dtype=object),
            'c_ab': pd.Series(dtype='int64'),
            'pmi_q': pd.Series(dtype='int64')}))
    l2_t = log2_fixed(total)

    from .relational import pin_arrow, shuffle_join
    kept = arrow_filter(pair_counts,
                        lambda t: pc.greater_equal(t['c_ab'], min_pairs))
    j = shuffle_join(kept, marg.map_batches(
        lambda t: t.rename_columns(['t1', 'm1']), batch_format='pyarrow'),
        left_on='w1', right_on='t1', how='inner')
    # join-1 output is pandas blocks — re-pin to typed arrow so join-2
    # keeps the arrow exchange path (stable block schemas)
    j = shuffle_join(pin_arrow(j, w1='str', w2='str', c_ab='int', m1='int'),
                     marg.map_batches(
        lambda t: t.rename_columns(['t2', 'm2']), batch_format='pyarrow'),
        left_on='w2', right_on='t2', how='inner')

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({'w1': pd.Series(dtype=object),
                                 'w2': pd.Series(dtype=object),
                                 'c_ab': pd.Series(dtype='int64'),
                                 'pmi_q': pd.Series(dtype='int64')})
        cache: Dict[int, int] = {}

        def l2(v: int) -> int:
            q = cache.get(v)
            if q is None:
                q = cache[v] = log2_fixed(int(v))
            return q

        pmi = [l2(ca) + l2_t - l2(m1) - l2(m2)
               for ca, m1, m2 in zip(df['c_ab'], df['m1'], df['m2'])]
        return pd.DataFrame({'w1': df['w1'], 'w2': df['w2'],
                             'c_ab': df['c_ab'].astype('int64'),
                             'pmi_q': pd.Series(pmi, dtype='int64')})

    return j.map_batches(score, batch_format='pandas',
                         batch_size=AGG_BATCH_SIZE)


def chi2_keyword_saliency(docs_ds, k: int = 5, text_col: str = 'text',
                          lang_col: str = 'lang'):
    """Per-language salient keywords by chi-squared association — the
    feature-selection / corpus-drift statistic curation pipelines run to
    characterize what distinguishes one slice (language, domain, crawl)
    from the rest. For token w and slice ℓ over the 2×2 contingency
    (a = count(w, ℓ), t = count(w), L = count(ℓ), N = total):
    ``χ² = N·(a·d − b·c)² / (t·(N−t)·L·(N−L))`` with b = t−a, c = L−a,
    d = N−t−L+a — all EXACT integer arithmetic (unbounded Python ints)
    until the single final floor-scaled division, so any engine replays
    the value bit-for-bit.

    Scale shape: (lang, token) counts collapse two-phase (arrow-native
    split + value_counts per batch); token totals come from ONE
    token-keyed exchange (t is a within-group sum, no extra join); the
    language totals are a |langs|-row dim collected once and broadcast.
    Top-k per language ranks on the floored χ² with token tiebreak."""
    from .relational import (bucketed_map, collect_pandas, grouped_map,
                             topk_per_group, two_phase_pandas_agg)

    def partial(batch: pa.Table) -> pa.Table:
        langs, toks, cnts = [], [], []
        tbl = batch.select([lang_col, text_col])
        df = tbl.to_pandas()
        for lang, sub in df.groupby(lang_col, sort=False, dropna=False):
            flat, _, _ = _ws_token_arrays(
                pa.chunked_array([pa.array(sub[text_col], pa.string())]))
            vc = pc.value_counts(flat)
            vals = vc.field('values').to_pylist()
            cs = vc.field('counts').to_pylist()
            langs.extend([lang] * len(vals))
            toks.extend(vals)
            cnts.extend(cs)
        return pa.Table.from_pydict({
            lang_col: pa.array(langs, pa.string()),
            'token': pa.array(toks, pa.string()),
            '_a': pa.array(cnts, pa.int64())})

    pre = docs_ds.map_batches(partial, batch_format='pyarrow',
                              batch_size=AGG_BATCH_SIZE)
    pairs = two_phase_pandas_agg(pre, [lang_col, 'token'],
                                 {'a': ('_a', 'sum')})

    # language totals: a |langs|-row dim — collect once, broadcast
    lang_tot = collect_pandas(two_phase_pandas_agg(
        pairs, [lang_col], {'L': ('a', 'sum')}))
    L_of = {r[lang_col]: int(r['L']) for _, r in lang_tot.iterrows()}
    N = sum(L_of.values())

    def with_token_total(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, sub in g.groupby('token', sort=False):
            t = int(sub['a'].sum())
            s = sub.copy()
            s['t'] = t
            out.append(s)
        return pd.concat(out) if out else g.assign(t=pd.Series(dtype='int64'))

    with_t = grouped_map(pairs, ['token'], with_token_total)

    def chi2(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in b.iterrows():
            a, t = int(r['a']), int(r['t'])
            L = L_of[r[lang_col]]
            if t >= N or L >= N:
                continue
            adbc = a * (N - t - L + a) - (t - a) * (L - a)
            num = N * adbc * adbc
            den = t * (N - t) * L * (N - L)
            chi = math.floor(float(num) / float(den) * 1e6) / 1e6
            rows.append({lang_col: r[lang_col], 'token': r['token'],
                         'chi2': chi})
        if not rows:
            return pd.DataFrame({lang_col: pd.Series(dtype=object),
                                 'token': pd.Series(dtype=object),
                                 'chi2': pd.Series(dtype='float64')})
        return pd.DataFrame(rows)

    scored = with_t.map_batches(chi2, batch_format='pandas')
    return topk_per_group(scored, lang_col, ['chi2', 'token'],
                          [False, True], k)
