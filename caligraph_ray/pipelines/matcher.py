"""Matcher train/predict contract (reference matching/matcher.py:11-55).

The reference's ``Matcher`` owns MODE_TRAIN/EVAL/TEST/PREDICT, a
``train(corpus, eval_on_train)`` phase that fits model state then
optionally self-evaluates, and a ``test`` phase that predicts and scores
against the corpus alignment. This is that contract over Ray Datasets:

* A CORPUS is a Dataset with columns (mention_uid, label, gold) — gold is
  the wikilink-derived target entity, exactly the reference's
  distantly-supervised alignment source (data/listing.py). Corpora are
  evaluation artifacts (thousands of rows), so collecting predictions to
  the driver for metric computation is in-contract — the reference's
  MetricsCalculator does the same; PREDICTION over unbounded data goes
  through ``link_mentions_scored`` directly and never collects.
* ``ThresholdedScoredMatcher`` is the trainable instance: the full ED
  stack (embed → candidate top-k → cross-encoder rerank) scores every
  mention, and TRAINING fits (a) the entity dim from the train split's
  gold set and (b) the acceptance threshold that maximizes ME-F1 on the
  train split — the stand-in analogue of fitting encoder weights, behind
  the same seams (embedder_factory/reranker_factory swap in the real
  models, tests/test_tiny_transformer.py proves the swap).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional

import numpy as np
import pandas as pd

from ..functions.metrics import me_prf


def corpus_gold(corpus_ds) -> Dict[int, str]:
    """Collect the corpus alignment (small by contract, see module doc)."""
    from ..stages.relational import collect_pandas
    df = collect_pandas(corpus_ds.select_columns(['mention_uid', 'gold']))
    return dict(zip(df['mention_uid'].astype(int), df['gold']))


def mention_corpus_from_sf(sf_dir: str, limit_docs: Optional[int] = None):
    """Build a (mention_uid, label, gold) corpus from the documents table:
    parse → explode mentions → keep wikilinked mentions (the distant
    supervision the reference trains on)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.alias import explode_mentions
    from ..stages.html_extract import items_view, parse_pages
    from ..stages.relational import read_table
    from .flagship import documents_to_pages

    docs = read_table(sf_dir, 'documents',
                      ['doc_id', 'text', 'lang', 'source'])
    if limit_docs:
        docs = docs.limit(limit_docs)
    mentions = explode_mentions(items_view(parse_pages(
        documents_to_pages(docs))))

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_kleene(
            pc.is_valid(t.column('name')),
            pc.not_equal(t.column('label'), pa.scalar(''))))
        return pa.Table.from_pydict({
            'mention_uid': t.column('mention_uid').cast(pa.int64()),
            'label': t.column('label'),
            'gold': t.column('name'),
        })

    return mentions.map_batches(project, batch_format='pyarrow')


class Matcher(ABC):
    """Train/test/predict lifecycle (reference matcher.py:11-55)."""

    MODE_TRAIN, MODE_EVAL, MODE_TEST, MODE_PREDICT = \
        'train', 'eval', 'test', 'predict'

    def __init__(self, matcher_id: str):
        self.id = matcher_id

    def _get_param_dict(self) -> dict:
        return {}

    def get_approach_name(self) -> str:
        return '_'.join([self.id] + [f'{k}={v}'
                                     for k, v in self._get_param_dict().items()])

    def train(self, train_corpus, eval_on_train: bool = False) -> Dict[str, dict]:
        self._train_model(train_corpus)
        if eval_on_train:
            return {self.MODE_TRAIN: self._evaluate(self.MODE_TRAIN,
                                                    train_corpus)}
        return {}

    @abstractmethod
    def _train_model(self, train_corpus) -> None:
        ...

    def test(self, test_corpus) -> Dict[str, dict]:
        return {self.MODE_TEST: self._evaluate(self.MODE_TEST, test_corpus)}

    def _evaluate(self, mode: str, corpus) -> dict:
        t0 = time.monotonic()
        pred = self.predict(mode, corpus)
        elapsed = time.monotonic() - t0
        metrics = me_prf(pred, corpus_gold(corpus))
        return {'approach': self.get_approach_name(), 'mode': mode,
                'metrics': metrics, 'predicted': len(pred),
                'prediction_time_s': round(elapsed, 3)}

    @abstractmethod
    def predict(self, mode: str, corpus) -> Dict[int, str]:
        ...


class ThresholdedScoredMatcher(Matcher):
    """Trainable ED matcher: fit entity dim + acceptance threshold on the
    train split, predict via the scored-linking stack with gold HIDDEN."""

    def __init__(self, matcher_id: str = 'scored',
                 entity_labels: Optional[List[str]] = None, k: int = 4,
                 embedder_factory=None, reranker_factory=None):
        super().__init__(matcher_id)
        self.k = k
        self.entity_labels = entity_labels
        self.embedder_factory = embedder_factory
        self.reranker_factory = reranker_factory
        self.threshold: Optional[float] = None

    def _get_param_dict(self) -> dict:
        d = {'k': self.k}
        if self.threshold is not None:
            d['t'] = round(self.threshold, 6)
        return d

    def _score(self, corpus) -> pd.DataFrame:
        """(mention_uid, entity, link_score) with gold hidden from the
        linker: the name column arrives null so every mention goes through
        candidate generation + rerank, never the wikilink shortcut."""
        from ..stages.ed import link_mentions_scored
        from ..stages.relational import collect_pandas

        def hide(df: pd.DataFrame) -> pd.DataFrame:
            out = df[['mention_uid', 'label']].copy()
            out['name'] = None
            return out

        hidden = corpus.map_batches(hide, batch_format='pandas')
        ents = self.entity_labels
        if ents is None:
            raise RuntimeError('entity dim not fitted: call train() first '
                               'or pass entity_labels')
        linked = link_mentions_scored(
            hidden, ents, k=self.k,
            embedder_factory=self.embedder_factory,
            reranker_factory=self.reranker_factory)
        return collect_pandas(
            linked.select_columns(['mention_uid', 'entity', 'link_score']))

    def _train_model(self, train_corpus) -> None:
        if self.entity_labels is None:
            # fit the entity dim from the train split's gold set
            self.entity_labels = sorted(
                set(corpus_gold(train_corpus).values()))
        df = self._score(train_corpus)
        gold = corpus_gold(train_corpus)
        correct = np.array([gold.get(int(m)) == e
                            for m, e in zip(df['mention_uid'], df['entity'])])
        scores = df['link_score'].to_numpy(dtype='float64')
        order = np.argsort(-scores, kind='stable')
        s_sorted, c_sorted = scores[order], correct[order]
        tp = np.cumsum(c_sorted)
        kcnt = np.arange(1, len(df) + 1, dtype='float64')
        # threshold sweep: accepting the top-i scores gives P=tp/i,
        # R=tp/|gold|; only cuts at distinct score boundaries are valid
        prec = tp / kcnt
        rec = tp / max(len(gold), 1)
        f1 = np.where(prec + rec > 0, 2 * prec * rec / (prec + rec), 0.0)
        boundary = np.ones(len(df), dtype=bool)
        boundary[:-1] = s_sorted[:-1] > s_sorted[1:]
        f1 = np.where(boundary, f1, -1.0)
        if len(df) == 0:
            self.threshold = 1.0
            return
        best = int(np.argmax(f1))
        self.threshold = float(s_sorted[best])

    def predict(self, mode: str, corpus) -> Dict[int, str]:
        if self.threshold is None:
            raise RuntimeError('matcher not trained: call train() first')
        df = self._score(corpus)
        keep = df[(df['entity'].notna())
                  & (df['link_score'] >= self.threshold)]
        return dict(zip(keep['mention_uid'].astype(int), keep['entity']))


class BiEncoderEmbedder:
    """``embed_batch`` seam wrapper around a (possibly trained)
    TinyTransformer — the object each linker worker process builds once."""

    def __init__(self, model):
        self.model = model

    def embed_batch(self, texts):
        return self.model.encode_batch([t or '' for t in texts])


class BiEncoderCosineReranker:
    """``score_pair`` through the SAME bi-encoder: cosine mapped into
    [0, 1] with the stand-ins' exact-match/empty contracts, so a trained
    model's retrieval quality flows through to the acceptance threshold.
    Per-instance capped memo: each distinct label encodes once instead of
    per candidate pair (identical floats — single-row encode_batch)."""

    def __init__(self, model):
        self.model = model
        self._memo: dict = {}

    def _vec(self, text: str):
        v = self._memo.get(text)
        if v is None:
            if len(self._memo) >= 65536:
                self._memo.clear()
            v = self._memo[text] = self.model.encode_batch([text])[0]
        return v

    def score_pair(self, mention_label: str, entity_label: str) -> float:
        if not mention_label or not entity_label:
            return 0.0
        if mention_label.lower() == entity_label.lower():
            return 1.0
        cos = float(self._vec(mention_label) @ self._vec(entity_label))
        return float(round((cos + 1.0) / 2.0 * 0.99, 6))

    def score_batch(self, mentions, entities) -> np.ndarray:
        """``score_pair`` over aligned lists (identical floats per pair)."""
        return np.array([self.score_pair(m, e)
                         for m, e in zip(mentions, entities)], dtype=np.float64)


class TrainedBiEncoderMatcher(ThresholdedScoredMatcher):
    """Gradient-trained ED matcher — closes the reference's model-training
    lifecycle (HF Trainer fine-tune, mention_detection/__init__.py:17-49;
    bi-encoder fit, matching/biencoder.py:15-112) without torch: ``train``
    fine-tunes TinyTransformer END-TO-END (numpy Adam through
    functions/autodiff, every weight from tok_emb up) on the train split's
    wikilink (mention-label → gold-entity-label) pairs with
    in-batch-negative InfoNCE, then the SAME trained weights serve as both
    embedder (candidate generation) and cosine scorer (rerank) through the
    factory seams — the trained model rides the identical Ray task
    plumbing as the deterministic stand-ins. Deterministic for a fixed
    seed (tests/test_train_transformer.py pins the val-F1 improvement
    over the untrained seam)."""

    def __init__(self, matcher_id: str = 'scored-trained', k: int = 4,
                 dim: int = 32, epochs: int = 8, batch_size: int = 32,
                 lr: float = 3e-3, tau: float = 0.1, seed: int = 13,
                 entity_labels: Optional[List[str]] = None):
        super().__init__(matcher_id, entity_labels=entity_labels, k=k)
        self.dim, self.epochs, self.batch_size = dim, epochs, batch_size
        self.lr, self.tau, self.seed = lr, tau, seed
        self.loss_history: List[float] = []
        self.model = None

    def _get_param_dict(self) -> dict:
        d = super()._get_param_dict()
        d.update({'dim': self.dim, 'ep': self.epochs})
        return d

    def _train_pairs(self, train_corpus) -> List:
        """(label, gold) pairs from the train split — small by the
        module-doc corpus contract; the collect mirrors the reference
        pulling its training alignment to the GPU."""
        from ..stages.relational import collect_pandas
        df = collect_pandas(train_corpus.select_columns(['label', 'gold']))
        return [(str(a), str(b)) for a, b in zip(df['label'], df['gold'])
                if a and b]

    def _fit_encoders(self, train_corpus) -> None:
        from ..functions.tiny_transformer import TinyTransformer
        from ..functions.train_transformer import train_biencoder

        pairs = self._train_pairs(train_corpus)
        self.model = TinyTransformer(dim=self.dim, seed=self.seed)
        self.loss_history = train_biencoder(
            self.model, pairs, epochs=self.epochs,
            batch_size=self.batch_size, lr=self.lr, tau=self.tau,
            seed=self.seed)
        model = self.model   # closure ships the trained weights per worker
        self.embedder_factory = lambda: BiEncoderEmbedder(model)
        self.reranker_factory = lambda: BiEncoderCosineReranker(model)

    def _train_model(self, train_corpus) -> None:
        self._fit_encoders(train_corpus)
        super()._train_model(train_corpus)


class TrainedCrossBiMatcher(TrainedBiEncoderMatcher):
    """The reference's COMPLETE ED training recipe
    (entity_disambiguation/__init__.py:15-89: train bi-encoder for
    candidates, train cross-encoder for rerank): on top of the parent's
    bi-encoder fine-tune, a SECOND TinyTransformer fine-tunes as a pair
    classifier (train_crossencoder) on the train split's gold pairs plus
    seeded shuffled negatives, and serves as the reranker through the
    factory seam. Deterministic for a fixed seed."""

    def __init__(self, matcher_id: str = 'scored-trained-ce',
                 ce_epochs: int = 8, **kw):
        super().__init__(matcher_id, **kw)
        self.ce_epochs = ce_epochs
        self.ce_model = None
        self.ce_loss_history: List[float] = []

    def _get_param_dict(self) -> dict:
        d = super()._get_param_dict()
        d['ce_ep'] = self.ce_epochs
        return d

    def _fit_encoders(self, train_corpus) -> None:
        from ..functions.tiny_transformer import TinyTransformer
        from ..functions.train_transformer import train_crossencoder

        super()._fit_encoders(train_corpus)   # bi-encoder + embed factory
        pairs = self._train_pairs(train_corpus)
        rng = np.random.RandomState(self.seed + 7)
        golds = [e for _, e in pairs]
        triples = []
        for i, (m, e) in enumerate(pairs):
            triples.append((m, e, 1))
            if len(pairs) > 1:
                j = (i + 1 + rng.randint(len(pairs) - 1)) % len(pairs)
                if golds[j] != e:
                    triples.append((m, golds[j], 0))
        self.ce_model = TinyTransformer(dim=self.dim, seed=self.seed + 1)
        scorer, self.ce_loss_history = train_crossencoder(
            self.ce_model, triples, epochs=self.ce_epochs,
            batch_size=self.batch_size, lr=self.lr, seed=self.seed)
        self.reranker_factory = lambda: scorer
