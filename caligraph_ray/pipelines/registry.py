"""User-extension surface (SURVEY.md §2.10): named pipeline stages with
dependencies + a matcher factory.

Mirrors the reference's plugin points — the enum-dispatched matcher factory
(subject_entity/entity_disambiguation/matching/__init__.py:12-34) and the
cache/stage registry (config.yaml:140-317) — as plain-Python registries over
Ray Datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import ray  # noqa: F401  (string annotations resolve against module globals)
from typing import Callable, Dict, List, Optional

# --- stage graph ------------------------------------------------------------


@dataclass
class PipelineStage:
    """A named, dependency-ordered transform: build(inputs) → Dataset where
    inputs maps dep name → that stage's output Dataset."""
    name: str
    deps: List[str]
    build: Callable[[Dict[str, 'ray.data.Dataset']], 'ray.data.Dataset']


def run_pipeline(stages: List[PipelineStage],
                 sources: Optional[Dict[str, 'ray.data.Dataset']] = None,
                 checkpoint_root: Optional[str] = None) -> Dict[str, 'ray.data.Dataset']:
    """Topologically run stages; with ``checkpoint_root`` every stage goes
    through the durable run_stage cache (resume-by-existence)."""
    from ..state.checkpoint import run_stage

    outputs: Dict[str, 'ray.data.Dataset'] = dict(sources or {})
    remaining = {s.name: s for s in stages}
    order: List[str] = []
    while remaining:
        ready = [n for n, s in remaining.items()
                 if all(d in outputs for d in s.deps)]
        if not ready:
            missing = {n: [d for d in s.deps if d not in outputs]
                       for n, s in remaining.items()}
            raise ValueError(f'unresolvable stage dependencies: {missing}')
        for n in sorted(ready):
            stage = remaining.pop(n)
            inputs = {d: outputs[d] for d in stage.deps}
            if checkpoint_root:
                # fingerprint = stage wiring; a changed dep list (or
                # caller-supplied stage.params) invalidates the cached
                # parquet instead of silently reusing stale output
                fp = {'stage': n, 'deps': sorted(stage.deps),
                      'params': getattr(stage, 'params', None)}
                outputs[n] = run_stage(checkpoint_root, n,
                                       lambda s=stage, i=inputs: s.build(i),
                                       fingerprint=fp)
            else:
                outputs[n] = stage.build(inputs)
            order.append(n)
    return outputs


# --- matcher factory --------------------------------------------------------

MATCHERS: Dict[str, Callable] = {}


def register_matcher(name: str):
    def deco(fn):
        MATCHERS[name] = fn
        return fn
    return deco


def make_matcher(name: str, **params) -> Callable:
    """Return a clustering callable linked(Dataset) → clusters(Dataset)
    (the reference's initialize_matcher factory shape)."""
    if name not in MATCHERS:
        raise KeyError(f'unknown matcher {name!r}; known: {sorted(MATCHERS)}')
    fn = MATCHERS[name]
    return lambda linked, **kw: fn(linked, **{**params, **kw})


# --- trainable matcher factory (reference matcher.py train/predict) ----------

TRAINABLE_MATCHERS: Dict[str, Callable] = {}


def register_trainable_matcher(name: str):
    def deco(cls):
        TRAINABLE_MATCHERS[name] = cls
        return cls
    return deco


def make_trainable_matcher(name: str, **params):
    """Instantiate a Matcher with the reference's train/test lifecycle
    (matching/__init__.py:12-34 initialize_matcher shape): .train(corpus)
    fits model state, .test(corpus) predicts + scores."""
    if name not in TRAINABLE_MATCHERS:
        raise KeyError(f'unknown trainable matcher {name!r}; '
                       f'known: {sorted(TRAINABLE_MATCHERS)}')
    return TRAINABLE_MATCHERS[name](**params)


def _register_builtin():
    from ..stages.alias import edge_rows
    from ..stages.canonicalize import canonicalize, edin_clusters

    # linked rows of any linker, with or without surface_rep
    @register_matcher('nastylinker')
    def _nasty(linked, **kw):
        return canonicalize(edge_rows(linked), **kw)

    @register_matcher('edin')
    def _edin(linked, **kw):
        return edin_clusters(linked, **kw)

    # the bi-/cross-encoder matcher family (reference matching/util.py:16-26
    # approaches enum): candidate top-k + rerank over mention labels —
    # deterministic stand-ins behind the production actor interfaces
    @register_matcher('biencoder_rerank')
    def _scored(mentions, entity_labels=(), **kw):
        from ..stages.ed import link_mentions_scored
        return link_mentions_scored(mentions, list(entity_labels), **kw)

    from .matcher import (ThresholdedScoredMatcher, TrainedBiEncoderMatcher,
                          TrainedCrossBiMatcher)
    register_trainable_matcher('scored')(ThresholdedScoredMatcher)
    register_trainable_matcher('scored-trained')(TrainedBiEncoderMatcher)
    register_trainable_matcher('scored-trained-ce')(TrainedCrossBiMatcher)


_register_builtin()
