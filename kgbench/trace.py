"""Spans recorded from outside the program, at the flagship's public
``stage_hook(name, build)`` seam, and the per-layer metrics derived from them.

One traced run yields contiguous spans under one ``run`` span:

* one span per hook call, named after the stage (``01_combined`` …
  ``05_triples``);
* one ``gap:<stage>`` span for the work in this process between the previous
  hook return and that hook call (the broadcast alias index build and
  ``ray.put`` land in ``gap:04_linked``; canonicalization in
  ``gap:05_triples``);
* a ``sink`` span from the last hook return to the ``run_flagship`` return.

The children of a run are contiguous by construction, so they add up to its
wall time, and the named ``gap:`` spans are the time between hook calls.
Spans are kept in memory and written once, when the benchmark ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self.outputs: Dict[str, object] = {}
        self._t0 = time.perf_counter()
        self._run_id = None
        self._run_start = self._cursor = 0.0

    def _span(self, name: str, start: float, end: float,
              parent: Optional[str] = 'run') -> None:
        self.spans.append({'name': name, 'start': round(start - self._t0, 6),
                           'end': round(end - self._t0, 6), 'parent': parent,
                           'run_id': self._run_id})

    def begin(self, run_id: str) -> None:
        self._run_id = run_id
        self.outputs = {}
        self._run_start = self._cursor = time.perf_counter()

    def hook_for(self, inner=None):
        """A ``stage_hook`` that times each stage and keeps its output;
        ``inner`` is the hook it wraps (``None``: the pipeline's default
        ``build().materialize()``)."""
        def hook(name, build):
            start = time.perf_counter()
            self._span(f'gap:{name}', self._cursor, start)
            out = inner(name, build) if inner else build().materialize()
            self._cursor = time.perf_counter()
            self._span(name, start, self._cursor)
            self.outputs[name] = out
            return out
        return hook

    def end(self) -> float:
        end = time.perf_counter()
        self._span('sink', self._cursor, end)
        self._span('run', self._run_start, end, parent=None)
        return end - self._run_start

    def run_spans(self, run_id: str) -> Dict[str, float]:
        """name -> duration (s) for one run."""
        return {s['name']: s['end'] - s['start'] for s in self.spans
                if s['run_id'] == run_id}

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, 'w') as f:
            json.dump({'spans': self.spans, **extra}, f, indent=1)


def linked_share(linked_ds) -> float:
    """Mentions with a non-null entity / all mentions in ``04_linked``."""
    import ray
    tables = ray.get(linked_ds.select_columns(['entity']).to_arrow_refs())
    n = sum(t.num_rows for t in tables)
    return (n - sum(t.column('entity').null_count for t in tables)) / n if n else 0.0


def layer_metrics(tracer: Tracer, run_id: str, manifest: dict,
                  ckpt_before: dict, ckpt_after: dict,
                  checkpointed: bool) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for the table).
    Call right after the run, while ``tracer.outputs`` holds its stages.
    ``ckpt_before``/``ckpt_after``: stage -> lineage under the checkpoint
    root before and after the run; a checkpointed run also writes its sink
    under that root."""
    d = tracer.run_spans(run_id)
    out = tracer.outputs
    combined = out['01_combined']
    emit_rows = out['05_triples'].count()
    sink_rows = manifest['total_rows']
    written = [s for s in ckpt_after
               if ckpt_after[s].get('completed_at') != ckpt_before.get(s, {}).get('completed_at')]
    return {
        'html_extract.s': d['01_combined'],
        'html_extract.rows': combined.count(),
        'html_extract.bytes': combined.size_bytes(),
        'link.s': d['gap:04_linked'] + d['04_linked'],
        'link.linked_share': linked_share(out['04_linked']),
        'canonicalize.s': d['gap:05_triples'],
        'triples.emit_s': d['05_triples'],
        'triples.emit_rows': emit_rows,
        'triples.sink_s': d['sink'],
        'triples.sink_rows': sink_rows,
        'triples.partitions': len(manifest['partitions']),
        'triples.useful_share': sink_rows / emit_rows if emit_rows else 0.0,
        'checkpoint.loaded': len(ckpt_before),
        'checkpoint.written': len(written) + checkpointed,
        'checkpoint.rows_written': sum(ckpt_after[s]['rows_out'] for s in written)
        + (sink_rows if checkpointed else 0),
    }


def median_metrics(per_run: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
