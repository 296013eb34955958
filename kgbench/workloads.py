"""The four flagship workloads and the checks on what each one writes.

Every workload runs over the same cached corpus and writes its sorted,
hash-partitioned triple Parquet, as a real job does. Each timed run gets
output of its own: the sink and ``run_stage`` both skip work whose
``_SUCCESS`` marker already exists, so a reused directory would time a
re-read instead of a build.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from typing import Optional, Set

import pyarrow.parquet as pq

from .corpus_cache import Triple

DIRECT = {
    'kg_broadcast': {},
    'kg_distributed': {'linking': 'join', 'canon': 'join'},
    'kg_scored': {'linking': 'scored'},
}
RESUME = 'kg_resume'
NAMES = tuple(DIRECT) + (RESUME,)

# Workloads whose triple set must equal the oracle's at this commit. The
# others canonicalize through the surface closed form, which names some
# subjects differently from the oracle (see README.md); for them only the
# subject-independent part of the output is required to match, and the
# divergence is reported as triple_precision / triple_recall.
EXACT = {'kg_distributed'}

STAGES = ('01_combined', '02_categories', '03_mentions', '04_linked',
          '05_triples')
# what a crash after 03_mentions leaves undone
RESUME_REDO = ('04_linked', '05_triples', 'triples_out')


class Workload:
    """One named workload bound to a corpus and a private work directory."""

    def __init__(self, name: str, pages_dir: str, work_dir: str):
        if name not in NAMES:
            raise ValueError(f'unknown workload {name!r}; choose from {NAMES}')
        self.name = name
        self.checkpointed = name == RESUME
        self.pages_dir = pages_dir
        self.work_dir = work_dir
        self.root = os.path.join(work_dir, 'ckpt')
        self._n = 0
        self.sink = None

    def warm_up(self) -> None:
        """Untimed set-up, chosen by measurement (README.md). kg_resume: one
        full checkpointed run completes the root. The others: every Ray
        worker imports the engine, then one full run; after that the runs
        show no trend."""
        if self.checkpointed:
            shutil.rmtree(self.root, ignore_errors=True)
            self.run()
            return
        import ray.data as rd
        n = 4 * len(os.sched_getaffinity(0))
        rd.range(n, override_num_blocks=n).map_batches(
            _import_engine, batch_format='pyarrow').materialize()
        self.prepare_run()
        self.run()
        self.discard_output()

    def prepare_run(self) -> None:
        """Untimed: give the next run output of its own."""
        self.discard_output()
        if self.checkpointed:
            for d in RESUME_REDO:
                shutil.rmtree(os.path.join(self.root, d), ignore_errors=True)
            self.sink = os.path.join(self.root, 'triples_out')
        else:
            self._n += 1
            self.sink = os.path.join(self.work_dir, f'out-{self._n}')

    def discard_output(self) -> None:
        if not self.checkpointed and self.sink:
            shutil.rmtree(self.sink, ignore_errors=True)

    def run(self, stage_hook_for=None) -> None:
        """The timed call. ``stage_hook_for(inner)`` builds a tracing hook
        that wraps ``inner`` (``None``: the pipeline's default
        ``build().materialize()``)."""
        import ray.data as rd

        from caligraph_ray.pipelines import flagship
        pages = rd.read_parquet(self.pages_dir)
        if self.checkpointed:
            if stage_hook_for is None:
                flagship.run_flagship_checkpointed(pages, self.root)
            else:
                with _around_checkpoint_hook(flagship, stage_hook_for):
                    flagship.run_flagship_checkpointed(pages, self.root)
        else:
            hook = stage_hook_for(None) if stage_hook_for else None
            flagship.run_flagship(pages, out_dir=self.sink, stage_hook=hook,
                                  **DIRECT[self.name])

    def checkpoint_state(self) -> dict:
        """Stage name -> lineage for every completed stage under the root."""
        out = {}
        for name in STAGES:
            d = os.path.join(self.root, name)
            if os.path.exists(os.path.join(d, '_SUCCESS')):
                with open(os.path.join(d, '_LINEAGE.json')) as f:
                    out[name] = json.load(f)
        return out


def _import_engine(batch):
    import caligraph_ray.pipelines.flagship  # noqa: F401
    import caligraph_ray.stages.ed  # noqa: F401
    import caligraph_ray.stages.html_extract  # noqa: F401
    return batch


@contextlib.contextmanager
def _around_checkpoint_hook(flagship, stage_hook_for):
    """``run_flagship_checkpointed`` passes its own checkpoint hook to
    ``run_flagship`` and takes no second one. For the traced run, wrap the
    module-level ``run_flagship`` it calls so the tracer sees each stage
    through the same ``stage_hook`` seam, around the checkpoint hook."""
    inner_run = flagship.run_flagship

    def run_flagship(pages_ds, *args, stage_hook=None, **kw):
        return inner_run(pages_ds, *args, stage_hook=stage_hook_for(stage_hook),
                         **kw)

    flagship.run_flagship = run_flagship
    try:
        yield
    finally:
        flagship.run_flagship = inner_run


def read_sink(sink: str):
    """Read a triple sink and check its contract. Returns (triples, rows,
    manifest, problems): problems lists every broken invariant. Raises
    OSError when the sink has no ``_SUCCESS`` or manifest."""
    from caligraph_ray.config import OUTPUT_PARTITIONS
    from caligraph_ray.functions.hashing import stable_hash64

    problems = []
    if not os.path.exists(os.path.join(sink, '_SUCCESS')):
        raise FileNotFoundError(f'no _SUCCESS in {sink}')
    with open(os.path.join(sink, '_PARTITIONS.json')) as f:
        manifest = json.load(f)
    triples: Set[Triple] = set()
    n_rows = 0
    for part in sorted(os.listdir(sink)):
        if not part.startswith('subj_bucket='):
            continue
        bucket = int(part.split('=', 1)[1])
        pdir = os.path.join(sink, part)
        for fname in sorted(os.listdir(pdir)):
            t = pq.read_table(os.path.join(pdir, fname),
                              columns=['subj', 'pred', 'obj', 'is_literal'])
            rows = list(zip(*(t.column(c).to_pylist()
                              for c in ('subj', 'pred', 'obj', 'is_literal'))))
            keys = [r[:3] for r in rows]
            if keys != sorted(keys):
                problems.append(f'{part}/{fname} not sorted by (subj, pred, obj)')
            if any(stable_hash64(r[0]) % OUTPUT_PARTITIONS != bucket
                   for r in rows):
                problems.append(f'{part}/{fname} holds a subject of another bucket')
            n_rows += len(rows)
            triples.update(rows)
    if n_rows != len(triples):
        problems.append(f'{n_rows - len(triples)} duplicate triples')
    if n_rows != manifest.get('total_rows'):
        problems.append(f'{n_rows} rows but _PARTITIONS.json says '
                        f'{manifest.get("total_rows")}')
    return triples, n_rows, manifest, problems


def oracle_problems(name: str, got: Set[Triple], want: Set[Triple]) -> Optional[str]:
    """None when ``got`` matches the oracle as far as ``name`` must."""
    if name in EXACT:
        return None if got == want else 'triple set differs from the oracle'
    if {t[1:] for t in got} != {t[1:] for t in want}:
        return '(pred, obj) projection differs from the oracle'
    if {t for t in got if t[1] == 'subject'} != {t for t in want if t[1] == 'subject'}:
        return 'category triples differ from the oracle'
    return None
