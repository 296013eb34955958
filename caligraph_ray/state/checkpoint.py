"""Stage checkpointing with per-partition lineage (north-rule requirement).

Analogue of the reference's cache registry (utils.py:66-138,
config.yaml:140-317) re-expressed for a distributed engine: every named
stage writes Parquet to ``<root>/<stage>/`` plus

* ``_LINEAGE.json``  — rows out, rows per file, wall time, file count
* ``_SUCCESS``       — atomic completion marker (written last)

A fresh stage runs once: its Dataset is materialized, each non-empty block
is written as its own Parquet file by one task, and the materialized blocks
are handed straight to the downstream stages of the same run — the durable
copy is never read back in the job that wrote it. ``run_stage`` skips a
stage whose ``_SUCCESS`` exists (and whose fingerprint matches) and reads
its Parquet instead: resume-by-existence, the same contract the reference's
``load_or_create_cache`` provides. A partially written stage (no
``_SUCCESS``) is wiped and rebuilt, so it can never double rows.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable, Dict, Optional

import ray


def _stage_dir(root: str, name: str) -> str:
    return os.path.join(root, name)


def is_complete(root: str, name: str) -> bool:
    return os.path.exists(os.path.join(_stage_dir(root, name), '_SUCCESS'))


def read_lineage(root: str, name: str) -> Optional[dict]:
    path = os.path.join(_stage_dir(root, name), '_LINEAGE.json')
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def fingerprint_of(params: Dict) -> str:
    """Stable hash of a stage's semantic inputs (thresholds, input row
    counts, code versions…). Stored in _LINEAGE.json; a resume whose
    fingerprint differs invalidates the checkpoint instead of silently
    reusing stale Parquet."""
    import hashlib
    blob = json.dumps(params, sort_keys=True, default=str).encode('utf-8')
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@ray.remote
def _write_block(block, path: str) -> int:
    """One materialized block -> one Parquet file, converted the way Ray's
    own Parquet writer converts it. Returns the rows written."""
    import pyarrow.parquet as pq
    from ray.data.block import BlockAccessor
    table = BlockAccessor.for_block(block).to_arrow()
    pq.write_table(table, path)
    return table.num_rows


def run_stage(root: str, name: str, build: Callable[[], 'ray.data.Dataset'],
              extra_lineage: Optional[Dict] = None,
              fingerprint: Optional[Dict] = None):
    """Build-or-load a named stage.

    A fresh stage is one execution: ``build()`` is materialized once, each
    non-empty block is written to ``part-<block index>.parquet`` by its own
    task, and the materialized Dataset itself is returned, so downstream
    stages of the same run consume the blocks already in the object store
    instead of decoding the Parquet again. The lineage counts come from the
    write tasks, and ``_SUCCESS`` is written last. A loaded stage (a resume)
    is read from its Parquet.

    ``fingerprint``: dict of the stage's semantic inputs (thresholds, input
    row count/schema, …). On resume the stored fingerprint must match, else
    the stale checkpoint is rebuilt (guards against re-running one root
    against a different corpus or config).
    """
    import ray.data as rd

    fp = fingerprint_of(fingerprint) if fingerprint is not None else None
    d = _stage_dir(root, name)
    if is_complete(root, name) and (
            fp is None or (read_lineage(root, name) or {}).get('fingerprint') == fp):
        return rd.read_parquet(d)
    if os.path.exists(d):
        # stale (config/input changed) or partial (a crashed run): rebuild
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)

    t0 = time.time()
    mat = build().materialize()
    # per-partition lineage (north rule): one file per non-empty block,
    # named by block index, so a retried write task overwrites its own file
    blocks = [b for bundle in mat.iter_internal_ref_bundles()
              for b in bundle.blocks]
    files = {f'part-{i:05d}.parquet': ref
             for i, (ref, meta) in enumerate(blocks) if meta.num_rows != 0}
    rows = ray.get([_write_block.remote(ref, os.path.join(d, f))
                    for f, ref in files.items()])
    per_file = dict(zip(files, rows))
    lineage = {
        'stage': name,
        'rows_out': sum(rows),
        'n_files': len(files),
        'rows_per_file': per_file,
        'wall_sec': round(time.time() - t0, 3),
        'completed_at': time.strftime('%Y-%m-%dT%H:%M:%S'),
    }
    if fp is not None:
        lineage['fingerprint'] = fp
    if extra_lineage:
        lineage.update(extra_lineage)
    with open(os.path.join(d, '_LINEAGE.json'), 'w') as f:
        json.dump(lineage, f, indent=2)
    with open(os.path.join(d, '_SUCCESS'), 'w') as f:
        f.write('')
    return mat


def pipeline_report(root: str) -> Dict[str, dict]:
    """Collected lineage of every completed stage under root."""
    out = {}
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        lin = read_lineage(root, name)
        if lin is not None:
            out[name] = lin
    return out
