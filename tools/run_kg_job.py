"""Cluster job entrypoint for the full KG pipeline (the north rule's
``ray job submit`` surface): crawl-table Parquet in → checkpointed
parse → link → canonicalize → sorted hash-partitioned triples out, with
per-stage lineage records and a metrics JSON. Resumable: re-submitting
the same --root after a crash (or preemption) skips every stage whose
``_SUCCESS`` + fingerprint match and re-runs only the remainder.

On a real cluster:

    ray job submit --working-dir . -- \
        python tools/run_kg_job.py --input /data/crawl --root /data/kg_run

In this sandbox (or any laptop) the same command works without a cluster:
``ray.init(address='auto')`` is attempted first (job-server sessions have
a cluster address), falling back to a local session. Library code never
calls ray.init — only this entrypoint owns the session.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('--input', required=True,
                    help='Parquet dir/file of the crawl table '
                         '(url, warc_ts, html, text, lang)')
    ap.add_argument('--root', required=True,
                    help='checkpoint + output root (resume target)')
    ap.add_argument('--linking', default='join',
                    choices=['join', 'scored'],
                    help="'join': alias linking in one norm_surface exchange; "
                         "'scored': the entity-disambiguation stack")
    ap.add_argument('--num-cpus', type=int, default=None,
                    help='local fallback only; ignored under a cluster')
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        try:
            ray.init(address='auto', include_dashboard=False,
                     logging_level='ERROR')
        except Exception:
            ray.init(address='local', include_dashboard=False,
                     logging_level='ERROR',
                     num_cpus=args.num_cpus or os.cpu_count())
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    from caligraph_ray.state.checkpoint import pipeline_report
    from caligraph_ray.state.executions import count_executions
    from caligraph_ray.stages.relational import strip_schema_metadata

    t0 = time.time()
    with count_executions() as executions:
        pages = strip_schema_metadata(rd.read_parquet(args.input))
        n_pages = pages.count()
        triples = run_flagship_checkpointed(pages, args.root,
                                            linking=args.linking)
        n_triples = triples.count()
    wall = time.time() - t0

    metrics = {
        'input': args.input,
        'root': args.root,
        'linking': args.linking,
        'n_pages': int(n_pages),
        'n_triples': int(n_triples),
        'wall_s': round(wall, 2),
        'pages_per_sec': round(n_pages / wall, 1) if wall else None,
        'triples_per_sec': round(n_triples / wall, 1) if wall else None,
        'cluster_cpus': int(ray.cluster_resources().get('CPU', 0)),
        # serial Ray Data streaming executions of this job, each with a
        # fixed start-up cost; a resumed stage skips its build's
        'streaming_executions': len(executions),
        'finished_ts': time.time(),
        # where the time went: each stage's rows, files and wall time as its
        # _LINEAGE.json recorded them (a resumed stage keeps its first build's)
        'stages': {name: {k: lin.get(k) for k in ('rows_out', 'n_files',
                                                  'wall_sec')}
                   for name, lin in pipeline_report(args.root).items()},
    }
    with open(os.path.join(args.root, 'JOB_METRICS.json'), 'w') as f:
        json.dump(metrics, f, indent=1)
    print(json.dumps(metrics))
    ray.shutdown()


if __name__ == '__main__':
    main()
