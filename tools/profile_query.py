"""Profile one or more registered queries in a fresh Ray session.

The round-4→5 lesson baked into a tool: single-shot timings on this host
swing ±35% between same-code runs, so a suspected regression must be
replayed N times in a FRESH session before any code is blamed (the r4
'funnel/graph regressions' were pure window noise — BASELINE.md round-5
notes). Each rep is timed the way bench.py times it, ``to_pandas(fn(sf))``.
Prints per-query median + min/max plus window health.

    python tools/profile_query.py funnel_counts event_type_triangles
    python tools/profile_query.py --sf /root/testdata/sf0.01 --reps 5 q...
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument('queries', nargs='+', help='registered query names')
    ap.add_argument('--sf', default='/root/testdata/sf0.1')
    ap.add_argument('--reps', type=int, default=3)
    ap.add_argument('--cpus', type=int,
                    default=int(os.environ.get('RAY_GRAFT_CPUS', '32')))
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address='local', num_cpus=args.cpus,
                 include_dashboard=False, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from caligraph_ray.pipelines.queries import queries, to_pandas
    registry = queries()

    # untimed warm pass: worker spawn + imports must not land on rep 1
    rd.range(1000).map_batches(lambda b: b).count()

    steal = None
    try:
        with open('/proc/stat') as f:
            parts = f.readline().split()[1:]
        steal = round(100.0 * int(parts[7]) / sum(int(x) for x in parts), 2)
    except Exception:
        pass

    out = {'sf': args.sf, 'num_cpus': args.cpus, 'reps': args.reps,
           'visible_cpus': len(os.sched_getaffinity(0)),
           'cum_steal_pct': steal, 'queries': {}, 'queries_spread': {}}
    for name in args.queries:
        if name not in registry:
            print(f'unknown query: {name}', file=sys.stderr)
            return 2
        ts = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            to_pandas(registry[name](args.sf))
            ts.append(round(time.perf_counter() - t0, 3))
        ts.sort()
        out['queries'][name] = ts[len(ts) // 2]
        out['queries_spread'][name] = [ts[0], ts[-1]]
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == '__main__':
    sys.exit(main())
