"""KG-construction benchmark: one flagship workload over a seeded page corpus.

    python3 kgbench/run.py --workload kg_distributed --seed 7 --seconds 22 --trace 0

Run from the repository root (any checkout of it). The benchmark

1. starts a local Ray cluster sized by the CPUs this process may run on;
2. generates (or reuses from ``.kgbench_data/cache``) the Parquet page corpus
   for ``--seed`` and the oracle triple set ``tests/oracle_kg.oracle_triples``
   computes for it;
3. warms up, then runs the workload back to back for ``--seconds`` seconds,
   each run into fresh output, and checks every run's triple sink against its
   contract and the oracle;
4. with ``--trace 1``, also runs the workload traced at the ``stage_hook``
   seam and writes the spans to ``.kgbench_data/traces``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The line before it carries the run
details: window health, every run's wall time and P/R, quartiles. Everything
else goes to stderr. Exits non-zero, printing no result, when the engine
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, '.kgbench_data')
sys.path.insert(0, ROOT)

from kgbench import corpus_cache  # noqa: E402
from kgbench.procstats import (RssSampler, WindowHealth,  # noqa: E402
                               become_subreaper, kill_tree, stop_and_reap,
                               tree_rss_mb)
from kgbench.trace import Tracer, layer_metrics, median_metrics  # noqa: E402
from kgbench.workloads import (NAMES, Workload, oracle_problems,  # noqa: E402
                               read_sink)

# Pages per corpus, set by the run budget: an invocation, Ray start and
# warm-up included, has to stay near half a minute on 4 busy CPUs. The
# default path's canonicalization already diverges from the oracle at this
# size (README.md).
PAGES = 1000
TRACED_RUNS = 2
RUN_TIMEOUT_S = 60.0     # a run slower than this counts as failed
DEADLINE_S = 170.0       # hard stop for the whole invocation
RAY_START_ATTEMPTS = 2
# The corpus is well under 1 MB and a run's blocks a few MB; Ray's default
# (30 % of memory) would map gigabytes of shared memory on a shared host.
OBJECT_STORE_BYTES = 512 << 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    p.add_argument('--workload', required=True, choices=NAMES)
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--seconds', type=float, required=True)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    p.add_argument('--pages', type=int, default=PAGES,
                   help='corpus size (the smoke test uses a tiny one)')
    return p.parse_args(argv)


def _start_watchdog() -> None:
    """Stop every process we started and exit non-zero if the invocation
    overruns, so a hung run cannot outlive the benchmark's time limit."""
    def fire():
        print(f'kgbench: over the {DEADLINE_S:.0f} s deadline; stopping',
              file=sys.stderr, flush=True)
        kill_tree(os.getpid())
        os._exit(3)

    t = threading.Timer(DEADLINE_S, fire)
    t.daemon = True
    t.start()


def _start_ray() -> str:
    """Start a local Ray (see ``_start_ray_once``), once more after a failed
    start: on a loaded host a raylet can stall while it maps its object
    store, and ``ray.init`` then gives up."""
    for attempt in range(RAY_START_ATTEMPTS):
        try:
            return _start_ray_once()
        except Exception as e:  # noqa: BLE001 - any failed start is retried
            if attempt + 1 == RAY_START_ATTEMPTS:
                raise
            print(f'kgbench: Ray start failed ({type(e).__name__}: {e}); '
                  'retrying', file=sys.stderr, flush=True)
            import ray
            ray.shutdown()
            stop_and_reap()


def _start_ray_once() -> str:
    """Start a local Ray whose workers can import the engine. Returns the
    directory of Ray's session files, to delete after shutdown."""
    # workers import caligraph_ray by module path: this process's sys.path
    # is not theirs, so hand them the checkout root through the environment
    # every Ray process inherits
    os.environ['PYTHONPATH'] = os.pathsep.join(
        p for p in (ROOT, os.environ.get('PYTHONPATH')) if p)
    os.environ['RAY_DATA_DISABLE_PROGRESS_BARS'] = '1'
    os.environ['RAY_USAGE_STATS_ENABLED'] = '0'
    import ray
    from ray.data import DataContext
    # keep Ray's session files in the checkout unless the path would push
    # its unix socket paths past the 107-byte limit; then Ray's default temp
    # dir holds them, and this invocation's session directory is deleted
    tmp = os.path.join(DATA, 'ray')
    if len(tmp) > 40:
        tmp = ''
    ray.init(address='local', num_cpus=len(os.sched_getaffinity(0)),
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level='ERROR',
             log_to_driver=False, _temp_dir=tmp or None)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return tmp or ray._private.worker._global_node.get_session_dir_path()


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class Bench:
    def __init__(self, args, corpus_dir: str, want: set):
        self.args = args
        self.want = want
        self.pid_dir = os.path.join(DATA, 'work', str(os.getpid()))
        self.wl = Workload(args.workload, os.path.join(corpus_dir, 'pages'),
                           self.pid_dir)
        self.runs = []           # one dict per timed run
        self.rss_after = []

    def one_run(self, tracer=None, run_id=None) -> dict:
        """prepare (untimed) → run (timed) → check (untimed)."""
        wl = self.wl
        wl.prepare_run()
        ckpt_before = wl.checkpoint_state()
        err = None
        t0 = time.perf_counter()
        if tracer:
            tracer.begin(run_id)
        try:
            wl.run(tracer.hook_for if tracer else None)
        except Exception as e:  # a failed run is counted, not fatal
            err = f'{type(e).__name__}: {e}'
        wall = tracer.end() if tracer else time.perf_counter() - t0
        rec = {'wall_s': wall, 'error': err}
        if err is None and wall > RUN_TIMEOUT_S:
            rec['error'] = f'timed out ({wall:.1f} s > {RUN_TIMEOUT_S:.0f} s)'
        if rec['error'] is None:
            try:
                got, n_rows, manifest, problems = read_sink(wl.sink)
            except (OSError, ValueError) as e:  # no sink of its own
                rec['error'] = f'sink: {e}'
        if rec['error'] is None:
            tp = len(got & self.want)
            rec['precision'] = tp / len(got) if got else 0.0
            rec['recall'] = tp / len(self.want) if self.want else 1.0
            rec['rows'] = n_rows
            rec['digest'] = corpus_cache.digest(got)
            oracle = oracle_problems(wl.name, got, self.want)
            rec['problems'] = problems + ([oracle] if oracle else [])
            if tracer:
                rec['layers'] = layer_metrics(tracer, run_id, manifest,
                                              ckpt_before,
                                              wl.checkpoint_state(),
                                              wl.checkpointed)
        wl.discard_output()
        return rec

    def timed(self) -> float:
        """Back-to-back runs for --seconds of measured time; returns the
        peak summed RSS of the process tree over them."""
        sampler = RssSampler()
        sampler.start()
        measured = 0.0
        while not self.runs or measured < self.args.seconds:
            rec = self.one_run()
            self.runs.append(rec)
            self.rss_after.append(tree_rss_mb(os.getpid()))
            measured += rec['wall_s']
        return sampler.stop()

    def traced(self):
        tracer = Tracer()
        recs = [self.one_run(tracer, f'traced-{i}') for i in range(TRACED_RUNS)]
        ok = [r for r in recs if r['error'] is None]
        layers = median_metrics([r['layers'] for r in ok]) if ok else {}
        return tracer, recs, layers


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import caligraph_ray  # noqa: F401
    except ImportError as e:
        print(f'kgbench: cannot import the engine from {ROOT}: {e}',
              file=sys.stderr)
        return 2

    # anything written to fd 1 while Ray runs (ours or a child's) goes to
    # stderr; only the two result lines reach stdout
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    # a polite stop still runs the cleanup below (ray.shutdown)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    health = WindowHealth()
    become_subreaper()
    _start_watchdog()
    bench = ray_tmp = warm_up = None
    try:
        t0 = time.perf_counter()
        ray_tmp = _start_ray()
        ray_start_s = time.perf_counter() - t0
        corpus_dir = corpus_cache.ensure(ROOT, os.path.join(DATA, 'cache'),
                                         args.pages, args.seed)
        want = corpus_cache.read_triples(os.path.join(corpus_dir, 'oracle.parquet'))
        bench = Bench(args, corpus_dir, want)
        t0 = time.perf_counter()
        try:
            bench.wl.warm_up()
        except Exception as e:  # counted as a failed run, like a timed one
            warm_up = {'wall_s': 0.0,
                       'error': f'warm-up: {type(e).__name__}: {e}'}
        setup_s = ray_start_s + time.perf_counter() - t0
        peak_rss_mb = bench.timed()
        tracer = traced_recs = layers = None
        if args.trace:
            tracer, traced_recs, layers = bench.traced()
    finally:
        import ray
        ray.shutdown()
        stop_and_reap()
        if bench is not None:
            shutil.rmtree(bench.pid_dir, ignore_errors=True)
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(real_stdout, 1)

    runs = ([warm_up] if warm_up else []) + bench.runs + (traced_recs or [])
    ok = [r for r in bench.runs if r['error'] is None]
    failed = sum(r['error'] is not None for r in runs)
    problems = sorted({p for r in runs for p in r.get('problems', ())})
    correct = failed == 0 and not problems
    rates = [args.pages / r['wall_s'] for r in ok]
    walls = [r['wall_s'] for r in ok]
    q1, q3 = _quartiles(rates) if rates else (0.0, 0.0)

    def med(key):
        return statistics.median(r[key] for r in ok) if ok else 0.0

    detail = {
        'workload': args.workload, 'seed': args.seed, 'pages': args.pages,
        **health.stamp(),
        'ray_start_s': ray_start_s, 'setup_s': setup_s,
        'run_walls_s': [round(r['wall_s'], 4) for r in bench.runs],
        'pages_per_s': {'median': statistics.median(rates) if rates else 0.0,
                        'q1': q1, 'q3': q3, 'n': len(rates)},
        'precision': [r.get('precision') for r in bench.runs],
        'recall': [r.get('recall') for r in bench.runs],
        'rows': [r.get('rows') for r in bench.runs],
        'errors': [r['error'] for r in runs if r['error']],
        'problems': problems,
    }
    if args.trace:
        digests = {r['digest'] for r in ok}
        untraced = statistics.median(walls) if walls else 0.0
        traced_ok = [r['wall_s'] for r in traced_recs if r['error'] is None]
        layers.update({
            'triples.distinct_outputs': len(digests),
            'ray.rss_growth_mb': bench.rss_after[-1] - bench.rss_after[0],
            'trace.overhead_s': (statistics.median(traced_ok) - untraced)
            if traced_ok else 0.0,
        })
        values = layers
        path = os.path.join(DATA, 'traces', f'{args.workload}-seed{args.seed}'
                            f'-{time.strftime("%Y%m%dT%H%M%S")}.json')
        tracer.write(path, {'detail': detail, 'layers': layers,
                            'traced_walls_s': traced_ok})
        detail['trace_file'] = os.path.relpath(path, ROOT)
    else:
        values = {
            'pages_per_s': detail['pages_per_s']['median'],
            'setup_s': setup_s,
            'peak_rss_mb': peak_rss_mb,
            'triple_precision': med('precision'),
            'triple_recall': med('recall'),
            'completed_share': len(ok) / len(bench.runs),
        }
    # a metric is missing only when every traced run failed (then `failed`
    # and `correct` say so)
    metrics = {name: {'value': values.get(name, 0.0), 'unit': unit}
               for name, unit in _declared('per_layer' if args.trace
                                           else 'end_to_end')}
    print(json.dumps({'kgbench': detail}))
    print(json.dumps({'correct': correct, 'attempted': len(runs),
                      'failed': failed, 'metrics': metrics}), flush=True)
    return 0


def _declared(section: str) -> list:
    """(name, unit) of every metric BENCHMARK.json declares in ``section``.
    The trace file keeps the counts left out there (sink rows, partitions,
    checkpoint stages), which the workload or the oracle fix."""
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return [(m['name'], m['unit']) for m in json.load(f)[section]]


if __name__ == '__main__':
    sys.exit(main())
