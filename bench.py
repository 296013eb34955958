"""Benchmark harness: every registered query over $GRAFT_SF_DIR (default sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": sec, "unit": "sec", "queries": {...}, "sf": ..., "num_cpus": N}

``queries`` has one key per name in the query registry
(caligraph_ray.pipelines.queries), each timed as ``to_pandas(fn(sf))``,
plus the ``flagship_scored`` leg (the flagship with scored linking).

Every query is timed BENCH_REPS times (default 3) and reported as the
per-query MEDIAN, with min/max spread in ``queries_spread`` — single-shot
timings on this host swing ±35% between same-code runs (the r4 artifacts:
137.5 s vs 184.1 s on an identical query set; a round-5 fresh-window replay
of the same code scored 112.4 s), so a number without its dispersion cannot
distinguish a real regression from a bad host window.

--scaling: run the same job in fresh processes at two CPU counts (defaults
4 and 16 via GRAFT_SCALE_CPUS_LO/HI — below this host's ~16-core memory-bus
wall; set 8/32 to reproduce the pessimistic pair) and report throughput at
both plus scaling efficiency (north-rule two-cluster evidence; BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get('GRAFT_SF_DIR', '/root/testdata/sf0.1')
NUM_CPUS = int(os.environ.get('RAY_GRAFT_CPUS', '32'))
BENCH_REPS = max(1, int(os.environ.get('BENCH_REPS', '3')))


def _window_health() -> dict:
    """Host-window metadata stamped into every bench JSON: this sandbox can
    be scaled down to 1 visible CPU mid-session (absolute seconds are then
    5-30x inflated), so a number without its window is uninterpretable —
    see BASELINE.md window-health notes."""
    try:
        # affinity-aware (nproc semantics): the sandbox pins the container
        # to a CPU subset while /proc/cpuinfo still lists all 32
        cpus = len(os.sched_getaffinity(0))
        with open('/proc/stat') as f:
            parts = f.readline().split()[1:]
        total = sum(int(x) for x in parts)
        steal_pct = round(100.0 * int(parts[7]) / total, 2) if total else 0.0
        return {'visible_cpus': cpus, 'cum_steal_pct': steal_pct}
    except Exception:
        return {'visible_cpus': os.cpu_count() or 0}   # non-Linux fallback


def _warm_page_cache():
    for name in os.listdir(SF_DIR):
        with open(os.path.join(SF_DIR, name), 'rb') as f:
            while f.read(1 << 22):
                pass


def _warm_cluster():
    """One untimed mini parse pass so Ray worker processes exist and have
    imported the library before the first timed query. Without this the
    FIRST query (the flagship headline) absorbs the whole worker-spawn +
    per-worker-import cost — ~3-6 s of process startup booked against the
    engine (the r3→r4 flagship artifact 'regression' was exactly this:
    warm same-session runs measure 4.9-5.2k triples/s on the same code
    the cold-first bench scored at 1.8k)."""
    from caligraph_ray.pipelines.flagship import (documents_to_pages,
                                                  run_flagship)
    from caligraph_ray.stages.relational import read_table
    docs = read_table(SF_DIR, 'documents',
                      ['doc_id', 'text', 'lang', 'source']).limit(64)
    run_flagship(documents_to_pages(docs)).count()


def run_benchmarks() -> dict:
    import ray
    ray.init(address='local', num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from caligraph_ray.pipelines.flagship import run_flagship_on_documents
    from caligraph_ray.pipelines.queries import queries, to_pandas

    _warm_page_cache()
    _warm_cluster()
    timings = {}
    spread = {}

    def timed(name, fn):
        ts, out = [], None
        for _ in range(BENCH_REPS):
            t0 = time.time()
            out = fn()
            ts.append(round(time.time() - t0, 3))
        ts.sort()
        timings[name] = ts[len(ts) // 2]
        spread[name] = [ts[0], ts[-1]]
        return out

    # every registered query, collected the way the oracle gate reads it;
    # the headline is flagship_triples (parse → link → canonicalize → triples)
    rows = {name: len(timed(name, lambda: to_pandas(fn(SF_DIR))))
            for name, fn in queries().items()}
    n_triples = rows['flagship_triples']
    # the one extra leg: the full ED stack (bi-encoder embed → candidate
    # top-k → cross-encoder rerank, fused into one task stage — the
    # reference's 86%-of-runtime profile slot)
    timed('flagship_scored', lambda: to_pandas(
        run_flagship_on_documents(SF_DIR, linking='scored')))

    total = round(sum(timings.values()), 3)
    result = {
        'metric': 'caligraph_ray_bench_total',
        'value': total,
        'unit': 'sec',
        'queries': timings,
        'queries_spread': spread,
        'reps': BENCH_REPS,
        'sf': SF_DIR,
        'num_cpus': NUM_CPUS,
        'flagship_triples': int(n_triples),
        'flagship_triples_per_sec': round(n_triples / timings['flagship_triples'], 1),
        **_window_health(),
    }
    ray.shutdown()
    return result


SCALE_PAGES = int(os.environ.get('GRAFT_SCALE_PAGES', '1000000'))
SCALE_CORPUS_DIR = os.environ.get('GRAFT_SCALE_CORPUS',
                                  f'/tmp/caligraph_bench_corpus_{SCALE_PAGES}')


def run_parse_extract() -> dict:
    """Compute-bound sub-job for scaling evidence: read → parse →
    mention-explode → count (no shuffles; isolates the per-page extraction
    path, which is what dominates a real crawl-scale run)."""
    import ray
    ray.init(address='local', num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd
    from caligraph_ray.stages.alias import explode_mentions
    from caligraph_ray.stages.html_extract import items_view, parse_pages

    pages = rd.read_parquet(SCALE_CORPUS_DIR)
    t0 = time.time()
    n = explode_mentions(items_view(parse_pages(pages))).count()
    dt = round(time.time() - t0, 3)
    ray.shutdown()
    return {'metric': 'parse_extract', 'value': dt, 'unit': 'sec',
            'num_cpus': NUM_CPUS, 'n_pages': SCALE_PAGES,
            'mentions': int(n), 'mentions_per_sec': round(n / dt, 1),
            **_window_health()}


def run_flagship_corpus() -> dict:
    """Measured scaling job: the full KG pipeline over a pre-generated
    synthetic page corpus (read parquet → parse → link → canonicalize →
    sorted partitioned write). Corpus generation is NOT timed."""
    import ray
    ray.init(address='local', num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship

    pages = rd.read_parquet(SCALE_CORPUS_DIR)
    t0 = time.time()
    n = run_flagship(pages).count()
    dt = round(time.time() - t0, 3)
    ray.shutdown()
    return {'metric': 'flagship_corpus', 'value': dt, 'unit': 'sec',
            'num_cpus': NUM_CPUS, 'n_pages': SCALE_PAGES,
            'triples': int(n), 'triples_per_sec': round(n / dt, 1),
            **_window_health()}


def _ensure_scale_corpus():
    if os.path.exists(os.path.join(SCALE_CORPUS_DIR, '_DONE')):
        return
    import ray
    ray.init(address='local', num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from caligraph_ray.corpus import pages_dataset
    import shutil
    if os.path.exists(SCALE_CORPUS_DIR):
        shutil.rmtree(SCALE_CORPUS_DIR)
    pages_dataset(SCALE_PAGES, seed=42).write_parquet(SCALE_CORPUS_DIR)
    with open(os.path.join(SCALE_CORPUS_DIR, '_DONE'), 'w') as f:
        f.write('')
    ray.shutdown()


def run_data_prep_corpus() -> dict:
    """Scaling job #3: the LLM-training-data composite (lang → length →
    split → host-quality → exact-dedup → decontaminate → pack,
    pipelines/data_prep.training_data_prep) over documents derived from
    the SHARED page corpus (doc_id = url hash, source = url host) — the
    data-pipeline counterpart of the KG flagship for the north-rule
    evidence. Uses a GRAFT_SCALE_PREP_PAGES-sized slice (default 250k)
    selected by a DETERMINISTIC url-hash filter — ``Dataset.limit`` keeps
    whichever blocks the streaming executor finishes first, a different
    subset every run, which would hand the two scaling legs different
    inputs (measured: ±4 packed rows run-to-run before the fix)."""
    import ray
    ray.init(address='local', num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from caligraph_ray.functions.hashing import stable_hash64
    from caligraph_ray.pipelines.data_prep import training_data_prep

    n_docs = int(os.environ.get('GRAFT_SCALE_PREP_PAGES', '250000'))
    permille = max(1, round(1000 * n_docs / SCALE_PAGES))

    def to_docs(t: pa.Table) -> pa.Table:
        urls = t.column('url').to_pylist()
        keep = [i for i, u in enumerate(urls)
                if stable_hash64('prep|' + u) % 1000 < permille]
        t = t.take(keep)
        host = pc.replace_substring_regex(
            t.column('url'), r'^https?://([^/]+)/.*$', r'\1')
        return pa.Table.from_pydict({
            'doc_id': pa.array([stable_hash64(u) % (1 << 62)
                                for u in t.column('url').to_pylist()],
                               pa.int64()),
            'text': t.column('text'),
            'source': host.cast(pa.string())})

    docs = rd.read_parquet(SCALE_CORPUS_DIR) \
        .map_batches(to_docs, batch_format='pyarrow')
    t0 = time.time()
    n = training_data_prep(docs).count()
    dt = round(time.time() - t0, 3)
    ray.shutdown()
    return {'metric': 'data_prep', 'value': dt, 'unit': 'sec',
            'num_cpus': NUM_CPUS, 'n_docs_target': n_docs,
            'sample_permille': permille,
            'packed_rows': int(n),
            'docs_per_sec': round(n_docs / dt, 1),
            **_window_health()}


def run_scaling() -> dict:
    """Same job, same input, fresh processes at GRAFT_SCALE_CPUS_LO/HI
    (defaults 4 and 16; north-rule two-cluster-size evidence — see
    BASELINE.md for both the 4→16 and 8→32 pairs). Reports the end-to-end KG
    pipeline AND the compute-bound parse/extract sub-job: on a single node
    the shuffle stages share one memory bus (≈2-3× from 8→32 CPUs), which a
    real N→4N-node cluster does not — the sub-job shows the compute path's
    scaling unconfounded."""
    _ensure_scale_corpus()

    def run_at(ncpu: int, mode: str) -> dict:
        # give Ray the recommended object-store share: the flagship pins
        # parsed/mentions/linked between phases and the default 43% cap
        # triggers avoidable spills at 2M pages
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_MODE=mode,
                   RAY_DEFAULT_OBJECT_STORE_MEMORY_PROPORTION=os.environ.get(
                       'RAY_DEFAULT_OBJECT_STORE_MEMORY_PROPORTION', '0.5'))
        try:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)], env=env,
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        except subprocess.CalledProcessError as e:
            # surface the child's traceback — CalledProcessError's message
            # alone makes a failed multi-minute leg undiagnosable
            sys.stderr.write(e.stderr or '')
            raise
        return json.loads(out.strip().splitlines()[-1])

    n_lo = int(os.environ.get('GRAFT_SCALE_CPUS_LO', '4'))
    n_hi = int(os.environ.get('GRAFT_SCALE_CPUS_HI', '16'))
    result = {'metric': f'scaling_efficiency_{n_lo}_to_{n_hi}_cpus',
              'n_pages': SCALE_PAGES, **_window_health()}
    for mode, key in [('flagship_corpus', 'end_to_end'),
                      ('parse_extract', 'parse_extract'),
                      ('data_prep', 'data_prep')]:
        lo, hi = run_at(n_lo, mode), run_at(n_hi, mode)
        eff = (lo['value'] / hi['value']) / (n_hi / n_lo)
        result[key] = {
            f'sec_{n_lo}cpu': lo['value'], f'sec_{n_hi}cpu': hi['value'],
            'scaling_efficiency': round(eff, 3),
        }
    return result


if __name__ == '__main__':
    if '--scaling' in sys.argv:
        print(json.dumps(run_scaling()))
    elif os.environ.get('BENCH_MODE') == 'flagship_corpus':
        print(json.dumps(run_flagship_corpus()))
    elif os.environ.get('BENCH_MODE') == 'parse_extract':
        print(json.dumps(run_parse_extract()))
    elif os.environ.get('BENCH_MODE') == 'data_prep':
        print(json.dumps(run_data_prep_corpus()))
    else:
        print(json.dumps(run_benchmarks()))
