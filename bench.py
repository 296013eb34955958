"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR (default sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": sec, "unit": "sec", "queries": {...}, "sf": ..., "num_cpus": N}

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

    from caligraph_ray.pipelines import queries as Q
    from caligraph_ray.pipelines.flagship import run_flagship_on_documents

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

    # headline: full KG flagship (parse → link → canonicalize → triples)
    n_triples = timed('flagship_triples', lambda: run_flagship_on_documents(SF_DIR).count())
    # the full ED stack (bi-encoder embed → candidate top-k → cross-encoder
    # rerank, fused into one task stage — the reference's 86%-of-runtime
    # profile slot)
    timed('flagship_scored',
          lambda: run_flagship_on_documents(SF_DIR, linking='scored').count())

    timed('pricing_summary', lambda: Q.q_pricing_summary(SF_DIR))
    timed('revenue_by_nation', lambda: Q.q_revenue_by_nation(SF_DIR))
    timed('two_level_priority_stats',
          lambda: Q.q_two_level_priority_stats(SF_DIR).to_pandas())
    timed('hourly_user_activity', lambda: Q.q_hourly_user_activity(SF_DIR))
    timed('token_frequencies', lambda: Q.q_token_frequencies(SF_DIR).to_pandas())
    timed('dedup_exact', lambda: Q.q_dedup_exact(SF_DIR).to_pandas())
    timed('minhash_dedup', lambda: Q.q_minhash_dedup(SF_DIR))
    timed('fingerprint_overlap', lambda: Q.q_fingerprint_overlap_pairs(SF_DIR))
    timed('knn_topk', lambda: Q.q_knn_topk(SF_DIR))
    timed('quantized_knn_topk', lambda: Q.q_quantized_knn_topk(SF_DIR))
    timed('embedding_near_dups', lambda: Q.q_embedding_near_dups(SF_DIR))
    timed('user_components', lambda: Q.q_user_components(SF_DIR))
    # round-2 families
    timed('type_closure', lambda: Q.q_type_closure(SF_DIR).to_pandas())
    timed('linking_candidates_topk', lambda: Q.q_linking_candidates_topk(SF_DIR))
    timed('redirect_resolution', lambda: Q.q_redirect_resolution(SF_DIR).to_pandas())
    # temporal/ordered + IVF families
    timed('asof_latest_order', lambda: Q.q_asof_latest_order(SF_DIR))
    timed('event_pairs_window', lambda: Q.q_event_pairs_window(SF_DIR))
    timed('user_sessions', lambda: Q.q_user_sessions(SF_DIR))
    timed('rolling_user_value', lambda: Q.q_rolling_user_value(SF_DIR))
    timed('ivf_topk', lambda: Q.q_ivf_topk(SF_DIR))
    timed('value_quantiles_by_type', lambda: Q.q_value_quantiles_by_type(SF_DIR))
    # web-text hygiene family
    timed('boilerplate_removal',
          lambda: Q.q_boilerplate_removal(SF_DIR).to_pandas())
    timed('pii_scrub', lambda: Q.q_pii_scrub(SF_DIR).to_pandas())
    timed('url_canonical_dedup',
          lambda: Q.q_url_canonical_dedup(SF_DIR).to_pandas())
    # round-3 additions
    timed('repetition_stats',
          lambda: Q.q_repetition_stats(SF_DIR).to_pandas())
    timed('lsh_topk', lambda: Q.q_lsh_topk(SF_DIR))
    timed('listing_chunks', lambda: Q.q_listing_chunks(SF_DIR).to_pandas())
    timed('duplicate_spans', lambda: Q.q_duplicate_spans(SF_DIR))
    timed('kmeans_assignments', lambda: Q.q_kmeans_assignments(SF_DIR))
    timed('lang_id_ngram', lambda: Q.q_lang_id_ngram(SF_DIR).to_pandas())
    timed('bpe_merges', lambda: Q.q_bpe_merges(SF_DIR))
    timed('bpe_segment_counts',
          lambda: Q.q_bpe_segment_counts(SF_DIR).to_pandas())
    timed('cms_user_heavy_hitters',
          lambda: Q.q_cms_user_heavy_hitters(SF_DIR).to_pandas())
    timed('stratified_sample_docs', lambda: Q.q_stratified_sample_docs(SF_DIR))
    timed('domain_cap_docs', lambda: Q.q_domain_cap_docs(SF_DIR))
    timed('tfidf_top_terms', lambda: Q.q_tfidf_top_terms(SF_DIR).to_pandas())
    timed('pagerank_event_types', lambda: Q.q_pagerank_event_types(SF_DIR))
    timed('passage_chunks', lambda: Q.q_passage_chunks(SF_DIR).to_pandas())
    timed('mixture_sample_docs', lambda: Q.q_mixture_sample_docs(SF_DIR))
    timed('packed_sequences', lambda: Q.q_packed_sequences(SF_DIR))
    timed('host_quality_docs', lambda: Q.q_host_quality_docs(SF_DIR))
    timed('bigram_backoff_scores', lambda: Q.q_bigram_backoff_scores(SF_DIR))
    timed('event_type_triangles', lambda: Q.q_event_type_triangles(SF_DIR))
    timed('typo_name_pairs', lambda: Q.q_typo_name_pairs(SF_DIR))
    timed('event_type_hops', lambda: Q.q_event_type_hops(SF_DIR))
    timed('cooccurrence_pmi', lambda: Q.q_cooccurrence_pmi(SF_DIR))
    timed('training_data_prep', lambda: Q.q_training_data_prep(SF_DIR))
    timed('event_type_kcore', lambda: Q.q_event_type_kcore(SF_DIR))
    timed('retention_cohorts', lambda: Q.q_retention_cohorts(SF_DIR))
    timed('funnel_counts', lambda: Q.q_funnel_counts(SF_DIR))
    timed('trending_event_types', lambda: Q.q_trending_event_types(SF_DIR))
    timed('revenue_rollup', lambda: Q.q_revenue_rollup(SF_DIR))
    timed('json_prop_stats', lambda: Q.q_json_prop_stats(SF_DIR))
    timed('priority_lineitem_revenue',
          lambda: Q.q_priority_lineitem_revenue(SF_DIR))
    timed('supplier_activity', lambda: Q.q_supplier_activity(SF_DIR))
    timed('personalized_pagerank', lambda: Q.q_personalized_pagerank(SF_DIR))
    timed('session_funnel_counts', lambda: Q.q_session_funnel_counts(SF_DIR))
    timed('priority_status_cube', lambda: Q.q_priority_status_cube(SF_DIR))
    # round-4 additions
    timed('importance_weights', lambda: Q.q_importance_weights(SF_DIR))
    timed('semdedup_keep', lambda: Q.q_semdedup_keep(SF_DIR))
    timed('perplexity_buckets', lambda: Q.q_perplexity_buckets(SF_DIR))
    timed('bloom_user_bits', lambda: Q.q_bloom_user_bits(SF_DIR))
    timed('gopher_quality_flags', lambda: Q.q_gopher_quality_flags(SF_DIR))
    timed('blocklist_flags', lambda: Q.q_blocklist_flags(SF_DIR))
    timed('hygiene_filtered_docs',
          lambda: Q.q_hygiene_filtered_docs(SF_DIR))
    timed('user_communities', lambda: Q.q_user_communities(SF_DIR))
    timed('ngram_novelty', lambda: Q.q_ngram_novelty(SF_DIR))
    # round-5 additions
    timed('seen_before_docs', lambda: Q.q_seen_before_docs(SF_DIR))
    timed('user_components_distributed',
          lambda: Q.q_user_components_distributed(SF_DIR))
    timed('pivot_event_type_counts',
          lambda: Q.q_pivot_event_type_counts(SF_DIR))
    timed('unpivot_event_type_counts',
          lambda: Q.q_unpivot_event_type_counts(SF_DIR))
    timed('value_moments_by_type',
          lambda: Q.q_value_moments_by_type(SF_DIR))
    timed('user_type_profiles',
          lambda: Q.q_user_type_profiles(SF_DIR))
    timed('user_activity_full_join',
          lambda: Q.q_user_activity_full_join(SF_DIR))
    timed('value_ntile_by_type',
          lambda: Q.q_value_ntile_by_type(SF_DIR))
    timed('approx_distinct_users_by_type',
          lambda: Q.q_approx_distinct_users_by_type(SF_DIR))
    timed('value_lag_delta', lambda: Q.q_value_lag_delta(SF_DIR))
    timed('running_user_value', lambda: Q.q_running_user_value(SF_DIR))
    timed('user_rank_by_type', lambda: Q.q_user_rank_by_type(SF_DIR))
    timed('doc_snapshot_diff', lambda: Q.q_doc_snapshot_diff(SF_DIR))
    timed('active_user_intersect',
          lambda: Q.q_active_user_intersect(SF_DIR))
    timed('order_users_except_events',
          lambda: Q.q_order_users_except_events(SF_DIR))
    timed('value_band_counts', lambda: Q.q_value_band_counts(SF_DIR))
    timed('value_percent_rank_by_type',
          lambda: Q.q_value_percent_rank_by_type(SF_DIR))
    timed('weighted_sample_docs', lambda: Q.q_weighted_sample_docs(SF_DIR))
    timed('lexical_diversity_scores',
          lambda: Q.q_lexical_diversity_scores(SF_DIR))
    timed('hopping_window_counts',
          lambda: Q.q_hopping_window_counts(SF_DIR))
    timed('event_type_jaccard', lambda: Q.q_event_type_jaccard(SF_DIR))
    timed('debounced_user_events',
          lambda: Q.q_debounced_user_events(SF_DIR))
    timed('value_outliers_by_type',
          lambda: Q.q_value_outliers_by_type(SF_DIR))
    timed('event_type_salted_join',
          lambda: Q.q_event_type_salted_join(SF_DIR))
    timed('bloom_semi_join_lineitems',
          lambda: Q.q_bloom_semi_join_lineitems(SF_DIR))
    timed('event_transition_counts',
          lambda: Q.q_event_transition_counts(SF_DIR))
    timed('decayed_type_scores', lambda: Q.q_decayed_type_scores(SF_DIR))
    timed('top_value_events_with_ties',
          lambda: Q.q_top_value_events_with_ties(SF_DIR))
    timed('value_histogram_by_type',
          lambda: Q.q_value_histogram_by_type(SF_DIR))
    timed('user_first_touch', lambda: Q.q_user_first_touch(SF_DIR))
    timed('daily_new_users', lambda: Q.q_daily_new_users(SF_DIR))
    timed('fk_integrity_audit', lambda: Q.q_fk_integrity_audit(SF_DIR))
    timed('hdr_value_quantiles', lambda: Q.q_hdr_value_quantiles(SF_DIR))
    timed('hdr_quantiles_by_type',
          lambda: Q.q_hdr_quantiles_by_type(SF_DIR))
    # round-5 second-wave additions
    timed('column_profile_orders',
          lambda: Q.q_column_profile_orders(SF_DIR))
    timed('user_event_entropy', lambda: Q.q_user_event_entropy(SF_DIR))
    timed('pareto_orders', lambda: Q.q_pareto_orders(SF_DIR))
    timed('cdc_chunk_dedup', lambda: Q.q_cdc_chunk_dedup(SF_DIR))
    timed('chi2_keywords_by_lang',
          lambda: Q.q_chi2_keywords_by_lang(SF_DIR))
    timed('shortest_path_costs', lambda: Q.q_shortest_path_costs(SF_DIR))
    timed('event_type_lift', lambda: Q.q_event_type_lift(SF_DIR))
    timed('transition_gap_stats',
          lambda: Q.q_transition_gap_stats(SF_DIR))
    timed('token_postings', lambda: Q.q_token_postings(SF_DIR))
    timed('hits_event_types', lambda: Q.q_hits_event_types(SF_DIR))
    timed('hll_overlap_users', lambda: Q.q_hll_overlap_users(SF_DIR))
    timed('value_mad_outliers', lambda: Q.q_value_mad_outliers(SF_DIR))
    timed('weekly_active_users', lambda: Q.q_weekly_active_users(SF_DIR))
    timed('weighted_sample_by_lang',
          lambda: Q.q_weighted_sample_by_lang(SF_DIR))
    timed('value_grouping_sets', lambda: Q.q_value_grouping_sets(SF_DIR))
    timed('union_schema_evolution',
          lambda: Q.q_union_schema_evolution(SF_DIR))
    timed('clustering_coefficients',
          lambda: Q.q_clustering_coefficients(SF_DIR))
    timed('source_gini', lambda: Q.q_source_gini(SF_DIR))

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
