"""CLI: entity-disambiguation evaluation + threshold tuning (reference
evaluate_entity_disambiguation.py / tune_entity_disambiguation.py analogue,
§2.10 entry-point surface).

Default task: the deterministic user-clustering evaluation of the driver
contract (mentions = users, predicted label = modal event type, gold =
first event's type) with the FULL metric set — ME P/R/F1, B³, MUC, CEAF-e
(Hungarian assignment, not SQL-expressible, so only this CLI and pytest
exercise it), NMI, ARI.

``--tune me=0.9,0.95,0.99`` instead greedily sweeps the flagship's
mention-entity threshold over the sf corpus, reporting triples + new-entity
counts per setting (the reference's tune CLI shape: one run per
hyperparameter value).

Usage:
    python tools/evaluate_ed.py [--sf-dir /root/testdata/sf0.001]
        [--tune me=0.9,0.95,0.99] [--num-cpus 8]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('--sf-dir', default='/root/testdata/sf0.001')
    ap.add_argument('--tune', default=None,
                    help='me=<comma list>: sweep the mention-entity '
                         'threshold through the flagship instead')
    ap.add_argument('--matcher', default=None,
                    help='trainable matcher name (e.g. "scored", '
                         '"scored-trained"): build a wikilink-supervised '
                         'mention corpus from the sf dir, 60/20/20 split, '
                         'train (entity dim + threshold; scored-trained '
                         'also gradient-fine-tunes the bi-encoder) and '
                         'report train vs val vs test ME metrics '
                         '(reference matcher.py:29-42 contract)')
    ap.add_argument('--matcher-params', default=None,
                    help='comma list of k=v hyperparameters for the '
                         'matcher (ints/floats parsed), e.g. '
                         '"epochs=4,dim=32,lr=0.003" — the reference '
                         'tune_entity_disambiguation arg surface')
    ap.add_argument('--num-cpus', type=int, default=8)
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address='local', num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    if args.matcher:
        from caligraph_ray.pipelines.matcher import mention_corpus_from_sf
        from caligraph_ray.pipelines.registry import make_trainable_matcher
        corpus = mention_corpus_from_sf(args.sf_dir)
        train, val, test = corpus.random_shuffle(seed=42) \
            .split_proportionately([0.6, 0.2])
        train, val, test = (d.materialize() for d in (train, val, test))
        params = {}
        if args.matcher_params:
            for kv in args.matcher_params.split(','):
                k, _, v = kv.partition('=')
                try:
                    params[k.strip()] = int(v)
                except ValueError:
                    try:
                        params[k.strip()] = float(v)
                    except ValueError:
                        params[k.strip()] = v
        matcher = make_trainable_matcher(args.matcher, **params)
        report = matcher.train(train, eval_on_train=True)
        report[matcher.MODE_EVAL] = matcher._evaluate(matcher.MODE_EVAL, val)
        report.update(matcher.test(test))
        report['threshold'] = matcher.threshold
        report['entities'] = len(matcher.entity_labels or ())
        print(json.dumps(report))
        ray.shutdown()
        return

    if args.tune:
        key, _, vals = args.tune.partition('=')
        assert key == 'me', 'only me=<list> sweeps are wired'
        from caligraph_ray.pipelines.flagship import run_flagship_on_documents
        out = []
        for v in (float(x) for x in vals.split(',')):
            ds = run_flagship_on_documents(args.sf_dir, me_threshold=v)
            df = ds.to_pandas()
            out.append({'me_threshold': v, 'triples': int(len(df)),
                        'new_entities': int(df['subj'].str.startswith('NE_')
                                            .sum())})
        print(json.dumps(out))
        ray.shutdown()
        return

    import pandas as pd
    from caligraph_ray.functions.metrics import ed_metrics
    from caligraph_ray.stages import relational as rel

    ev = rel.read_table(args.sf_dir, 'events',
                        ['user_id', 'event_type', 'ts', 'event_id'])
    pred_df = rel.collect_pandas(
        rel.mode_per_group(ev, 'user_id', 'event_type', alias='pred'))

    def first_event(bucket: pd.DataFrame) -> pd.DataFrame:
        s = bucket.sort_values(['user_id', 'ts', 'event_id'], kind='mergesort')
        s = s.drop_duplicates('user_id', keep='first')
        return s[['user_id', 'event_type']].rename(columns={'event_type': 'gold'})

    gold_df = rel.collect_pandas(rel.bucketed_map(ev, ['user_id'], first_event))
    pred = dict(zip(pred_df['user_id'], pred_df['pred']))
    gold = dict(zip(gold_df['user_id'], gold_df['gold']))
    m = ed_metrics(pred, gold)
    print(json.dumps({k: (round(v, 6) if isinstance(v, float) else
                          {kk: round(vv, 6) for kk, vv in v.items()}
                          if isinstance(v, dict) else v)
                      for k, v in m.items()}))
    ray.shutdown()


if __name__ == '__main__':
    main()
