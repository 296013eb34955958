"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB
(row count + column names + order-insensitive value comparison).

Usage: python tools/check_correctness.py [sf_dir] [query ...] [--json PATH]

--json writes one verdict per query (name, status, rows, seconds, plus the
digest of the canonicalized result so two commits' boards can be diffed).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd


TABLES = ['region', 'nation', 'customer', 'supplier', 'part', 'orders',
          'lineitem', 'events', 'documents', 'embeddings']


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    # row alignment: exact (non-float) columns are the primary sort keys and
    # float columns sort on a rounded copy — otherwise a sub-tolerance float
    # diff in an alphabetically-early column flips the row order between the
    # two frames and exact columns false-mismatch
    float_cols = [c for c in df.columns if pd.api.types.is_float_dtype(df[c])]
    keys = [c for c in df.columns if c not in float_cols] + float_cols
    sort_view = df.copy()
    for c in float_cols:
        sort_view[c] = sort_view[c].round(6)
    order = sort_view.sort_values(keys, kind='mergesort').index
    return df.loc[order].reset_index(drop=True)


def _dtype_kind(dt) -> str:
    """Coarse representation class used for hash-compat checks: the driver
    hashes value REPRESENTATIONS, so an engine int64 vs an oracle float64
    (e.g. DuckDB HUGEINT sums materialized by fetchdf) is a red row even
    when values are numerically identical."""
    if pd.api.types.is_bool_dtype(dt):
        return 'bool'
    if pd.api.types.is_integer_dtype(dt):
        return 'int'
    if pd.api.types.is_float_dtype(dt):
        return 'float'
    if pd.api.types.is_datetime64_any_dtype(dt):
        return 'datetime'
    return 'object'


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return f'SCHEMA MISMATCH ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}'
    if len(ray_df) != len(sql_df):
        return f'ROWCOUNT MISMATCH ray={len(ray_df)} sql={len(sql_df)}'
    bad_dtypes = []
    for c in ray_df.columns:
        ka, kb = _dtype_kind(ray_df[c].dtype), _dtype_kind(sql_df[c].dtype)
        if ka != kb and not (len(ray_df) == 0 and 'object' in (ka, kb)):
            bad_dtypes.append(f'{c}: ray={ray_df[c].dtype} sql={sql_df[c].dtype}')
    if bad_dtypes:
        return f'DTYPE MISMATCH {"; ".join(bad_dtypes)}'
    a, b = canon(ray_df), canon(sql_df)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False, rtol=0, atol=1e-9)
    except AssertionError as e:
        diff = str(e).split('\n')[0]
        for col in a.columns:
            if not a[col].equals(b[col]):
                neq = (a[col] != b[col])
                idx = neq[neq].index[:3].tolist()
                return (f'VALUE MISMATCH col={col} rows={idx} '
                        f'ray={a[col].iloc[idx].tolist() if idx else []} '
                        f'sql={b[col].iloc[idx].tolist() if idx else []}')
        return f'VALUE MISMATCH {diff}'
    return 'OK'


def digest(df: pd.DataFrame) -> str:
    rows = pd.util.hash_pandas_object(canon(df).astype(str), index=False)
    return hashlib.sha256(rows.values.tobytes()).hexdigest()[:16]


def main():
    json_path = None
    if '--json' in sys.argv:
        i = sys.argv.index('--json')
        json_path = sys.argv[i + 1]
        del sys.argv[i:i + 2]
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else '/root/testdata/sf0.01'
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address='local', num_cpus=8, include_dashboard=False,
                 logging_level='ERROR')
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod
    from caligraph_ray.pipelines.queries import to_pandas
    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    unknown = only - set(qs)
    if unknown:
        # a typo'd name would otherwise run ZERO queries and exit 0 —
        # a vacuously green gate
        print(f'ERROR: unknown query name(s): {sorted(unknown)}')
        sys.exit(2)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    verdicts = []

    def record(name, status, ray_df=None, seconds=None, detail=''):
        verdicts.append({'name': name, 'status': status,
                         'rows': None if ray_df is None else len(ray_df),
                         'seconds': None if seconds is None else round(seconds, 3),
                         'digest': None if ray_df is None else digest(ray_df),
                         'detail': detail})

    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f'{name:32s} RAY-ERROR {type(e).__name__}: {e}')
            record(name, 'RAY-ERROR', detail=f'{type(e).__name__}: {e}')
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f'{name:32s} rows-only rows={len(ray_df)} ({dt:.1f}s)')
            if len(ray_df) == 0 and name != 'ngram_jaccard_pairs':
                print(f'  WARNING: zero rows')
            record(name, 'rows-only', ray_df, dt)
            continue
        try:
            sql_df = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f'{name:32s} SQL-ERROR {e}')
            record(name, 'SQL-ERROR', ray_df, dt, str(e))
            continue
        verdict = compare(name, ray_df, sql_df)
        status = 'ok' if verdict == 'OK' else 'FAIL'
        print(f'{name:32s} {status:4s} rows={len(ray_df)} ({dt:.1f}s) {verdict if verdict != "OK" else ""}')
        record(name, status, ray_df, dt, '' if verdict == 'OK' else verdict)
    ray.shutdown()
    if json_path:
        with open(json_path, 'w') as f:
            json.dump({'sf': sf_dir, 'queries': verdicts}, f, indent=1)
            f.write('\n')
    failures = sum(v['status'] not in ('ok', 'rows-only') for v in verdicts)
    sys.exit(1 if failures else 0)


if __name__ == '__main__':
    main()
