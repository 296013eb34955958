"""Query registry backing __ray_entry__.queries()/oracle_sql(), bench.py
and the tools.

One entry per operator family from SURVEY.md §2, each running the real
library stage over the driver testdata tables and paired (where
SQL-expressible) with a DuckDB oracle; each ``q_<name>`` registers itself
as query ``<name>`` with ``@query(oracle=...)``. Column names and rounding
are kept identical on both sides: float *sums* land on value grids →
round() is safe; exact *ratios* can land on round-half midpoints (Python
banker's vs DuckDB half-away) → floor-scaling (`floor(x*1e6)/1e6`) is used
instead.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.strings import NUMERIC_TOKEN_PATTERN
from ..stages import relational as rel
from ..stages import textstats as ts
from ..stages import dedup as dd
from ..stages import similarity as sim
from ..stages.alias import alias_counts, explode_mentions
from ..stages.canonicalize import connected_components
from ..stages.html_extract import parse_items
from ..pipelines.flagship import (LINKED_VOCAB, MIN_DOC_TOKENS,
                                  documents_to_pages, run_flagship_on_documents)


_REGISTRY: Dict[str, Tuple[Callable[[str], object],
                           Optional[Callable[[], str]]]] = {}


def query(oracle: Optional[Callable[[], str]] = None):
    """Register the decorated ``q_<name>`` as query ``<name>``. ``oracle``
    returns its DuckDB SQL; it is a thunk because the SQL sits below the
    query it checks."""
    def register(fn):
        _REGISTRY[fn.__name__[len('q_'):]] = (fn, oracle)
        return fn
    return register


def queries() -> Dict[str, Callable[[str], object]]:
    return {name: fn for name, (fn, _) in _REGISTRY.items()}


def oracle_sql() -> Dict[str, str]:
    return {name: sql() for name, (_, sql) in _REGISTRY.items() if sql}


def to_pandas(result) -> pd.DataFrame:
    """Collect a query result (Dataset, Arrow table or DataFrame) the way
    the oracle gate and the bench both read it."""
    if isinstance(result, (ray.data.Dataset, pa.Table)):
        return result.to_pandas()
    return result


def _floor6(x: float) -> float:
    return math.floor(x * 1_000_000) / 1_000_000


_STOP_SQL = "({})".format(", ".join(f"'{w}'" for w in sorted(ts.EN_STOPWORDS)))
_VOCAB_SQL = "({})".format(", ".join(f"'{w}'" for w in LINKED_VOCAB))


# --- relational family ------------------------------------------------------

@query(oracle=lambda: SQL_PRICING)
def q_pricing_summary(sf_dir: str):
    """A6-style grouped aggregate with partial combine (TPC-H Q1 shape)."""
    ds = rel.read_table(sf_dir, 'lineitem',
                        ['l_returnflag', 'l_linestatus', 'l_quantity', 'l_extendedprice'])
    out = rel.two_phase_pandas_agg(
        ds, ['l_returnflag', 'l_linestatus'],
        {'sum_qty': ('l_quantity', 'sum'),
         'sum_price': ('l_extendedprice', 'sum'),
         'count_order': (None, 'count')})
    df = out.to_pandas()
    # ratio → floor-scaling (module convention): pandas round() is
    # half-even, DuckDB round() half-away — they differ on exact midpoints
    # (power-of-two group counts); floor agrees bit-for-bit
    df['avg_qty'] = np.floor(df['sum_qty'] / df['count_order'] * 1e4) / 1e4
    df['sum_qty'] = df['sum_qty'].round(2)
    df['sum_price'] = df['sum_price'].round(2)
    return df


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_price,
       floor(sum(l_quantity) * 1.0 / count(*) * 10000) / 10000 AS avg_qty,
       count(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


@query(oracle=lambda: SQL_REVENUE)
def q_revenue_by_nation(sf_dir: str):
    """Star join (J2/J3): orders ⋈ customer through the gated shuffle_join
    (customer scales with SF — never collected to the driver; the measured
    JOIN_BROADCAST_BYTES gate picks broadcast when it IS small), then the
    fixed-size nation dim (≤25 rows at any SF) broadcast per batch."""
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey', 'o_totalprice'])
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey', 'c_nationkey'])
    nation = rel.read_table(sf_dir, 'nation', ['n_nationkey', 'n_name']).to_pandas()
    j = rel.shuffle_join(orders, cust, left_on='o_custkey', right_on='c_custkey')
    j = rel.broadcast_join(j, nation, left_on='c_nationkey', right_on='n_nationkey')
    out = rel.two_phase_sum(j, ['n_name'], 'o_totalprice', alias='revenue').to_pandas()
    out['revenue'] = out['revenue'].round(2)
    return out[['n_name', 'revenue']]


SQL_REVENUE = """
SELECT n_name, round(sum(o_totalprice), 2) AS revenue
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


@query(oracle=lambda: SQL_REVENUE_REGION)
def q_revenue_by_region(sf_dir: str):
    """Deepest star join in the testdata: orders ⋈ customer via the gated
    shuffle_join (customer is SF-scaled), then the nation⋈region dim —
    fixed-size at any SF (≤25 × 5 rows, TPC-H spec) — merged driver-side
    once and broadcast per batch."""
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey', 'o_totalprice'])
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey', 'c_nationkey'])
    nation = rel.read_table(sf_dir, 'nation', ['n_nationkey', 'n_regionkey']).to_pandas()
    region = rel.read_table(sf_dir, 'region', ['r_regionkey', 'r_name']).to_pandas()
    dim = nation.merge(region, left_on='n_regionkey',
                       right_on='r_regionkey')[['n_nationkey', 'r_name']]
    j = rel.shuffle_join(orders, cust, left_on='o_custkey', right_on='c_custkey')
    j = rel.broadcast_join(j, dim, left_on='c_nationkey', right_on='n_nationkey')
    out = rel.two_phase_sum(j, ['r_name'], 'o_totalprice', alias='revenue').to_pandas()
    out['revenue'] = out['revenue'].round(2)
    return out[['r_name', 'revenue']]


SQL_REVENUE_REGION = """
SELECT r_name, round(sum(o_totalprice), 2) AS revenue
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


@query(oracle=lambda: SQL_REVENUE_ROLLUP)
def q_revenue_rollup(sf_dir: str):
    """ROLLUP(region, nation) revenue with subtotal and grand-total rows —
    computed the scale-smart way: ONE exchange aggregates the fine
    (region, nation) level in exact integer cents (floor-cents contract,
    stages/temporal), then the coarser levels re-aggregate the tiny fine
    table (a dim by contract) instead of re-scanning the fact rows.
    Integer sums are order-independent, so the re-aggregated subtotals
    equal SQL ROLLUP's raw-row subtotals bit-for-bit."""
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey', 'o_totalprice'])
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey', 'c_nationkey'])
    nation = rel.read_table(sf_dir, 'nation',
                            ['n_nationkey', 'n_name', 'n_regionkey']).to_pandas()
    region = rel.read_table(sf_dir, 'region',
                            ['r_regionkey', 'r_name']).to_pandas()
    # nation⋈region is fixed-size at any SF (≤25 × 5 rows) — driver merge
    # is legitimate; customer is SF-scaled and goes through the gated join.
    dim = (nation.merge(region, left_on='n_regionkey',
                        right_on='r_regionkey')
           [['n_nationkey', 'r_name', 'n_name']])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b['cents'] = np.floor(b['o_totalprice'].to_numpy() * 100) \
            .astype('int64')
        return b[['o_custkey', 'cents']]

    j = rel.shuffle_join(orders.map_batches(to_cents,
                                            batch_format='pandas'),
                         cust, left_on='o_custkey', right_on='c_custkey')
    joined = rel.broadcast_join(j, dim, left_on='c_nationkey',
                                right_on='n_nationkey')
    fine = rel.collect_pandas(rel.two_phase_sum(
        joined, ['r_name', 'n_name'], 'cents', alias='revenue_cents'))
    fine['revenue_cents'] = fine['revenue_cents'].astype('int64')
    regions = (fine.groupby('r_name', as_index=False)['revenue_cents']
               .sum().assign(n_name=None))
    grand = pd.DataFrame({'r_name': [None], 'n_name': [None],
                          'revenue_cents': [fine['revenue_cents'].sum()]})
    out = pd.concat([fine, regions, grand], ignore_index=True)
    out = out[['r_name', 'n_name', 'revenue_cents']]
    out['revenue_cents'] = out['revenue_cents'].astype('int64')
    return out.sort_values(['r_name', 'n_name'],
                           na_position='first').reset_index(drop=True)


SQL_REVENUE_ROLLUP = """
SELECT r_name, n_name,
       CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
GROUP BY ROLLUP (r_name, n_name)
ORDER BY r_name NULLS FIRST, n_name NULLS FIRST
"""


@query(oracle=lambda: SQL_PRIORITY_LINEITEM)
def q_priority_lineitem_revenue(sf_dir: str):
    """FACT-FACT join: lineitem ⋈ orders on orderkey (both dataset-sized —
    the co-partitioned shuffle_join path, with the small-side broadcast
    gate routing automatically at small sf), then a two-phase integer-cents
    aggregate per order priority. The only query shape the suite lacked:
    neither side is a broadcastable dim at 10^12 rows."""
    li = rel.read_table(sf_dir, 'lineitem', ['l_orderkey', 'l_extendedprice'])
    orders = rel.read_table(sf_dir, 'orders', ['o_orderkey', 'o_orderpriority'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b['cents'] = np.floor(b['l_extendedprice'].to_numpy() * 100) \
            .astype('int64')
        return b[['l_orderkey', 'cents']]

    j = rel.shuffle_join(li.map_batches(to_cents, batch_format='pandas'),
                         orders, left_on='l_orderkey',
                         right_on='o_orderkey', how='inner',
                         right_hint='fact')   # orders is fact-sized: skip
    # the gate's measuring materialization (it would never broadcast)
    out = rel.collect_pandas(rel.two_phase_pandas_agg(
        j, ['o_orderpriority'],
        {'n_items': (None, 'count'), 'revenue_cents': ('cents', 'sum')}))
    out = out.astype({'n_items': 'int64', 'revenue_cents': 'int64'})
    return out.sort_values('o_orderpriority').reset_index(drop=True)


SQL_PRIORITY_LINEITEM = """
SELECT o_orderpriority, count(*) AS n_items,
       CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


@query(oracle=lambda: SQL_SUPPLIER_ACTIVITY)
def q_supplier_activity(sf_dir: str):
    """Per-nation supplier roster + shipping activity (completes the
    testdata table coverage: supplier was the one unjoined table): dim
    aggregates (supplier count, floor-cents acctbal) merge with a
    lineitem ⋈ supplier broadcast join counted two-phase per nation."""
    # supplier is SF-scaled: both its uses stay distributed — a two-phase
    # per-nation aggregate (≤25 output rows) and the gated shuffle_join
    # against lineitem. Only nation (fixed ≤25 rows) is driver-collected.
    nation = rel.read_table(sf_dir, 'nation',
                            ['n_nationkey', 'n_name']).to_pandas()
    supp = rel.read_table(sf_dir, 'supplier',
                          ['s_suppkey', 's_nationkey', 's_acctbal'])

    def acct_cents(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b['acct_cents'] = np.floor(b['s_acctbal'].to_numpy() * 100) \
            .astype('int64')
        return b[['s_suppkey', 's_nationkey', 'acct_cents']]

    supp_c = supp.map_batches(acct_cents, batch_format='pandas')
    roster = rel.collect_pandas(rel.two_phase_pandas_agg(
        supp_c, ['s_nationkey'],
        {'n_suppliers': (None, 'count'),
         'acctbal_cents': ('acct_cents', 'sum')}))
    li = rel.read_table(sf_dir, 'lineitem', ['l_suppkey'])
    j = rel.shuffle_join(li, supp_c.select_columns(['s_suppkey',
                                                    's_nationkey']),
                         left_on='l_suppkey', right_on='s_suppkey')
    acts = rel.collect_pandas(rel.two_phase_count(
        j, ['s_nationkey'], alias='n_lineitems'))
    out = (roster.merge(acts, on='s_nationkey', how='left')
           .merge(nation, left_on='s_nationkey', right_on='n_nationkey'))
    out['n_lineitems'] = out['n_lineitems'].fillna(0).astype('int64')
    out = out[['n_name', 'n_suppliers', 'acctbal_cents', 'n_lineitems']]
    out = out.astype({'n_suppliers': 'int64', 'acctbal_cents': 'int64'})
    return out.sort_values('n_name').reset_index(drop=True)


SQL_SUPPLIER_ACTIVITY = """
WITH roster AS (
  SELECT s_nationkey, count(*) AS n_suppliers,
         CAST(sum(CAST(floor(s_acctbal * 100) AS BIGINT)) AS BIGINT)
             AS acctbal_cents
  FROM supplier GROUP BY s_nationkey),
acts AS (
  SELECT s_nationkey, count(*) AS n_lineitems
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
  GROUP BY s_nationkey)
SELECT n_name, r.n_suppliers, r.acctbal_cents,
       CAST(coalesce(a.n_lineitems, 0) AS BIGINT) AS n_lineitems
FROM roster r
LEFT JOIN acts a USING (s_nationkey)
JOIN nation ON n_nationkey = r.s_nationkey
ORDER BY n_name
"""


@query(oracle=lambda: SQL_PRIORITY_STATUS_CUBE)
def q_priority_status_cube(sf_dir: str):
    """CUBE(o_orderpriority, o_orderstatus) revenue — all four grouping
    sets, computed like the rollup: ONE fact exchange at the fine level in
    exact integer cents, every coarser set re-aggregated from the tiny
    fine table (integer sums make re-aggregation ≡ raw-row CUBE)."""
    orders = rel.read_table(sf_dir, 'orders',
                            ['o_orderpriority', 'o_orderstatus',
                             'o_totalprice'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b['cents'] = np.floor(b['o_totalprice'].to_numpy() * 100) \
            .astype('int64')
        return b[['o_orderpriority', 'o_orderstatus', 'cents']]

    fine = rel.collect_pandas(rel.two_phase_sum(
        orders.map_batches(to_cents, batch_format='pandas'),
        ['o_orderpriority', 'o_orderstatus'], 'cents',
        alias='revenue_cents'))
    fine['revenue_cents'] = fine['revenue_cents'].astype('int64')
    by_p = (fine.groupby('o_orderpriority', as_index=False)['revenue_cents']
            .sum().assign(o_orderstatus=None))
    by_s = (fine.groupby('o_orderstatus', as_index=False)['revenue_cents']
            .sum().assign(o_orderpriority=None))
    grand = pd.DataFrame({'o_orderpriority': [None], 'o_orderstatus': [None],
                          'revenue_cents': [fine['revenue_cents'].sum()]})
    out = pd.concat([fine, by_p, by_s, grand], ignore_index=True)
    out = out[['o_orderpriority', 'o_orderstatus', 'revenue_cents']]
    out['revenue_cents'] = out['revenue_cents'].astype('int64')
    return out.sort_values(['o_orderpriority', 'o_orderstatus'],
                           na_position='first').reset_index(drop=True)


SQL_PRIORITY_STATUS_CUBE = """
SELECT o_orderpriority, o_orderstatus,
       CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM orders
GROUP BY CUBE (o_orderpriority, o_orderstatus)
ORDER BY o_orderpriority NULLS FIRST, o_orderstatus NULLS FIRST
"""


@query(oracle=lambda: SQL_JSON_PROPS)
def q_json_prop_stats(sf_dir: str):
    """JSON property extraction + aggregate (§2.8 scalar-fn surface over
    the events ``props`` JSON column): per event_type integer stats of
    $.k, extracted VECTORIZED arrow-side (pc.extract_regex over the
    serialized form — the zero-copy scale path; the SQL twin uses real
    json_extract). All-int64 aggregates — exact."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'props'])

    def extract(t: pa.Table) -> pd.DataFrame:
        m = pc.extract_regex(t.column('props'), r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, 'k'), pa.int64())
        return pd.DataFrame({'event_type': t.column('event_type').to_pandas(),
                             'k': k.to_pandas()})

    rows = ev.map_batches(extract, batch_format='pyarrow', batch_size=None)
    out = rel.collect_pandas(rel.two_phase_pandas_agg(
        rows, ['event_type'],
        {'n': (None, 'count'), 'sum_k': ('k', 'sum'),
         'min_k': ('k', 'min'), 'max_k': ('k', 'max')}))
    out = out.astype({'n': 'int64', 'sum_k': 'int64',
                      'min_k': 'int64', 'max_k': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


SQL_JSON_PROPS = """
SELECT event_type, count(*) AS n,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       min(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS min_k,
       max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS max_k
FROM events GROUP BY event_type ORDER BY event_type
"""


@query(oracle=lambda: SQL_NO_ORDERS)
def q_customers_without_orders(sf_dir: str):
    """Anti join via broadcast key set (J3, extract.py:286-289)."""
    order_keys = rel.read_table(sf_dir, 'orders', ['o_custkey']).unique('o_custkey')
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey'])
    out = rel.semi_anti_join(cust, order_keys, 'c_custkey', anti=True).to_pandas()
    if out.empty:  # keep schema on empty results
        out = pd.DataFrame({'c_custkey': pd.Series(dtype='int64')})
    return out


SQL_NO_ORDERS = """
SELECT c_custkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
"""


@query(oracle=lambda: SQL_SEMI_PARTS)
def q_semi_join_large_parts(sf_dir: str):
    """Semi join via broadcast key set + two-phase sum."""
    part_keys = rel.read_table(sf_dir, 'part', ['p_partkey', 'p_size']) \
        .filter(expr='p_size >= 40').unique('p_partkey')
    li = rel.read_table(sf_dir, 'lineitem', ['l_partkey', 'l_quantity'])
    semi = rel.semi_anti_join(li, part_keys, 'l_partkey', anti=False)
    out = rel.two_phase_sum(semi, ['l_partkey'], 'l_quantity', alias='total_qty').to_pandas()
    out['total_qty'] = out['total_qty'].round(2)
    return out


SQL_SEMI_PARTS = """
SELECT l_partkey, round(sum(l_quantity), 2) AS total_qty
FROM lineitem WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_size >= 40)
GROUP BY l_partkey
"""


@query(oracle=lambda: SQL_TOP_DOCS)
def q_top_docs_per_lang(sf_dir: str):
    """Per-group top-k (O1)."""
    docs = rel.read_table(sf_dir, 'documents', ['lang', 'doc_id', 'n_chars'])
    return rel.topk_per_group(docs, 'lang', ['n_chars', 'doc_id'], [False, True], k=3)


SQL_TOP_DOCS = """
SELECT lang, doc_id, n_chars FROM documents
QUALIFY row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) <= 3
"""


@query(oracle=lambda: SQL_MODE_PRIORITY)
def q_mode_priority_per_customer(sf_dir: str):
    """Mode per group (O3 Counter.most_common), ties → lexicographic min."""
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey', 'o_orderpriority'])
    return rel.mode_per_group(orders, 'o_custkey', 'o_orderpriority', alias='mode_priority')


SQL_MODE_PRIORITY = """
SELECT o_custkey, o_orderpriority AS mode_priority FROM (
    SELECT o_custkey, o_orderpriority, count(*) AS cnt
    FROM orders GROUP BY o_custkey, o_orderpriority)
QUALIFY row_number() OVER (PARTITION BY o_custkey ORDER BY cnt DESC, o_orderpriority) = 1
"""


@query(oracle=lambda: SQL_DISTINCT)
def q_distinct_lang_source(sf_dir: str):
    """Exact distinct (A14/D1) via two-phase groupby."""
    docs = rel.read_table(sf_dir, 'documents', ['lang', 'source'])
    return rel.two_phase_count(docs, ['lang', 'source'], alias='cnt') \
        .drop_columns(['cnt'])


SQL_DISTINCT = "SELECT DISTINCT lang, source FROM documents"


@query(oracle=lambda: SQL_FUNCTIONAL)
def q_functional_event_types(sf_dir: str):
    """Functional-predicate heuristic (A12, heuristics.py:163-184)."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    return rel.functional_keys(ev, 'event_type', 'user_id')


SQL_FUNCTIONAL = """
SELECT event_type, count(*) AS n_subjects,
       floor(count(*) FILTER (n = 1) * 1.0 / count(*) * 1e6) / 1e6
           AS functional_ratio
FROM (SELECT event_type, user_id, count(*) AS n FROM events GROUP BY event_type, user_id)
GROUP BY event_type
"""


@query(oracle=lambda: SQL_HOURLY)
def q_hourly_user_activity(sf_dir: str):
    """Tumbling-window aggregate over the events log (§2.9 stream analogue)."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'ts', 'value'])

    def add_hour(batch: pd.DataFrame) -> pd.DataFrame:
        batch['hour'] = batch['ts'].dt.floor('h')
        return batch[['user_id', 'hour', 'value']]

    hourly = ev.map_batches(add_hour, batch_format='pandas')
    out = rel.two_phase_pandas_agg(
        hourly, ['user_id', 'hour'],
        {'n_events': (None, 'count'), 'total_value': ('value', 'sum')}).to_pandas()
    out['total_value'] = out['total_value'].round(2)
    return out


SQL_HOURLY = """
SELECT user_id, date_trunc('hour', ts) AS hour, count(*) AS n_events,
       round(sum(value), 2) AS total_value
FROM events GROUP BY user_id, date_trunc('hour', ts)
"""


@query(oracle=lambda: SQL_TWO_LEVEL)
def q_two_level_priority_stats(sf_dir: str):
    """Two-level aggregation (A6/A7, extract.py:90-147): per-(priority,
    customer) counts, then per-priority stats over those counts."""
    orders = rel.read_table(sf_dir, 'orders', ['o_orderpriority', 'o_custkey'])
    per_cust = rel.two_phase_count(orders, ['o_orderpriority', 'o_custkey'], alias='n')

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'o_orderpriority': [g.iloc[0]['o_orderpriority']],
            'n_customers': [len(g)],
            'avg_orders_per_customer': [_floor6(float(g['n'].sum()) / len(g))],
            'max_orders': [int(g['n'].max())],
        })

    return per_cust.groupby('o_orderpriority').map_groups(stats, batch_format='pandas')


SQL_TWO_LEVEL = """
SELECT o_orderpriority, count(*) AS n_customers,
       floor((sum(n) * 1.0 / count(*)) * 1000000) / 1000000 AS avg_orders_per_customer,
       max(n) AS max_orders
FROM (SELECT o_orderpriority, o_custkey, count(*) AS n FROM orders GROUP BY 1, 2)
GROUP BY o_orderpriority
"""


# --- text family ------------------------------------------------------------

@query(oracle=lambda: SQL_TOKEN_FREQ)
def q_token_frequencies(sf_dir: str):
    """Surface-form frequency build (A2) over documents tokens, freq ≥ 5."""
    docs = rel.read_table(sf_dir, 'documents', ['text'])
    out = ts.token_counts(docs)
    return rel.arrow_filter(out, lambda t: pc.greater_equal(t['freq'], 5))


SQL_TOKEN_FREQ = """
SELECT token, count(*) AS freq
FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
WHERE token <> '' GROUP BY token HAVING count(*) >= 5
"""


@query(oracle=lambda: SQL_FREQ_LABELS)
def q_frequent_labels(sf_dir: str):
    """Too-frequent unknown-label filter (A13/M20): valid entity labels
    (len>2, non-numeric) with freq > 50."""
    docs = rel.read_table(sf_dir, 'documents', ['text'])
    out = ts.token_counts(docs, min_len=3)

    def valid(t):
        # the vectorized form of strings.is_valid_entity_label: same
        # canonical pattern, len>2 enforced by min_len=3 upstream
        nonnum = pc.invert(pc.match_substring_regex(
            t['token'], NUMERIC_TOKEN_PATTERN))
        return pc.and_(pc.greater(t['freq'], 50), nonnum)
    return rel.arrow_filter(out, valid)


SQL_FREQ_LABELS = f"""
SELECT token, count(*) AS freq
FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
WHERE length(token) > 2 AND NOT regexp_matches(token, '{NUMERIC_TOKEN_PATTERN}')
GROUP BY token HAVING count(*) > 50
"""


@query(oracle=lambda: SQL_BIGRAMS)
def q_bigram_counts(sf_dir: str):
    """Adjacent-pair counts (A1 hypernym-pair analogue), freq ≥ 10."""
    docs = rel.read_table(sf_dir, 'documents', ['text'])
    return rel.arrow_filter(ts.bigram_counts(docs),
                            lambda t: pc.greater_equal(t['freq'], 10))


SQL_BIGRAMS = """
WITH raw AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
           generate_subscripts(string_split(text, ' '), 1) AS pos
    FROM documents),
toks AS (
    -- drop empty tokens BEFORE pairing and renumber, exactly like the
    -- Python _split_tokens: 'a  b' pairs (a,b), never (a,'')/('',b)
    SELECT doc_id, tok,
           row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS pos
    FROM raw WHERE tok <> '')
SELECT t1.tok AS w1, t2.tok AS w2, count(*) AS freq
FROM toks t1 JOIN toks t2 ON t1.doc_id = t2.doc_id AND t2.pos = t1.pos + 1
GROUP BY t1.tok, t2.tok HAVING count(*) >= 10
"""


@query(oracle=lambda: SQL_BOILERPLATE)
def q_boilerplate_removal(sf_dir: str):
    """Per-source boilerplate line removal (stages/boilerplate.py): docs are
    wrapped with shared nav/subscribe/copyright lines plus a rare Ref line;
    lines appearing in ≥5 docs of one source are stripped via two-phase
    count + hash-partitioned anti join + grouped reassembly. Fully generic
    SQL oracle (no closed form — the same counting/join/agg in DuckDB)."""
    from ..stages.boilerplate import remove_boilerplate
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text', 'source'])

    def render(b: pd.DataFrame) -> pd.DataFrame:
        d = b['doc_id'].astype('int64')
        sub = ('Subscribe to ' + b['source'] + '\n').where(d % 2 == 0, '')
        text = ('HOME | ' + b['source'] + ' NAV\n' + sub + b['text'] + '\n'
                + 'Ref ' + (d % 97).astype(str) + '\n'
                + 'Copyright ' + b['source'])
        return pd.DataFrame({'doc_id': d, 'source': b['source'],
                             'text': text})

    wrapped = docs.map_batches(render, batch_format='pandas')
    return remove_boilerplate(wrapped, min_docs=5)


SQL_BOILERPLATE = """
WITH docs2 AS (
  SELECT doc_id, source,
         'HOME | ' || source || ' NAV' || chr(10)
         || CASE WHEN doc_id % 2 = 0
                 THEN 'Subscribe to ' || source || chr(10) ELSE '' END
         || text || chr(10) || 'Ref ' || CAST(doc_id % 97 AS VARCHAR)
         || chr(10) || 'Copyright ' || source AS t
  FROM documents),
lines AS (
  SELECT doc_id, source,
         unnest(string_split(t, chr(10))) AS line,
         generate_subscripts(string_split(t, chr(10)), 1) AS pos
  FROM docs2),
bp AS (
  SELECT source, line FROM lines
  GROUP BY source, line HAVING count(DISTINCT doc_id) >= 5),
kept AS (
  SELECT l.doc_id, l.line, l.pos FROM lines l
  LEFT JOIN bp b ON l.source = b.source AND l.line = b.line
  WHERE b.line IS NULL),
nl AS (SELECT doc_id, count(*) AS n FROM lines GROUP BY doc_id)
SELECT k.doc_id,
       string_agg(k.line, chr(10) ORDER BY k.pos) AS cleaned,
       CAST(max(nl.n) - count(*) AS BIGINT) AS n_removed
FROM kept k JOIN nl ON k.doc_id = nl.doc_id
GROUP BY k.doc_id
"""


@query(oracle=lambda: SQL_URL_CANONICAL)
def q_url_canonical_dedup(sf_dir: str):
    """URL canonicalization + exact dedup by canonical form (web-corpus
    identity family, functions/urls.py): messy URLs rendered
    deterministically from documents (scheme/www/port/trailing-slash/
    tracking-param/fragment variants) collapse to
    scheme://host/path?id=N; per canonical URL keep the min doc_id and
    the duplicate count. The SQL oracle replays the render→canonical
    composition in closed form."""
    from ..functions.urls import canonicalize_batch
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'source'])

    def render(b: pd.DataFrame) -> pd.DataFrame:
        d = b['doc_id'].astype('int64')
        scheme = np.where(d % 2 == 0, 'https', 'http')
        www = np.where(d % 3 == 0, 'WWW.', '')
        port = np.where(d % 5 == 0,
                        np.where(d % 2 == 0, ':443', ':80'), '')
        slash = np.where(d % 7 == 0, '/', '')
        frag = np.where(d % 4 == 0, '#top', '')
        url = (pd.Series(scheme, index=b.index) + '://' + www + b['source']
               + '.Example.COM' + port + '/docs/' + (d % 200).astype(str)
               + slash + '?id=' + (d % 100).astype(str)
               + '&utm_source=feed&gclid=x' + frag)
        return pd.DataFrame({'doc_id': d, 'url': url})

    urls = docs.map_batches(render, batch_format='pandas')

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(canonical_url=canonicalize_batch(list(b['url'])))
        g = b.groupby('canonical_url')['doc_id'].agg(['min', 'count'])
        return g.reset_index().rename(columns={'min': 'keeper',
                                               'count': 'cnt'})

    partials = urls.map_batches(partial, batch_format='pandas')
    return rel.two_phase_pandas_agg(
        partials, ['canonical_url'],
        {'keeper': ('keeper', 'min'), 'n_dups': ('cnt', 'sum')})


SQL_URL_CANONICAL = """
SELECT canonical_url, min(doc_id) AS keeper,
       CAST(count(*) AS BIGINT) AS n_dups
FROM (SELECT doc_id,
             CASE WHEN doc_id % 2 = 0 THEN 'https' ELSE 'http' END
             || '://' || lower(source) || '.example.com/docs/'
             || CAST(doc_id % 200 AS VARCHAR)
             || '?id=' || CAST(doc_id % 100 AS VARCHAR) AS canonical_url
      FROM documents)
GROUP BY canonical_url
"""


@query(oracle=lambda: SQL_PII)
def q_pii_scrub(sf_dir: str):
    """PII scrubbing (training-data hygiene family, stages/pii.py): contact
    lines rendered deterministically from the customer table (email from
    c_name, phone/IP from c_custkey residues) are redacted by the
    vectorized RE2-compatible pattern set; the SQL oracle replays both the
    per-category counts and the scrubbed strings exactly."""
    from ..stages.pii import scrub_pii
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey', 'c_name'])

    def render(b: pd.DataFrame) -> pd.DataFrame:
        k = b['c_custkey'].astype('int64')
        email = b['c_name'].str.replace('#', '.', regex=False).str.lower() \
            + '@example.com'
        phone = ('+1-' + (k % 1000).astype(str).str.zfill(3) + '-'
                 + ((k * 7) % 1000).astype(str).str.zfill(3) + '-'
                 + (k % 10000).astype(str).str.zfill(4))
        ip = ('10.' + (k % 256).astype(str) + '.'
              + ((k * 13) % 256).astype(str) + '.'
              + ((k * 29) % 256).astype(str))
        text = ('Contact ' + b['c_name'] + ' at ' + email
                + (' or call ' + phone).where(k % 3 == 0, '')
                + (' from ' + ip).where(k % 5 == 0, ''))
        return pd.DataFrame({'c_custkey': k, 'text': text})

    out = scrub_pii(cust.map_batches(render, batch_format='pandas'))
    return out.map_batches(
        lambda b: b[['c_custkey', 'n_email', 'n_phone', 'n_ip', 'scrubbed']],
        batch_format='pandas')


SQL_PII = """
WITH base AS (
  SELECT c_custkey,
         'Contact ' || c_name || ' at ' || lower(replace(c_name, '#', '.'))
         || '@example.com'
         || CASE WHEN c_custkey % 3 = 0 THEN ' or call +1-'
              || lpad(CAST(c_custkey % 1000 AS VARCHAR), 3, '0') || '-'
              || lpad(CAST((c_custkey * 7) % 1000 AS VARCHAR), 3, '0') || '-'
              || lpad(CAST(c_custkey % 10000 AS VARCHAR), 4, '0')
            ELSE '' END
         || CASE WHEN c_custkey % 5 = 0 THEN ' from 10.'
              || CAST(c_custkey % 256 AS VARCHAR) || '.'
              || CAST((c_custkey * 13) % 256 AS VARCHAR) || '.'
              || CAST((c_custkey * 29) % 256 AS VARCHAR)
            ELSE '' END AS text
  FROM customer)
SELECT c_custkey,
       CAST(len(regexp_extract_all(text,
            '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(text,
            '\\+[0-9]{1,2}-[0-9]{3}-[0-9]{3}-[0-9]{4}')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(text,
            '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b')) AS BIGINT) AS n_ip,
       regexp_replace(regexp_replace(regexp_replace(text,
            '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
            '\\+[0-9]{1,2}-[0-9]{3}-[0-9]{3}-[0-9]{4}', '[PHONE]', 'g'),
            '\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b', '[IP]', 'g') AS scrubbed
FROM base
"""


@query(oracle=lambda: SQL_QUALITY)
def q_quality_scores(sf_dir: str):
    """Document quality signals (training-data filtering family): token
    stats + stopword ratio + Gopher-style punctuation ratio and
    repeated-token ratio (1 - distinct/total)."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(batch['doc_id'], batch['text']):
            toks = [t for t in text.split(' ') if t]
            n = len(toks)
            n_chars = sum(map(len, toks))
            # ASCII-explicit alnum, matching the SQL's [a-zA-Z0-9]:
            # str.isalnum would disagree on non-ASCII letters ('é')
            n_punct = sum(1 for t in toks for c in t
                          if not ('a' <= c <= 'z' or 'A' <= c <= 'Z'
                                  or '0' <= c <= '9'))
            rows.append({
                'doc_id': doc_id, 'n_tokens': n, 'n_uniq_tokens': len(set(toks)),
                'avg_token_len': _floor6(n_chars / n) if n else 0.0,
                'stopword_ratio': _floor6(sum(t in ts.EN_STOPWORDS for t in toks) / n) if n else 0.0,
                'punct_ratio': _floor6(n_punct / n_chars) if n_chars else 0.0,
                'repeat_ratio': _floor6(1.0 - len(set(toks)) / n) if n else 0.0,
            })
        return pd.DataFrame(rows)

    return docs.map_batches(score, batch_format='pandas')


SQL_QUALITY = f"""
WITH t AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
           FROM documents)
SELECT doc_id, len(toks) AS n_tokens, len(list_distinct(toks)) AS n_uniq_tokens,
       coalesce(floor((list_sum(list_transform(toks, x -> length(x))) * 1.0 / len(toks)) * 1000000) / 1000000, 0.0) AS avg_token_len,
       coalesce(floor((len(list_filter(toks, x -> x IN {_STOP_SQL})) * 1.0 / len(toks)) * 1000000) / 1000000, 0.0) AS stopword_ratio,
       coalesce(floor((list_sum(list_transform(toks, x -> length(regexp_replace(x, '[a-zA-Z0-9]', '', 'g')))) * 1.0
              / list_sum(list_transform(toks, x -> length(x)))) * 1000000) / 1000000, 0.0) AS punct_ratio,
       coalesce(floor((1.0 - len(list_distinct(toks)) * 1.0 / len(toks)) * 1000000) / 1000000, 0.0) AS repeat_ratio
-- coalesce(…, 0.0) mirrors the Python 'if n else 0.0' guards for
-- empty/whitespace-only documents (DuckDB division by zero yields NULL)
FROM t
"""


@query(oracle=lambda: SQL_DUP_SPANS)
def q_duplicate_spans(sf_dir: str, min_len: int = 5):
    """Exact cross-document duplicate token spans ≥ min_len (Lee et al.
    exact-substring dedup at span granularity); the oracle replays the
    gram self-join + gaps-and-islands merge."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = dd.duplicate_spans(docs, min_len=min_len).to_pandas()
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype='int64')
                             for c in ('da', 'db', 'a_start', 'b_start',
                                       'length')})
    return out.astype('int64')


SQL_DUP_SPANS = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS ws
  FROM documents
), grams AS (
  SELECT doc_id, i - 1 AS pos, array_to_string(ws[i:i+4], ' ') AS g
  FROM toks, unnest(range(1, len(ws) - 3)) AS u(i)
), pairs AS (
  SELECT a.doc_id AS da, b.doc_id AS db, a.pos AS i, b.pos AS j
  FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
), isl AS (
  SELECT da, db, i, j, i - j AS diag,
         i - row_number() OVER (PARTITION BY da, db, i - j ORDER BY i) AS grp
  FROM pairs
)
SELECT da, db, min(i) AS a_start, min(j) AS b_start,
       count(*) + 4 AS length
FROM isl GROUP BY da, db, diag, grp
"""


@query(oracle=lambda: _sql_bpe_merges())
def q_bpe_merges(sf_dir: str, n_merges: int = 10):
    """BPE tokenizer TRAINING over the corpus (distributed word counts +
    deterministic merge loop); the oracle replays all ten merges as
    chained CTEs with identical padded-string replace semantics."""
    from ..functions.bpe import bpe_merges
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return bpe_merges(docs, n_merges=n_merges)


def _bpe_training_ctes(n_merges: int) -> str:
    """Shared chained-CTE replay of the BPE merge loop (v0..vN, b0..bN-1);
    used by both the merges oracle and the segmentation oracle."""
    parts = ["""tok AS (
  SELECT unnest(string_split(text, ' ')) AS token FROM documents
), vc AS (
  SELECT token, count(*) AS freq FROM tok WHERE token <> '' GROUP BY token
), v0 AS MATERIALIZED (
  -- DOUBLE-space separators: adjacent merge-pattern occurrences never
  -- share a character, so one replace == canonical greedy BPE (see
  -- functions/bpe.py module doc)
  SELECT '  ' || array_to_string(string_split(token, ''), '  ')
         || '  </w>  ' AS sym, freq
  FROM vc
)"""]
    for t in range(n_merges):
        parts.append(f""", p{t} AS (
  SELECT q.l[u.i] || ' ' || q.l[u.i + 1] AS pair, sum(q.freq) AS cnt
  FROM (SELECT freq, list_filter(string_split(sym, ' '), x -> x <> '') AS l
        FROM v{t}) q,
       unnest(range(1, len(q.l))) AS u(i)
  GROUP BY pair
), b{t} AS MATERIALIZED (
  SELECT pair, replace(pair, ' ', '') AS merged
  FROM p{t} ORDER BY cnt DESC, pair LIMIT 1
), v{t + 1} AS MATERIALIZED (
  SELECT replace(sym,
                 ' ' || replace((SELECT pair FROM b{t}), ' ', '  ') || ' ',
                 ' ' || (SELECT merged FROM b{t}) || ' ') AS sym, freq
  FROM v{t}
)""")
    return ''.join(parts)


def _sql_bpe_merges(n_merges: int = 10) -> str:
    union = '\n  UNION ALL\n  '.join(
        f"SELECT CAST({t + 1} AS BIGINT) AS rank, pair, merged FROM b{t}"
        for t in range(n_merges))
    return (f"WITH {_bpe_training_ctes(n_merges)}"
            f"\nSELECT rank, pair, merged FROM (\n  {union}\n)")


def _sql_bpe_segment(n_merges: int = 10) -> str:
    """Training CTEs + per-doc application: each doc becomes one padded
    symbol stream (concatenated per-word double-space word_syms — four
    spaces between words so single-space-flanked patterns cannot straddle
    a boundary), then the N learned merges replay as chained replaces."""
    parts = [f"WITH {_bpe_training_ctes(n_merges)}", """, a0 AS (
  SELECT doc_id, array_to_string(list_transform(
    list_filter(string_split(text, ' '), w -> w <> ''),
    w -> '  ' || array_to_string(string_split(w, ''), '  ')
         || '  </w>  '), '') AS sym
  FROM documents
)"""]
    for t in range(n_merges):
        parts.append(f""", a{t + 1} AS MATERIALIZED (
  SELECT doc_id, replace(sym,
                 ' ' || replace((SELECT pair FROM b{t}), ' ', '  ') || ' ',
                 ' ' || (SELECT merged FROM b{t}) || ' ') AS sym
  FROM a{t}
)""")
    parts.append(f"""
SELECT doc_id, CAST(len(list_filter(string_split(sym, ' '), x -> x <> ''))
                    AS BIGINT) AS n_bpe_tokens
FROM a{n_merges}""")
    return ''.join(parts)


@query(oracle=lambda: _sql_bpe_segment())
def q_bpe_segment_counts(sf_dir: str, n_merges: int = 10):
    """BPE train → APPLY lifecycle: learn the merges from the corpus, then
    segment every document distributed (one vectorized replace chain per
    merge over whole-doc padded streams) and count subword tokens; the
    oracle replays training AND application as chained CTEs."""
    from ..functions.bpe import bpe_segment_counts
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return bpe_segment_counts(docs, n_merges=n_merges)


@query(oracle=lambda: _sql_lang_id_ngram())
def q_lang_id_ngram(sf_dir: str):
    """Character-trigram language ID over en/fr/de/es (profile classifier
    with embedded deterministic profiles); oracle replays every profile
    trigram count via replace-length arithmetic."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return ts.lang_id_ngram(docs)


def _sql_lang_id_ngram() -> str:
    per_lang = []
    for lang in sorted(ts.LANG_FUNCTION_WORDS):
        terms = ' + '.join(
            "(length(s) - length(replace(s, '{}', '')))".format(
                tg.replace("'", "''"))
            for tg in ts.lang_trigram_profile(lang))
        per_lang.append(
            f"SELECT doc_id, '{lang}' AS lang, ({terms}) // 3 AS score FROM t")
    scores = '\n  UNION ALL\n  '.join(per_lang)
    return f"""
WITH t AS (
  SELECT doc_id, ' ' || lower(text) || ' ' AS s FROM documents
), scores AS (
  {scores}
), best AS (
  SELECT doc_id, lang, score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, lang) AS rn
  FROM scores
)
SELECT doc_id, CASE WHEN score > 0 THEN lang ELSE 'unknown' END AS pred_lang
FROM best WHERE rn = 1
"""


@query(oracle=lambda: SQL_REPETITION)
def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition filters (Rae et al. 2021 §A1.1) per doc:
    top-bigram character fraction + duplicate-5-gram occurrence fraction,
    floor-quantized to 6dp on both engines."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return ts.repetition_stats(docs)


SQL_REPETITION = """
WITH t AS (
  SELECT doc_id, length(text) AS n_chars,
         list_filter(string_split(text, ' '), x -> x <> '') AS toks
  FROM documents
), bi AS (
  SELECT doc_id, n_chars, toks[i] || ' ' || toks[i+1] AS bg
  FROM t, unnest(range(1, len(toks))) AS u(i)
  WHERE len(toks) >= 2
), topbg AS (
  -- most frequent bigram, ties to the lexicographically smallest (the
  -- engine's min((-count, bigram)) rule)
  SELECT doc_id, bg, count(*) AS cnt
  FROM bi GROUP BY doc_id, bg
  QUALIFY row_number() OVER (PARTITION BY doc_id
                             ORDER BY count(*) DESC, bg) = 1
), five AS (
  SELECT doc_id, toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] || ' '
                 || toks[i+3] || ' ' || toks[i+4] AS g
  FROM t, unnest(range(1, len(toks) - 3)) AS u(i)
  WHERE len(toks) >= 5
), d5 AS (
  SELECT doc_id, count(*) AS total, count(DISTINCT g) AS dist
  FROM five GROUP BY doc_id
)
SELECT t.doc_id,
  coalesce(floor(topbg.cnt * length(topbg.bg) * 1.0 / t.n_chars
                 * 1000000) / 1000000, 0.0) AS top_bigram_frac,
  coalesce(floor((d5.total - d5.dist) * 1.0 / d5.total
                 * 1000000) / 1000000, 0.0) AS dup_5gram_frac
FROM t LEFT JOIN topbg ON t.doc_id = topbg.doc_id
       LEFT JOIN d5 ON t.doc_id = d5.doc_id
"""


@query(oracle=lambda: SQL_BPE_COUNTS)
def q_bpe_token_counts(sf_dir: str):
    """Per-document BPE-ish pretoken counts (token budgeting for training
    data); the oracle recounts with the same RE2-compatible pattern."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return ts.bpe_token_counts(docs)


SQL_BPE_COUNTS = """
SELECT doc_id,
       len(regexp_extract_all(text, '{pat}')) AS n_pretokens
FROM documents
""".format(pat=ts.BPE_PRETOKEN_PATTERN.replace("'", "''"))


@query(oracle=lambda: SQL_LANG_ID)
def q_lang_id(sf_dir: str):
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return ts.lang_id(docs)


SQL_LANG_ID = f"""
WITH t AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
           FROM documents)
SELECT doc_id,
       CASE WHEN len(toks) > 0 AND
                 len(list_filter(toks, x -> x IN {_STOP_SQL})) * 1.0 / len(toks) >= 0.05
            THEN 'en' ELSE 'unknown' END AS pred_lang
FROM t
"""


# --- dedup family -----------------------------------------------------------

@query(oracle=lambda: SQL_DEDUP_EXACT)
def q_dedup_exact(sf_dir: str):
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return dd.exact_dedup(docs)


SQL_DEDUP_EXACT = """
SELECT md5(text) AS text_hash, min(doc_id) AS rep_id
FROM documents GROUP BY md5(text)
"""


@query(oracle=lambda: SQL_MINHASH_DEDUP.replace(
    '{perm_values}', _minhash_perm_values()))
def q_minhash_dedup(sf_dir: str):
    """MinHash-LSH near-dup groups, fully oracle-gated: with the md5-based
    shingle hash the 64 permutation minima are recomputed bit-identically in
    SQL, and with 16 bands x 4 rows the banding is LOSSLESS for accepted
    pairs (est >= 0.8 -> <= 12 unequal rows -> >= 4 clean bands -> always a
    candidate), so the oracle compares estimated Jaccard directly and
    derives the same union-find groups via a recursive CTE."""
    from ..functions.hashing import md5_hash64
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    pairs = dd.minhash_candidate_pairs(docs, shingle_hash=md5_hash64)
    out = dd.pairs_to_groups(pairs)
    return out.rename(columns={'group': 'dup_group'})


def _minhash_perm_values() -> str:
    from ..functions.hashing import _minhash_params
    a, b = _minhash_params(64)
    return ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(64))


SQL_MINHASH_DEDUP = f"""
WITH RECURSIVE perms(i, pa, pb) AS (VALUES {{perm_values}}),
t AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
      FROM documents),
sh AS (SELECT doc_id,
    CASE WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
         ELSE list_distinct(list_transform(range(len(toks) - 2),
                  i -> array_to_string(toks[i+1:i+3], ' ')))
    END AS shingles FROM t),
hv AS (SELECT doc_id, md5_number_upper(unnest(shingles)) AS h FROM sh),
sig AS (SELECT doc_id, i,
    min(CAST((CAST(pa AS HUGEINT) * h + pb) % 18446744073709551616
             % {(1 << 61) - 1} AS UBIGINT)) AS s
    FROM hv CROSS JOIN perms GROUP BY doc_id, i),
est AS (SELECT a.doc_id AS a, b.doc_id AS b,
               sum(CASE WHEN a.s = b.s THEN 1 ELSE 0 END) / 64.0 AS e
        FROM sig a JOIN sig b ON a.i = b.i AND a.doc_id < b.doc_id
        GROUP BY a.doc_id, b.doc_id),
pairs AS (SELECT a, b FROM est WHERE e >= 0.8),
sym AS (SELECT a, b FROM pairs UNION SELECT b, a FROM pairs),
reach AS (SELECT a, b FROM sym
          UNION
          SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a)
SELECT a AS doc_id, least(min(b), a) AS dup_group FROM reach GROUP BY a
"""


@query(oracle=lambda: SQL_SIMHASH)
def q_simhash_pairs(sf_dir: str):
    """SimHash hamming≤3 pairs with the md5-based token hash, so the whole
    signature pipeline (per-token bit votes → 64-bit signature → hamming)
    is recomputed bit-identically by the SQL oracle."""
    from ..functions.hashing import md5_hash64
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return dd.simhash_dedup_pairs(docs, token_hash=md5_hash64).drop_columns(['score'])


SQL_SIMHASH = """
WITH toks AS (SELECT doc_id, unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS tok
              FROM documents),
h AS (SELECT doc_id, tok, count(*) AS w, md5_number_upper(tok) AS hv
      FROM toks GROUP BY doc_id, tok),
bits AS (SELECT doc_id, i, sum(w * (CASE WHEN (hv >> i) & 1 = 1 THEN 1 ELSE -1 END)) AS s
         FROM h CROSS JOIN (SELECT unnest(range(64)) AS i) GROUP BY doc_id, i),
sig AS (SELECT doc_id,
               CAST(sum(CASE WHEN s > 0 THEN CAST(1 AS HUGEINT) << i ELSE 0 END) AS UBIGINT) AS sig
        FROM bits GROUP BY doc_id)
SELECT a.doc_id AS a, b.doc_id AS b
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sig, b.sig)) <= 3
"""


@query(oracle=lambda: SQL_NGRAM_JACCARD)
def q_ngram_jaccard_pairs(sf_dir: str):
    """Exact word-3-gram Jaccard ≥ 0.8 pairs. The Ray side buckets by
    rarest-shingle anchors (pigeonhole-exact, no false negatives); the SQL
    oracle is the brute-force all-pairs recomputation over shingle lists —
    Jaccard over hashed shingles equals Jaccard over the strings."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = dd.ngram_jaccard_pairs(docs).to_pandas()
    if out.empty:
        return pd.DataFrame({'a': pd.Series(dtype='int64'), 'b': pd.Series(dtype='int64')})
    return out[['a', 'b']]


# Candidate generation is PREFIX FILTERING (ppjoin): if J(A,B) ≥ t, the
# |x| − ⌈t·|x|⌉ + 1 smallest shingles of A and B (under ANY consistent
# total order) must intersect — the SQL uses string sort order while the
# Ray side uses hash order, so the candidate sets differ but the final
# exact-Jaccard filter makes both results identical. This keeps the oracle
# sub-quadratic (the old all-pairs cross join was O(N²) list intersections
# and unusable past the sf0.01 gate scale).
SQL_NGRAM_JACCARD = """
WITH t AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
           FROM documents),
sh AS (SELECT doc_id,
              CASE WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                   ELSE list_distinct(list_transform(range(len(toks) - 2),
                                                     i -> array_to_string(toks[i+1:i+3], ' ')))
              END AS shingles FROM t),
pre AS (SELECT doc_id,
               list_sort(shingles)[1 : GREATEST(1, len(shingles) -
                   CAST(ceil(0.8 * len(shingles) - 1e-9) AS INT) + 1)] AS prefix
        FROM sh),
cand AS (SELECT DISTINCT pa.doc_id AS ai, pb.doc_id AS bi
         FROM (SELECT doc_id, unnest(prefix) AS s FROM pre) pa
         JOIN (SELECT doc_id, unnest(prefix) AS s FROM pre) pb
           ON pa.s = pb.s AND pa.doc_id < pb.doc_id)
SELECT c.ai AS a, c.bi AS b
FROM cand c JOIN sh x ON x.doc_id = c.ai JOIN sh y ON y.doc_id = c.bi
WHERE len(list_intersect(x.shingles, y.shingles)) * 1.0 /
      len(list_distinct(x.shingles || y.shingles)) >= 0.8
"""


EMB_DUP_THRESHOLD = 0.45   # one constant for the Ray side AND its oracle


@query(oracle=lambda: SQL_EMB_DUPS)
def q_embedding_near_dups(sf_dir: str, threshold: float = EMB_DUP_THRESHOLD):
    """Near-dup pairs via the volume-gated router: exact block-pair matmuls
    at oracle scale (under EMBEDDING_EXACT_MAX_BLOCKS), LSH above it."""
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    out = dd.embedding_near_dup_pairs_auto(emb, threshold=threshold).to_pandas()
    return out[['a', 'b']] if not out.empty else \
        pd.DataFrame({'a': pd.Series(dtype='int64'), 'b': pd.Series(dtype='int64')})


SQL_EMB_DUPS = f"""
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= {EMB_DUP_THRESHOLD}
"""


@query(oracle=lambda: _sql_semdedup(EMB_DUP_THRESHOLD))
def q_semdedup_keep(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means-bucketed semantic dedup —
    keep a vector iff no same-cluster vector with a smaller id has rounded
    cosine ≥ threshold. The oracle replays the full Lloyd training chain
    (the kmeans_assignments CTE stack) and the within-cluster EXISTS."""
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    out = dd.semdedup_keep(emb, n_centroids=8, n_iters=2,
                           threshold=EMB_DUP_THRESHOLD).to_pandas()
    out = out.astype({'vec_id': 'int64', 'centroid': 'int64',
                      'kept': 'int64'})
    return out.sort_values('vec_id').reset_index(drop=True)


def _sql_semdedup(threshold: float) -> str:
    return f"""
WITH asg AS MATERIALIZED (SELECT * FROM ({_sql_kmeans_assign()})),
eb AS MATERIALIZED (
    SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)
SELECT a.vec_id, a.centroid,
       CAST(CASE WHEN EXISTS (
           SELECT 1 FROM asg b
           JOIN eb be ON be.vec_id = b.vec_id
           JOIN eb ae ON ae.vec_id = a.vec_id
           WHERE b.centroid = a.centroid AND b.vec_id < a.vec_id
             AND round(list_cosine_similarity(ae.emb, be.emb), 6)
                 >= {threshold})
       THEN 0 ELSE 1 END AS BIGINT) AS kept
FROM asg a
"""


@query(oracle=lambda: SQL_FINGERPRINTS)
def q_doc_fingerprints(sf_dir: str):
    """Winnowing fingerprints (8 smallest distinct rolling-16-char hashes)
    with the md5-based hash, exploded to one row per (doc_id, fp) and
    stringified (fp is a full uint64 — kept as VARCHAR on both sides)."""
    from ..functions.hashing import md5_hash64
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    fps = ts.fingerprints(docs, hash_fn=md5_hash64)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids, vals = [], []
        for did, fp in zip(batch['doc_id'], batch['fingerprint']):
            for h in fp:
                ids.append(did)
                vals.append(str(int(h)))
        return pd.DataFrame({'doc_id': np.array(ids, dtype=np.int64), 'fp': vals})

    return fps.map_batches(explode, batch_format='pandas')


SQL_FINGERPRINTS = """
WITH fps AS (SELECT doc_id,
    CASE WHEN length(text) <= 16 THEN [md5_number_upper(text)]
         ELSE list_sort(list_distinct(list_transform(range(length(text) - 15),
                  i -> md5_number_upper(substr(text, i + 1, 16)))))[1:8]
    END AS fp FROM documents)
SELECT doc_id, CAST(unnest(fp) AS VARCHAR) AS fp FROM fps
"""


@query(oracle=lambda: SQL_FP_OVERLAP)
def q_fingerprint_overlap_pairs(sf_dir: str):
    """Passage-level near-dup pairs: documents sharing ≥ 2 winnowing
    fingerprints, with the exact shared count (dedup.py
    fingerprint_overlap_pairs over the md5-based hash so DuckDB can replay
    the fingerprints AND the pair counts)."""
    from ..functions.hashing import md5_hash64
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(dd.fingerprint_overlap_pairs(
        docs, min_shared=2, hash_fn=md5_hash64))
    if out.empty:
        return pd.DataFrame({'a': pd.Series(dtype='int64'),
                             'b': pd.Series(dtype='int64'),
                             'shared': pd.Series(dtype='int64')})
    out['shared'] = out['score'].astype('int64')
    out = out[['a', 'b', 'shared']].astype('int64')
    return out.sort_values(['a', 'b']).reset_index(drop=True)


SQL_FP_OVERLAP = """
WITH fps AS (SELECT doc_id,
    CASE WHEN length(text) <= 16 THEN [md5_number_upper(text)]
         ELSE list_sort(list_distinct(list_transform(range(length(text) - 15),
                  i -> md5_number_upper(substr(text, i + 1, 16)))))[1:8]
    END AS fp FROM documents),
ex AS (SELECT doc_id, unnest(fp) AS fp FROM fps),
-- mirror the engine's degenerate-bucket cap (max_bucket=1000, members kept
-- in doc_id order): candidate pairs come from CAPPED buckets only, while
-- the shared count is the exact full-signature intersection — identical to
-- _candidate_pairs_from_buckets' candidate/verify split
exc AS (SELECT doc_id, fp FROM (
    SELECT doc_id, fp,
           row_number() OVER (PARTITION BY fp ORDER BY doc_id) AS rn
    FROM ex) WHERE rn <= 1000),
cand AS (SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
    FROM exc a JOIN exc b ON a.fp = b.fp AND a.doc_id < b.doc_id)
SELECT c.a, c.b, count(*) AS shared
FROM cand c
JOIN ex ea ON ea.doc_id = c.a
JOIN ex eb ON eb.doc_id = c.b AND eb.fp = ea.fp
GROUP BY 1, 2 HAVING count(*) >= 2
ORDER BY 1, 2
"""


# --- similarity search ------------------------------------------------------

@query(oracle=lambda: SQL_KNN)
def q_knn_topk(sf_dir: str):
    """Exact brute-force cosine top-10 for query vectors vec_id 0..2."""
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    qrows = rel.collect_rows(emb.map_batches(
        lambda t: t.filter(pc.is_in(t.column('vec_id'),
                                    value_set=pa.array([0, 1, 2]))),
        batch_format='pyarrow'))
    qrows.sort(key=lambda r: r['vec_id'])
    qvecs = np.stack([np.asarray(r['embedding'], dtype=np.float64) for r in qrows])
    df = sim.brute_force_topk(emb, qvecs, k=10, round_decimals=4)
    return df


SQL_KNN = """
WITH q AS (SELECT vec_id AS query_idx, CAST(embedding AS DOUBLE[]) AS qe
           FROM embeddings WHERE vec_id IN (0, 1, 2))
SELECT q.query_idx, e.vec_id,
       round(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])), 4) AS score
FROM q CROSS JOIN embeddings e
QUALIFY row_number() OVER (PARTITION BY q.query_idx
                           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id) <= 10
"""


@query(oracle=lambda: SQL_QUANTIZED_KNN)
def q_quantized_knn_topk(sf_dir: str):
    """int8-quantized brute-force top-10 (query vectors vec_id 0..2) with
    EXACT int64 dot products — the memory-bound ANN scale path (corpus
    resident at 1/4 the bytes). The quantizer is defined in integer space
    (floor(|v|*1e6) magnitudes, integer max-abs scaling, // division) so
    the oracle replays it bit-identically with no float tie hazards."""
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    qrows = rel.collect_rows(emb.map_batches(
        lambda t: t.filter(pc.is_in(t.column('vec_id'),
                                    value_set=pa.array([0, 1, 2]))),
        batch_format='pyarrow'))
    qrows.sort(key=lambda r: r['vec_id'])
    qvecs = np.stack([np.asarray(r['embedding'], dtype=np.float64)
                      for r in qrows])
    return sim.quantized_topk(emb, qvecs, k=10)


# quantizer twin of similarity.quantize_int8: integer magnitudes, exact
# integer sqrt of the magnitude norm (float sqrt + one-step correction),
# fixed 127/isqrt scaling — see the engine docstring for the bias story
SQL_QUANTIZED_KNN = """
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings
), m AS (
  SELECT vec_id, emb,
         list_transform(emb, x -> CAST(floor(abs(x) * 1e6) AS BIGINT)) AS mm
  FROM base
), nrm AS (
  SELECT vec_id, emb, mm,
         CAST(list_sum(list_transform(mm, x -> x * x)) AS BIGINT) AS n2,
         CAST(floor(sqrt(CAST(list_sum(list_transform(mm, x -> x * x))
                              AS DOUBLE))) AS BIGINT) AS s0
  FROM m
), nn AS (
  SELECT vec_id, emb, mm,
         greatest(s0 - (CASE WHEN s0 * s0 > n2 THEN 1 ELSE 0 END)
                     + (CASE WHEN (s0 + 1) * (s0 + 1) <= n2
                             THEN 1 ELSE 0 END), 1) AS isq
  FROM nrm
), qv AS (
  SELECT vec_id,
         list_transform(range(1, len(emb) + 1), i ->
             (CASE WHEN emb[i] > 0 THEN 1 WHEN emb[i] < 0 THEN -1 ELSE 0 END)
             * ((mm[i] * 127) // isq)) AS q
  FROM nn
), qs AS (SELECT vec_id AS query_idx, q AS qq FROM qv WHERE vec_id IN (0,1,2))
SELECT qs.query_idx, d.vec_id,
       CAST(list_sum(list_transform(range(1, len(qq) + 1),
                                    i -> qq[i] * d.q[i])) AS BIGINT) AS score
FROM qs CROSS JOIN qv d
QUALIFY row_number() OVER (PARTITION BY qs.query_idx
                           ORDER BY score DESC, d.vec_id) <= 10
"""


@query(oracle=lambda: _sql_lsh_topk())
def q_lsh_topk(sf_dir: str):
    """Approximate LSH top-k through the bucket INDEX (sub-linear multi-
    probe). Fully oracle-gated: the seeded hyperplanes are embedded as
    CONSTANTS in the SQL (see _sql_lsh_topk), which replays signature bits
    (round(cos,6) > 0 — the engine-independent sign rule HyperplaneLSH
    uses), hamming≤1 bucket probing, and the rounded-cosine ranking."""
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    qrows = rel.collect_rows(emb.map_batches(
        lambda t: t.filter(pc.is_in(t.column('vec_id'),
                                    value_set=pa.array([0, 1, 2]))),
        batch_format='pyarrow'))
    qrows.sort(key=lambda r: r['vec_id'])
    qvecs = np.stack([np.asarray(r['embedding'], dtype=np.float64) for r in qrows])
    out = sim.lsh_index_topk(emb, qvecs, k=10)
    # ranked at 6 decimals inside the index; emitted at 4 (the ivf pattern:
    # rank precision > emit precision keeps the driver value-hash stable)
    out['score'] = out['score'].round(4)
    # query_idx 0/1/2 are the vec_ids themselves here (sorted above)
    out = out.rename(columns={'query_idx': 'query_id'})
    return out


@query(oracle=lambda: _sql_kmeans_assign())
def q_kmeans_assignments(sf_dir: str):
    """IVF centroid TRAINING (distributed spherical k-means, 2 Lloyd
    iterations from the deterministic id-prefix init) → final inverted-
    list membership (vec_id, centroid). The oracle replays both
    iterations as chained CTEs (assignment by rounded cosine with the ivf
    tie rule, element-wise-mean update, empty clusters keep their
    previous centroid)."""
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    out = sim.kmeans_assignments(emb, n_centroids=8, n_iters=2).to_pandas()
    return out.astype('int64').sort_values('vec_id').reset_index(drop=True)


def _sql_kmeans_assign(dim: int = 64, n_centroids: int = 8,
                       n_iters: int = 2) -> str:
    """Generate the k-means oracle: each Lloyd iteration is one
    assignment CTE (rounded-cosine argmax, ties → smaller centroid index)
    plus one mean-update CTE (per-dim avg via range-index unnest), with a
    keep-previous union for empty clusters."""
    parts = [f"""
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings
), c0 AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS j, emb AS v
  FROM base WHERE vec_id < {n_centroids}
)"""]
    for t in range(n_iters):
        parts.append(f""", a{t} AS (
  SELECT vec_id, emb, j FROM (
    SELECT b.vec_id, b.emb, c.j,
           row_number() OVER (PARTITION BY b.vec_id
               ORDER BY round(list_cosine_similarity(b.emb, c.v), 6) DESC,
                        c.j) AS rn
    FROM base b CROSS JOIN c{t} c) WHERE rn = 1
), m{t} AS (
  SELECT j, list(av ORDER BY dim) AS v FROM (
    SELECT a.j, u.i AS dim, avg(a.emb[u.i]) AS av
    FROM a{t} a, unnest(range(1, {dim + 1})) AS u(i)
    GROUP BY a.j, u.i) GROUP BY j
), c{t + 1} AS (
  SELECT j, v FROM m{t}
  UNION ALL
  SELECT c.j, c.v FROM c{t} c WHERE c.j NOT IN (SELECT j FROM m{t})
)""")
    parts.append(f"""
SELECT vec_id, j AS centroid FROM (
  SELECT b.vec_id, c.j,
         row_number() OVER (PARTITION BY b.vec_id
             ORDER BY round(list_cosine_similarity(b.emb, c.v), 6) DESC,
                      c.j) AS rn
  FROM base b CROSS JOIN c{n_iters} c) WHERE rn = 1
""")
    return ''.join(parts)


def _sql_lsh_topk(dim: int = 64, n_planes: int = 12, k: int = 10) -> str:
    """Generate the lsh_topk oracle: the seeded unit hyperplanes become SQL
    constants, so DuckDB computes the identical signatures/buckets/ranks."""
    from ..stages.similarity import HyperplaneLSH
    planes = HyperplaneLSH(dim, n_planes).planes
    rows = ',\n    '.join(
        '({}, [{}]::DOUBLE[])'.format(
            p, ', '.join('%.17g' % w for w in planes[p]))
        for p in range(n_planes))
    return f"""
WITH planes(p, w) AS (VALUES
    {rows}
), sigs AS (
  SELECT e.vec_id, CAST(e.embedding AS DOUBLE[]) AS emb,
         CAST(sum(CASE WHEN round(list_cosine_similarity(
                            CAST(e.embedding AS DOUBLE[]), p.w), 6) > 0
                  THEN 1 << p.p ELSE 0 END) AS BIGINT) AS sig
  FROM embeddings e CROSS JOIN planes p
  GROUP BY e.vec_id, e.embedding
), q AS (
  SELECT vec_id AS query_id, emb AS qe, sig AS qsig
  FROM sigs WHERE vec_id IN (0, 1, 2)
)
SELECT q.query_id, s.vec_id,
       round(round(list_cosine_similarity(q.qe, s.emb), 6), 4) AS score
FROM q JOIN sigs s ON bit_count(xor(q.qsig, s.sig)) <= 1
QUALIFY row_number() OVER (
    PARTITION BY q.query_id
    ORDER BY round(list_cosine_similarity(q.qe, s.emb), 6) DESC,
             s.vec_id) <= {k}
"""


# --- taxonomy family --------------------------------------------------------

def _part_type_edges(sf_dir: str):
    """Deterministic taxonomy over part classes: the leaf class is
    p_type+' '+p_name ('ECONOMY small ring') and every word-suffix is a
    broader class ('ECONOMY small ring' ⊂ 'small ring' ⊂ 'ring') — the
    stand-in category hierarchy for the driver testdata."""
    part = rel.read_table(sf_dir, 'part', ['p_type', 'p_name'])

    def edges(batch: pd.DataFrame) -> pd.DataFrame:
        child, parent = [], []
        for t, n in zip(batch['p_type'], batch['p_name']):
            words = (t + ' ' + n).split(' ')
            for i in range(len(words) - 1):
                child.append(' '.join(words[i:]))
                parent.append(' '.join(words[i + 1:]))
        return pd.DataFrame({'child': child, 'parent': parent})

    return part.map_batches(edges, batch_format='pandas')


@query(oracle=lambda: SQL_TAXONOMY_EDGES)
def q_taxonomy_edges(sf_dir: str):
    """Distinct (child, parent) taxonomy edge table (the distributed edge
    extraction feeding hierarchy assembly — SURVEY.md taxonomy layer)."""
    e = _part_type_edges(sf_dir)
    return rel.two_phase_count(e, ['child', 'parent'], 'cnt').drop_columns(['cnt'])


SQL_TAXONOMY_EDGES = """
WITH t AS (SELECT DISTINCT p_type || ' ' || p_name AS leaf FROM part),
lv AS (SELECT leaf AS n FROM t
       UNION SELECT substr(leaf, strpos(leaf, ' ') + 1) FROM t
       UNION SELECT substr(substr(leaf, strpos(leaf, ' ') + 1),
                           strpos(substr(leaf, strpos(leaf, ' ') + 1), ' ') + 1) FROM t),
e AS (SELECT n AS child, substr(n, strpos(n, ' ') + 1) AS parent
      FROM lv WHERE strpos(n, ' ') > 0)
SELECT DISTINCT child, parent FROM e
"""


@query(oracle=lambda: SQL_TYPE_CLOSURE)
def q_type_closure(sf_dir: str):
    """Transitive closure (node, anc) of the taxonomy — hierarchy assembled
    driver-side over the small edge dim, closure EMITTED distributed
    (broadcast ancestors inside map_batches)."""
    from ..stages.taxonomy import closure_pairs
    return closure_pairs(_part_type_edges(sf_dir))


SQL_TYPE_CLOSURE = """
WITH RECURSIVE t AS (SELECT DISTINCT p_type || ' ' || p_name AS leaf FROM part),
lv AS (SELECT leaf AS n FROM t
       UNION SELECT substr(leaf, strpos(leaf, ' ') + 1) FROM t
       UNION SELECT substr(substr(leaf, strpos(leaf, ' ') + 1),
                           strpos(substr(leaf, strpos(leaf, ' ') + 1), ' ') + 1) FROM t),
e AS (SELECT DISTINCT n AS child, substr(n, strpos(n, ' ') + 1) AS parent
      FROM lv WHERE strpos(n, ' ') > 0),
cl AS (SELECT child AS node, parent AS anc FROM e
       UNION
       SELECT cl.node, e.parent FROM cl JOIN e ON cl.anc = e.child)
SELECT node, anc FROM cl
"""


# --- text/graph heuristics ---------------------------------------------------

@query(oracle=lambda: SQL_HEARST)
def q_hearst_hypernyms(sf_dir: str):
    """Hearst-pattern hypernym counts (M17/A1) over deterministic
    'X is a Y' sentences rendered from the part table (the random document
    text contains no Hearst constructions). The general pattern inventory
    uses negative lookahead (inexpressible in RE2/DuckDB), but on this
    corpus the is-a match has a closed form — greedy ≤3-word NPs reduce to
    ('every '+p_name, p_type+' product') — which SQL_HEARST replays
    exactly; the full pattern semantics stay pytest-golden'd."""
    from ..stages.heuristics import hypernym_counts
    part = rel.read_table(sf_dir, 'part', ['p_name', 'p_type'])
    sents = part.map_batches(
        lambda b: pd.DataFrame({'text': 'Every ' + b['p_name'] + ' is a '
                                        + b['p_type'].str.lower() + ' product.'}),
        batch_format='pandas')
    return hypernym_counts(sents)


# Closed form of the is-a Hearst match on the rendered part corpus
# ('Every {p_name} is a {p_type} product.'): p_name is always 2 non-function
# words and p_type 1, so the greedy ≤3-word NP before 'is a' is
# 'Every '||p_name and the NP after is p_type||' product' (the trailing '.'
# stops the word run); hypernym_counts lowercases both sides.
SQL_HEARST = """
SELECT sub, hyper, CAST(count(*) AS BIGINT) AS freq
FROM (SELECT 'every ' || lower(p_name) AS sub,
             lower(p_type) || ' product' AS hyper
      FROM part)
GROUP BY sub, hyper
"""


@query(oracle=lambda: SQL_LISTING_CHUNKS)
def q_listing_chunks(sf_dir: str):
    """MD chunking (M18) over the rendered document listings: chunk counts +
    token/item sizes per listing, keyed by the SQL-derivable doc_id (the
    blake2b page_id is not replayable in DuckDB). The FULL packing runs —
    context tokenization, per-item prefix+truncate, greedy close on token/
    item budget, min-item drop — and the oracle replays its closed form for
    this corpus (see SQL_LISTING_CHUNKS)."""
    import pyarrow as pa
    from ..stages.chunking import chunk_listings
    docs = rel.read_table(sf_dir, 'documents',
                          ['doc_id', 'text', 'lang', 'source'])
    items = parse_items(documents_to_pages(docs))

    def add_doc_id(t: pa.Table) -> pa.Table:
        doc = pc.cast(pc.struct_field(pc.extract_regex(
            t.column('url'), r'Document_(?P<id>\d+)$'), 'id'), pa.int64())
        return t.append_column('doc_id', doc)

    items = items.map_batches(add_doc_id, batch_format='pyarrow')
    chunks = chunk_listings(items, carry_cols=('doc_id',))

    def summarize(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'doc_id': batch['doc_id'].astype('int64'),
            'listing_idx': batch['listing_idx'].astype('int64'),
            'chunk_idx': batch['chunk_idx'].astype('int64'),
            'n_tokens': pd.Series([len(t) for t in batch['tokens']],
                                  dtype='int64'),
            'n_items': pd.Series([len(i) for i in batch['item_idxs']],
                                 dtype='int64'),
        })

    return chunks.map_batches(summarize, batch_format='pandas')


# Closed-form replay of the M18 packing over the rendered documents corpus
# (pinned equal to the real packer by the oracle gate at every sf):
# * context = tok('Document <id>') ⧺ [CTX] ⧺ tok('Content') ⧺ [CTX]
#   ⧺ tok('Content') ⧺ [CTXE] = 7 tokens,
# * items are DOC_CHUNK=6-word slices with an [E1] prefix → ≤ 7 tokens each,
#   so 16 items × 7 = 112 ≤ 300 - 7: MAX_ITEMS_PER_CHUNK=16 always closes a
#   chunk before the 300-token budget does → a chunk spans 96 words,
# * trailing chunks with fewer than MIN_ITEMS_PER_CHUNK=3 items are dropped.
SQL_LISTING_CHUNKS = """
WITH docs AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '), t -> t <> '')) AS n
  FROM documents
), chunks AS (
  SELECT doc_id, n,
         unnest(range(CAST(ceil(n / 96.0) AS BIGINT))) AS chunk_idx
  FROM docs
), sized AS (
  SELECT doc_id, chunk_idx,
         least(n, 96 * (chunk_idx + 1)) - 96 * chunk_idx AS words
  FROM chunks
)
SELECT doc_id, CAST(0 AS BIGINT) AS listing_idx, chunk_idx,
       7 + (words + 5) // 6 + words AS n_tokens,
       (words + 5) // 6 AS n_items
FROM sized
WHERE (words + 5) // 6 >= 3
"""


@query(oracle=lambda: SQL_TYPE_DISJOINT)
def q_type_disjointness(sf_dir: str):
    """A11 type disjointness over the events log: each user is a 'type' and
    event types are the predicate-usage vector; cosine of idf-weighted
    vectors ≤ 0.132 → disjoint pair (users with unrelated behaviour). The
    SQL oracle recomputes the weighted cosine; the float is excluded from
    the gate (summation noise), the pair SET is compared exactly."""
    from ..stages.heuristics import type_disjointness
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id', 'ts'])
    # predicate = event_type × hour-of-day: sparse per-user usage vectors
    # (the raw 5 event types are used by everyone → idf degenerates to 0)
    facts = ev.map_batches(
        lambda b: pd.DataFrame({'subj': 'u' + b['user_id'].astype(str),
                                'pred': b['event_type'] + '_'
                                        + b['ts'].dt.hour.astype(str)}),
        batch_format='pandas')
    users = rel.collect_rows(rel.two_phase_count(facts, ['subj'], 'c').drop_columns(['c']))
    tbe = {r['subj']: [r['subj'].replace('u', 'U')] for r in users}
    out = type_disjointness(facts, tbe, threshold=0.132)
    return out[['type_a', 'type_b']] if len(out) else \
        pd.DataFrame({'type_a': pd.Series(dtype='object'),
                      'type_b': pd.Series(dtype='object')})


SQL_TYPE_DISJOINT = """
WITH ev AS (SELECT 'U' || user_id AS ty,
            event_type || '_' || hour(ts) AS pred FROM events),
cnt AS (SELECT ty, pred, count(*) AS c FROM ev GROUP BY ty, pred),
nt AS (SELECT count(DISTINCT ty) AS n FROM cnt),
df AS (SELECT pred, count(DISTINCT ty) AS d FROM cnt GROUP BY pred),
w AS (SELECT c.ty, c.pred, c.c * ln(nt.n * 1.0 / df.d) AS wt
      FROM cnt c JOIN df USING (pred) CROSS JOIN nt),
norms AS (SELECT ty, sqrt(sum(wt * wt)) AS nrm FROM w GROUP BY ty),
dots AS (SELECT a.ty AS type_a, b.ty AS type_b, sum(a.wt * b.wt) AS dot
         FROM w a JOIN w b ON a.pred = b.pred AND a.ty < b.ty
         GROUP BY a.ty, b.ty),
allp AS (SELECT a.ty AS type_a, b.ty AS type_b
          FROM norms a JOIN norms b ON a.ty < b.ty),
pairs AS (SELECT p.type_a, p.type_b,
                 coalesce(d.dot, 0) / (na.nrm * nb.nrm) AS cos
          FROM allp p LEFT JOIN dots d
                 ON d.type_a = p.type_a AND d.type_b = p.type_b
               JOIN norms na ON na.ty = p.type_a
               JOIN norms nb ON nb.ty = p.type_b)
SELECT type_a, type_b FROM pairs WHERE cos <= 0.132
"""


# --- entity-store statistics (A8/A9) ----------------------------------------

@query(oracle=lambda: SQL_TYPE_PROP_FREQ)
def q_type_property_frequencies(sf_dir: str):
    """A9 per-type property frequencies over the part 'entity store':
    entity = p_partkey, type = the part taxonomy leaf, properties = brand +
    size. The no-hierarchy (direct) variant is the SQL-checkable contract;
    the transitive fallback is pytest-golden'd."""
    from ..stages.entity_stats import property_frequencies_per_type
    part = rel.read_table(sf_dir, 'part',
                          ['p_partkey', 'p_name', 'p_type', 'p_brand', 'p_size'])

    types = part.map_batches(
        lambda b: pd.DataFrame({'entity': b['p_partkey'],
                                'type': b['p_type'] + ' ' + b['p_name']}),
        batch_format='pandas')

    def to_props(b: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([
            pd.DataFrame({'entity': b['p_partkey'], 'pred': 'brand',
                          'value': b['p_brand']}),
            pd.DataFrame({'entity': b['p_partkey'], 'pred': 'size',
                          'value': b['p_size'].astype(str)}),
        ], ignore_index=True)

    props = part.map_batches(to_props, batch_format='pandas')
    freqs = property_frequencies_per_type(types, props)
    rows = [{'type': t, 'pred': p, 'value': v, 'freq': _floor6(f)}
            for t, pf in freqs.items() for (p, v), f in pf.items()]
    return pd.DataFrame(rows, columns=['type', 'pred', 'value', 'freq'])


SQL_TYPE_PROP_FREQ = """
WITH t AS (SELECT p_partkey AS e, p_type || ' ' || p_name AS ty FROM part),
ec AS (SELECT ty, count(*) AS n FROM t GROUP BY ty),
pr AS (SELECT p_partkey AS e, 'brand' AS pred, p_brand AS value FROM part
       UNION ALL
       SELECT p_partkey, 'size', CAST(p_size AS VARCHAR) FROM part),
pc AS (SELECT ty, pred, value, count(*) AS c
       FROM t JOIN pr USING (e) GROUP BY ty, pred, value)
SELECT ty AS type, pred, value,
       floor(c * 1.0 / n * 1000000) / 1000000 AS freq
FROM pc JOIN ec USING (ty)
"""


@query(oracle=lambda: SQL_TAG_PROBAS)
def q_tag_probabilities(sf_dir: str):
    """A8 tag probabilities: P(event_type | user bucket) treating events as
    tagged mentions (entity = user, tag = event_type) and user_id % 3 as
    the entity's type."""
    from ..stages.entity_stats import tag_probabilities
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type'])
    mentions = ev.map_batches(
        lambda b: pd.DataFrame({'entity': b['user_id'], 'tag': b['event_type']}),
        batch_format='pandas')
    types = ev.map_batches(
        lambda b: pd.DataFrame({'entity': b['user_id'],
                                'type': 'U' + (b['user_id'] % 3).astype(str)}),
        batch_format='pandas')
    from ..stages.relational import two_phase_count
    types = two_phase_count(types, ['entity', 'type'], 'c').drop_columns(['c'])
    probas = tag_probabilities(mentions, types)
    rows = [{'type': t, 'tag': tag, 'proba': _floor6(p)}
            for t, tags in probas.items() for tag, p in tags.items()]
    return pd.DataFrame(rows, columns=['type', 'tag', 'proba'])


SQL_TAG_PROBAS = """
WITH m AS (SELECT user_id AS e, event_type AS tag, count(*) AS n
           FROM events GROUP BY user_id, event_type),
ty AS (SELECT DISTINCT user_id AS e, 'U' || (user_id % 3) AS type FROM events),
agg AS (SELECT ty.type, m.tag, sum(m.n) AS cnt
        FROM m JOIN ty USING (e) GROUP BY ty.type, m.tag),
tot AS (SELECT type, sum(cnt) AS total FROM agg GROUP BY type)
SELECT agg.type, agg.tag,
       floor(cnt * 1.0 / total * 1000000) / 1000000 AS proba
FROM agg JOIN tot USING (type)
"""


# --- evaluation harness ------------------------------------------------------

@query(oracle=lambda: SQL_ED_METRICS)
def q_ed_metrics_events(sf_dir: str):
    """The ED evaluation harness (functions/metrics.py) oracle-gated on a
    deterministic clustering task: mentions = users, predicted label = the
    user's modal event type (ties → lexicographic min), gold label = the
    user's first event's type (ts, event_id order). Emits one row per
    metric; CEAF-e is excluded (optimal assignment is not SQL)."""
    from ..functions.metrics import ari, b_cubed, me_prf, muc, nmi
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type', 'ts', 'event_id'])
    pred_df = rel.mode_per_group(ev, 'user_id', 'event_type',
                                 alias='pred').to_pandas()

    def first_event(bucket: pd.DataFrame) -> pd.DataFrame:
        s = bucket.sort_values(['user_id', 'ts', 'event_id'], kind='mergesort')
        s = s.drop_duplicates('user_id', keep='first')
        return s[['user_id', 'event_type']].rename(columns={'event_type': 'gold'})

    gold_df = rel.bucketed_map(ev, ['user_id'], first_event).to_pandas()
    pred = dict(zip(pred_df['user_id'], pred_df['pred']))
    gold = dict(zip(gold_df['user_id'], gold_df['gold']))
    m = me_prf(pred, gold)
    b3 = b_cubed(pred, gold)
    mc = muc(pred, gold)
    rows = [
        ('me_precision', m['precision']), ('me_recall', m['recall']),
        ('b3_precision', b3['precision']), ('b3_recall', b3['recall']),
        ('muc_precision', mc['precision']), ('muc_recall', mc['recall']),
        ('nmi', nmi(pred, gold)), ('ari', ari(pred, gold)),
    ]
    return pd.DataFrame({'metric': [r[0] for r in rows],
                         'value': [_floor6(r[1]) for r in rows]})


SQL_ED_METRICS = """
WITH pred AS (
    SELECT user_id, event_type AS p FROM (
        SELECT user_id, event_type, count(*) AS cnt
        FROM events GROUP BY user_id, event_type)
    QUALIFY row_number() OVER (PARTITION BY user_id
                               ORDER BY cnt DESC, event_type) = 1),
gold AS (
    SELECT user_id, event_type AS g FROM events
    QUALIFY row_number() OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) = 1),
m AS (SELECT pred.user_id, p, g FROM pred JOIN gold USING (user_id)),
n AS (SELECT count(*) AS n FROM m),
joint AS (SELECT p, g, count(*) AS c FROM m GROUP BY p, g),
pc AS (SELECT p, count(*) AS cp FROM m GROUP BY p),
gc AS (SELECT g, count(*) AS cg FROM m GROUP BY g),
b3 AS (SELECT sum(c * c * 1.0 / cp) / max(n.n) AS prec,
              sum(c * c * 1.0 / cg) / max(n.n) AS rec
       FROM joint JOIN pc USING (p) JOIN gc USING (g) CROSS JOIN n),
muc_p AS (SELECT sum(cp - parts) * 1.0 / sum(cp - 1) AS v FROM
          (SELECT p, max(cp) AS cp, count(DISTINCT g) AS parts
           FROM m JOIN pc USING (p) GROUP BY p)),
muc_r AS (SELECT sum(cg - parts) * 1.0 / sum(cg - 1) AS v FROM
          (SELECT g, max(cg) AS cg, count(DISTINCT p) AS parts
           FROM m JOIN gc USING (g) GROUP BY g)),
me AS (SELECT sum(CASE WHEN p = g THEN 1 ELSE 0 END) * 1.0 / max(n.n) AS v
       FROM m CROSS JOIN n),
mi AS (SELECT sum((c * 1.0 / n.n) * ln(n.n * c * 1.0 / (cp * cg))) AS v
       FROM joint JOIN pc USING (p) JOIN gc USING (g) CROSS JOIN n),
hp AS (SELECT -sum((cp * 1.0 / n.n) * ln(cp * 1.0 / n.n)) AS v FROM pc CROSS JOIN n),
hg AS (SELECT -sum((cg * 1.0 / n.n) * ln(cg * 1.0 / n.n)) AS v FROM gc CROSS JOIN n),
sums AS (SELECT
    (SELECT sum(c * (c - 1) / 2.0) FROM joint) AS sij,
    (SELECT sum(cp * (cp - 1) / 2.0) FROM pc) AS sp,
    (SELECT sum(cg * (cg - 1) / 2.0) FROM gc) AS sg,
    (SELECT max(n) * (max(n) - 1) / 2.0 FROM n) AS cn),
ari AS (SELECT CASE WHEN (sp + sg) / 2.0 = sp * sg / cn THEN 1.0
                    ELSE (sij - sp * sg / cn) / ((sp + sg) / 2.0 - sp * sg / cn)
               END AS v FROM sums)
SELECT * FROM (
    SELECT 'me_precision' AS metric, floor(me.v * 1000000) / 1000000 AS value FROM me
    UNION ALL SELECT 'me_recall', floor(me.v * 1000000) / 1000000 FROM me
    UNION ALL SELECT 'b3_precision', floor(b3.prec * 1000000) / 1000000 FROM b3
    UNION ALL SELECT 'b3_recall', floor(b3.rec * 1000000) / 1000000 FROM b3
    UNION ALL SELECT 'muc_precision', floor(muc_p.v * 1000000) / 1000000 FROM muc_p
    UNION ALL SELECT 'muc_recall', floor(muc_r.v * 1000000) / 1000000 FROM muc_r
    UNION ALL SELECT 'nmi', floor(mi.v / ((hp.v + hg.v) / 2) * 1000000) / 1000000
              FROM mi CROSS JOIN hp CROSS JOIN hg
    UNION ALL SELECT 'ari', floor(ari.v * 1000000) / 1000000 FROM ari)
"""


# --- redirect canonicalization (D2) -----------------------------------------

@query(oracle=lambda: SQL_REDIRECTS)
def q_redirect_resolution(sf_dir: str):
    """Redirect folding with the levenshtein≤2 spelling guard (reference
    resource.py:290-305). The redirect table is synthesized deterministically
    from doc ids: most ids redirect toward their decade/century 'canonical'
    doc (2-hop chains), ids ending in 7 redirect to a completely differently
    named page (the guard must reject those and keep the original)."""
    from ..stages.redirects import fold_redirects
    docs = rel.read_table(sf_dir, 'documents', ['doc_id'])

    def make_redirects(batch: pd.DataFrame) -> pd.DataFrame:
        src, tgt = [], []
        for d in batch['doc_id']:
            d = int(d)
            if d % 10 == 7:
                src.append(f'Doc {d}'); tgt.append(f'Article {d}')
            elif d % 10 != 0:
                src.append(f'Doc {d}'); tgt.append(f'Doc {d - d % 10}')
            elif d % 100 != 0:
                src.append(f'Doc {d}'); tgt.append(f'Doc {d - d % 100}')
        return pd.DataFrame({'src': src, 'tgt': tgt})

    redirects = docs.map_batches(make_redirects, batch_format='pandas')
    names = docs.map_batches(
        lambda b: pd.DataFrame({'doc_id': b['doc_id'],
                                'name': [f'Doc {int(d)}' for d in b['doc_id']]}),
        batch_format='pandas')
    return fold_redirects(names, redirects, col='name', out_col='resolved')


SQL_REDIRECTS = """
WITH r AS (
    SELECT 'Doc ' || doc_id AS src,
           CASE WHEN doc_id % 10 = 7 THEN 'Article ' || doc_id
                WHEN doc_id % 10 <> 0 THEN 'Doc ' || (doc_id - doc_id % 10)
                WHEN doc_id % 100 <> 0 THEN 'Doc ' || (doc_id - doc_id % 100)
           END AS tgt
    FROM documents),
rr AS (SELECT src, tgt FROM r WHERE tgt IS NOT NULL),
n AS (SELECT doc_id, 'Doc ' || doc_id AS name FROM documents),
hop AS (SELECT n.doc_id, n.name, coalesce(r2.tgt, r1.tgt, n.name) AS final
        FROM n LEFT JOIN rr r1 ON n.name = r1.src
               LEFT JOIN rr r2 ON r1.tgt = r2.src)
SELECT doc_id, name,
       CASE WHEN final <> name AND levenshtein(name, final) <= 2 THEN final
            ELSE name END AS resolved
FROM hop
"""


# --- entity-disambiguation family -------------------------------------------

def _vec_mod7(t):
    """vec_id % 7 as an arrow array (numpy kernel, zero-copy read)."""
    return pa.array(t.column('vec_id').to_numpy() % 7)


@query(oracle=lambda: SQL_LINKING_CANDS)
def q_linking_candidates_topk(sf_dir: str):
    """ME candidate generation (J7/ST5): per mention vector, the top-4
    entity vectors by cosine within a ≥0.1 score window. Entities are the
    vec_id % 7 == 0 subset of the embeddings table (deterministic split);
    the Ray side runs the real candidate stage (broadcast entity matrix +
    per-batch matmul)."""
    from ..stages.ed import me_candidates_topk
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    ents = rel.collect_rows(emb.map_batches(
        lambda t: t.filter(pc.equal(_vec_mod7(t), 0)), batch_format='pyarrow'))
    eids = np.array([r['vec_id'] for r in ents], dtype=np.int64)
    emat = np.stack([np.asarray(r['embedding'], dtype=np.float64) for r in ents])
    mentions = emb.map_batches(
        lambda t: t.filter(pc.not_equal(_vec_mod7(t), 0)), batch_format='pyarrow')
    out = me_candidates_topk(mentions, eids, emat, k=4,
                             mention_vec_col='embedding',
                             mention_id_col='vec_id', min_score=0.1).to_pandas()
    out = out.rename(columns={'vec_id': 'mention_id'})
    # float scores are dropped from the gate: Python and DuckDB sums differ
    # by ~1e-16, which flips any fixed rounding grid on boundary values;
    # the candidate SET + ranking cut (ties → entity_id on both sides) is
    # the deterministic contract
    return out[['mention_id', 'entity_id']]


SQL_LINKING_CANDS = """
WITH e AS (SELECT vec_id AS entity_id, CAST(embedding AS DOUBLE[]) AS ev
           FROM embeddings WHERE vec_id % 7 = 0),
m AS (SELECT vec_id AS mention_id, CAST(embedding AS DOUBLE[]) AS mv
      FROM embeddings WHERE vec_id % 7 <> 0),
scored AS (SELECT m.mention_id, e.entity_id,
                  list_cosine_similarity(m.mv, e.ev) AS s
           FROM m CROSS JOIN e)
SELECT mention_id, entity_id FROM scored
WHERE s >= 0.1
QUALIFY row_number() OVER (PARTITION BY mention_id
                           ORDER BY s DESC, entity_id) <= 4
"""


@query(oracle=lambda: SQL_BM25)
def q_bm25_label_match(sf_dir: str):
    """BM25 lexical candidate generation (ST8): top-5 documents for three
    fixed query strings; exact Okapi BM25 (k1=1.5, b=0.75), replicated in
    SQL from the same token statistics."""
    import ray.data as rd
    from ..stages.ed import bm25_topk
    docs = rel.collect_rows(rel.read_table(sf_dir, 'documents', ['doc_id', 'text']))
    ids = [r['doc_id'] for r in docs]
    texts = [r['text'] for r in docs]
    queries = rd.from_pandas(pd.DataFrame({'label': ['spark join stream',
                                                     'vector hash batch',
                                                     'window filter merge']}))
    out = bm25_topk(queries, ids, texts, query_col='label', k=5).to_pandas()
    # float scores dropped from the gate (1e-16 summation noise vs DuckDB
    # flips fixed grids); the top-5 set with doc_id tie-break is exact
    return out[['label', 'doc_id']]


SQL_BM25 = """
WITH docs AS (SELECT doc_id, list_filter(string_split(lower(text), ' '), x -> x <> '') AS toks
              FROM documents),
st AS (SELECT doc_id, len(toks) AS dl FROM docs),
gl AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM st),
tf AS (SELECT doc_id, tok, count(*) AS f
       FROM (SELECT doc_id, unnest(toks) AS tok FROM docs) GROUP BY 1, 2),
df AS (SELECT tok, count(DISTINCT doc_id) AS d FROM tf GROUP BY 1),
q(label, tok) AS (VALUES ('spark join stream', 'spark'), ('spark join stream', 'join'),
                         ('spark join stream', 'stream'),
                         ('vector hash batch', 'vector'), ('vector hash batch', 'hash'),
                         ('vector hash batch', 'batch'),
                         ('window filter merge', 'window'), ('window filter merge', 'filter'),
                         ('window filter merge', 'merge')),
scores AS (
    SELECT q.label, tf.doc_id,
           sum(ln((gl.n - df.d + 0.5) / (df.d + 0.5) + 1)
               * (tf.f * 2.5) / (tf.f + 1.5 * (1 - 0.75 + 0.75 * st.dl / gl.avgdl))) AS s
    FROM q JOIN tf ON q.tok = tf.tok
           JOIN df ON df.tok = q.tok
           JOIN st ON st.doc_id = tf.doc_id
           CROSS JOIN gl
    GROUP BY q.label, tf.doc_id)
SELECT label, doc_id FROM scores
WHERE s > 0
QUALIFY row_number() OVER (PARTITION BY label ORDER BY s DESC, doc_id) <= 5
"""


# --- graph / KG family ------------------------------------------------------

@query(oracle=lambda: SQL_DOMAIN_EVENTS)
def q_domain_of_event_types(sf_dir: str):
    """A10 domain-heuristic analogue: per event_type the dominant user
    bucket (user_id % 4) if its share ≥ 0.3, else NULL."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        batch['utype'] = (batch['user_id'] % 4).astype('int64')
        return batch[['event_type', 'utype']]

    bucketed = ev.map_batches(bucketize, batch_format='pandas')
    counts = rel.two_phase_count(bucketed, ['event_type', 'utype'], 'cnt').to_pandas()
    rows = []
    for et, g in counts.groupby('event_type'):
        total = g['cnt'].sum()
        best = g.sort_values(['cnt', 'utype'], ascending=[False, True]).iloc[0]
        # float with NaN for "no dominant bucket" — matches DuckDB's NULL→NaN
        dom = float(best['utype']) if best['cnt'] / total >= 0.3 else np.nan
        rows.append({'event_type': et, 'domain_bucket': dom})
    out = pd.DataFrame(rows)
    out['domain_bucket'] = out['domain_bucket'].astype('float64')
    return out


SQL_DOMAIN_EVENTS = """
WITH counts AS (
    SELECT event_type, user_id % 4 AS utype, count(*) AS cnt
    FROM events GROUP BY event_type, user_id % 4),
tot AS (SELECT event_type, sum(cnt) AS total FROM counts GROUP BY event_type),
ranked AS (
    SELECT c.event_type, c.utype, c.cnt, t.total,
           row_number() OVER (PARTITION BY c.event_type
                              ORDER BY c.cnt DESC, c.utype) AS rn
    FROM counts c JOIN tot t USING (event_type))
SELECT event_type,
       CASE WHEN cnt * 1.0 / total >= 0.3 THEN utype END AS domain_bucket
FROM ranked WHERE rn = 1
"""


@query(oracle=lambda: SQL_NORM_NAMES)
def q_normalized_customer_names(sf_dir: str):
    """Vectorized surface normalization (M11 normalize_surface_array) over
    customer names — parity-gated against the equivalent SQL expression."""
    from ..functions.strings import normalize_surface_array
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey', 'c_name'])

    def norm(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column('c_custkey'), normalize_surface_array(batch.column('c_name'))],
            names=['c_custkey', 'norm_name'])

    return cust.map_batches(norm, batch_format='pyarrow')


SQL_NORM_NAMES = """
SELECT c_custkey,
       trim(regexp_replace(regexp_replace(lower(c_name), '[^a-z0-9 ]+', '', 'g'),
                           '\\s+', ' ', 'g')) AS norm_name
FROM customer
"""


@query(oracle=lambda: SQL_APPROX_DISTINCT)
def q_approx_distinct_users(sf_dir: str):
    """HLL approximate distinct over event users. Oracle-gated end to end:
    the md5-hashed register state replays exactly in SQL
    (SQL_HLL_REGISTERS), and the estimate uses the deterministic
    exact-integer-sum form so the float matches the DuckDB replay
    bit-for-bit (accuracy vs the exact count is asserted in pytest)."""
    from ..functions.hashing import md5_hash64
    from ..functions.sketches import hll_estimate_deterministic, hll_registers
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    regs = hll_registers(ev, 'user_id', p=12, hash_fn=md5_hash64)
    est = hll_estimate_deterministic(regs['rank'].tolist(), p=12)
    return pd.DataFrame({'approx_distinct_users': [round(est, 6)]})


@query(oracle=lambda: SQL_BLOOM_BITS)
def q_bloom_user_bits(sf_dir: str):
    """The Bloom filter's merged BIT STATE over event users (salted md5,
    k=4, m=16384): per-batch filters bit-OR merged driver-side, nonzero
    positions out. The bit table IS the mergeable sketch (the cross-crawl
    'seen before' membership primitive of incremental dedup), and with the
    md5 hash it replays bit-identically in SQL — exactness-gated like the
    HLL registers even though membership answers are probabilistic."""
    from ..functions.hashing import md5_hash64
    from ..functions.sketches import bloom_bits
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    return bloom_bits(ev, 'user_id', m=16384, k=4, hash_fn=md5_hash64)


SQL_BLOOM_BITS = """
SELECT DISTINCT CAST(md5_number_upper(
           CAST(i.i AS VARCHAR) || '|' || CAST(user_id AS VARCHAR))
       % 16384 AS BIGINT) AS bit_pos
FROM events CROSS JOIN (SELECT unnest(range(4)) AS i) i
"""


@query(oracle=lambda: SQL_SEEN_BEFORE)
def q_seen_before_docs(sf_dir: str, m: int = 16384, k: int = 4):
    """Cross-crawl 'seen before' membership — the incremental-dedup
    primitive end to end: the PRIOR crawl day (even doc_ids, a
    deterministic stand-in for yesterday's partition) flows through the
    generation-dir Bloom state (state/incremental.update_bloom_bits —
    manifest, atomic LATEST flip), and every document is then flagged
    against the committed state with a broadcast bit set + the vectorized
    salted-md5 membership check (k=4 hashes per id, no per-row Python
    md5). Bloom semantics: every even doc is seen (no false negatives);
    an odd doc is seen only on a k-fold bit collision — and with the md5
    hash the oracle replays those collisions bit-for-bit."""
    import tempfile

    import ray as _ray

    from ..functions.hashing import md5_hash64, md5_hash64_batch
    from ..state.broadcast import get_broadcast
    from ..state.incremental import bloom_bits_state, update_bloom_bits

    docs = rel.read_table(sf_dir, 'documents', ['doc_id'])

    def even_only(b: pd.DataFrame) -> pd.DataFrame:
        return b[b['doc_id'] % 2 == 0]

    with tempfile.TemporaryDirectory() as root:
        update_bloom_bits(root, 'day0',
                          docs.map_batches(even_only,
                                           batch_format='pandas'),
                          'doc_id', m=m, k=k, hash_fn=md5_hash64)
        positions = bloom_bits_state(root)['bit_pos'].to_numpy()
    bitset = np.zeros(m, dtype=bool)
    bitset[positions] = True
    ref = _ray.put(bitset)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        bs = get_broadcast(ref)
        seen = np.ones(len(b), dtype=bool)
        for i in range(k):
            pos = (md5_hash64_batch(b['doc_id'], f'{i}|')
                   % np.uint64(m)).astype(np.int64)
            seen &= bs[pos]
        return pd.DataFrame({'doc_id': b['doc_id'].to_numpy(),
                             'seen': seen.astype('int64')})

    out = rel.collect_pandas(docs.map_batches(flag, batch_format='pandas'))
    if out.empty:
        return pd.DataFrame({'doc_id': pd.Series(dtype='int64'),
                             'seen': pd.Series(dtype='int64')})
    out = out.astype({'doc_id': 'int64', 'seen': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_SEEN_BEFORE = """
WITH bits AS MATERIALIZED (
  SELECT DISTINCT CAST(md5_number_upper(
             CAST(i.i AS VARCHAR) || '|' || CAST(doc_id AS VARCHAR))
         % 16384 AS BIGINT) AS b
  FROM documents CROSS JOIN (SELECT unnest(range(4)) AS i) i
  WHERE doc_id % 2 = 0),
pos AS (
  SELECT doc_id, CAST(md5_number_upper(
             CAST(i.i AS VARCHAR) || '|' || CAST(doc_id AS VARCHAR))
         % 16384 AS BIGINT) AS p
  FROM documents CROSS JOIN (SELECT unnest(range(4)) AS i) i)
SELECT doc_id,
       CAST(min(CASE WHEN b.b IS NULL THEN 0 ELSE 1 END) AS BIGINT) AS seen
FROM pos LEFT JOIN bits b ON b.b = pos.p
GROUP BY doc_id ORDER BY doc_id
"""


@query(oracle=lambda: _sql_label_propagation())
def q_user_communities(sf_dir: str):
    """Label-propagation communities (Raghavan et al. 2007, bounded
    synchronous rounds with ties → smallest label) over the same star
    graph as user_components; the oracle replays every round as a chained
    mode-argmax CTE."""
    from ..stages.graph import label_propagation, undirected_edges
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    pairs = rel.two_phase_count(ev, ['event_type', 'user_id'], alias='cnt') \
        .drop_columns(['cnt'])

    def star(g: pd.DataFrame) -> pd.DataFrame:
        users = np.sort(g['user_id'].unique())
        rep = users[0]
        return pd.DataFrame({'src': np.full(len(users), rep, dtype=np.int64),
                             'dst': users.astype(np.int64)})

    edges = pairs.groupby('event_type').map_groups(star,
                                                   batch_format='pandas')
    out = label_propagation(undirected_edges(edges), iters=3).to_pandas()
    out = out.rename(columns={'node': 'user_id'}).astype('int64')
    return out.sort_values('user_id').reset_index(drop=True)


def _sql_label_propagation(iters: int = 3) -> str:
    parts = ["""
WITH pairs AS (SELECT DISTINCT event_type, user_id FROM events),
m AS (SELECT event_type, min(user_id) AS rep FROM pairs GROUP BY event_type),
und AS MATERIALIZED (
    SELECT DISTINCT least(m.rep, p.user_id) AS a,
                    greatest(m.rep, p.user_id) AS b
    FROM pairs p JOIN m ON m.event_type = p.event_type
    WHERE p.user_id <> m.rep),
sym AS MATERIALIZED (
    SELECT a AS node, b AS nbr FROM und
    UNION ALL SELECT b, a FROM und),
l0 AS MATERIALIZED (SELECT DISTINCT node, node AS lab FROM sym)"""]
    for t in range(iters):
        parts.append(f""",
l{t + 1} AS MATERIALIZED (SELECT node, lab FROM (
    SELECT node, lab, row_number() OVER (
        PARTITION BY node ORDER BY c DESC, lab) AS rn
    FROM (SELECT s.node, l.lab, count(*) AS c
          FROM sym s JOIN l{t} l ON l.node = s.nbr
          GROUP BY s.node, l.lab)) WHERE rn = 1)""")
    parts.append(f"""
SELECT node AS user_id, lab FROM l{iters}""")
    return ''.join(parts)


@query(oracle=lambda: SQL_COMPONENTS)
def q_user_components(sf_dir: str):
    """Connected components (D4): users linked via shared event_type (star
    edges to the min user per type), CC via distributed contraction."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    pairs = rel.two_phase_count(ev, ['event_type', 'user_id'], alias='cnt') \
        .drop_columns(['cnt'])

    def star(g: pd.DataFrame) -> pd.DataFrame:
        users = np.sort(g['user_id'].unique())
        rep = users[0]
        return pd.DataFrame({'src': np.full(len(users), rep, dtype=np.int64),
                             'dst': users.astype(np.int64)})

    edges = pairs.groupby('event_type').map_groups(star, batch_format='pandas')
    labels = connected_components(edges)
    all_users = ev.unique('user_id')
    rows = sorted((int(u), int(labels.get(int(u), int(u)))) for u in all_users)
    return pd.DataFrame({'user_id': [r[0] for r in rows],
                         'component': [r[1] for r in rows]})


@query(oracle=lambda: SQL_COMPONENTS)
def q_user_components_distributed(sf_dir: str):
    """The same user components through the FULLY distributed CC
    (canonicalize.connected_components_ds — min-label propagation, the
    consumer for graphs whose node map exceeds the driver): labels stay a
    Dataset end to end and users join their component via one left
    shuffle_join (missing → own id, the singleton contract). Same oracle
    as user_components — the two engine paths must agree bit-for-bit."""
    from ..stages.canonicalize import connected_components_ds
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    pairs = rel.two_phase_count(ev, ['event_type', 'user_id'], alias='cnt') \
        .drop_columns(['cnt'])

    def star(g: pd.DataFrame) -> pd.DataFrame:
        users = np.sort(g['user_id'].unique())
        rep = users[0]
        return pd.DataFrame({'src': np.full(len(users), rep, dtype=np.int64),
                             'dst': users.astype(np.int64)})

    edges = pairs.groupby('event_type').map_groups(star, batch_format='pandas')
    comp = connected_components_ds(edges)
    users = rel.two_phase_count(
        ev.map_batches(lambda df: df[['user_id']], batch_format='pandas'),
        ['user_id'], alias='_c').drop_columns(['_c'])
    joined = rel.shuffle_join(
        rel.pin_arrow(users, user_id='int'),
        comp.map_batches(lambda t: t.rename_columns(['cn', 'comp']),
                         batch_format='pyarrow'),
        left_on='user_id', right_on='cn', how='left')

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        comp_col = df['comp'].astype(object)
        miss = comp_col.isna()
        if miss.any():
            comp_col = comp_col.mask(miss, df['user_id'][miss])
        return pd.DataFrame({
            'user_id': df['user_id'].astype('int64'),
            'component': comp_col.astype('int64')})

    out = rel.collect_pandas(joined.map_batches(finish,
                                                batch_format='pandas'))
    if out.empty:
        return pd.DataFrame({'user_id': pd.Series(dtype='int64'),
                             'component': pd.Series(dtype='int64')})
    return out.sort_values('user_id').reset_index(drop=True)


SQL_COMPONENTS = """
WITH RECURSIVE
edges AS (SELECT DISTINCT user_id AS a,
                 min(user_id) OVER (PARTITION BY event_type) AS b FROM events),
sym AS (SELECT a, b FROM edges UNION SELECT b, a FROM edges),
reach AS (SELECT a, b FROM sym
          UNION
          SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a)
SELECT a AS user_id, least(min(b), a) AS component FROM reach GROUP BY a
"""


@query(oracle=lambda: SQL_ALIAS_COUNTS)
def q_alias_counts_docs(sf_dir: str):
    """End-to-end parse gate: documents → rendered pages → full HTML parse →
    mention explode → alias counts; the SQL oracle recomputes the same
    (surface, entity, freq) table directly from token statistics."""
    docs = rel.read_table(sf_dir, 'documents',
                          ['doc_id', 'text', 'lang', 'source'])
    pages = documents_to_pages(docs)
    items = parse_items(pages)
    mentions = explode_mentions(items)
    out = alias_counts(mentions).to_pandas()
    out = out.rename(columns={'name': 'entity'})
    return out[['norm_surface', 'entity', 'freq']]


SQL_ALIAS_COUNTS = f"""
WITH toks AS (
    SELECT unnest(string_split(text, ' ')) AS tok FROM documents
    WHERE len(list_filter(string_split(text, ' '), x -> x <> '')) >= {MIN_DOC_TOKENS})
SELECT tok AS norm_surface,
       upper(substr(tok, 1, 1)) || substr(tok, 2) AS entity,
       count(*) AS freq
FROM toks WHERE tok IN {_VOCAB_SQL}
GROUP BY tok
"""


@query()
def q_flagship_triples(sf_dir: str):
    """Flagship KG pipeline over the testdata documents: the one query
    without a SQL oracle (rows-only check). It is gated by the single-process oracle
    in tests/oracle_kg.py; its P/R goldens live in tests/test_flagship.py."""
    return run_flagship_on_documents(sf_dir)


# --- temporal / ordered operators (as-of, range, sessions, rolling) ---------

@query(oracle=lambda: SQL_ASOF)
def q_asof_latest_order(sf_dir: str):
    """As-of join (the DuckDB ASOF JOIN contract): every event matched to
    the user's most recent order at event time. Order-date ties are
    pre-reduced to max(o_orderkey) so the match is unique on both engines."""
    from ..stages.temporal import asof_join
    ev = rel.read_table(sf_dir, 'events', ['event_id', 'ts', 'user_id'])
    orders = rel.read_table(sf_dir, 'orders',
                            ['o_orderkey', 'o_custkey', 'o_orderdate'])
    ded = rel.two_phase_pandas_agg(orders, ['o_custkey', 'o_orderdate'],
                                   {'o_orderkey': ('o_orderkey', 'max')})
    out = rel.collect_pandas(asof_join(
        ev, ded, 'user_id', 'o_custkey', 'ts', 'o_orderdate',
        right_cols=['o_orderkey'], inner=True))
    out = out[['event_id', 'o_orderkey']].astype('int64')
    return out.sort_values(['event_id']).reset_index(drop=True)


SQL_ASOF = """
WITH o AS (SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
           FROM orders GROUP BY 1, 2)
SELECT e.event_id, o.o_orderkey
FROM events e ASOF JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


@query(oracle=lambda: SQL_EVENT_PAIRS)
def q_event_pairs_window(sf_dir: str):
    """Range (interval) join: all same-user event pairs where the later
    event falls strictly within 12 hours after the earlier one."""
    from ..stages.temporal import range_join
    ev = rel.read_table(sf_dir, 'events', ['event_id', 'ts', 'user_id'])
    prior = rel.read_table(sf_dir, 'events', ['event_id', 'ts', 'user_id']) \
        .map_batches(lambda b: b.rename(columns={'event_id': 'prior_event_id'}),
                     batch_format='pandas')
    out = rel.collect_pandas(range_join(
        ev, prior, 'user_id', 'user_id', 'ts', 'ts',
        right_cols=['prior_event_id'], low_us=1,
        high_us=12 * 3600 * 1_000_000))
    out = out[['event_id', 'prior_event_id']].astype('int64')
    return out.sort_values(['event_id', 'prior_event_id']).reset_index(drop=True)


SQL_EVENT_PAIRS = """
SELECT a.event_id, b.event_id AS prior_event_id
FROM events a JOIN events b
  ON a.user_id = b.user_id AND a.ts > b.ts
     AND a.ts < b.ts + INTERVAL 12 HOUR
"""


@query(oracle=lambda: SQL_SESSIONS)
def q_user_sessions(sf_dir: str):
    """Gap-based sessionization (30-minute inactivity gap) per user:
    session index, event count and span."""
    from ..stages.temporal import sessionize
    ev = rel.read_table(sf_dir, 'events', ['event_id', 'ts', 'user_id'])
    out = rel.collect_pandas(sessionize(ev))
    out['session_idx'] = out['session_idx'].astype('int64')
    out['n_events'] = out['n_events'].astype('int64')
    out['user_id'] = out['user_id'].astype('int64')
    return out.sort_values(['user_id', 'session_idx']).reset_index(drop=True)


SQL_SESSIONS = """
WITH x AS (SELECT user_id, ts, event_id,
    CASE WHEN lag(ts) OVER w IS NULL
              OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
         THEN 1 ELSE 0 END AS new_s
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
y AS (SELECT user_id, ts,
             SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) AS session_idx
      FROM x)
SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
       COUNT(*) AS n_events, MIN(ts) AS start_ts, MAX(ts) AS end_ts
FROM y GROUP BY 1, 2
"""


@query(oracle=lambda: SQL_ROLLING)
def q_rolling_user_value(sf_dir: str):
    """Per-user rolling window (current + 3 preceding rows in (ts, event_id)
    order): exact integer-cents sum + row count — the SQL ROWS frame,
    with floor-to-cents making the sums float-order-independent."""
    from ..stages.temporal import rolling_window
    ev = rel.read_table(sf_dir, 'events', ['event_id', 'ts', 'user_id', 'value'])
    out = rel.collect_pandas(rolling_window(ev))
    out = out.astype({'user_id': 'int64', 'event_id': 'int64',
                      'roll_sum': 'int64', 'roll_n': 'int64'})
    return out.sort_values(['user_id', 'event_id']).reset_index(drop=True)


SQL_ROLLING = """
SELECT user_id, event_id,
  CAST(SUM(CAST(floor(value * 100) AS BIGINT)) OVER w AS BIGINT) AS roll_sum,
  CAST(COUNT(*) OVER w AS BIGINT) AS roll_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
"""


@query(oracle=lambda: SQL_IVF)
def q_ivf_topk(sf_dir: str):
    """IVF-style ANN (deterministic id-prefix centroids, nprobe=4): the
    sub-linear scale path of the similarity family, fully replayed in SQL
    (assignment, probe set and ranking are all deterministic)."""
    from ..stages.similarity import ivf_topk
    emb = rel.read_table(sf_dir, 'embeddings', ['vec_id', 'embedding'])
    qrows = rel.collect_rows(emb.map_batches(
        lambda t: t.filter(pc.is_in(t.column('vec_id'),
                                    value_set=pa.array([0, 1, 2]))),
        batch_format='pyarrow'))
    qrows.sort(key=lambda r: r['vec_id'])
    qvecs = np.stack([np.asarray(r['embedding'], dtype=np.float64)
                      for r in qrows])
    out = ivf_topk(emb, qvecs, k=10, n_centroids=16, nprobe=4)
    out['query_idx'] = np.array([qrows[i]['vec_id'] for i in out['query_idx']],
                                dtype=np.int64)
    return out.reset_index(drop=True)


# every similarity feeding an argmax / rank is rounded to 6 decimals before
# the tie-break (mirrored in stages/similarity.ivf_topk): last-ulp cosine
# differences between engines must not flip list membership or the k-cut
SQL_IVF = """
WITH e0 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS ev FROM embeddings),
c AS (SELECT vec_id AS cid, ev AS cv FROM e0 WHERE vec_id < 16),
assign AS (
  SELECT e0.vec_id, e0.ev, c.cid
  FROM e0 CROSS JOIN c
  QUALIFY row_number() OVER (PARTITION BY e0.vec_id
      ORDER BY round(list_cosine_similarity(e0.ev, c.cv), 6) DESC, c.cid) = 1),
q AS (SELECT vec_id AS query_idx, ev AS qv FROM e0 WHERE vec_id IN (0, 1, 2)),
probe AS (
  SELECT q.query_idx, q.qv, c.cid
  FROM q CROSS JOIN c
  QUALIFY row_number() OVER (PARTITION BY q.query_idx
      ORDER BY round(list_cosine_similarity(q.qv, c.cv), 6) DESC, c.cid) <= 4)
SELECT p.query_idx, a.vec_id,
       round(round(list_cosine_similarity(p.qv, a.ev), 6), 4) AS score
FROM probe p JOIN assign a ON a.cid = p.cid
QUALIFY row_number() OVER (PARTITION BY p.query_idx
    ORDER BY round(list_cosine_similarity(p.qv, a.ev), 6) DESC, a.vec_id) <= 10
"""



# --- exact quantiles + deterministic hash split -----------------------------

@query(oracle=lambda: SQL_QUANTILES)
def q_value_quantiles_by_type(sf_dir: str):
    """EXACT distributed quantiles (p50/p90/p99) of event value per type via
    a (group, cents) histogram — the shuffle is bounded by the distinct
    value dim, never the row count; floor-to-cents makes the domain
    discrete so both engines agree bit-for-bit."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'value'])

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': batch['event_type'],
            'cents': np.floor(batch['value'].to_numpy() * 100).astype('int64'),
        })

    cents = ev.map_batches(to_cents, batch_format='pandas')
    out = rel.collect_pandas(rel.grouped_quantiles_exact(
        cents, ['event_type'], 'cents', qs=(0.5, 0.9, 0.99)))
    out = out.astype({'q50': 'int64', 'q90': 'int64', 'q99': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


SQL_QUANTILES = """
SELECT event_type,
       quantile_disc(c, 0.5) AS q50,
       quantile_disc(c, 0.9) AS q90,
       quantile_disc(c, 0.99) AS q99
FROM (SELECT event_type, CAST(floor(value * 100) AS BIGINT) AS c FROM events)
GROUP BY event_type
"""


@query(oracle=lambda: SQL_HASH_SPLIT)
def q_hash_split_counts(sf_dir: str):
    """Deterministic train/val/test-style hash split (O5 at scale: no
    shuffle, no seed state — split is a pure function of the id, identical
    on any engine): md5-based split index % 10 with per-split counts."""
    from ..functions.hashing import md5_hash64
    docs = rel.read_table(sf_dir, 'documents', ['doc_id'])

    def split(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'split': [md5_hash64(str(int(d))) % 10 for d in batch['doc_id']]})

    out = rel.collect_pandas(rel.two_phase_count(
        docs.map_batches(split, batch_format='pandas'), ['split'],
        alias='n_docs'))
    out = out.astype({'split': 'int64', 'n_docs': 'int64'})
    return out.sort_values('split').reset_index(drop=True)


SQL_HASH_SPLIT = """
SELECT CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 AS BIGINT) AS split,
       count(*) AS n_docs
FROM documents GROUP BY 1
"""


@query(oracle=lambda: SQL_HASH_SAMPLE)
def q_hash_sample_docs(sf_dir: str):
    """Deterministic 10% Bernoulli sample of documents (O5 at scale:
    sample membership is a pure salted-hash function of the id — no RNG
    state, identical on any engine; the actual sampled ids are gated, not
    just their count)."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'lang'])
    out = rel.collect_pandas(rel.hash_sample(docs, 'doc_id', 100))
    out = out.astype({'doc_id': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_HASH_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE md5_number_upper('sample:42:' || CAST(doc_id AS VARCHAR)) % 1000 < 100
ORDER BY doc_id
"""


@query(oracle=lambda: SQL_DOMAIN_CAP)
def q_domain_cap_docs(sf_dir: str, k: int = 20):
    """Per-domain document budget (CCNet-style cap): keep at most k docs
    per source, ranked by the salted md5 of doc_id — deterministic,
    engine-independent, resumable (membership is a pure function of the
    id). Scale shape: per-batch partial top-k combine BEFORE the single
    coarse-bucket exchange, so a hot domain never ships more than k rows
    per upstream block (the skew-safe web-crawl pattern)."""
    from ..functions.hashing import md5_hash64_batch
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'source'])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b['rk'] = md5_hash64_batch(b['doc_id'], 'cap:')
        b = b.sort_values(['source', 'rk', 'doc_id'], kind='mergesort')
        return b.groupby('source', sort=False).head(k)

    partials = docs.map_batches(partial, batch_format='pandas')
    out = rel.collect_pandas(rel.topk_per_group(
        partials, 'source', ['rk', 'doc_id'], [True, True], k=k))
    out = out[['source', 'doc_id']].astype({'doc_id': 'int64'})
    return out.sort_values(['source', 'doc_id']).reset_index(drop=True)


SQL_DOMAIN_CAP = """
SELECT source, doc_id FROM documents
QUALIFY row_number() OVER (
    PARTITION BY source
    ORDER BY md5_number_upper('cap:' || CAST(doc_id AS VARCHAR)), doc_id) <= 20
ORDER BY source, doc_id
"""


@query(oracle=lambda: _sql_stratified_sample())
def q_stratified_sample_docs(sf_dir: str, k: int = 20):
    """Deterministic stratified sample: the k docs per language with the
    smallest salted-md5 rank — exact per-stratum quota with hash_sample's
    engine-independence; per-batch local top-k combiner bounds the one
    stratum-keyed exchange at k rows per (stratum, batch)."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'lang'])
    out = rel.collect_pandas(
        rel.stratified_sample(docs, 'lang', 'doc_id', k))
    out = out.astype({'doc_id': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


def _sql_stratified_sample(k: int = 20) -> str:
    return f"""
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5_number_upper('strat:42:'
                                     || CAST(doc_id AS VARCHAR)), doc_id
         ) AS rn
  FROM documents
) WHERE rn <= {k}
ORDER BY doc_id
"""


@query(oracle=lambda: SQL_PACKED_SEQUENCES)
def q_packed_sequences(sf_dir: str, capacity: int = 512):
    """Training-sequence packing: global token prefix-sum over doc_id order
    (bucket-offset scan + per-bucket cumsum — no single-machine scan), then
    concat-and-split every `capacity` tokens (stages/textstats.
    packed_sequences). The SQL twin is one integer window sum."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.packed_sequences(docs, capacity=capacity))
    cols = ['doc_id', 'n_tokens', 'tok_offset', 'first_seq', 'last_seq']
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype='int64') for c in cols})
    out = out[cols].astype('int64')
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_PACKED_SEQUENCES = """
WITH t AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '), x -> x <> '')) AS n_tokens
  FROM documents
), o AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (
             ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS BIGINT) AS tok_offset
  FROM t WHERE n_tokens > 0
)
SELECT doc_id, n_tokens, tok_offset,
       tok_offset // 512 AS first_seq,
       (tok_offset + n_tokens - 1) // 512 AS last_seq
FROM o ORDER BY doc_id
"""


@query(oracle=lambda: SQL_HOST_QUALITY)
def q_host_quality_docs(sf_dir: str):
    """Host-level quality filter (keep docs whose source clears the
    lexical-diversity per-mille bar; stages/textstats.host_quality_docs).
    Broadcast keep-set under the measured host cardinality, host-keyed
    shuffle join above it — both row-identical."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text', 'source'])
    out = rel.collect_pandas(ts.host_quality_docs(docs))
    if out.empty:
        return pd.DataFrame({'doc_id': pd.Series(dtype='int64'),
                             'source': pd.Series(dtype=object)})
    out = out[['doc_id', 'source']].astype({'doc_id': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_HOST_QUALITY = """
WITH d AS (
  SELECT doc_id, source,
         len(list_filter(string_split(text, ' '), x -> x <> '')) AS n_toks,
         len(list_distinct(list_filter(string_split(text, ' '),
                                       x -> x <> ''))) AS n_uniq
  FROM documents
), s AS (
  SELECT source, CAST(sum(n_toks) AS BIGINT) AS sn,
         CAST(sum(n_uniq) AS BIGINT) AS su
  FROM d GROUP BY source
)
SELECT d.doc_id, d.source
FROM d JOIN s USING (source)
WHERE s.su * 1000 >= 430 * s.sn
ORDER BY d.doc_id
"""


@query(oracle=lambda: SQL_COOC_PMI)
def q_cooccurrence_pmi(sf_dir: str):
    """Windowed co-occurrence PMI (relation-discovery/collocation signal,
    stages/textstats.cooccurrence_pmi) — exact-integer log2 fixed point,
    replayed bit-for-bit through the recursive log2 CTE."""
    docs = rel.read_table(sf_dir, 'documents', ['text'])
    out = rel.collect_pandas(ts.cooccurrence_pmi(docs))
    cols = ['w1', 'w2', 'c_ab', 'pmi_q']
    if out.empty:
        return pd.DataFrame({'w1': pd.Series(dtype=object),
                             'w2': pd.Series(dtype=object),
                             'c_ab': pd.Series(dtype='int64'),
                             'pmi_q': pd.Series(dtype='int64')})
    out = out[cols].astype({'c_ab': 'int64', 'pmi_q': 'int64'})
    return out.sort_values(['w1', 'w2']).reset_index(drop=True)


SQL_COOC_PMI = """
WITH RECURSIVE raw AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
           generate_subscripts(string_split(text, ' '), 1) AS pos
    FROM documents),
toks AS MATERIALIZED (
    SELECT doc_id, tok,
           row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS pos
    FROM raw WHERE tok <> ''),
p AS (
    SELECT least(t1.tok, t2.tok) AS w1, greatest(t1.tok, t2.tok) AS w2
    FROM toks t1 JOIN toks t2
      ON t1.doc_id = t2.doc_id
     AND t2.pos > t1.pos AND t2.pos <= t1.pos + 5),
pcnt AS MATERIALIZED (
    SELECT w1, w2, count(*) AS c_ab FROM p GROUP BY w1, w2),
marg AS MATERIALIZED (
    SELECT tok, CAST(sum(c) AS BIGINT) AS c_tok
    FROM (SELECT w1 AS tok, c_ab AS c FROM pcnt
          UNION ALL SELECT w2, c_ab FROM pcnt)
    GROUP BY tok),
tot AS (SELECT CAST(sum(c_ab) AS BIGINT) AS t FROM pcnt),
vals(v) AS (SELECT DISTINCT c_ab FROM pcnt WHERE c_ab >= 5
            UNION SELECT DISTINCT c_tok FROM marg
            UNION SELECT t FROM tot),
lgrec(v, iter, y, frac) AS (
    SELECT v, 0,
           (CAST(v AS HUGEINT) * (1::BIGINT << 40))
               // (1::BIGINT << (length(bin(v)) - 1)),
           CAST(0 AS HUGEINT)
    FROM vals
    UNION ALL
    SELECT v, iter + 1,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN ((y*y) // (1::BIGINT << 40)) // 2
                ELSE (y*y) // (1::BIGINT << 40) END,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN frac*2 + 1 ELSE frac*2 END
    FROM lgrec WHERE iter < 20
),
lg AS MATERIALIZED (SELECT v,
        CAST(CAST(length(bin(v)) - 1 AS HUGEINT) * (1::BIGINT << 20) + frac
             AS BIGINT) AS l2
    FROM lgrec WHERE iter = 20)
SELECT p.w1, p.w2, p.c_ab,
       CAST(lga.l2 + lgt.l2 - lg1.l2 - lg2.l2 AS BIGINT) AS pmi_q
FROM pcnt p
JOIN marg m1 ON m1.tok = p.w1
JOIN marg m2 ON m2.tok = p.w2
JOIN lg lga ON lga.v = p.c_ab
JOIN lg lg1 ON lg1.v = m1.c_tok
JOIN lg lg2 ON lg2.v = m2.c_tok
CROSS JOIN (SELECT lg.l2 FROM lg JOIN tot ON lg.v = tot.t) lgt(l2)
WHERE p.c_ab >= 5
ORDER BY p.w1, p.w2
"""


@query(oracle=lambda: SQL_TRAINING_PREP)
def q_training_data_prep(sf_dir: str):
    """End-to-end training-data preparation composite (pipelines/
    data_prep.training_data_prep): lang gate → length gate → split gate →
    host-quality gate → exact dedup → decontamination → sequence packing,
    hash-gated END TO END (each stage is also individually gated)."""
    from .data_prep import training_data_prep
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text', 'source'])
    out = rel.collect_pandas(training_data_prep(docs))
    cols = ['doc_id', 'n_tokens', 'tok_offset', 'first_seq', 'last_seq']
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype='int64') for c in cols})
    out = out[cols].astype('int64')
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_TRAINING_PREP = f"""
WITH g AS (
  SELECT doc_id, text, source,
         list_filter(string_split(text, ' '), x -> x <> '') AS toks
  FROM documents
  WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 <> 0),
g2 AS (
  SELECT doc_id, text, source, toks,
         len(toks) AS n_toks,
         len(list_distinct(toks)) AS n_uniq,
         len(list_filter(toks, x -> x IN {{stops}})) AS stop
  FROM g WHERE len(toks) >= 10),
g3 AS (SELECT * FROM g2 WHERE stop * 1000 >= 50 * n_toks),
hosts AS (
  SELECT source FROM (
    SELECT source, CAST(sum(n_uniq) AS BIGINT) AS su,
           CAST(sum(n_toks) AS BIGINT) AS sn
    FROM g3 GROUP BY source)
  WHERE su * 1000 >= 430 * sn),
g4 AS (SELECT g3.* FROM g3 JOIN hosts USING (source)),
reps AS (SELECT md5(text) AS th, min(doc_id) AS rep FROM g4
         GROUP BY md5(text)),
g5 AS (SELECT g4.* FROM g4
       JOIN reps ON md5(g4.text) = reps.th AND g4.doc_id = reps.rep),
ev AS (
  SELECT list_filter(string_split(text, ' '), x -> x <> '') AS toks
  FROM documents
  WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 = 0),
evh AS (
  SELECT DISTINCT md5_number_upper(unnest(
    CASE WHEN len(toks) < 5 THEN [array_to_string(toks, ' ')]
         ELSE list_distinct(list_transform(range(len(toks) - 4),
              i -> array_to_string(toks[i+1:i+5], ' '))) END)) AS h
  FROM ev),
trh AS (
  SELECT doc_id, md5_number_upper(unnest(
    CASE WHEN len(toks) < 5 THEN [array_to_string(toks, ' ')]
         ELSE list_distinct(list_transform(range(len(toks) - 4),
              i -> array_to_string(toks[i+1:i+5], ' '))) END)) AS h
  FROM g5),
bad AS (SELECT DISTINCT t.doc_id FROM trh t JOIN evh USING (h)),
g6 AS (SELECT doc_id, n_toks FROM g5
       WHERE doc_id NOT IN (SELECT doc_id FROM bad)),
o AS (
  SELECT doc_id, n_toks AS n_tokens,
         CAST(coalesce(sum(n_toks) OVER (
             ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS BIGINT) AS tok_offset
  FROM g6)
SELECT doc_id, n_tokens, tok_offset,
       tok_offset // 512 AS first_seq,
       (tok_offset + n_tokens - 1) // 512 AS last_seq
FROM o ORDER BY doc_id
""".replace('{stops}', _STOP_SQL)


# --- corpus-LM scoring + contamination check --------------------------------

@query(oracle=lambda: SQL_UNIGRAM_LP)
def q_unigram_logprob_scores(sf_dir: str):
    """Unigram-LM document scores (integer fixed-point log2 units so the
    sums are exact AND every per-token value is engine-independent —
    functions/hashing.log2_fixed): corpus token counts → broadcast logprob
    table → stateless scoring map."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.unigram_logprob_scores(docs))
    out = out.astype({'doc_id': 'int64', 'logprob_q': 'int64',
                      'n_tokens': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


# The lgrec recursive CTE is the DuckDB twin of functions/hashing.log2_fixed
# (S=40 mantissa bits, F=20 fractional log2 bits): pure integer
# shift-and-square, so both engines quantize every token identically —
# bit-exact by construction, not by float luck.
SQL_UNIGRAM_LP = """
WITH RECURSIVE toks AS (SELECT doc_id,
        unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS tok
    FROM documents),
cnt AS (SELECT tok, count(*) AS freq FROM toks GROUP BY tok),
tot AS (SELECT CAST(sum(freq) AS BIGINT) AS n FROM cnt),
vals(v) AS (SELECT DISTINCT freq FROM cnt UNION SELECT n FROM tot),
lgrec(v, iter, y, frac) AS (
    SELECT v, 0,
           (CAST(v AS HUGEINT) * (1::BIGINT << 40))
               // (1::BIGINT << (length(bin(v)) - 1)),
           CAST(0 AS HUGEINT)
    FROM vals
    UNION ALL
    SELECT v, iter + 1,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN ((y*y) // (1::BIGINT << 40)) // 2
                ELSE (y*y) // (1::BIGINT << 40) END,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN frac*2 + 1 ELSE frac*2 END
    FROM lgrec WHERE iter < 20
),
lg AS (SELECT v,
        CAST(CAST(length(bin(v)) - 1 AS HUGEINT) * (1::BIGINT << 20) + frac
             AS BIGINT) AS l2
    FROM lgrec WHERE iter = 20),
lp AS (SELECT c.tok, lf.l2 - ln.l2 AS lp
    FROM cnt c
    JOIN lg lf ON lf.v = c.freq
    CROSS JOIN (SELECT l2 FROM lg JOIN tot ON lg.v = tot.n) ln(l2))
SELECT t.doc_id,
       CAST(SUM(lp.lp) AS BIGINT) AS logprob_q,
       CAST(COUNT(*) AS BIGINT) AS n_tokens
FROM toks t JOIN lp ON t.tok = lp.tok GROUP BY t.doc_id
"""


@query(oracle=lambda: SQL_NGRAM_NOVELTY)
def q_ngram_novelty(sf_dir: str):
    """Per-doc 5-gram novelty (distinct grams + corpus-unique grams) —
    stages/textstats.ngram_novelty; plain gram strings both sides."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.ngram_novelty(docs))
    out = out.astype({'doc_id': 'int64', 'n_shingles': 'int64',
                      'n_novel': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_NGRAM_NOVELTY = """
WITH t AS (SELECT doc_id,
        list_filter(string_split(text, ' '), x -> x <> '') AS toks
    FROM documents),
sh AS MATERIALIZED (SELECT doc_id, md5_number_upper(unnest(
        CASE WHEN len(toks) < 5 THEN [array_to_string(toks, ' ')]
             ELSE list_distinct(list_transform(range(len(toks) - 4),
                      i -> array_to_string(toks[i+1:i+5], ' ')))
        END)) AS h
    FROM t WHERE len(toks) > 0),
df AS MATERIALIZED (SELECT h, count(*) AS df FROM sh GROUP BY h)
SELECT sh.doc_id,
       CAST(count(*) AS BIGINT) AS n_shingles,
       CAST(sum(CASE WHEN df.df = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_novel
FROM sh JOIN df ON df.h = sh.h GROUP BY sh.doc_id
"""


_BLOCKLIST_TERMS = ('slow', 'drop', 'kill', 'crash')


@query(oracle=lambda: SQL_BLOCKLIST_FLAGS)
def q_blocklist_flags(sf_dir: str):
    """C4-style blocklist flags (token-exact counts against a broadcast
    term set — stand-in terms; the real bad-words list is a drop-in)."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.blocklist_flags(docs, _BLOCKLIST_TERMS))
    out = out.astype({'doc_id': 'int64', 'n_blocked': 'int64',
                      'blocked': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


_BLOCKLIST_SQL_SET = ', '.join(f"'{t}'" for t in _BLOCKLIST_TERMS)
SQL_BLOCKLIST_FLAGS = f"""
SELECT doc_id,
       CAST(len(list_filter(string_split(text, ' '),
            x -> x IN ({_BLOCKLIST_SQL_SET}))) AS BIGINT) AS n_blocked,
       CAST(CASE WHEN len(list_filter(string_split(text, ' '),
            x -> x IN ({_BLOCKLIST_SQL_SET}))) > 0
            THEN 1 ELSE 0 END AS BIGINT) AS blocked
FROM documents
"""


@query(oracle=lambda: SQL_HYGIENE_FILTERED)
def q_hygiene_filtered_docs(sf_dir: str):
    """Round-4 hygiene composite — the C4/Gopher/CCNet filter chain as ONE
    operator: keep documents with at most 2 blocklist tokens, passing the
    four corpus-applicable Gopher rules (word count, mean word length,
    symbol ratio, alpha ratio — the stopword rule is vacuous on the
    synthetic word-salad corpus: every doc has exactly one distinct
    stopword), and CCNet's head/middle perplexity cut (tail dropped).
    Signals are computed over the full corpus (independent one-pass maps
    + the gated LM chain), intersected by two doc-keyed joins; hash-gated
    END-TO-END by one CTE stack."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    bl = ts.blocklist_flags(docs, _BLOCKLIST_TERMS)
    gf = ts.gopher_quality_flags(docs)
    pb = ts.perplexity_buckets(docs)
    j = rel.shuffle_join(bl, gf, left_on='doc_id', right_on='doc_id',
                         how='inner', right_hint='fact')
    j = rel.shuffle_join(j, pb, left_on='doc_id', right_on='doc_id',
                         how='inner', right_hint='fact')

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        out = df[(df['n_blocked'] <= 2) & (df['pass_word_count'] == 1)
                 & (df['pass_mean_word_len'] == 1)
                 & (df['pass_symbol_ratio'] == 1)
                 & (df['pass_alpha_ratio'] == 1)
                 & (df['bucket'] != 'tail')]
        return out[['doc_id', 'n_words', 'ppl_q', 'bucket']]

    out = rel.collect_pandas(j.map_batches(keep, batch_format='pandas'))
    cols = {'doc_id': 'int64', 'n_words': 'int64', 'ppl_q': 'int64'}
    if out.empty:
        out = pd.DataFrame({**{c: pd.Series(dtype=t)
                               for c, t in cols.items()},
                            'bucket': pd.Series(dtype=object)})
    out = out.astype(cols)
    return out.sort_values('doc_id').reset_index(drop=True)


@query(oracle=lambda: SQL_GOPHER_FLAGS)
def q_gopher_quality_flags(sf_dir: str):
    """Gopher rule-suite quality flags (Rae et al. 2021 §A1.1) — every
    rule an integer cross-multiplication, replayed exactly in SQL."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.gopher_quality_flags(docs))
    out = out.astype({c: 'int64' for c in out.columns})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_GOPHER_FLAGS = """
WITH t AS (SELECT doc_id, text,
        list_filter(string_split(text, ' '), x -> x <> '') AS toks
    FROM documents),
m AS (SELECT doc_id,
        len(toks) AS n,
        coalesce(list_sum(list_transform(toks, x -> len(x))), 0) AS tl,
        (length(text) - length(replace(text, '#', '')))
          + (length(text) - length(replace(text, '...', ''))) // 3 AS sy,
        len(list_filter(toks, x -> regexp_matches(x, '[a-zA-Z]'))) AS al,
        len(list_filter(['the','be','to','of','and','that','have','with'],
                        s -> list_contains(toks, s))) AS st
    FROM t),
f AS (SELECT doc_id, n,
        CASE WHEN n BETWEEN 50 AND 100000 THEN 1 ELSE 0 END AS f_wc,
        CASE WHEN n > 0 AND 3*n <= tl AND tl <= 10*n THEN 1 ELSE 0 END AS f_ml,
        CASE WHEN 10*sy <= n THEN 1 ELSE 0 END AS f_sy,
        CASE WHEN 5*al >= 4*n THEN 1 ELSE 0 END AS f_al,
        CASE WHEN st >= 2 THEN 1 ELSE 0 END AS f_st
    FROM m)
SELECT doc_id, CAST(n AS BIGINT) AS n_words,
       CAST(f_wc AS BIGINT) AS pass_word_count,
       CAST(f_ml AS BIGINT) AS pass_mean_word_len,
       CAST(f_sy AS BIGINT) AS pass_symbol_ratio,
       CAST(f_al AS BIGINT) AS pass_alpha_ratio,
       CAST(f_st AS BIGINT) AS pass_stopwords,
       CAST(f_wc * f_ml * f_sy * f_al * f_st AS BIGINT) AS pass_all
FROM f
"""


@query(oracle=lambda: SQL_PERPLEXITY_BUCKETS.format(unigram_lp=SQL_UNIGRAM_LP))
def q_perplexity_buckets(sf_dir: str):
    """CCNet head/middle/tail perplexity bucketing (Wenzek et al. 2020):
    exact-integer normalized LM scores split at the exact global tertiles
    (stages/textstats.perplexity_buckets); the oracle replays the unigram
    chain and the same quantile_disc cuts."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.perplexity_buckets(docs))
    out = out.astype({'doc_id': 'int64', 'ppl_q': 'int64',
                      'bucket': 'string'}).astype({'bucket': object})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_PERPLEXITY_BUCKETS = f"""
WITH s AS MATERIALIZED (SELECT * FROM ({{unigram_lp}})),
p AS MATERIALIZED (
    SELECT doc_id, (-logprob_q) // n_tokens AS ppl_q FROM s),
c AS (SELECT quantile_disc(ppl_q, 0.33) AS q33,
             quantile_disc(ppl_q, 0.67) AS q67 FROM p)
SELECT p.doc_id, p.ppl_q,
       CASE WHEN p.ppl_q <= c.q33 THEN 'head'
            WHEN p.ppl_q <= c.q67 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM p, c
"""


SQL_HYGIENE_FILTERED = f"""
WITH bl AS MATERIALIZED (SELECT * FROM ({SQL_BLOCKLIST_FLAGS})),
gf AS MATERIALIZED (SELECT * FROM ({SQL_GOPHER_FLAGS})),
pb AS MATERIALIZED (SELECT * FROM (
    {SQL_PERPLEXITY_BUCKETS.format(unigram_lp=SQL_UNIGRAM_LP)}))
SELECT bl.doc_id, gf.n_words, pb.ppl_q, pb.bucket
FROM bl JOIN gf ON gf.doc_id = bl.doc_id
JOIN pb ON pb.doc_id = bl.doc_id
WHERE bl.n_blocked <= 2 AND gf.pass_word_count = 1
  AND gf.pass_mean_word_len = 1 AND gf.pass_symbol_ratio = 1
  AND gf.pass_alpha_ratio = 1 AND pb.bucket <> 'tail'
"""


@query(oracle=lambda: SQL_IMPORTANCE_WEIGHTS)
def q_importance_weights(sf_dir: str):
    """DSIR-style importance weights (Xie et al. 2023) with the English
    subset as the target distribution and the full corpus as raw: per-doc
    Σ tf·(lp_target − lp_raw) in exact integer fixed-point log2 units
    (stages/textstats.importance_weights), Laplace-+1 smoothed over the
    raw vocabulary — every per-token ratio replays bit-for-bit through
    the shift-and-square log2 CTE."""
    import pyarrow.compute as _pc
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text', 'lang'])
    target = rel.arrow_filter(docs, lambda t: _pc.equal(t['lang'], 'en'))
    out = rel.collect_pandas(ts.importance_weights(
        docs.drop_columns(['lang']), target.drop_columns(['lang'])))
    out = out.astype({'doc_id': 'int64', 'weight_q': 'int64',
                      'n_tokens': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


# Same shift-and-square log2 kernel as SQL_UNIGRAM_LP over BOTH smoothed
# distributions: fr1 = raw freq + 1, ft1 = target freq + 1 (0 for tokens
# absent from the target), denominators N_X + |V|.
SQL_IMPORTANCE_WEIGHTS = """
WITH RECURSIVE toks AS MATERIALIZED (SELECT doc_id,
        unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS tok
    FROM documents),
ttoks AS (SELECT doc_id,
        unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS tok
    FROM documents WHERE lang = 'en'),
cr AS MATERIALIZED (SELECT tok, count(*) AS fr FROM toks GROUP BY tok),
ct AS MATERIALIZED (SELECT tok, count(*) AS ft FROM ttoks GROUP BY tok),
consts AS MATERIALIZED (SELECT
    (SELECT CAST(sum(fr) AS BIGINT) FROM cr) + (SELECT count(*) FROM cr) AS nrv,
    coalesce((SELECT CAST(sum(ft) AS BIGINT) FROM ct), 0)
        + (SELECT count(*) FROM cr) AS ntv),
dim AS MATERIALIZED (SELECT cr.tok, cr.fr + 1 AS fr1,
        coalesce(ct.ft, 0) + 1 AS ft1
    FROM cr LEFT JOIN ct ON cr.tok = ct.tok),
vals(v) AS (SELECT DISTINCT fr1 FROM dim UNION SELECT DISTINCT ft1 FROM dim
            UNION SELECT nrv FROM consts UNION SELECT ntv FROM consts),
lgrec(v, iter, y, frac) AS (
    SELECT v, 0,
           (CAST(v AS HUGEINT) * (1::BIGINT << 40))
               // (1::BIGINT << (length(bin(v)) - 1)),
           CAST(0 AS HUGEINT)
    FROM vals
    UNION ALL
    SELECT v, iter + 1,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN ((y*y) // (1::BIGINT << 40)) // 2
                ELSE (y*y) // (1::BIGINT << 40) END,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN frac*2 + 1 ELSE frac*2 END
    FROM lgrec WHERE iter < 20
),
lg AS MATERIALIZED (SELECT v,
        CAST(CAST(length(bin(v)) - 1 AS HUGEINT) * (1::BIGINT << 20) + frac
             AS BIGINT) AS l2
    FROM lgrec WHERE iter = 20),
w AS MATERIALIZED (SELECT d.tok,
        (lt.l2 - (SELECT lg.l2 FROM lg JOIN consts ON lg.v = consts.ntv))
      - (lr.l2 - (SELECT lg.l2 FROM lg JOIN consts ON lg.v = consts.nrv))
        AS w_q
    FROM dim d JOIN lg lr ON lr.v = d.fr1 JOIN lg lt ON lt.v = d.ft1)
SELECT t.doc_id,
       CAST(sum(w.w_q) AS BIGINT) AS weight_q,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM toks t JOIN w ON t.tok = w.tok GROUP BY t.doc_id
"""


@query(oracle=lambda: SQL_BIGRAM_BACKOFF)
def q_bigram_backoff_scores(sf_dir: str):
    """Bigram-LM document scores with stupid-backoff to the unigram model
    (stages/textstats.bigram_backoff_scores) — exact-integer log2 fixed
    point end to end, so the oracle replays the full two-order model
    through the same recursive-CTE log2 kernel."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.bigram_backoff_scores(docs))
    cols = ['doc_id', 'logprob_q', 'n_pairs']
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype='int64') for c in cols})
    out = out[cols].astype('int64')
    return out.sort_values('doc_id').reset_index(drop=True)


# Same shift-and-square log2 CTE as SQL_UNIGRAM_LP, with vals = unigram
# freqs ∪ frequent-bigram freqs ∪ N; penalty 4<<20 fixed-point bits.
SQL_BIGRAM_BACKOFF = """
WITH RECURSIVE raw AS (
    SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
           generate_subscripts(string_split(text, ' '), 1) AS pos
    FROM documents),
toks AS MATERIALIZED (
    SELECT doc_id, tok,
           row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS pos
    FROM raw WHERE tok <> ''),
uni AS MATERIALIZED (SELECT tok, count(*) AS freq FROM toks GROUP BY tok),
tot AS (SELECT CAST(sum(freq) AS BIGINT) AS n FROM uni),
pairs AS MATERIALIZED (
    SELECT t1.doc_id, t1.tok AS w1, t2.tok AS w2
    FROM toks t1 JOIN toks t2
      ON t1.doc_id = t2.doc_id AND t2.pos = t1.pos + 1),
big AS MATERIALIZED (
    SELECT w1, w2, count(*) AS freq FROM pairs
    GROUP BY w1, w2 HAVING count(*) >= 3),
vals(v) AS (SELECT DISTINCT freq FROM uni
            UNION SELECT DISTINCT freq FROM big
            UNION SELECT n FROM tot),
lgrec(v, iter, y, frac) AS (
    SELECT v, 0,
           (CAST(v AS HUGEINT) * (1::BIGINT << 40))
               // (1::BIGINT << (length(bin(v)) - 1)),
           CAST(0 AS HUGEINT)
    FROM vals
    UNION ALL
    SELECT v, iter + 1,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN ((y*y) // (1::BIGINT << 40)) // 2
                ELSE (y*y) // (1::BIGINT << 40) END,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN frac*2 + 1 ELSE frac*2 END
    FROM lgrec WHERE iter < 20
),
lg AS MATERIALIZED (SELECT v,
        CAST(CAST(length(bin(v)) - 1 AS HUGEINT) * (1::BIGINT << 20) + frac
             AS BIGINT) AS l2
    FROM lgrec WHERE iter = 20),
scored AS (
    SELECT p.doc_id,
           CASE WHEN b.freq IS NOT NULL
                THEN lgb.l2 - lgu1.l2
                ELSE lgu2.l2 - lgn.l2 - 4194304 END AS lp
    FROM pairs p
    LEFT JOIN big b ON b.w1 = p.w1 AND b.w2 = p.w2
    JOIN uni u1 ON u1.tok = p.w1
    JOIN uni u2 ON u2.tok = p.w2
    LEFT JOIN lg lgb ON lgb.v = b.freq
    JOIN lg lgu1 ON lgu1.v = u1.freq
    JOIN lg lgu2 ON lgu2.v = u2.freq
    CROSS JOIN (SELECT lg.l2 FROM lg JOIN tot ON lg.v = tot.n) lgn(l2)
)
SELECT doc_id, CAST(sum(lp) AS BIGINT) AS logprob_q,
       count(*) AS n_pairs
FROM scored GROUP BY doc_id ORDER BY doc_id
"""


@query(oracle=lambda: _sql_tfidf_top_terms())
def q_tfidf_top_terms(sf_dir: str, k: int = 5):
    """Per-doc top-k TF-IDF terms under the exact-integer log2_fixed
    contract; join-shaped (no vocab broadcast). Oracle reuses the
    shift-and-square recursive CTE on the df/N values and replays the
    integer scores and the (score desc, token asc) rank exactly."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return ts.tfidf_top_terms(docs, k=k)


def _sql_tfidf_top_terms(k: int = 5) -> str:
    return f"""
WITH RECURSIVE toks AS (SELECT doc_id,
        unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS tok
    FROM documents),
dtf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok),
dfreq AS (SELECT tok, count(*) AS df FROM dtf GROUP BY tok),
tot AS (SELECT count(*) AS n FROM documents),
vals(v) AS (SELECT DISTINCT df FROM dfreq UNION SELECT n FROM tot),
lgrec(v, iter, y, frac) AS (
    SELECT v, 0,
           (CAST(v AS HUGEINT) * (1::BIGINT << 40))
               // (1::BIGINT << (length(bin(v)) - 1)),
           CAST(0 AS HUGEINT)
    FROM vals
    UNION ALL
    SELECT v, iter + 1,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN ((y*y) // (1::BIGINT << 40)) // 2
                ELSE (y*y) // (1::BIGINT << 40) END,
           CASE WHEN (y*y) // (1::BIGINT << 40)
                     >= CAST(2 AS HUGEINT) * (1::BIGINT << 40)
                THEN frac*2 + 1 ELSE frac*2 END
    FROM lgrec WHERE iter < 20
),
lg AS (SELECT v,
        CAST(CAST(length(bin(v)) - 1 AS HUGEINT) * (1::BIGINT << 20) + frac
             AS BIGINT) AS l2
    FROM lgrec WHERE iter = 20),
idf AS (SELECT dfreq.tok, lgn.l2 - lg.l2 AS idf_q
    FROM dfreq
    JOIN lg ON lg.v = dfreq.df
    CROSS JOIN (SELECT l2 FROM lg JOIN tot ON lg.v = tot.n) lgn(l2)),
scored AS (SELECT dtf.doc_id, dtf.tok,
        CAST(dtf.tf * idf.idf_q AS BIGINT) AS score_q,
        row_number() OVER (PARTITION BY dtf.doc_id
                           ORDER BY dtf.tf * idf.idf_q DESC, dtf.tok) AS rn
    FROM dtf JOIN idf ON dtf.tok = idf.tok)
SELECT doc_id, tok AS token, score_q FROM scored WHERE rn <= {k}
"""


@query(oracle=lambda: _sql_passage_chunks())
def q_passage_chunks(sf_dir: str, window: int = 64, stride: int = 48):
    """Overlapping passage windows per doc (RAG chunk geometry + boundary
    tokens); oracle replays start arithmetic and list indexing exactly."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    return ts.passage_chunks(docs, window=window, stride=stride)


def _sql_passage_chunks(window: int = 64, stride: int = 48) -> str:
    return f"""
WITH t AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
  FROM documents
), starts AS (
  SELECT doc_id, toks, CAST(u.i AS BIGINT) AS chunk_idx,
         CAST(u.i * {stride} AS BIGINT) AS start
  FROM t, unnest(range(0, (len(toks) + {stride} - 1) // {stride})) AS u(i)
  WHERE u.i * {stride} < len(toks)
)
SELECT doc_id, chunk_idx, start,
       CAST(least({window}, len(toks) - start) AS BIGINT) AS n_chunk_tokens,
       toks[start + 1] AS first_token,
       toks[start + least({window}, len(toks) - start)] AS last_token
FROM starts
"""


@query(oracle=lambda: SQL_MIXTURE_SAMPLE)
def q_mixture_sample_docs(sf_dir: str):
    """Deterministic per-language mixture sampling (training-data mixing:
    upsample fr/de, downsample en); membership replays as pure md5
    arithmetic per id, rates per stratum."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'lang'])
    rates = {'en': 200, 'fr': 800, 'de': 800, 'es': 500}
    out = rel.collect_pandas(
        ts.mixture_sample(docs, rates, 'lang', 'doc_id'))
    if out.empty:
        return pd.DataFrame({'doc_id': pd.Series(dtype='int64'),
                             'lang': pd.Series(dtype='object')})
    out = out.astype({'doc_id': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_MIXTURE_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE md5_number_upper('mix:42:' || CAST(doc_id AS VARCHAR)) % 1000 <
      CASE lang WHEN 'en' THEN 200 WHEN 'fr' THEN 800 WHEN 'de' THEN 800
                WHEN 'es' THEN 500 ELSE 0 END
ORDER BY doc_id
"""


@query(oracle=lambda: SQL_CONTAMINATION)
def q_split_contamination(sf_dir: str):
    """Train/test contamination: held-out (md5 split 0) documents sharing
    ≥1 distinct 5-gram shingle with any training-split document, with the
    shared-shingle count. One shingle-keyed exchange — the scale shape of
    decontamination sweeps."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.split_contamination(docs))
    if out.empty:
        return pd.DataFrame({'doc_id': pd.Series(dtype='int64'),
                             'shared_shingles': pd.Series(dtype='int64')})
    out = out.astype({'doc_id': 'int64', 'shared_shingles': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_CONTAMINATION = """
WITH base AS (SELECT doc_id,
        CAST(md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 AS BIGINT) AS split,
        list_filter(string_split(text, ' '), x -> x <> '') AS toks
    FROM documents),
sh AS (SELECT doc_id, split,
    CASE WHEN len(toks) < 5 THEN [array_to_string(toks, ' ')]
         ELSE list_distinct(list_transform(range(len(toks) - 4),
              i -> array_to_string(toks[i+1:i+5], ' '))) END AS shingles
    FROM base),
hv AS (SELECT DISTINCT doc_id, split, md5_number_upper(unnest(shingles)) AS h
       FROM sh),
tr AS (SELECT DISTINCT h FROM hv WHERE split <> 0)
SELECT v.doc_id, count(DISTINCT v.h) AS shared_shingles
FROM hv v JOIN tr ON v.h = tr.h WHERE v.split = 0 GROUP BY v.doc_id
"""



# --- multimodal binary-payload pipeline (oracle-gated) ----------------------

@query(oracle=lambda: SQL_MM_IMAGE)
def q_multimodal_image_stats(sf_dir: str):
    """End-to-end binary-column pipeline through the REAL multimodal
    kernels: a deterministic 8×8 RGB image per document is PPM-encoded
    (binary payload column), resized 8×8 → 4×4 by the nearest-neighbour
    actor-pool stage, re-decoded, and reduced to exact integer pixel sums.
    Because every pixel is a closed-form function of doc_id, the oracle
    replays encode → resize → decode → aggregate arithmetically in SQL —
    gating the actual bytes that travelled the object store."""
    from ..stages.multimodal import decode_ppm, encode_ppm, resize_images
    docs = rel.read_table(sf_dir, 'documents', ['doc_id'])

    def synth(batch: pd.DataFrame) -> pd.DataFrame:
        payloads = []
        for d in batch['doc_id']:
            d = int(d)
            y, x, c = np.meshgrid(np.arange(8), np.arange(8), np.arange(3),
                                  indexing='ij')
            img = ((d * 31 + x * 7 + y * 13 + c * 17) % 256).astype(np.uint8)
            payloads.append(encode_ppm(img))
        return pd.DataFrame({'media_id': batch['doc_id'],
                             'url': [f'img://{int(d)}' for d in batch['doc_id']],
                             'payload': payloads})

    media = docs.map_batches(synth, batch_format='pandas')
    resized = resize_images(media, out_w=4, out_h=4)

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        sums = [int(decode_ppm(p).astype(np.int64).sum())
                for p in batch['payload']]
        return pd.DataFrame({'doc_id': batch['media_id'],
                             'orig_width': batch['orig_width'],
                             'orig_height': batch['orig_height'],
                             'pixel_sum': sums})

    out = rel.collect_pandas(resized.map_batches(stats, batch_format='pandas'))
    out = out.astype({'doc_id': 'int64', 'orig_width': 'int64',
                      'orig_height': 'int64', 'pixel_sum': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_MM_IMAGE = """
WITH px AS (
  SELECT d.doc_id, x.x, y.y, c.c,
         (d.doc_id * 31 + (2 * x.x) * 7 + (2 * y.y) * 13 + c.c * 17) % 256 AS v
  FROM (SELECT doc_id FROM documents) d
  CROSS JOIN (SELECT unnest(range(4)) AS x) x
  CROSS JOIN (SELECT unnest(range(4)) AS y) y
  CROSS JOIN (SELECT unnest(range(3)) AS c) c)
SELECT doc_id, 8 AS orig_width, 8 AS orig_height,
       CAST(SUM(v) AS BIGINT) AS pixel_sum
FROM px GROUP BY doc_id
"""



# --- HLL register-state gate ------------------------------------------------

@query(oracle=lambda: _sql_cms_heavy_hitters())
def q_cms_user_heavy_hitters(sf_dir: str, threshold: int = 70,
                             depth: int = 4, width: int = 512):
    """Count-Min heavy hitters over event users: per-batch CMS sketches
    (salted md5 rows) merge by elementwise sum driver-side; every distinct
    user's min-over-rows estimate is emitted when ≥ threshold. The oracle
    rebuilds the identical register table with md5_number_upper and takes
    the same min-joins — register state AND estimates exactness-gated."""
    from ..functions.sketches import cms_heavy_hitters
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    return cms_heavy_hitters(ev, 'user_id', threshold=threshold,
                             depth=depth, width=width)


def _sql_cms_heavy_hitters(threshold: int = 70, depth: int = 4,
                           width: int = 512) -> str:
    return f"""
WITH vals AS (
  SELECT CAST(user_id AS VARCHAR) AS v FROM events
), reg AS MATERIALIZED (
  SELECT u.j,
         CAST(md5_number_upper(CAST(u.j AS VARCHAR) || '|' || v)
              % {width} AS BIGINT) AS bucket,
         count(*) AS cnt
  FROM vals, unnest(range(0, {depth})) AS u(j)
  GROUP BY 1, 2
), dv AS (
  SELECT DISTINCT user_id, CAST(user_id AS VARCHAR) AS v FROM events
), est AS (
  SELECT dv.user_id, min(reg.cnt) AS est_cnt
  FROM dv, unnest(range(0, {depth})) AS u(j)
  JOIN reg ON reg.j = u.j
          AND reg.bucket = CAST(md5_number_upper(CAST(u.j AS VARCHAR)
                                                 || '|' || dv.v)
                                % {width} AS BIGINT)
  GROUP BY dv.user_id
)
SELECT user_id, CAST(est_cnt AS BIGINT) AS est_cnt
FROM est WHERE est_cnt >= {threshold}
"""


@query(oracle=lambda: _sql_pagerank())
def q_pagerank_event_types(sf_dir: str, iters: int = 3):
    """Integer fixed-point PageRank over the event-type transition graph
    (consecutive same-user events, lead() semantics). Every iteration is
    join-shaped (ranks ⋈ edges, groupby-sum onto dst, teleport re-add) and
    floor-integer exact, so the oracle replays all iterations as chained
    CTEs with HUGEINT arithmetic."""
    from ..stages.graph import pagerank_int, transition_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    out = rel.collect_pandas(pagerank_int(transition_edges(ev), iters=iters))
    out = out.rename(columns={'node': 'event_type'})
    out = out.astype({'rank_q': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


@query(oracle=lambda: SQL_TYPO_PAIRS)
def q_typo_name_pairs(sf_dir: str):
    """Distinct customer names at edit distance exactly 1 (the
    surface-form/typo merge primitive, stages/dedup.edit_distance_pairs):
    FastSS deletion-neighborhood candidate exchange + exact ≤1 verify —
    no O(V²) scan; the oracle pays the quadratic levenshtein self-join
    the distributed path avoids."""
    cust = rel.read_table(sf_dir, 'customer', ['c_name'])
    out = rel.collect_pandas(dd.edit_distance_pairs(cust, text_col='c_name'))
    if out.empty:
        return pd.DataFrame({'a': pd.Series(dtype=object),
                             'b': pd.Series(dtype=object)})
    return out.sort_values(['a', 'b']).reset_index(drop=True)


SQL_TYPO_PAIRS = """
WITH v AS (
  SELECT DISTINCT tok AS token
  FROM (SELECT unnest(list_filter(string_split(c_name, ' '),
                                  x -> x <> '')) AS tok FROM customer)
  WHERE length(tok) >= 4)
SELECT a.token AS a, b.token AS b
FROM v a JOIN v b
  ON a.token < b.token
 AND abs(length(a.token) - length(b.token)) <= 1
 AND levenshtein(a.token, b.token) = 1
ORDER BY a, b
"""


@query(oracle=lambda: SQL_TRIANGLES)
def q_event_type_triangles(sf_dir: str):
    """Triangle enumeration over the undirected event-type transition graph
    (stages/graph.triangles: degree-oriented wedge join — the O(m^1.5)
    distributed algorithm, not a driver-side scan). Canonical (x<y<z)."""
    from ..stages.graph import transition_edges, triangles, undirected_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    und = undirected_edges(transition_edges(ev))
    out = rel.collect_pandas(triangles(und))
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype=object)
                             for c in ('x', 'y', 'z')})
    return (out[['x', 'y', 'z']].astype(str)
            .sort_values(['x', 'y', 'z']).reset_index(drop=True))


SQL_TRIANGLES = """
WITH seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events),
und AS (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM seq WHERE dst IS NOT NULL AND src <> dst)
SELECT t1.a AS x, t1.b AS y, t2.b AS z
FROM und t1
JOIN und t2 ON t2.a = t1.b
JOIN und t3 ON t3.a = t1.a AND t3.b = t2.b
ORDER BY x, y, z
"""


@query(oracle=lambda: SQL_BFS_HOPS)
def q_event_type_hops(sf_dir: str, max_hops: int = 4):
    """Bounded-depth BFS over the event-type transition graph from the
    lexicographically-first source type (stages/graph.bfs_hops: one
    frontier⋈edges exchange per round). Oracle = depth-bounded recursive
    CTE + min() fold."""
    from ray.data.aggregate import Min

    from ..stages.graph import bfs_hops, transition_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    edges = transition_edges(ev).materialize()
    agg = edges.aggregate(Min('src', alias_name='m'))
    if not agg or agg.get('m') is None:
        return pd.DataFrame({'node': pd.Series(dtype=object),
                             'hops': pd.Series(dtype='int64')})
    out = rel.collect_pandas(bfs_hops(edges, agg['m'], max_hops=max_hops))
    out = out.astype({'hops': 'int64'})
    return out.sort_values('node').reset_index(drop=True)


SQL_BFS_HOPS = """
WITH RECURSIVE seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events),
e AS (SELECT DISTINCT src, dst FROM seq WHERE dst IS NOT NULL),
src0 AS (SELECT min(src) AS s FROM e),
walk(node, hops) AS (
  SELECT s, 0 FROM src0
  UNION ALL
  SELECT e.dst, w.hops + 1 FROM walk w JOIN e ON e.src = w.node
  WHERE w.hops < 4
)
SELECT node, CAST(min(hops) AS BIGINT) AS hops
FROM walk GROUP BY node ORDER BY node
"""


@query(oracle=lambda: SQL_TRENDING)
def q_trending_event_types(sf_dir: str, k: int = 3):
    """Per-day top-k event types by count (windowed trending — the
    composition of the two-phase count and the per-group top-k exchange;
    ties break to the lexicographically-first type)."""
    ev = rel.read_table(sf_dir, 'events', ['ts', 'event_type'])

    def to_days(batch: pd.DataFrame) -> pd.DataFrame:
        days = batch['ts'].astype('datetime64[us]').astype('int64') \
            // 86_400_000_000
        return pd.DataFrame({'day': days, 'event_type': batch['event_type']})

    daily = rel.two_phase_count(
        ev.map_batches(to_days, batch_format='pandas'),
        ['day', 'event_type'], alias='n')

    def neg(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch['_nn'] = -batch['n'].astype('int64')
        return batch

    out = rel.collect_pandas(rel.topk_per_group(
        daily.map_batches(neg, batch_format='pandas'), 'day',
        ['_nn', 'event_type'], [True, True], k))
    if out.empty:
        return pd.DataFrame({'day': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'n': pd.Series(dtype='int64')})
    out = out[['day', 'event_type', 'n']].astype({'day': 'int64',
                                                  'n': 'int64'})
    return out.sort_values(['day', 'event_type']).reset_index(drop=True)


SQL_TRENDING = """
SELECT day, event_type, n FROM (
  SELECT epoch_us(ts) // 86400000000 AS day, event_type,
         count(*) AS n
  FROM events GROUP BY 1, 2)
QUALIFY row_number() OVER (PARTITION BY day
                           ORDER BY n DESC, event_type) <= 3
ORDER BY day, event_type
"""


@query(oracle=lambda: SQL_RETENTION)
def q_retention_cohorts(sf_dir: str):
    """Daily cohort retention matrix over the events log
    (stages/temporal.retention_cohorts) — the product-analytics shape:
    first-active-day cohorts × day offsets × distinct active users."""
    from ..stages.temporal import retention_cohorts
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'ts'])
    out = rel.collect_pandas(retention_cohorts(ev))
    cols = ['cohort_day', 'day_offset', 'n_users']
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype='int64') for c in cols})
    out = out[cols].astype('int64')
    return out.sort_values(['cohort_day', 'day_offset']).reset_index(drop=True)


SQL_RETENTION = """
WITH act AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 86400000000 AS day
  FROM events),
coh AS (SELECT user_id, min(day) AS cohort FROM act GROUP BY user_id)
SELECT c.cohort AS cohort_day,
       CAST(a.day - c.cohort AS BIGINT) AS day_offset,
       count(*) AS n_users
FROM act a JOIN coh c USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


@query(oracle=lambda: SQL_FUNNEL)
def q_funnel_counts(sf_dir: str, n_steps: int = 3):
    """Ordered funnel conversion over the events log
    (stages/temporal.funnel_counts): users completing each prefix of the
    n lexicographically-first event types IN ORDER (greedy match under
    the (ts, event_id) total order). Steps from a small distinct dim —
    type vocab is a dim by contract."""
    from ..stages.temporal import funnel_counts
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_type', 'event_id'])
    types = sorted(ev.unique('event_type'))[:n_steps]
    out = rel.collect_pandas(funnel_counts(ev, types))
    if out.empty:
        return pd.DataFrame({'reached': pd.Series(dtype='int64'),
                             'n_users': pd.Series(dtype='int64')})
    out = out.astype({'reached': 'int64', 'n_users': 'int64'})
    return out.sort_values('reached').reset_index(drop=True)


SQL_FUNNEL = """
WITH st AS (
  SELECT event_type, row_number() OVER (ORDER BY event_type) AS k
  FROM (SELECT DISTINCT event_type FROM events)
  QUALIFY k <= 3),
ev2 AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events),
s1 AS (SELECT e.user_id, min(e.rn) AS r FROM ev2 e
       JOIN st ON st.k = 1 AND e.event_type = st.event_type
       GROUP BY e.user_id),
s2 AS (SELECT e.user_id, min(e.rn) AS r FROM ev2 e
       JOIN s1 USING (user_id)
       JOIN st ON st.k = 2 AND e.event_type = st.event_type
       WHERE e.rn > s1.r GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.rn) AS r FROM ev2 e
       JOIN s2 USING (user_id)
       JOIN st ON st.k = 3 AND e.event_type = st.event_type
       WHERE e.rn > s2.r GROUP BY e.user_id)
SELECT * FROM (
  SELECT 1 AS reached, count(*) AS n_users FROM s1
  UNION ALL SELECT 2, count(*) FROM s2
  UNION ALL SELECT 3, count(*) FROM s3)
WHERE n_users > 0 ORDER BY reached
"""


@query(oracle=lambda: SQL_SESSION_FUNNEL)
def q_session_funnel_counts(sf_dir: str, n_steps: int = 3):
    """Within-session ordered funnel (stages/temporal.
    session_funnel_counts): the greedy match must complete inside one
    30-minute gap-session; counts (user, session) pairs per prefix."""
    from ..stages.temporal import session_funnel_counts
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_type', 'event_id'])
    types = sorted(ev.unique('event_type'))[:n_steps]
    out = rel.collect_pandas(session_funnel_counts(ev, types))
    if out.empty:
        return pd.DataFrame({'reached': pd.Series(dtype='int64'),
                             'n_sessions': pd.Series(dtype='int64')})
    out = out.astype({'reached': 'int64', 'n_sessions': 'int64'})
    return out.sort_values('reached').reset_index(drop=True)


SQL_SESSION_FUNNEL = """
WITH base AS (
  SELECT user_id, event_type, ts, event_id,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events),
ev2 AS MATERIALIZED (
  SELECT user_id, event_type, rn,
         CAST(sum(CASE WHEN prev IS NULL
                        OR epoch_us(ts) - epoch_us(prev) > 1800000000
                       THEN 1 ELSE 0 END)
              OVER (PARTITION BY user_id ORDER BY rn
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS sess
  FROM base),
st AS (
  SELECT event_type, row_number() OVER (ORDER BY event_type) AS k
  FROM (SELECT DISTINCT event_type FROM events)
  QUALIFY k <= 3),
s1 AS (SELECT e.user_id, e.sess, min(e.rn) AS r FROM ev2 e
       JOIN st ON st.k = 1 AND e.event_type = st.event_type
       GROUP BY e.user_id, e.sess),
s2 AS (SELECT e.user_id, e.sess, min(e.rn) AS r FROM ev2 e
       JOIN s1 ON s1.user_id = e.user_id AND s1.sess = e.sess
       JOIN st ON st.k = 2 AND e.event_type = st.event_type
       WHERE e.rn > s1.r GROUP BY e.user_id, e.sess),
s3 AS (SELECT e.user_id, e.sess, min(e.rn) AS r FROM ev2 e
       JOIN s2 ON s2.user_id = e.user_id AND s2.sess = e.sess
       JOIN st ON st.k = 3 AND e.event_type = st.event_type
       WHERE e.rn > s2.r GROUP BY e.user_id, e.sess)
SELECT * FROM (
  SELECT 1 AS reached, count(*) AS n_sessions FROM s1
  UNION ALL SELECT 2, count(*) FROM s2
  UNION ALL SELECT 3, count(*) FROM s3)
WHERE n_sessions > 0 ORDER BY reached
"""


@query(oracle=lambda: _sql_kcore())
def q_event_type_kcore(sf_dir: str, k: int = 2, rounds: int = 3):
    """Bounded 2-core of the undirected event-type graph via 3 peeling
    rounds (stages/graph.kcore_prune). Oracle = the same rounds as a
    finite CTE chain."""
    from ..stages.graph import kcore_prune, transition_edges, undirected_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    out = rel.collect_pandas(
        kcore_prune(undirected_edges(transition_edges(ev)), k=k,
                    rounds=rounds))
    if out.empty:
        return pd.DataFrame({'node': pd.Series(dtype=object),
                             'deg': pd.Series(dtype='int64')})
    out = out.astype({'deg': 'int64'})
    return out.sort_values('node').reset_index(drop=True)


def _sql_kcore(k: int = 2, rounds: int = 3) -> str:
    parts = ["""
WITH seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events),
e0 AS MATERIALIZED (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM seq WHERE dst IS NOT NULL AND src <> dst)"""]
    for r in range(1, rounds + 1):
        parts.append(f""",
d{r} AS MATERIALIZED (
  SELECT node, count(*) AS deg
  FROM (SELECT a AS node FROM e{r-1} UNION ALL SELECT b FROM e{r-1})
  GROUP BY node),
e{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM e{r-1} e
  JOIN d{r} da ON da.node = e.a AND da.deg >= {k}
  JOIN d{r} db ON db.node = e.b AND db.deg >= {k})""")
    parts.append(f"""
SELECT node, CAST(count(*) AS BIGINT) AS deg
FROM (SELECT a AS node FROM e{rounds} UNION ALL SELECT b FROM e{rounds})
GROUP BY node ORDER BY node""")
    return ''.join(parts)


@query(oracle=lambda: _sql_personalized_pagerank())
def q_personalized_pagerank(sf_dir: str, iters: int = 3, n_seeds: int = 2):
    """Personalized PageRank over the event-type transition graph: the
    walk restarts at the ``n_seeds`` lexicographically-first nodes, so
    ranks measure proximity to the seed set (stages/graph.pagerank_int
    with seeds=...). Same exact-integer contract; chained-CTE oracle
    with seed-cased teleport."""
    from ..stages.graph import pagerank_int, transition_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    edges = transition_edges(ev).materialize()
    node_set = set()
    for col in ('src', 'dst'):
        node_set.update(edges.unique(col))
    seeds = sorted(node_set)[:n_seeds]
    out = rel.collect_pandas(pagerank_int(edges, iters=iters, seeds=seeds))
    out = out.rename(columns={'node': 'event_type'})
    out = out.astype({'rank_q': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


def _sql_personalized_pagerank(iters: int = 3,
                               scale: int = 1_000_000_000_000,
                               n_seeds: int = 2) -> str:
    parts = [f"""
WITH seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events
), e AS MATERIALIZED (
  SELECT src, dst, count(*) AS w FROM seq WHERE dst IS NOT NULL
  GROUP BY src, dst
), nodes AS MATERIALIZED (
  SELECT DISTINCT t AS node
  FROM (SELECT src AS t FROM e UNION ALL SELECT dst FROM e)
), sd AS MATERIALIZED (
  SELECT node FROM nodes ORDER BY node LIMIT {n_seeds}
), ns AS MATERIALIZED (SELECT count(*) AS n FROM sd),
ow AS MATERIALIZED (SELECT src, sum(w) AS ow FROM e GROUP BY src),
r0 AS MATERIALIZED (
  SELECT node,
         CAST(CASE WHEN node IN (SELECT node FROM sd)
                   THEN {scale} // (SELECT n FROM ns) ELSE 0 END
              AS BIGINT) AS r
  FROM nodes
)"""]
    for t in range(iters):
        parts.append(f""", r{t + 1} AS MATERIALIZED (
  SELECT nd.node,
         CAST(CASE WHEN nd.node IN (SELECT node FROM sd)
                   THEN (15 * {scale}) // (100 * (SELECT n FROM ns))
                   ELSE 0 END
              + coalesce(sum((CAST(p.r AS HUGEINT) * 85 * e.w)
                             // (100 * o.ow)), 0) AS BIGINT) AS r
  FROM nodes nd
  LEFT JOIN e ON e.dst = nd.node
  LEFT JOIN r{t} p ON p.node = e.src
  LEFT JOIN ow o ON o.src = e.src
  GROUP BY nd.node
)""")
    parts.append(f"""
SELECT node AS event_type, r AS rank_q FROM r{iters} ORDER BY event_type
""")
    return ''.join(parts)


def _sql_pagerank(iters: int = 3, scale: int = 1_000_000_000_000) -> str:
    parts = [f"""
WITH seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events
), e AS MATERIALIZED (
  SELECT src, dst, count(*) AS w FROM seq WHERE dst IS NOT NULL
  GROUP BY src, dst
), nodes AS MATERIALIZED (
  SELECT DISTINCT t AS node
  FROM (SELECT src AS t FROM e UNION ALL SELECT dst FROM e)
), nn AS MATERIALIZED (SELECT count(*) AS n FROM nodes),
ow AS MATERIALIZED (SELECT src, sum(w) AS ow FROM e GROUP BY src),
r0 AS MATERIALIZED (
  SELECT node, CAST({scale} // (SELECT n FROM nn) AS BIGINT) AS r
  FROM nodes
)"""]
    for t in range(iters):
        parts.append(f""", r{t + 1} AS MATERIALIZED (
  SELECT nd.node,
         CAST((15 * {scale}) // (100 * (SELECT n FROM nn))
              + coalesce(sum((CAST(p.r AS HUGEINT) * 85 * e.w)
                             // (100 * o.ow)), 0) AS BIGINT) AS r
  FROM nodes nd
  LEFT JOIN e ON e.dst = nd.node
  LEFT JOIN r{t} p ON p.node = e.src
  LEFT JOIN ow o ON o.src = e.src
  GROUP BY nd.node
)""")
    parts.append(f"""
SELECT node AS event_type, r AS rank_q FROM r{iters} ORDER BY event_type
""")
    return ''.join(parts)


@query(oracle=lambda: SQL_HLL_REGISTERS)
def q_hll_user_registers(sf_dir: str):
    """The HLL sketch's merged REGISTER STATE over distinct event users
    (md5-hashed, splitmix-remixed): per-batch sketches merged driver-side,
    nonzero (bucket, max rank) rows out. The register table IS the
    mergeable sketch, and with the md5 hash it replays bit-identically in
    SQL — so the approximate-distinct machinery is exactness-gated even
    though its final estimate is a float."""
    from ..functions.hashing import md5_hash64
    from ..functions.sketches import hll_registers
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    out = hll_registers(ev, 'user_id', p=12, hash_fn=md5_hash64)
    return out.sort_values('bucket').reset_index(drop=True)


SQL_HLL_REGISTERS = """
WITH vals AS (SELECT DISTINCT CAST(user_id AS VARCHAR) AS v FROM events),
h0 AS (SELECT md5_number_upper(v) AS h FROM vals),
h1 AS (SELECT (((((h) >> 32) * CAST(11400714819323198485 AS HUGEINT)) % 4294967296) * 4294967296 + ((h) % 4294967296) * CAST(11400714819323198485 AS HUGEINT)) % 18446744073709551616 AS h FROM h0),
h2 AS (SELECT xor(h, h >> 31) AS h FROM h1),
h3 AS (SELECT (((((h) >> 32) * CAST(13787848793156543929 AS HUGEINT)) % 4294967296) * 4294967296 + ((h) % 4294967296) * CAST(13787848793156543929 AS HUGEINT)) % 18446744073709551616 AS h FROM h2),
h4 AS (SELECT xor(h, h >> 27) AS h FROM h3),
fin AS (SELECT h >> 52 AS bucket,
        ((h % 4503599627370496) * 4096 + 2048) AS rest FROM h4)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(max(65 - length(bin(CAST(rest AS UBIGINT)))) AS BIGINT) AS rank
FROM fin GROUP BY bucket
"""

# The HLL cardinality estimate replayed end-to-end: exact HUGEINT register
# sum (zeros contribute 2^63 each) then the same fixed-order DOUBLE formula
# as functions/sketches.hll_estimate_deterministic — float-bit parity.
SQL_APPROX_DISTINCT = f"""
WITH regs AS ({SQL_HLL_REGISTERS}),
agg AS (SELECT count(*) AS nonzero,
               sum(CAST(1 AS BIGINT) << (63 - rank)) AS s_nz
        FROM regs),
calc AS (SELECT (4096 - nonzero) AS zeros,
                CAST(coalesce(s_nz, 0) AS HUGEINT)
                  + CAST(4096 - nonzero AS HUGEINT) * 9223372036854775808 AS s
         FROM agg),
est0 AS (SELECT zeros,
                (0.7213 / (1 + 1.079 / 4096.0)) * 4096.0 * 4096.0
                  * 9223372036854775808.0 / CAST(s AS DOUBLE) AS raw
         FROM calc)
SELECT round(CASE WHEN raw <= 2.5 * 4096.0 AND zeros > 0
                  THEN 4096.0 * ln(4096.0 / zeros) ELSE raw END, 6)
       AS approx_distinct_users
FROM est0
"""



# --- registry ---------------------------------------------------------------

@query(oracle=lambda: SQL_PIVOT_EVENTS)
def q_pivot_event_type_counts(sf_dir: str):
    """Long → wide pivot (relational.pivot_counts): per-user event counts
    with one int64 column per event type — the dynamic SQL PIVOT contract
    (columns = sorted distinct types, missing combos 0). One row-keyed
    exchange over two-phase partials; the column dim is driver-known by
    pivot's definition."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type'])
    out = rel.collect_pandas(rel.pivot_counts(ev, 'user_id', 'event_type'))
    if out.empty:
        return pd.DataFrame({'user_id': pd.Series(dtype='int64')})
    out['user_id'] = out['user_id'].astype('int64')
    return out.sort_values('user_id').reset_index(drop=True)


SQL_PIVOT_EVENTS = """
PIVOT events ON event_type USING count(*) GROUP BY user_id
ORDER BY user_id
"""


@query(oracle=lambda: SQL_UNPIVOT_EVENTS)
def q_unpivot_event_type_counts(sf_dir: str):
    """The melt round trip: unpivot(pivot_counts(events)) — wide back to
    (user_id, event_type, n) INCLUDING the zero cells the pivot
    materialized (the melt contract). Stateless per-batch melt, no
    exchange; oracle = users × types cross join left-joined onto counts."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type'])
    wide = rel.pivot_counts(ev, 'user_id', 'event_type')
    cols = [c for c in wide.schema().names if c != 'user_id']
    out = rel.collect_pandas(rel.unpivot(wide, ['user_id'], cols,
                                         var_name='event_type',
                                         value_name='n'))
    if out.empty:
        return pd.DataFrame({'user_id': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'n': pd.Series(dtype='int64')})
    out = out.astype({'user_id': 'int64', 'n': 'int64'})
    return out.sort_values(['user_id', 'event_type']).reset_index(drop=True)


SQL_UNPIVOT_EVENTS = """
SELECT u.user_id, t.event_type, CAST(coalesce(c.n, 0) AS BIGINT) AS n
FROM (SELECT DISTINCT user_id FROM events) u
CROSS JOIN (SELECT DISTINCT event_type FROM events) t
LEFT JOIN (SELECT user_id, event_type, count(*) AS n
           FROM events GROUP BY 1, 2) c
  ON c.user_id = u.user_id AND c.event_type = t.event_type
ORDER BY u.user_id, t.event_type
"""


@query(oracle=lambda: SQL_VALUE_MOMENTS)
def q_value_moments_by_type(sf_dir: str):
    """Per-type exact-integer variance/covariance analytics
    (relational.grouped_moments): population var of milli-quantized value
    and its covariance with the event hour — integer moments combined
    two-phase (no float association anywhere), HUGEINT-replayed by the
    oracle; covariance divides TRUNCATING to match DuckDB ``//``."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'ts', 'value'])

    def add_hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': b['event_type'], 'value': b['value'],
            'hour': b['ts'].astype('datetime64[us]').dt.hour
            .astype('int64')})

    out = rel.collect_pandas(rel.grouped_moments(
        ev.map_batches(add_hour, batch_format='pandas'),
        'event_type', 'value', y_col='hour', scale=1000))
    if out.empty:
        return pd.DataFrame({'event_type': pd.Series(dtype=object),
                             'n': pd.Series(dtype='int64'),
                             'var_q': pd.Series(dtype='int64'),
                             'cov_q': pd.Series(dtype='int64')})
    out = out.astype({'n': 'int64', 'var_q': 'int64', 'cov_q': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


SQL_VALUE_MOMENTS = """
WITH q AS (
  SELECT event_type,
         CAST(floor(value * 1000) AS HUGEINT) AS x,
         CAST(extract(hour FROM ts) AS HUGEINT) AS y
  FROM events),
m AS (
  SELECT event_type, count(*) AS n, sum(x) AS sx, sum(x * x) AS sxx,
         sum(y) AS sy, sum(x * y) AS sxy
  FROM q GROUP BY event_type)
SELECT event_type,
       CAST(n AS BIGINT) AS n,
       CAST((n * sxx - sx * sx) // (n * n) AS BIGINT) AS var_q,
       CAST((n * sxy - sx * sy) // (n * n) AS BIGINT) AS cov_q
FROM m ORDER BY event_type
"""


@query(oracle=lambda: SQL_USER_TYPE_PROFILES)
def q_user_type_profiles(sf_dir: str):
    """Per-user sorted distinct-event-type profile string — the SQL
    string_agg(DISTINCT … ORDER BY …) contract
    (relational.string_agg_per_group: two-phase distinct pairs, then one
    key-bucketed sorted join)."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type'])
    out = rel.collect_pandas(rel.string_agg_per_group(
        ev, 'user_id', 'event_type', sep=',', alias='profile'))
    if out.empty:
        return pd.DataFrame({'user_id': pd.Series(dtype='int64'),
                             'profile': pd.Series(dtype=object)})
    out['user_id'] = out['user_id'].astype('int64')
    return out.sort_values('user_id').reset_index(drop=True)


SQL_USER_TYPE_PROFILES = """
SELECT user_id, string_agg(event_type, ',' ORDER BY event_type) AS profile
FROM (SELECT DISTINCT user_id, event_type FROM events)
GROUP BY user_id ORDER BY user_id
"""


@query(oracle=lambda: SQL_USER_ACTIVITY_FULL_JOIN)
def q_user_activity_full_join(sf_dir: str):
    """FULL OUTER join of two aggregates sharing an id domain — per-user
    event counts ⟗ per-customer order counts (relational.shuffle_join
    how='outer': co-partitioned only, the broadcast fast path is
    structurally wrong for outer). Missing sides coalesce to 0, the SQL
    FULL JOIN USING shape."""
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    od = rel.read_table(sf_dir, 'orders', ['o_custkey'])
    ue = rel.two_phase_count(ev, ['user_id'], alias='n_events')
    co = rel.two_phase_count(od, ['o_custkey'], alias='n_orders')
    j = rel.shuffle_join(rel.pin_arrow(ue, user_id='int', n_events='int'),
                         rel.pin_arrow(co, o_custkey='int', n_orders='int'),
                         left_on='user_id', right_on='o_custkey',
                         how='outer')

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        uid = df['user_id'].astype(object)
        miss = uid.isna()
        if miss.any():
            uid = uid.mask(miss, df['o_custkey'][miss])
        return pd.DataFrame({
            'user_id': uid.astype('int64'),
            'n_events': df['n_events'].astype(object)
            .map(lambda v: 0 if pd.isna(v) else int(v)).astype('int64'),
            'n_orders': df['n_orders'].astype(object)
            .map(lambda v: 0 if pd.isna(v) else int(v)).astype('int64')})

    out = rel.collect_pandas(j.map_batches(finish, batch_format='pandas'))
    if out.empty:
        return pd.DataFrame({c: pd.Series(dtype='int64')
                             for c in ('user_id', 'n_events', 'n_orders')})
    return out.sort_values('user_id').reset_index(drop=True)


SQL_USER_ACTIVITY_FULL_JOIN = """
WITH ue AS (SELECT user_id, count(*) AS n_events FROM events
            GROUP BY user_id),
co AS (SELECT o_custkey AS user_id, count(*) AS n_orders FROM orders
       GROUP BY o_custkey)
SELECT coalesce(ue.user_id, co.user_id) AS user_id,
       CAST(coalesce(ue.n_events, 0) AS BIGINT) AS n_events,
       CAST(coalesce(co.n_orders, 0) AS BIGINT) AS n_orders
FROM ue FULL JOIN co ON ue.user_id = co.user_id
ORDER BY user_id
"""


@query(oracle=lambda: SQL_VALUE_NTILE)
def q_value_ntile_by_type(sf_dir: str, n: int = 4):
    """NTILE(4) ranking window per event type under the (value, event_id)
    total order — one type-keyed exchange (relational.grouped_map), the
    in-group sort + SQL tile-size rule (first k%n tiles get one extra
    row). Ties on equal doubles break by event_id, so both engines assign
    identical tiles."""
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'event_type', 'value'])

    def tile(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['value', 'event_id'], kind='mergesort')
        k = len(g)
        base, rem = divmod(k, n)
        sizes = [base + 1] * rem + [base] * (n - rem)
        tiles = np.repeat(np.arange(1, n + 1, dtype=np.int64), sizes)
        return pd.DataFrame({'event_id': g['event_id'].to_numpy(),
                             'event_type': g['event_type'].to_numpy(),
                             'tile': tiles[:k]})

    out = rel.collect_pandas(rel.grouped_map(ev, ['event_type'], tile))
    if out.empty:
        return pd.DataFrame({'event_id': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'tile': pd.Series(dtype='int64')})
    out = out.astype({'event_id': 'int64', 'tile': 'int64'})
    return out.sort_values('event_id').reset_index(drop=True)


SQL_VALUE_NTILE = """
SELECT event_id, event_type,
       CAST(ntile(4) OVER (PARTITION BY event_type
                           ORDER BY value, event_id) AS BIGINT) AS tile
FROM events ORDER BY event_id
"""


@query(oracle=lambda: SQL_APPROX_DISTINCT_BY_TYPE)
def q_approx_distinct_users_by_type(sf_dir: str):
    """Per-event-type approximate distinct users — the grouped HLL
    (functions/sketches.hll_grouped_estimates): count(DISTINCT) per key
    with NO distinct shuffle, just (group, bucket) max-rank partials.
    md5-hashed registers + the exact-integer-sum estimate make the floats
    replay bit-for-bit in SQL, grouped exactly like the global
    approx_distinct_users oracle."""
    from ..functions.hashing import md5_hash64
    from ..functions.sketches import hll_grouped_estimates
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    out = rel.collect_pandas(hll_grouped_estimates(
        ev, 'event_type', 'user_id', p=12, hash_fn=md5_hash64))
    if out.empty:
        return pd.DataFrame({'event_type': pd.Series(dtype=object),
                             'approx_distinct': pd.Series(dtype='float64')})
    out['approx_distinct'] = out['approx_distinct'].astype('float64')
    return out.sort_values('event_type').reset_index(drop=True)


SQL_APPROX_DISTINCT_BY_TYPE = """
WITH vals AS (SELECT DISTINCT event_type,
                     CAST(user_id AS VARCHAR) AS v FROM events),
h0 AS (SELECT event_type, md5_number_upper(v) AS h FROM vals),
h1 AS (SELECT event_type, (((((h) >> 32) * CAST(11400714819323198485 AS HUGEINT)) % 4294967296) * 4294967296 + ((h) % 4294967296) * CAST(11400714819323198485 AS HUGEINT)) % 18446744073709551616 AS h FROM h0),
h2 AS (SELECT event_type, xor(h, h >> 31) AS h FROM h1),
h3 AS (SELECT event_type, (((((h) >> 32) * CAST(13787848793156543929 AS HUGEINT)) % 4294967296) * 4294967296 + ((h) % 4294967296) * CAST(13787848793156543929 AS HUGEINT)) % 18446744073709551616 AS h FROM h2),
h4 AS (SELECT event_type, xor(h, h >> 27) AS h FROM h3),
fin AS (SELECT event_type, h >> 52 AS bucket,
        ((h % 4503599627370496) * 4096 + 2048) AS rest FROM h4),
regs AS (SELECT event_type, bucket,
         max(65 - length(bin(CAST(rest AS UBIGINT)))) AS rank
         FROM fin GROUP BY event_type, bucket),
agg AS (SELECT event_type, count(*) AS nonzero,
               sum(CAST(1 AS BIGINT) << (63 - rank)) AS s_nz
        FROM regs GROUP BY event_type),
calc AS (SELECT event_type, (4096 - nonzero) AS zeros,
                CAST(coalesce(s_nz, 0) AS HUGEINT)
                  + CAST(4096 - nonzero AS HUGEINT) * 9223372036854775808 AS s
         FROM agg),
est0 AS (SELECT event_type, zeros,
                (0.7213 / (1 + 1.079 / 4096.0)) * 4096.0 * 4096.0
                  * 9223372036854775808.0 / CAST(s AS DOUBLE) AS raw
         FROM calc)
SELECT event_type,
       round(CASE WHEN raw <= 2.5 * 4096.0 AND zeros > 0
                  THEN 4096.0 * ln(4096.0 / zeros) ELSE raw END, 6)
       AS approx_distinct
FROM est0 ORDER BY event_type
"""


@query(oracle=lambda: SQL_VALUE_LAG_DELTA)
def q_value_lag_delta(sf_dir: str):
    """LAG/LEAD window per user under the (ts, event_id) total order:
    integer-cents delta vs the previous event + the next event's type —
    ONE user-keyed exchange, vectorized groupby().shift() per bucket
    (stages/temporal.lag_lead_delta). First-row-per-user NULL deltas are
    filtered on BOTH sides (nullable-int dtype parity)."""
    from ..stages.temporal import lag_lead_delta
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'ts', 'user_id', 'value', 'event_type'])
    out = rel.collect_pandas(lag_lead_delta(ev))
    out = out[out['delta_cents'].notna()].copy()
    out = out.astype({'user_id': 'int64', 'event_id': 'int64'})
    out['delta_cents'] = out['delta_cents'].astype('int64')
    out['next_type'] = out['next_type'].astype(object).where(
        out['next_type'].notna(), None)
    return out[['user_id', 'event_id', 'delta_cents', 'next_type']] \
        .sort_values(['user_id', 'event_id']).reset_index(drop=True)


SQL_VALUE_LAG_DELTA = """
SELECT user_id, event_id,
       CAST(c - lag(c) OVER w AS BIGINT) AS delta_cents,
       lead(event_type) OVER w AS next_type
FROM (SELECT user_id, event_id, ts, event_type,
             CAST(floor(value * 100) AS BIGINT) AS c FROM events)
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
QUALIFY delta_cents IS NOT NULL
ORDER BY user_id, event_id
"""


@query(oracle=lambda: SQL_RUNNING_USER_VALUE)
def q_running_user_value(sf_dir: str):
    """Per-user running cumulative sum/count (the SQL UNBOUNDED PRECEDING
    frame) in exact integer cents — one user-keyed exchange, vectorized
    groupby().cumsum() per bucket (stages/temporal.running_total)."""
    from ..stages.temporal import running_total
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'ts', 'user_id', 'value'])
    out = rel.collect_pandas(running_total(ev))
    out = out.astype({'user_id': 'int64', 'event_id': 'int64',
                      'run_sum_cents': 'int64', 'run_n': 'int64'})
    return out.sort_values(['user_id', 'event_id']).reset_index(drop=True)


SQL_RUNNING_USER_VALUE = """
SELECT user_id, event_id,
  CAST(SUM(CAST(floor(value * 100) AS BIGINT)) OVER w AS BIGINT)
      AS run_sum_cents,
  CAST(COUNT(value) OVER w AS BIGINT) AS run_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
ORDER BY user_id, event_id
"""


@query(oracle=lambda: SQL_USER_RANK_BY_TYPE)
def q_user_rank_by_type(sf_dir: str):
    """rank() + dense_rank() of users per event type by activity count —
    two-phase count, then ONE type-keyed exchange with vectorized
    groupby().rank() (relational.grouped_rank). Real ties (many users
    share a count) exercise the gap/no-gap semantics."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    cnt = rel.two_phase_count(ev, ['event_type', 'user_id'],
                              alias='n_events')
    out = rel.collect_pandas(rel.grouped_rank(
        cnt, 'event_type', 'n_events', ascending=False))
    out = out.astype({'user_id': 'int64', 'n_events': 'int64',
                      'rnk': 'int64', 'drnk': 'int64'})
    return out[['event_type', 'user_id', 'n_events', 'rnk', 'drnk']] \
        .sort_values(['event_type', 'user_id']).reset_index(drop=True)


SQL_USER_RANK_BY_TYPE = """
WITH c AS (SELECT event_type, user_id, count(*) AS n_events
           FROM events GROUP BY 1, 2)
SELECT event_type, user_id, n_events,
  CAST(rank() OVER (PARTITION BY event_type ORDER BY n_events DESC)
       AS BIGINT) AS rnk,
  CAST(dense_rank() OVER (PARTITION BY event_type ORDER BY n_events DESC)
       AS BIGINT) AS drnk
FROM c ORDER BY event_type, user_id
"""


@query(oracle=lambda: SQL_DOC_SNAPSHOT_DIFF)
def q_doc_snapshot_diff(sf_dir: str):
    """CDC snapshot diff (relational.snapshot_diff): documents vs a
    deterministically perturbed next-day snapshot — md5-selected ~10%
    deleted, ~10% lang-modified, ~10% new ids — classified added/removed/
    changed via ONE full-outer shuffle_join; unchanged rows never leave
    the join tasks. The md5 perturbation replays exactly in SQL
    (md5_number_upper), so the diff itself is hash-gated."""
    from ..functions.hashing import md5_hash64_batch
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'lang'])

    def to_new(b: pd.DataFrame) -> pd.DataFrame:
        keep = md5_hash64_batch(b['doc_id'], 'del:') % 10 != 0
        b = b[keep].copy()
        mod = md5_hash64_batch(b['doc_id'], 'mod:') % 10 == 0
        b['lang'] = b['lang'].astype(object).where(~mod, 'xx')
        return b[['doc_id', 'lang']]

    def added(b: pd.DataFrame) -> pd.DataFrame:
        add = md5_hash64_batch(b['doc_id'], 'add:') % 10 == 0
        nb = b[add]
        return pd.DataFrame({
            'doc_id': nb['doc_id'].to_numpy() + 100_000_000,
            'lang': np.full(len(nb), 'new', dtype=object)})

    new_ds = docs.map_batches(to_new, batch_format='pandas').union(
        docs.map_batches(added, batch_format='pandas'))
    out = rel.collect_pandas(
        rel.snapshot_diff(docs, new_ds, 'doc_id', ['lang']))
    if out.empty:
        return pd.DataFrame({'doc_id': pd.Series(dtype='int64'),
                             'change': pd.Series(dtype=object)})
    out['doc_id'] = out['doc_id'].astype('int64')
    return out.sort_values(['doc_id', 'change']).reset_index(drop=True)


SQL_DOC_SNAPSHOT_DIFF = """
WITH b AS (
  SELECT doc_id,
         CASE WHEN md5_number_upper('mod:' || CAST(doc_id AS VARCHAR))
                   % 10 = 0 THEN 'xx' ELSE lang END AS lang
  FROM documents
  WHERE md5_number_upper('del:' || CAST(doc_id AS VARCHAR)) % 10 <> 0
  UNION ALL
  SELECT doc_id + 100000000 AS doc_id, 'new' AS lang
  FROM documents
  WHERE md5_number_upper('add:' || CAST(doc_id AS VARCHAR)) % 10 = 0
),
j AS (SELECT a.doc_id AS k_old, b.doc_id AS k_new,
             a.lang AS lang_old, b.lang AS lang_new
      FROM documents a FULL JOIN b ON a.doc_id = b.doc_id)
SELECT CAST(coalesce(k_old, k_new) AS BIGINT) AS doc_id,
       CASE WHEN k_old IS NULL THEN 'added'
            WHEN k_new IS NULL THEN 'removed'
            ELSE 'changed' END AS change
FROM j
WHERE k_old IS NULL OR k_new IS NULL
   OR lang_old IS DISTINCT FROM lang_new
ORDER BY doc_id, change
"""


@query(oracle=lambda: SQL_ACTIVE_USER_INTERSECT)
def q_active_user_intersect(sf_dir: str):
    """SQL INTERSECT as a distributed op (relational.distinct_intersect):
    distinct user ids present in BOTH events and orders — per-batch
    partial dedup, side-bit tags, ONE key-keyed exchange."""
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey'])
    out = rel.collect_pandas(rel.distinct_intersect(
        ev, orders, 'user_id', 'o_custkey', alias='user_id'))
    out = out.astype({'user_id': 'int64'})
    return out.sort_values('user_id').reset_index(drop=True)


SQL_ACTIVE_USER_INTERSECT = """
SELECT user_id FROM events
INTERSECT
SELECT o_custkey FROM orders
ORDER BY user_id
"""


@query(oracle=lambda: SQL_ORDER_USERS_EXCEPT)
def q_order_users_except_events(sf_dir: str):
    """SQL EXCEPT as a distributed op (relational.distinct_except):
    distinct customer keys that placed orders but never emitted an event —
    per-batch partial dedup, side-bit tags, ONE key-keyed exchange (the
    mirror of active_user_intersect)."""
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey'])
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    out = rel.collect_pandas(rel.distinct_except(
        orders, ev, 'o_custkey', 'user_id', alias='o_custkey'))
    if out.empty:
        return pd.DataFrame({'o_custkey': pd.Series(dtype='int64')})
    out = out.astype({'o_custkey': 'int64'})
    return out.sort_values('o_custkey').reset_index(drop=True)


SQL_ORDER_USERS_EXCEPT = """
SELECT o_custkey FROM orders
EXCEPT
SELECT user_id FROM events
ORDER BY o_custkey
"""


_VALUE_BANDS = ([0.0, 1.0, 5.0, 20.0, 50.0, 100.0, 200.0, 500.0],
                ['b0_lt1', 'b1_1_5', 'b2_5_20', 'b3_20_50',
                 'b4_50_100', 'b5_100_200', 'b6_200_500'])


@query(oracle=lambda: SQL_VALUE_BAND_COUNTS)
def q_value_band_counts(sf_dir: str):
    """Key-less range join against a tiny interval dimension
    (relational.band_lookup_count): each event's value lands in a
    half-open band via broadcast ``np.searchsorted`` — the edges ship once
    in the task closure, no shuffle — then a two-phase count per band.
    The broadcast-small-side regime of the range-join family (the keyed
    dataset×dataset case is temporal.range_join)."""
    edges, labels = _VALUE_BANDS
    ev = rel.read_table(sf_dir, 'events', ['value'])
    out = rel.collect_pandas(rel.band_lookup_count(
        ev, 'value', edges, labels, alias='band', cnt_alias='n'))
    if out.empty:
        return pd.DataFrame({'band': pd.Series(dtype=object),
                             'n': pd.Series(dtype='int64')})
    out['n'] = out['n'].astype('int64')
    return out.sort_values('band').reset_index(drop=True)


SQL_VALUE_BAND_COUNTS = """
WITH bands(band, lo, hi) AS (VALUES
  ('b0_lt1', 0.0, 1.0), ('b1_1_5', 1.0, 5.0), ('b2_5_20', 5.0, 20.0),
  ('b3_20_50', 20.0, 50.0), ('b4_50_100', 50.0, 100.0),
  ('b5_100_200', 100.0, 200.0), ('b6_200_500', 200.0, 500.0))
SELECT band, CAST(count(*) AS BIGINT) AS n
FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
GROUP BY band ORDER BY band
"""


@query(oracle=lambda: SQL_VALUE_PERCENT_RANK)
def q_value_percent_rank_by_type(sf_dir: str):
    """percent_rank + cume_dist ranking windows per event type under the
    (value, event_id) total order — one type-keyed exchange
    (relational.grouped_map) + vectorized in-group position arithmetic.
    The total order makes rank == row_number and every peer group size 1,
    so pct_rank = (row−1)/(n−1) and cume = row/n: single IEEE divisions
    that replay bit-identically in the SQL window functions."""
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'event_type', 'value'])

    def win(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['value', 'event_id'], kind='mergesort')
        n = len(g)
        pos = np.arange(n, dtype=np.float64)
        pct = pos / (n - 1) if n > 1 else np.zeros(n)
        cume = (pos + 1.0) / n
        return pd.DataFrame({'event_id': g['event_id'].to_numpy(),
                             'event_type': g['event_type'].to_numpy(),
                             'pct_rank': pct, 'cume': cume})

    out = rel.collect_pandas(rel.grouped_map(ev, ['event_type'], win))
    if out.empty:
        return pd.DataFrame({'event_id': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'pct_rank': pd.Series(dtype='float64'),
                             'cume': pd.Series(dtype='float64')})
    out = out.astype({'event_id': 'int64'})
    return out.sort_values('event_id').reset_index(drop=True)


SQL_VALUE_PERCENT_RANK = """
SELECT event_id, event_type,
       percent_rank() OVER (PARTITION BY event_type
                            ORDER BY value, event_id) AS pct_rank,
       cume_dist() OVER (PARTITION BY event_type
                         ORDER BY value, event_id) AS cume
FROM events ORDER BY event_id
"""


@query(oracle=lambda: SQL_WEIGHTED_SAMPLE)
def q_weighted_sample_docs(sf_dir: str, k: int = 50):
    """Deterministic weighted top-k sample, weight = document length
    (relational.weighted_race_topk): race key md5(salt:id)/n_chars, the k
    smallest win — longer docs systematically draw smaller keys. Division
    -only (libm-free) so the oracle replays every race key bit-for-bit;
    per-batch bottom-k combiner bounds the final exchange to k × batches
    rows."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'n_chars'])
    out = rel.collect_pandas(rel.weighted_race_topk(
        docs, 'doc_id', 'n_chars', k, salt='wrs:42'))
    if out.empty:
        return pd.DataFrame({'doc_id': pd.Series(dtype='int64'),
                             'n_chars': pd.Series(dtype='int64'),
                             'race_key': pd.Series(dtype='float64')})
    out = out.astype({'doc_id': 'int64', 'n_chars': 'int64'})
    return out.sort_values(['race_key', 'doc_id']).reset_index(drop=True)


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id, n_chars,
       CAST(md5_number_upper('wrs:42:' || CAST(doc_id AS VARCHAR)) AS DOUBLE)
         / CAST(n_chars AS DOUBLE) AS race_key
FROM documents WHERE n_chars > 0
ORDER BY race_key, doc_id LIMIT 50
"""


@query(oracle=lambda: SQL_LEXICAL_DIVERSITY)
def q_lexical_diversity_scores(sf_dir: str):
    """Per-doc lexical diversity (textstats.lexical_diversity): type-token
    ratio + Gini–Simpson index — the libm-free diversity pair (single
    exact-rational divisions; Shannon entropy's ln would not replay across
    libms). Arrow-native one-pass tokenize + packed-pair np.unique."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(ts.lexical_diversity(docs))
    out = out.astype({'doc_id': 'int64', 'n_tokens': 'int64',
                      'n_types': 'int64'})
    return out.sort_values('doc_id').reset_index(drop=True)


SQL_LEXICAL_DIVERSITY = """
WITH t AS (SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS toks
           FROM documents),
e AS (SELECT doc_id, unnest(toks) AS tok FROM t),
c AS (SELECT doc_id, tok, count(*) AS c FROM e GROUP BY doc_id, tok),
a AS (SELECT doc_id, sum(c) AS n, count(*) AS u, sum(c * (c - 1)) AS rep
      FROM c GROUP BY doc_id)
SELECT t.doc_id,
       CAST(coalesce(a.n, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(a.u, 0) AS BIGINT) AS n_types,
       coalesce(floor(a.u * 1.0 / a.n * 1000000) / 1000000, 0.0)
         AS type_token_ratio,
       CASE WHEN coalesce(a.n, 0) > 1
            THEN floor((1.0 - a.rep * 1.0 / (a.n * (a.n - 1))) * 1000000)
                 / 1000000
            ELSE 0.0 END AS gini_diversity
FROM t LEFT JOIN a USING (doc_id) ORDER BY t.doc_id
"""


@query(oracle=lambda: SQL_HOPPING_WINDOW)
def q_hopping_window_counts(sf_dir: str):
    """Hopping (overlapping sliding) window counts — 2-hour windows
    hopping 1 hour: an event at hour h is inside the windows starting at
    h and h−1, so each event fans out to exactly width/hop window keys
    (the standard stream-engine hopping-window expansion) and the counts
    combine two-phase. Contrast with hourly_user_activity's tumbling
    windows, where every event lands in one window."""
    ev = rel.read_table(sf_dir, 'events', ['ts'])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        h = b['ts'].dt.floor('h')
        return pd.DataFrame(
            {'window_start': pd.concat([h, h - pd.Timedelta(hours=1)],
                                       ignore_index=True)})

    w = ev.map_batches(explode, batch_format='pandas')
    out = rel.collect_pandas(rel.two_phase_count(
        w, ['window_start'], alias='n_events'))
    if out.empty:
        return pd.DataFrame({
            'window_start': pd.Series(dtype='datetime64[us]'),
            'n_events': pd.Series(dtype='int64')})
    out['n_events'] = out['n_events'].astype('int64')
    return out.sort_values('window_start').reset_index(drop=True)


SQL_HOPPING_WINDOW = """
WITH h AS (SELECT date_trunc('hour', ts) AS h FROM events),
w AS (SELECT h AS window_start FROM h
      UNION ALL SELECT h - INTERVAL 1 HOUR FROM h)
SELECT window_start, CAST(count(*) AS BIGINT) AS n_events
FROM w GROUP BY window_start ORDER BY window_start
"""


@query(oracle=lambda: SQL_EVENT_TYPE_JACCARD)
def q_event_type_jaccard(sf_dir: str):
    """Pairwise Jaccard similarity between event types over their distinct
    user sets — the category-similarity operator (column/tag co-occurrence
    analysis). Distinct (type, user) pairs two-phase; co-occurrence pairs
    expand per user via a user-bucketed self-merge (bounded: each user
    contributes ≤ |types|² pairs and the type dimension is small); the
    per-type distinct counts are a constant-size dim collected driver-side
    (nation/region treatment). jaccard = inter / (na + nb − inter), a
    single floor-scaled division."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id'])
    d = rel.two_phase_count(ev, ['event_type', 'user_id'], alias='_c') \
        .drop_columns(['_c'])
    na = rel.collect_pandas(rel.two_phase_count(
        d, ['event_type'], alias='n_users'))

    def pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        m = bucket.merge(bucket, on='user_id')
        m = m[m['event_type_x'] < m['event_type_y']]
        return pd.DataFrame({'ta': m['event_type_x'].to_numpy(),
                             'tb': m['event_type_y'].to_numpy()})

    inter = rel.collect_pandas(rel.two_phase_count(
        rel.bucketed_map(d, ['user_id'], pairs), ['ta', 'tb'],
        alias='inter'))
    if inter.empty:
        return pd.DataFrame({'ta': pd.Series(dtype=object),
                             'tb': pd.Series(dtype=object),
                             'inter': pd.Series(dtype='int64'),
                             'jaccard': pd.Series(dtype='float64')})
    cnt = dict(zip(na['event_type'], na['n_users'].astype('int64')))
    inter['inter'] = inter['inter'].astype('int64')
    union = np.array([cnt[a] + cnt[b] for a, b in
                      zip(inter['ta'], inter['tb'])],
                     dtype=np.int64) - inter['inter'].to_numpy()
    inter['jaccard'] = np.floor(
        inter['inter'].to_numpy() / union * 1e6) / 1e6
    return inter.sort_values(['ta', 'tb']).reset_index(drop=True)


SQL_EVENT_TYPE_JACCARD = """
WITH d AS (SELECT DISTINCT event_type, user_id FROM events),
n AS (SELECT event_type, count(*) AS n FROM d GROUP BY event_type),
i AS (SELECT a.event_type AS ta, b.event_type AS tb,
             count(*) AS inter
      FROM d a JOIN d b ON a.user_id = b.user_id
                       AND a.event_type < b.event_type
      GROUP BY 1, 2)
SELECT ta, tb, CAST(inter AS BIGINT) AS inter,
       floor(inter * 1.0 / (na.n + nb.n - inter) * 1000000) / 1000000
         AS jaccard
FROM i JOIN n na ON na.event_type = ta JOIN n nb ON nb.event_type = tb
ORDER BY ta, tb
"""


@query(oracle=lambda: SQL_DEBOUNCED_EVENTS)
def q_debounced_user_events(sf_dir: str):
    """Windowed dedup / debounce (temporal.debounce_filter): drop events
    arriving within 24 h of the previous event of the same (user, type)
    under the (ts, event_id) total order — the LAG-gap stream-dedup
    formulation, one key-keyed exchange + a vectorized diff."""
    from ..stages.temporal import debounce_filter
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'user_id', 'event_type', 'ts'])
    out = rel.collect_pandas(debounce_filter(ev))
    if out.empty:
        return pd.DataFrame({'event_id': pd.Series(dtype='int64'),
                             'user_id': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'ts': pd.Series(dtype='datetime64[us]')})
    out = out.astype({'event_id': 'int64', 'user_id': 'int64'})
    return out.sort_values('event_id').reset_index(drop=True)


SQL_DEBOUNCED_EVENTS = """
WITH l AS (
  SELECT event_id, user_id, event_type, ts,
         ts - lag(ts) OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS d
  FROM events)
SELECT event_id, user_id, event_type, ts FROM l
WHERE d IS NULL OR d > INTERVAL 24 HOUR
ORDER BY event_id
"""


@query(oracle=lambda: SQL_VALUE_OUTLIERS)
def q_value_outliers_by_type(sf_dir: str):
    """Tukey IQR outlier filter per group — the data-cleaning operator:
    keep events whose cents fall outside [q25 − 1.5·IQR, q75 + 1.5·IQR]
    of their type. The quantile cuts come from the EXACT distributed
    histogram quantiles (relational.grouped_quantiles_exact — shuffle
    bounded by the distinct cents dim) and form a constant-size per-type
    dim collected driver-side (nation/region treatment) and broadcast
    into the filter. The fence test runs in pure integer arithmetic
    (2c < 2·q25 − 3·IQR) — no float 1.5× anywhere."""
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'event_type', 'value'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_id': b['event_id'], 'event_type': b['event_type'],
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    cents = ev.map_batches(to_cents, batch_format='pandas')
    cuts = rel.collect_pandas(rel.grouped_quantiles_exact(
        cents.drop_columns(['event_id']), ['event_type'], 'cents',
        qs=(0.25, 0.75)))
    lo = {t: 2 * q25 - 3 * (q75 - q25) for t, q25, q75 in
          zip(cuts['event_type'], cuts['q25'], cuts['q75'])}
    hi = {t: 2 * q75 + 3 * (q75 - q25) for t, q25, q75 in
          zip(cuts['event_type'], cuts['q25'], cuts['q75'])}

    def fence(b: pd.DataFrame) -> pd.DataFrame:
        c2 = 2 * b['cents'].to_numpy()
        lo_v = b['event_type'].map(lo).to_numpy(dtype='int64')
        hi_v = b['event_type'].map(hi).to_numpy(dtype='int64')
        return b[(c2 < lo_v) | (c2 > hi_v)]

    out = rel.collect_pandas(cents.map_batches(fence, batch_format='pandas'))
    if out.empty:
        return pd.DataFrame({'event_id': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'cents': pd.Series(dtype='int64')})
    out = out.astype({'event_id': 'int64', 'cents': 'int64'})
    return out.sort_values('event_id').reset_index(drop=True)


SQL_VALUE_OUTLIERS = """
WITH c AS (SELECT event_id, event_type,
                  CAST(floor(value * 100) AS BIGINT) AS cents FROM events),
q AS (SELECT event_type, quantile_disc(cents, 0.25) AS q25,
             quantile_disc(cents, 0.75) AS q75
      FROM c GROUP BY event_type)
SELECT event_id, c.event_type, cents
FROM c JOIN q ON c.event_type = q.event_type
WHERE 2 * cents < 2 * q25 - 3 * (q75 - q25)
   OR 2 * cents > 2 * q75 + 3 * (q75 - q25)
ORDER BY event_id
"""


@query(oracle=lambda: SQL_EVENT_TYPE_SALTED_JOIN)
def q_event_type_salted_join(sf_dir: str):
    """Hot-key salted join (relational.salted_join, salts=8): events joined
    to the per-type distinct-user dim on event_type — a 5-value key, i.e.
    maximal skew, the case where one shuffle_join bucket would hold 20% of
    the fact table. Each (type, salt) sub-bucket carries ~1/8 of a hot
    type's rows; the output aggregates per type so the gate stays small.
    Join-regime equality (salted ≡ unsalted) is pytest-pinned separately."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'user_id', 'value'])
    d = rel.two_phase_count(ev, ['event_type', 'user_id'], alias='_c') \
        .drop_columns(['_c'])
    dim = rel.two_phase_count(d, ['event_type'], alias='n_users')

    def ren(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={'event_type': '_et'})

    dim = dim.map_batches(ren, batch_format='pandas')

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': b['event_type'],
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    facts = ev.map_batches(to_cents, batch_format='pandas')
    j = rel.salted_join(facts, dim, 'event_type', '_et', salts=8)
    out = rel.collect_pandas(rel.two_phase_pandas_agg(
        j, ['event_type'],
        {'n_events': (None, 'count'), 'total_cents': ('cents', 'sum'),
         'n_users': ('n_users', 'max')}))
    out = out.astype({'n_events': 'int64', 'total_cents': 'int64',
                      'n_users': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


SQL_EVENT_TYPE_SALTED_JOIN = """
WITH d AS (SELECT event_type, count(DISTINCT user_id) AS n_users
           FROM events GROUP BY event_type)
SELECT e.event_type, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(e.value * 100) AS BIGINT)) AS BIGINT)
         AS total_cents,
       CAST(max(d.n_users) AS BIGINT) AS n_users
FROM events e JOIN d USING (event_type)
GROUP BY e.event_type ORDER BY e.event_type
"""


@query(oracle=lambda: SQL_BLOOM_SEMI_JOIN)
def q_bloom_semi_join_lineitems(sf_dir: str):
    """Bloom-prefiltered semi join (relational.bloom_semi_join): lineitems
    of URGENT orders — the dim's distinct keys become a broadcast Bloom
    filter that drops ~4/5 of the fact stream BEFORE the exact exchange
    (urgent ≈ 20% of orders), then the exact distinct-key semi join
    removes the false positives, so the result is EXACT and the oracle is
    the plain IN-subquery. The 100 TB shuffle-volume-reduction pattern as
    a first-class operator."""
    orders = rel.read_table(sf_dir, 'orders',
                            ['o_orderkey', 'o_orderpriority'])

    def urgent_only(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b['o_orderpriority'] == '1-URGENT', ['o_orderkey']]

    urgent = orders.map_batches(urgent_only, batch_format='pandas')
    li = rel.read_table(sf_dir, 'lineitem',
                        ['l_orderkey', 'l_extendedprice'])
    j = rel.bloom_semi_join(li, urgent, 'l_orderkey', 'o_orderkey',
                            m=1 << 17)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(b['l_extendedprice'].to_numpy() * 100) \
            .astype('int64')
        return pd.DataFrame({'n_items': [len(b)],
                             'cents': [int(cents.sum())]})

    parts = rel.collect_pandas(j.map_batches(part, batch_format='pandas'))
    return pd.DataFrame({'n_items': [int(parts['n_items'].sum())],
                         'cents': [int(parts['cents'].sum())]})


SQL_BLOOM_SEMI_JOIN = """
SELECT CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
         AS cents
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')
"""


@query(oracle=lambda: SQL_EVENT_TRANSITIONS)
def q_event_transition_counts(sf_dir: str):
    """First-order Markov transition counts over per-user event sequences
    (the sequence-mining primitive behind next-event prediction features):
    (prev_type → type) pairs under the (ts, event_id) total order per
    user — ONE user-keyed exchange emits the lag pairs vectorized
    (groupby shift, no Python loop), then a two-phase pair count."""
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'user_id', 'event_type', 'ts'])

    def lag_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['ts', 'event_id'], kind='mergesort')
        t = g['event_type'].to_numpy()
        if len(t) < 2:
            return pd.DataFrame({'from_type': [], 'to_type': []})
        return pd.DataFrame({'from_type': t[:-1], 'to_type': t[1:]})

    pairs = rel.grouped_map(ev, ['user_id'], lag_pairs)
    out = rel.collect_pandas(rel.two_phase_count(
        pairs, ['from_type', 'to_type'], alias='n'))
    if out.empty:
        return pd.DataFrame({'from_type': pd.Series(dtype=object),
                             'to_type': pd.Series(dtype=object),
                             'n': pd.Series(dtype='int64')})
    out['n'] = out['n'].astype('int64')
    return out.sort_values(['from_type', 'to_type']).reset_index(drop=True)


SQL_EVENT_TRANSITIONS = """
WITH l AS (SELECT user_id, event_type,
                  lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS prev
           FROM events)
SELECT prev AS from_type, event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM l WHERE prev IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


@query(oracle=lambda: SQL_DECAYED_SCORES)
def q_decayed_type_scores(sf_dir: str):
    """Time-decayed trending aggregate with INTEGER halving decay: each
    event contributes ``cents >> age_hours`` (a 1-hour half-life as a pure
    bit shift — the libm-free analogue of exp-decay scoring, so both
    engines agree bit-for-bit where pow(2.0, −x) would not). The global
    max-ts anchor is a broadcast scalar from a first streaming pass (the
    perplexity-cuts two-pass shape); shifts cap at 62 (older events
    contribute exactly 0)."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'ts', 'value'])

    def ts_max_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'m': [b['ts'].max()]})

    mx = rel.collect_pandas(ev.map_batches(
        ts_max_part, batch_format='pandas'))['m'].max()
    mx_us = int(pd.Timestamp(mx).value // 1000)

    def decay(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(b['value'].to_numpy() * 100).astype('int64')
        ts_us = b['ts'].astype('datetime64[us]').astype('int64').to_numpy()
        age_h = np.minimum((mx_us - ts_us) // 3_600_000_000, 62)
        return pd.DataFrame({'event_type': b['event_type'],
                             'dscore': cents >> age_h})

    out = rel.collect_pandas(rel.two_phase_sum(
        ev.map_batches(decay, batch_format='pandas'), ['event_type'],
        'dscore', alias='decayed_cents'))
    out['decayed_cents'] = out['decayed_cents'].astype('int64')
    return out.sort_values('event_type').reset_index(drop=True)


SQL_DECAYED_SCORES = """
WITH mx AS (SELECT max(ts) AS m FROM events),
s AS (SELECT event_type,
             CAST(floor(value * 100) AS BIGINT)
               >> CAST(least((epoch_us(m) - epoch_us(ts)) // 3600000000,
                             62) AS BIGINT) AS dscore
      FROM events, mx)
SELECT event_type, CAST(sum(dscore) AS BIGINT) AS decayed_cents
FROM s GROUP BY event_type ORDER BY event_type
"""


@query(oracle=lambda: SQL_TOP_WITH_TIES)
def q_top_value_events_with_ties(sf_dir: str, k: int = 3):
    """Per-group top-k WITH TIES (the RANK() ≤ k contract, vs
    topk_per_group's row_number head): every event tying the k-th cents
    value is kept. Scale shape: a per-batch with-ties combiner prunes each
    batch to its local rank ≤ k rows BEFORE the one type-keyed exchange
    (global top-k-with-ties ⊆ union of local top-k-with-ties), so the
    exchange is bounded by k×batches + local tie width, not row count."""
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'event_type', 'value'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_id': b['event_id'], 'event_type': b['event_type'],
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    def with_ties(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['cents', 'event_id'],
                          ascending=[False, True], kind='mergesort')
        c = g['cents'].to_numpy()
        # RANK(): 1 + count of strictly-greater values
        first_idx = np.searchsorted(-c, -c, side='left')
        rnk = first_idx + 1
        keep = rnk <= k
        return g[keep].assign(rnk=rnk[keep])

    local = ev.map_batches(to_cents, batch_format='pandas') \
        .map_batches(lambda b: pd.concat(
            [with_ties(g) for _, g in
             b.groupby('event_type', sort=False, dropna=False)],
            ignore_index=True) if len(b) else b,
            batch_format='pandas')
    out = rel.collect_pandas(rel.grouped_map(
        local.drop_columns(['rnk']), ['event_type'], with_ties))
    if out.empty:
        return pd.DataFrame({'event_id': pd.Series(dtype='int64'),
                             'event_type': pd.Series(dtype=object),
                             'cents': pd.Series(dtype='int64'),
                             'rnk': pd.Series(dtype='int64')})
    out = out.astype({'event_id': 'int64', 'cents': 'int64',
                      'rnk': 'int64'})
    return out.sort_values('event_id').reset_index(drop=True)


SQL_TOP_WITH_TIES = """
WITH c AS (SELECT event_id, event_type,
                  CAST(floor(value * 100) AS BIGINT) AS cents FROM events),
r AS (SELECT *, rank() OVER (PARTITION BY event_type
                             ORDER BY cents DESC) AS rnk FROM c)
SELECT event_id, event_type, cents, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= 3 ORDER BY event_id
"""


@query(oracle=lambda: SQL_VALUE_HISTOGRAM)
def q_value_histogram_by_type(sf_dir: str, nbins: int = 10):
    """Equi-width histogram per group over GLOBAL [min, max] cents bounds —
    the two-pass profile operator: pass 1 streams the global min/max as
    broadcast scalars (the decayed-scores anchor shape), pass 2 assigns
    integer bins with pure integer arithmetic
    ``(c − lo) · nbins // (hi − lo + 1)`` (no float width division) and
    counts two-phase. Different from value_band_counts, whose band edges
    are a FIXED dimension: here the bins adapt to the data."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'value'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': b['event_type'],
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    cents = ev.map_batches(to_cents, batch_format='pandas')

    def minmax_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'lo': [b['cents'].min()],
                             'hi': [b['cents'].max()]})

    mm = rel.collect_pandas(cents.map_batches(minmax_part,
                                              batch_format='pandas'))
    lo, hi = int(mm['lo'].min()), int(mm['hi'].max())
    span = hi - lo + 1

    def binify(b: pd.DataFrame) -> pd.DataFrame:
        c = b['cents'].to_numpy()
        return pd.DataFrame({'event_type': b['event_type'],
                             'bin': (c - lo) * nbins // span})

    out = rel.collect_pandas(rel.two_phase_count(
        cents.map_batches(binify, batch_format='pandas'),
        ['event_type', 'bin'], alias='n'))
    out = out.astype({'bin': 'int64', 'n': 'int64'})
    return out.sort_values(['event_type', 'bin']).reset_index(drop=True)


SQL_VALUE_HISTOGRAM = """
WITH c AS (SELECT event_type,
                  CAST(floor(value * 100) AS BIGINT) AS cents FROM events),
mm AS (SELECT min(cents) AS lo, max(cents) AS hi FROM c)
SELECT event_type,
       CAST((cents - lo) * 10 // (hi - lo + 1) AS BIGINT) AS bin,
       CAST(count(*) AS BIGINT) AS n
FROM c, mm GROUP BY 1, 2 ORDER BY 1, 2
"""


@query(oracle=lambda: SQL_USER_FIRST_TOUCH)
def q_user_first_touch(sf_dir: str):
    """First-touch attribution: each user's FIRST event type under the
    (ts, event_id) total order, alongside their lifetime cents — the
    argmin-per-group + grouped-sum pair fused into ONE user-keyed exchange
    (grouped_map), the marketing-attribution shape."""
    ev = rel.read_table(sf_dir, 'events',
                        ['event_id', 'user_id', 'event_type', 'ts', 'value'])

    def first_touch(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(['ts', 'event_id'], kind='mergesort')
        cents = np.floor(g['value'].to_numpy() * 100).astype('int64')
        return pd.DataFrame({
            'user_id': [g['user_id'].iloc[0]],
            'first_type': [g['event_type'].iloc[0]],
            'total_cents': [int(cents.sum())]})

    out = rel.collect_pandas(rel.grouped_map(ev, ['user_id'], first_touch))
    out = out.astype({'user_id': 'int64', 'total_cents': 'int64'})
    return out.sort_values('user_id').reset_index(drop=True)


SQL_USER_FIRST_TOUCH = """
WITH r AS (SELECT user_id, event_type,
                  CAST(floor(value * 100) AS BIGINT) AS cents,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS rn
           FROM events)
SELECT user_id,
       max(CASE WHEN rn = 1 THEN event_type END) AS first_type,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM r GROUP BY user_id ORDER BY user_id
"""


@query(oracle=lambda: SQL_DAILY_NEW_USERS)
def q_daily_new_users(sf_dir: str):
    """Growth analytics: per day, the number of FIRST-SEEN users — a
    two-phase per-user min(day) (partial min inside every batch, one
    user-keyed merge) followed by a small per-day count. The first-seen
    reduction is the cumulative-distinct primitive that a naive
    count(DISTINCT) over a growing window cannot stream."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'ts'])

    def to_day(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'user_id': b['user_id'],
                             'day': b['ts'].dt.floor('D')})

    days = ev.map_batches(to_day, batch_format='pandas')
    first = rel.two_phase_pandas_agg(days, ['user_id'],
                                     {'first_day': ('day', 'min')})
    out = rel.collect_pandas(rel.two_phase_count(
        first, ['first_day'], alias='new_users'))
    out['new_users'] = out['new_users'].astype('int64')
    return out.sort_values('first_day').reset_index(drop=True)


SQL_DAILY_NEW_USERS = """
SELECT first_day, CAST(count(*) AS BIGINT) AS new_users
FROM (SELECT user_id, min(date_trunc('day', ts)) AS first_day
      FROM events GROUP BY user_id)
GROUP BY first_day ORDER BY first_day
"""


@query(oracle=lambda: SQL_FK_INTEGRITY)
def q_fk_integrity_audit(sf_dir: str):
    """Cross-table data-quality audit: distinct orphan-key counts along
    the schema's FK edges (child keys with no parent) plus the reverse
    coverage edge (parents never referenced) — each edge is ONE
    distinct_except exchange reduced to a count, so the audit costs
    |edges| streamed passes and returns |edges| rows regardless of data
    size. The union of results is driver-assembled (constant-size)."""
    li = rel.read_table(sf_dir, 'lineitem', ['l_orderkey'])
    orders_k = rel.read_table(sf_dir, 'orders', ['o_orderkey'])
    orders_c = rel.read_table(sf_dir, 'orders', ['o_custkey'])
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey'])
    ev = rel.read_table(sf_dir, 'events', ['user_id'])

    edges = [
        ('customer_without_events',
         rel.distinct_except(cust, ev, 'c_custkey', 'user_id')),
        ('events_user_to_customer',
         rel.distinct_except(ev, cust, 'user_id', 'c_custkey')),
        ('lineitem_to_orders',
         rel.distinct_except(li, orders_k, 'l_orderkey', 'o_orderkey')),
        ('orders_to_customer',
         rel.distinct_except(orders_c, cust, 'o_custkey', 'c_custkey')),
    ]
    rows = [{'edge': name, 'n_orphans': int(ds.count())}
            for name, ds in edges]
    out = pd.DataFrame(rows)
    out['n_orphans'] = out['n_orphans'].astype('int64')
    return out.sort_values('edge').reset_index(drop=True)


SQL_FK_INTEGRITY = """
SELECT 'customer_without_events' AS edge, CAST(count(*) AS BIGINT) AS n_orphans
FROM (SELECT c_custkey FROM customer EXCEPT SELECT user_id FROM events)
UNION ALL
SELECT 'events_user_to_customer', CAST(count(*) AS BIGINT)
FROM (SELECT user_id FROM events EXCEPT SELECT c_custkey FROM customer)
UNION ALL
SELECT 'lineitem_to_orders', CAST(count(*) AS BIGINT)
FROM (SELECT l_orderkey FROM lineitem EXCEPT SELECT o_orderkey FROM orders)
UNION ALL
SELECT 'orders_to_customer', CAST(count(*) AS BIGINT)
FROM (SELECT o_custkey FROM orders EXCEPT SELECT c_custkey FROM customer)
ORDER BY edge
"""


@query(oracle=lambda: SQL_HDR_QUANTILES)
def q_hdr_value_quantiles(sf_dir: str):
    """Mergeable quantile SKETCH (functions/sketches.hdr_quantiles): HDR-
    histogram integer log buckets (≤ ~512 for any int64 domain, KB-sized
    mergeable state — the latency-percentile industry standard), two-phase
    bucket sums, integer cross-multiplied quantile selection. The
    100 TB quantile path when the distinct-value dim that bounds
    grouped_quantiles_exact is itself huge; answers are bucket lower
    bounds (≤ 12.5% relative error), bit-replayed by the SQL oracle."""
    from ..functions.sketches import hdr_quantiles
    ev = rel.read_table(sf_dir, 'events', ['value'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    out = hdr_quantiles(ev.map_batches(to_cents, batch_format='pandas'),
                        'cents')
    return out.astype({'n': 'int64', 'p50_lb': 'int64',
                       'p90_lb': 'int64', 'p99_lb': 'int64'})


SQL_HDR_QUANTILES = """
WITH c AS (SELECT CAST(floor(value * 100) AS BIGINT) AS v FROM events),
b AS (SELECT CASE WHEN v < 8 THEN v
             ELSE (length(bin(v)) - 1) * 8
                  + ((v >> greatest(length(bin(v)) - 4, 0)) & 7) END
        AS bucket
      FROM c),
h AS (SELECT bucket, count(*) AS n FROM b GROUP BY bucket),
t AS (SELECT bucket, sum(n) OVER (ORDER BY bucket) AS cum,
             sum(n) OVER () AS tot FROM h),
sel AS (SELECT
  min(CASE WHEN 2 * cum >= 1 * tot THEN bucket END) AS b50,
  min(CASE WHEN 10 * cum >= 9 * tot THEN bucket END) AS b90,
  min(CASE WHEN 100 * cum >= 99 * tot THEN bucket END) AS b99,
  max(tot) AS n
  FROM t)
SELECT CAST(n AS BIGINT) AS n,
  CAST(CASE WHEN b50 < 8 THEN b50
       ELSE (1 << (b50 // 8)) + (b50 % 8) * (1 << (b50 // 8 - 3)) END
       AS BIGINT) AS p50_lb,
  CAST(CASE WHEN b90 < 8 THEN b90
       ELSE (1 << (b90 // 8)) + (b90 % 8) * (1 << (b90 // 8 - 3)) END
       AS BIGINT) AS p90_lb,
  CAST(CASE WHEN b99 < 8 THEN b99
       ELSE (1 << (b99 // 8)) + (b99 % 8) * (1 << (b99 // 8 - 3)) END
       AS BIGINT) AS p99_lb
FROM sel
"""


@query(oracle=lambda: SQL_HDR_QUANTILES_BY_TYPE)
def q_hdr_quantiles_by_type(sf_dir: str):
    """Per-group HDR quantile sketch (sketches.hdr_grouped_quantiles) —
    the per-host/per-tenant latency-percentile shape: one (group, bucket)
    two-phase sum bounded by groups × ~512 buckets, per-group integer
    cross-multiplied selection inside the same bucketed exchange."""
    from ..functions.sketches import hdr_grouped_quantiles
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'value'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': b['event_type'],
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    out = rel.collect_pandas(hdr_grouped_quantiles(
        ev.map_batches(to_cents, batch_format='pandas'),
        'event_type', 'cents'))
    out = out.astype({'n': 'int64', 'p50_lb': 'int64',
                      'p90_lb': 'int64', 'p99_lb': 'int64'})
    return out.sort_values('event_type').reset_index(drop=True)


SQL_HDR_QUANTILES_BY_TYPE = """
WITH c AS (SELECT event_type,
                  CAST(floor(value * 100) AS BIGINT) AS v FROM events),
b AS (SELECT event_type, CASE WHEN v < 8 THEN v
             ELSE (length(bin(v)) - 1) * 8
                  + ((v >> greatest(length(bin(v)) - 4, 0)) & 7) END
        AS bucket
      FROM c),
h AS (SELECT event_type, bucket, count(*) AS n FROM b GROUP BY 1, 2),
t AS (SELECT event_type, bucket,
             sum(n) OVER (PARTITION BY event_type ORDER BY bucket) AS cum,
             sum(n) OVER (PARTITION BY event_type) AS tot FROM h),
sel AS (SELECT event_type,
  min(CASE WHEN 2 * cum >= 1 * tot THEN bucket END) AS b50,
  min(CASE WHEN 10 * cum >= 9 * tot THEN bucket END) AS b90,
  min(CASE WHEN 100 * cum >= 99 * tot THEN bucket END) AS b99,
  max(tot) AS n
  FROM t GROUP BY event_type)
SELECT event_type, CAST(n AS BIGINT) AS n,
  CAST(CASE WHEN b50 < 8 THEN b50
       ELSE (1 << (b50 // 8)) + (b50 % 8) * (1 << (b50 // 8 - 3)) END
       AS BIGINT) AS p50_lb,
  CAST(CASE WHEN b90 < 8 THEN b90
       ELSE (1 << (b90 // 8)) + (b90 % 8) * (1 << (b90 // 8 - 3)) END
       AS BIGINT) AS p90_lb,
  CAST(CASE WHEN b99 < 8 THEN b99
       ELSE (1 << (b99 // 8)) + (b99 % 8) * (1 << (b99 // 8 - 3)) END
       AS BIGINT) AS p99_lb
FROM sel ORDER BY event_type
"""


@query(oracle=lambda: SQL_COLUMN_PROFILE)
def q_column_profile_orders(sf_dir: str):
    """Per-column data-profiling audit (relational.column_profile) over
    the orders table: rows / nulls / exact distinct / min / max per
    column in 1 + |columns| streamed passes, |columns| output rows."""
    cols = ['o_custkey', 'o_orderkey', 'o_orderpriority', 'o_orderstatus',
            'o_totalprice']
    ds = rel.read_table(sf_dir, 'orders', cols)
    return rel.column_profile(ds, cols)


def _SQL_PROFILE_COL(col: str) -> str:
    return f"""
SELECT '{col}' AS col,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count({col}) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT {col}) AS BIGINT) AS n_distinct,
       CAST(min({col}) AS VARCHAR) AS min_str,
       CAST(max({col}) AS VARCHAR) AS max_str
FROM orders"""


SQL_COLUMN_PROFILE = " UNION ALL ".join(
    _SQL_PROFILE_COL(c) for c in
    ['o_custkey', 'o_orderkey', 'o_orderpriority', 'o_orderstatus',
     'o_totalprice']) + " ORDER BY col"


@query(oracle=lambda: SQL_USER_EVENT_ENTROPY)
def q_user_event_entropy(sf_dir: str):
    """Per-user Shannon entropy (nats) of the event-type distribution
    (relational.grouped_entropy): the source-diversity signal of
    curation pipelines. Integer counts collapse two-phase first; ONE
    user-keyed exchange computes H = ln(n) − Σ c·ln(c)/n; floats only in
    the final floor-scaled expression (the PMI/idf ln precedent)."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type'])
    out = rel.collect_pandas(rel.grouped_entropy(ev, 'user_id', 'event_type'))
    return out.sort_values('user_id').reset_index(drop=True)


SQL_USER_EVENT_ENTROPY = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2)
SELECT user_id,
       CAST(sum(c) AS BIGINT) AS n_rows,
       CAST(count(*) AS BIGINT) AS n_values,
       floor((ln(CAST(sum(c) AS DOUBLE))
              - sum(CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE)))
                / CAST(sum(c) AS DOUBLE)) * 1e6) / 1e6 AS entropy
FROM c GROUP BY user_id ORDER BY user_id
"""


@query(oracle=lambda: SQL_CORR_VALUE_HOUR)
def q_corr_value_hour_by_type(sf_dir: str):
    """Grouped Pearson correlation (relational.grouped_corr) between
    event value and hour-of-day per event type — exact integer moment
    sums (value floor-quantized ×1000), float only in the single final
    corr expression, floor-scaled 6dp."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'value', 'ts'])

    def add_hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'event_type': b['event_type'],
                             'value': b['value'],
                             'hour': b['ts'].dt.hour.astype('int64')})

    withhour = ev.map_batches(add_hour, batch_format='pandas')
    out = rel.collect_pandas(
        rel.grouped_corr(withhour, 'event_type', 'value', 'hour'))
    return out.sort_values('event_type').reset_index(drop=True)


SQL_CORR_VALUE_HOUR = """
WITH q AS (
  SELECT event_type,
         CAST(floor(value * 1000) AS BIGINT) AS x,
         CAST(extract(hour FROM ts) AS BIGINT) AS y
  FROM events),
m AS (
  SELECT event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(x * x) AS HUGEINT) AS sxx,
         CAST(sum(y) AS HUGEINT) AS sy, CAST(sum(y * y) AS HUGEINT) AS syy,
         CAST(sum(x * y) AS HUGEINT) AS sxy
  FROM q GROUP BY event_type)
SELECT event_type, CAST(n AS BIGINT) AS n,
       floor(CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST((n * sxx - sx * sx) * (n * syy - sy * sy) AS DOUBLE))
             * 1e6) / 1e6 AS corr
FROM m
WHERE (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
ORDER BY event_type
"""


@query(oracle=lambda: SQL_USER_SYMMETRIC_DIFF)
def q_user_symmetric_diff(sf_dir: str):
    """Symmetric difference of the customer/user key domains — both
    EXCEPT directions (relational.distinct_except, one exchange each)
    tagged with their side, completing the set-op family
    (INTERSECT/EXCEPT already on the board)."""
    cust = rel.read_table(sf_dir, 'customer', ['c_custkey'])
    ev = rel.read_table(sf_dir, 'events', ['user_id'])
    a = rel.distinct_except(cust, ev, 'c_custkey', 'user_id', alias='uid')
    b = rel.distinct_except(ev, cust, 'user_id', 'c_custkey', alias='uid')

    def tag(side: str):
        def f(d: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({'uid': d['uid'].astype('int64'),
                                 'side': np.full(len(d), side, dtype=object)})
        return f

    rows = [r for ds_, s in ((a, 'customer_only'), (b, 'events_only'))
            for r in rel.collect_rows(
                ds_.map_batches(tag(s), batch_format='pandas'))]
    out = pd.DataFrame(rows, columns=['uid', 'side'])
    out['uid'] = out['uid'].astype('int64')
    out['side'] = out['side'].astype(object)
    return out.sort_values(['side', 'uid']).reset_index(drop=True)


SQL_USER_SYMMETRIC_DIFF = """
SELECT uid, 'customer_only' AS side
FROM (SELECT c_custkey AS uid FROM customer EXCEPT SELECT user_id FROM events)
UNION ALL
SELECT uid, 'events_only'
FROM (SELECT user_id AS uid FROM events EXCEPT SELECT c_custkey FROM customer)
ORDER BY side, uid
"""


@query(oracle=lambda: SQL_PARETO_ORDERS)
def q_pareto_orders(sf_dir: str):
    """Grouped skyline (relational.pareto_front): per order priority the
    orders not dominated on (maximize totalprice, minimize orderdate).
    Local per-batch fronts pre-prune (dominance is transitive), ONE
    priority-keyed exchange computes the exact front."""
    ds = rel.read_table(sf_dir, 'orders',
                        ['o_orderkey', 'o_orderpriority', 'o_totalprice',
                         'o_orderdate'])

    def to_day(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'o_orderpriority': b['o_orderpriority'],
            'o_orderkey': b['o_orderkey'].astype('int64'),
            'o_totalprice': b['o_totalprice'],
            'day': (b['o_orderdate'].astype('int64')
                    // 86_400_000_000).astype('int64')})

    front = rel.pareto_front(ds.map_batches(to_day, batch_format='pandas'),
                             'o_orderpriority', 'o_totalprice', 'day')
    out = rel.collect_pandas(front)
    out['o_totalprice'] = out['o_totalprice'].round(2)
    return out.sort_values(['o_orderpriority', 'o_orderkey']) \
        .reset_index(drop=True)[['o_orderpriority', 'o_orderkey',
                                 'o_totalprice', 'day']]


SQL_PARETO_ORDERS = """
WITH o AS (
  SELECT o_orderpriority, o_orderkey, o_totalprice,
         CAST(floor(o_totalprice * 100) AS BIGINT) AS pq,
         CAST(epoch(o_orderdate) AS BIGINT) // 86400 AS day
  FROM orders)
SELECT o_orderpriority, o_orderkey, round(o_totalprice, 2) AS o_totalprice,
       day
FROM o a
WHERE NOT EXISTS (
  SELECT 1 FROM o b
  WHERE b.o_orderpriority = a.o_orderpriority
    AND b.pq >= a.pq AND b.day <= a.day
    AND (b.pq > a.pq OR b.day < a.day))
ORDER BY o_orderpriority, o_orderkey
"""


@query(oracle=lambda: SQL_CDC_CHUNK_DEDUP)
def q_cdc_chunk_dedup(sf_dir: str):
    """Content-defined-chunking dedup (dedup.cdc_chunk_dedup): md5
    boundary test (== DuckDB md5_number_upper, full SQL replay), chunks
    shared by ≥2 distinct docs with doc/occurrence counts."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])
    out = rel.collect_pandas(dd.cdc_chunk_dedup(docs))
    if out.empty:
        return pd.DataFrame({'chunk_hash': pd.Series(dtype=object),
                             'n_docs': pd.Series(dtype='int64'),
                             'n_occ': pd.Series(dtype='int64')})
    return out.sort_values('chunk_hash').reset_index(drop=True)


SQL_CDC_CHUNK_DEDUP = """
WITH pos AS (
  SELECT doc_id, text, length(text) AS n FROM documents
  WHERE text IS NOT NULL AND length(text) > 0),
bnd AS (
  SELECT doc_id, text, n,
         list_sort(list_filter(range(8, n + 1),
             i -> md5_number_upper(substr(text, i - 7, 8)) % 64 = 0)) AS bs
  FROM pos),
cuts AS (
  SELECT doc_id, text,
         list_concat([0], bs) AS starts,
         list_concat(bs, [n]) AS ends
  FROM bnd),
chunks AS (
  SELECT doc_id,
         CAST(md5_number_upper(
             substr(text, starts[u.i] + 1, ends[u.i] - starts[u.i]))
           AS VARCHAR) AS chunk_hash
  FROM cuts, unnest(range(1, len(starts) + 1)) AS u(i)
  WHERE ends[u.i] > starts[u.i])
SELECT chunk_hash,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_occ
FROM chunks
GROUP BY chunk_hash HAVING count(DISTINCT doc_id) >= 2
ORDER BY chunk_hash
"""


@query(oracle=lambda: SQL_CHI2_KEYWORDS)
def q_chi2_keywords_by_lang(sf_dir: str):
    """Per-language chi-squared keyword saliency
    (textstats.chi2_keyword_saliency): top-5 tokens per lang; exact
    integer contingency arithmetic, one floor-scaled final division."""
    docs = rel.read_table(sf_dir, 'documents', ['lang', 'text'])
    out = rel.collect_pandas(ts.chi2_keyword_saliency(docs, k=5))
    return out.sort_values(['lang', 'token']).reset_index(drop=True)


SQL_CHI2_KEYWORDS = """
WITH toks AS (
  SELECT lang, unnest(string_split(text, ' ')) AS token FROM documents),
tc AS (
  SELECT lang, token, CAST(count(*) AS HUGEINT) AS a
  FROM toks WHERE token <> '' GROUP BY 1, 2),
tt AS (SELECT token, sum(a) AS t FROM tc GROUP BY 1),
lt AS (SELECT lang, sum(a) AS L FROM tc GROUP BY 1),
n AS (SELECT sum(a) AS N FROM tc),
s AS (
  SELECT tc.lang, tc.token,
         floor(CAST(n.N * (tc.a * (n.N - tt.t - lt.L + tc.a)
                           - (tt.t - tc.a) * (lt.L - tc.a))
                        * (tc.a * (n.N - tt.t - lt.L + tc.a)
                           - (tt.t - tc.a) * (lt.L - tc.a)) AS DOUBLE)
               / CAST(tt.t * (n.N - tt.t) * lt.L * (n.N - lt.L) AS DOUBLE)
               * 1e6) / 1e6 AS chi2
  FROM tc JOIN tt USING (token) JOIN lt USING (lang) CROSS JOIN n
  WHERE tt.t < n.N AND lt.L < n.N),
r AS (
  SELECT lang, token, chi2,
         row_number() OVER (PARTITION BY lang
                            ORDER BY chi2 DESC, token) AS rn
  FROM s)
SELECT lang, token, chi2 FROM r WHERE rn <= 5 ORDER BY lang, token
"""


@query(oracle=lambda: SQL_SHORTEST_PATHS)
def q_shortest_path_costs(sf_dir: str, rounds: int = 4):
    """Bounded Bellman-Ford (graph.shortest_paths_int) over the weighted
    event-type transition graph from the lexicographically-first type:
    min integer path cost (cost = 1e6 // transition count) over paths of
    ≤4 edges; one frontier⋈edges exchange + node-keyed min per round."""
    from ray.data.aggregate import Min

    from ..stages.graph import shortest_paths_int, transition_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    edges = transition_edges(ev).materialize()
    agg = edges.aggregate(Min('src', alias_name='m'))
    if not agg or agg.get('m') is None:
        return pd.DataFrame({'node': pd.Series(dtype=object),
                             'cost': pd.Series(dtype='int64')})
    out = rel.collect_pandas(
        shortest_paths_int(edges, agg['m'], rounds=rounds))
    out['cost'] = out['cost'].astype('int64')
    return out.sort_values('node').reset_index(drop=True)


SQL_SHORTEST_PATHS = """
WITH RECURSIVE seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events),
e AS (SELECT src, dst, 1000000 // CAST(count(*) AS BIGINT) AS cost
      FROM seq WHERE dst IS NOT NULL GROUP BY src, dst),
src0 AS (SELECT min(src) AS s FROM e),
walk(node, cost, hops) AS (
  SELECT s, CAST(0 AS BIGINT), 0 FROM src0
  UNION ALL
  SELECT e.dst, w.cost + e.cost, w.hops + 1
  FROM walk w JOIN e ON e.src = w.node
  WHERE w.hops < 4)
SELECT node, CAST(min(cost) AS BIGINT) AS cost
FROM walk GROUP BY node ORDER BY node
"""


@query(oracle=lambda: SQL_EVENT_TYPE_LIFT)
def q_event_type_lift(sf_dir: str):
    """Association rules (relational.association_lift) over user baskets
    of event types: per ordered pair the basket co-count plus
    support / confidence / lift from exact integer counts."""
    ev = rel.read_table(sf_dir, 'events', ['user_id', 'event_type'])
    out = rel.collect_pandas(
        rel.association_lift(ev, 'user_id', 'event_type'))
    return out.sort_values(['item_a', 'item_b']).reset_index(drop=True)


SQL_EVENT_TYPE_LIFT = """
WITH b AS (SELECT DISTINCT user_id, event_type FROM events),
n AS (SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS nb FROM b),
ic AS (SELECT event_type, CAST(count(*) AS BIGINT) AS ni FROM b GROUP BY 1),
co AS (
  SELECT a.event_type AS item_a, c.event_type AS item_b,
         CAST(count(*) AS BIGINT) AS n_ab
  FROM b a JOIN b c ON a.user_id = c.user_id
  WHERE a.event_type <> c.event_type
  GROUP BY 1, 2)
SELECT co.item_a, co.item_b, co.n_ab,
       floor(CAST(co.n_ab AS DOUBLE) / n.nb * 1e6) / 1e6 AS support,
       floor(CAST(co.n_ab AS DOUBLE) / ia.ni * 1e6) / 1e6 AS confidence,
       floor(CAST(co.n_ab * n.nb AS DOUBLE)
             / CAST(ia.ni * ib.ni AS DOUBLE) * 1e6) / 1e6 AS lift
FROM co
JOIN ic ia ON ia.event_type = co.item_a
JOIN ic ib ON ib.event_type = co.item_b
CROSS JOIN n
ORDER BY item_a, item_b
"""


@query(oracle=lambda: SQL_TRANSITION_GAPS)
def q_transition_gap_stats(sf_dir: str):
    """Time-to-next-event stats per transition pair
    (temporal.transition_gap_stats): count and min/max/truncated-mean
    gap in microseconds — all-integer arithmetic."""
    from ..stages.temporal import transition_gap_stats
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    out = rel.collect_pandas(transition_gap_stats(ev))
    return out.sort_values(['from_type', 'to_type']).reset_index(drop=True)


SQL_TRANSITION_GAPS = """
WITH seq AS (
  SELECT event_type AS from_type,
         lead(event_type) OVER w AS to_type,
         lead(epoch_us(ts)) OVER w - epoch_us(ts) AS gap
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT from_type, to_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(gap) AS BIGINT) // CAST(count(*) AS BIGINT) AS mean_gap_us,
       CAST(min(gap) AS BIGINT) AS min_gap_us,
       CAST(max(gap) AS BIGINT) AS max_gap_us
FROM seq WHERE to_type IS NOT NULL
GROUP BY from_type, to_type ORDER BY from_type, to_type
"""


@query(oracle=lambda: SQL_TOKEN_POSTINGS)
def q_token_postings(sf_dir: str):
    """Inverted-index postings sink: tokens with document frequency ≥ 2
    and their CAPPED comma-joined doc-id postings (first 10 in
    lexicographic order — relational.string_agg_per_group cap=10,
    posting-list truncation), the search-index build composed from the
    board's distinct + string-agg exchanges."""
    docs = rel.read_table(sf_dir, 'documents', ['doc_id', 'text'])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        ids, toks = [], []
        for did, text in zip(b['doc_id'], b['text']):
            for t in set(ts._split_tokens(text)):
                ids.append(did)
                toks.append(t)
        return pd.DataFrame({'doc_id': np.array(ids, dtype=np.int64),
                             'token': np.array(toks, dtype=object)})

    pairs = docs.map_batches(explode, batch_format='pandas').materialize()
    agg = rel.string_agg_per_group(pairs, 'token', 'doc_id',
                                   alias='postings', cap=10)
    df_counts = rel.two_phase_count(
        pairs.map_batches(lambda b: b.drop_duplicates(), batch_format='pandas'),
        ['token'], alias='df').map_batches(
        lambda b: b.astype({'df': 'int64'}), batch_format='pandas')
    joined = rel.shuffle_join(agg, df_counts, left_on='token',
                              right_on='token', how='inner')

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b['df'] >= 2].copy()
        out['df'] = out['df'].astype('int64')
        return out[['token', 'df', 'postings']]

    out = rel.collect_pandas(joined.map_batches(keep, batch_format='pandas'))
    if out.empty:
        return pd.DataFrame({'token': pd.Series(dtype=object),
                             'df': pd.Series(dtype='int64'),
                             'postings': pd.Series(dtype=object)})
    return out.sort_values('token').reset_index(drop=True)


SQL_TOKEN_POSTINGS = """
WITH pairs AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents),
p AS (SELECT doc_id, token FROM pairs WHERE token <> '')
SELECT token,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
       array_to_string(
         list_sort(list(DISTINCT CAST(doc_id AS VARCHAR)))[1:10],
         ',') AS postings
FROM p
GROUP BY token
HAVING count(DISTINCT doc_id) >= 2
ORDER BY token
"""


@query(oracle=lambda: SQL_HITS)
def q_hits_event_types(sf_dir: str, iters: int = 2):
    """Integer fixed-point HITS hubs/authorities (graph.hits_int) over
    the distinct event-type transition edges; max-normalized exact
    integer chain, SQL-replayed as materialized CTE rounds."""
    from ..stages.graph import hits_int, transition_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    edges = transition_edges(ev)
    out = rel.collect_pandas(hits_int(edges, iters=iters))
    out['hub_q'] = out['hub_q'].astype('int64')
    out['auth_q'] = out['auth_q'].astype('int64')
    return out.sort_values('node').reset_index(drop=True)


def _sql_hits(iters: int = 2, scale: int = 1_000_000) -> str:
    parts = ["""
WITH seq AS MATERIALIZED (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events),
e AS MATERIALIZED (SELECT DISTINCT src, dst FROM seq WHERE dst IS NOT NULL),
nodes AS MATERIALIZED (SELECT src AS node FROM e UNION SELECT dst FROM e),
h0 AS MATERIALIZED (SELECT node, CAST({s} AS HUGEINT) AS s FROM nodes)"""
             .format(s=scale)]
    prev_hub = 'h0'
    for i in range(1, iters + 1):
        for tag, join_col, emit_col, src_cte in (
                (f'a{i}', 'src', 'dst', prev_hub),
                (f'h{i}', 'dst', 'src', f'a{i}')):
            parts.append("""
{t}r AS MATERIALIZED (
  SELECT e.{emit} AS node, sum({src}.s) AS r
  FROM e JOIN {src} ON {src}.node = e.{join} GROUP BY 1),
{t}m AS MATERIALIZED (SELECT max(r) AS m FROM {t}r),
{t} AS MATERIALIZED (
  SELECT n.node,
         CAST(COALESCE({t}r.r * {s} // {t}m.m, 0) AS HUGEINT) AS s
  FROM nodes n LEFT JOIN {t}r USING (node) CROSS JOIN {t}m)""".format(
                t=tag, emit=emit_col, join=join_col, src=src_cte, s=scale))
        prev_hub = f'h{i}'
    parts.append("""
SELECT n.node, CAST(h{i}.s AS BIGINT) AS hub_q,
       CAST(a{i}.s AS BIGINT) AS auth_q
FROM nodes n JOIN h{i} USING (node) JOIN a{i} USING (node)
ORDER BY node""".format(i=iters))
    return ','.join(parts[:1]) + ',' + ','.join(parts[1:-1]) + parts[-1]


SQL_HITS = _sql_hits()


def _sql_hll_regs(src_select: str) -> str:
    """Registers CTE body for an arbitrary distinct-VARCHAR source —
    the SQL_HLL_REGISTERS chain parametrized on its value source."""
    return f"""
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(max(65 - length(bin(CAST(rest AS UBIGINT)))) AS BIGINT) AS rank
FROM (
  SELECT h >> 52 AS bucket, ((h % 4503599627370496) * 4096 + 2048) AS rest
  FROM (
    SELECT xor(h, h >> 27) AS h FROM (
      SELECT (((((h) >> 32) * CAST(13787848793156543929 AS HUGEINT)) % 4294967296) * 4294967296 + ((h) % 4294967296) * CAST(13787848793156543929 AS HUGEINT)) % 18446744073709551616 AS h
      FROM (
        SELECT xor(h, h >> 31) AS h FROM (
          SELECT (((((h) >> 32) * CAST(11400714819323198485 AS HUGEINT)) % 4294967296) * 4294967296 + ((h) % 4294967296) * CAST(11400714819323198485 AS HUGEINT)) % 18446744073709551616 AS h
          FROM (SELECT md5_number_upper(v) AS h FROM ({src_select})) t0
        ) t1
      ) t2
    ) t3
  ) t4
) fin GROUP BY bucket"""


def _sql_hll_est_ctes(tag: str, regs_cte: str) -> str:
    """Estimate chain (exact HUGEINT register sum → fixed-order DOUBLE
    formula, the hll_estimate_deterministic contract) named ``est_{tag}``
    over an existing registers CTE."""
    return f"""
agg_{tag} AS (SELECT count(*) AS nonzero,
                     sum(CAST(1 AS BIGINT) << (63 - rank)) AS s_nz
              FROM {regs_cte}),
calc_{tag} AS (SELECT (4096 - nonzero) AS zeros,
                      CAST(coalesce(s_nz, 0) AS HUGEINT)
                        + CAST(4096 - nonzero AS HUGEINT)
                          * 9223372036854775808 AS s
               FROM agg_{tag}),
est_{tag} AS (SELECT CASE WHEN (0.7213 / (1 + 1.079 / 4096.0)) * 4096.0
                               * 4096.0 * 9223372036854775808.0
                               / CAST(s AS DOUBLE) <= 2.5 * 4096.0
                              AND zeros > 0
                          THEN 4096.0 * ln(4096.0 / zeros)
                          ELSE (0.7213 / (1 + 1.079 / 4096.0)) * 4096.0
                               * 4096.0 * 9223372036854775808.0
                               / CAST(s AS DOUBLE) END AS e
              FROM calc_{tag})"""


@query(oracle=lambda: SQL_HLL_OVERLAP)
def q_hll_overlap_users(sf_dir: str):
    """HLL set-operation estimates (sketches.hll_registers + the
    deterministic estimator): distinct-count estimates for order
    customers (A), event users (B), their UNION (per-bucket register
    max — the mergeable-sketch union law) and the inclusion–exclusion
    OVERLAP estimate |A∩B| ≈ |A|+|B|−|A∪B| — the cross-crawl audience-
    overlap primitive, computed without ever co-shuffling the two key
    sets. Register state is md5-exact on both engines; estimates use the
    fixed-order float formula (float-bit parity, SQL_APPROX_DISTINCT
    precedent)."""
    from ..functions.hashing import md5_hash64
    from ..functions.sketches import hll_estimate_deterministic, hll_registers
    orders = rel.read_table(sf_dir, 'orders', ['o_custkey'])
    events = rel.read_table(sf_dir, 'events', ['user_id'])
    ra = hll_registers(orders, 'o_custkey', p=12, hash_fn=md5_hash64)
    rb = hll_registers(events, 'user_id', p=12, hash_fn=md5_hash64)
    # union = per-bucket max over the two register tables (4096-row dim)
    both = pd.concat([ra, rb])
    ru = both.groupby('bucket', sort=False)['rank'].max().reset_index()
    ea = hll_estimate_deterministic(ra['rank'].tolist(), p=12)
    eb = hll_estimate_deterministic(rb['rank'].tolist(), p=12)
    eu = hll_estimate_deterministic(ru['rank'].tolist(), p=12)
    return pd.DataFrame({'est_a': [round(ea, 6)], 'est_b': [round(eb, 6)],
                         'est_union': [round(eu, 6)],
                         'est_overlap': [round(ea + eb - eu, 6)]})


SQL_HLL_OVERLAP = f"""
WITH regs_a AS ({_sql_hll_regs(
    "SELECT DISTINCT CAST(o_custkey AS VARCHAR) AS v FROM orders")}),
regs_b AS ({_sql_hll_regs(
    "SELECT DISTINCT CAST(user_id AS VARCHAR) AS v FROM events")}),
regs_u AS (SELECT bucket, max(rank) AS rank
           FROM (SELECT * FROM regs_a UNION ALL SELECT * FROM regs_b)
           GROUP BY bucket),
{_sql_hll_est_ctes('a', 'regs_a')},
{_sql_hll_est_ctes('b', 'regs_b')},
{_sql_hll_est_ctes('u', 'regs_u')}
SELECT round(est_a.e, 6) AS est_a, round(est_b.e, 6) AS est_b,
       round(est_u.e, 6) AS est_union,
       round(est_a.e + est_b.e - est_u.e, 6) AS est_overlap
FROM est_a CROSS JOIN est_b CROSS JOIN est_u
"""


@query(oracle=lambda: SQL_VALUE_MAD)
def q_value_mad_outliers(sf_dir: str):
    """Median-absolute-deviation outlier detection per event type — the
    robust-statistics complement of the IQR filter already on the board:
    exact median and MAD from (group, cents) histograms (shuffle bounded
    by the distinct value dim), then a stateless flag pass counting rows
    with |x − med| > 3·MAD. Medians are a |types|-row dim broadcast into
    the deviation map, never a row-keyed join."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'value'])

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': b['event_type'],
            'c': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    cents = ev.map_batches(to_cents, batch_format='pandas').materialize()
    med = rel.collect_pandas(rel.grouped_quantiles_exact(
        cents, ['event_type'], 'c', qs=(0.5,), alias_prefix='m'))
    med_of = dict(zip(med['event_type'], med['m50'].map(int)))

    def dev(b: pd.DataFrame) -> pd.DataFrame:
        m = b['event_type'].map(med_of).to_numpy(dtype='int64')
        return pd.DataFrame({'event_type': b['event_type'],
                             'd': np.abs(b['c'].to_numpy() - m)})

    devs = cents.map_batches(dev, batch_format='pandas').materialize()
    mad = rel.collect_pandas(rel.grouped_quantiles_exact(
        devs, ['event_type'], 'd', qs=(0.5,), alias_prefix='mad'))
    mad_of = dict(zip(mad['event_type'], mad['mad50'].map(int)))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        lim = b['event_type'].map(mad_of).to_numpy(dtype='int64') * 3
        return b[b['d'].to_numpy() > lim]

    n_out = rel.collect_pandas(rel.two_phase_count(
        devs.map_batches(flag, batch_format='pandas'),
        ['event_type'], alias='n_outliers'))
    out = med.rename(columns={'m50': 'med_cents'})
    out['mad_cents'] = out['event_type'].map(mad_of)
    counts = dict(zip(n_out['event_type'], n_out['n_outliers'].map(int))) \
        if not n_out.empty else {}
    out['n_outliers'] = out['event_type'].map(
        lambda t: counts.get(t, 0))
    for c in ('med_cents', 'mad_cents', 'n_outliers'):
        out[c] = out[c].astype('int64')
    return out.sort_values('event_type').reset_index(drop=True)


SQL_VALUE_MAD = """
WITH c AS MATERIALIZED (
  SELECT event_type, CAST(floor(value * 100) AS BIGINT) AS c FROM events),
med AS MATERIALIZED (
  SELECT event_type, quantile_disc(c, 0.5) AS m FROM c GROUP BY 1),
dev AS MATERIALIZED (
  SELECT c.event_type, abs(c.c - med.m) AS d
  FROM c JOIN med USING (event_type)),
mad AS MATERIALIZED (
  SELECT event_type, quantile_disc(d, 0.5) AS mad FROM dev GROUP BY 1)
SELECT med.event_type,
       CAST(med.m AS BIGINT) AS med_cents,
       CAST(mad.mad AS BIGINT) AS mad_cents,
       CAST((SELECT count(*) FROM dev
             WHERE dev.event_type = med.event_type
               AND dev.d > 3 * mad.mad) AS BIGINT) AS n_outliers
FROM med JOIN mad USING (event_type)
ORDER BY med.event_type
"""


@query(oracle=lambda: SQL_WEEKLY_ACTIVE)
def q_weekly_active_users(sf_dir: str):
    """Rolling 7-day distinct users per active day
    (temporal.rolling_distinct_count): the WAU engagement metric replayed
    as the window fan-out — distinct (day, user) pairs replicate to their
    ≤7 windows and dedupe two-phase; a sliding count(DISTINCT) that
    streams."""
    from ..stages.temporal import rolling_distinct_count
    ev = rel.read_table(sf_dir, 'events', ['ts', 'user_id'])
    out = rel.collect_pandas(rolling_distinct_count(ev, window_days=7))
    if out.empty:
        return pd.DataFrame({'day': pd.Series(dtype='int64'),
                             'n_distinct': pd.Series(dtype='int64')})
    return out.sort_values('day').reset_index(drop=True)


SQL_WEEKLY_ACTIVE = """
WITH dp AS (
  SELECT DISTINCT CAST(epoch(ts) AS BIGINT) // 86400 AS day, user_id
  FROM events),
anchors AS (SELECT DISTINCT day FROM dp)
SELECT a.day, CAST(count(DISTINCT dp.user_id) AS BIGINT) AS n_distinct
FROM anchors a JOIN dp ON dp.day BETWEEN a.day - 6 AND a.day
GROUP BY a.day ORDER BY a.day
"""


@query(oracle=lambda: SQL_WEIGHTED_SAMPLE_BY_LANG)
def q_weighted_sample_by_lang(sf_dir: str, k: int = 10):
    """Per-group deterministic weighted sampling
    (relational.weighted_race_topk_per_group): top-10 docs per language
    by the length-weighted race key — the stratified variant of
    weighted_sample_docs, per-batch per-group bottom-k combiners before
    ONE lang-keyed exchange."""
    docs = rel.read_table(sf_dir, 'documents',
                          ['lang', 'doc_id', 'n_chars'])
    out = rel.collect_pandas(rel.weighted_race_topk_per_group(
        docs, 'lang', 'doc_id', 'n_chars', k, salt='wrs:42'))
    if out.empty:
        return pd.DataFrame({'lang': pd.Series(dtype=object),
                             'doc_id': pd.Series(dtype='int64'),
                             'n_chars': pd.Series(dtype='int64'),
                             'race_key': pd.Series(dtype='float64')})
    out = out.astype({'doc_id': 'int64', 'n_chars': 'int64'})
    return out.sort_values(['lang', 'race_key', 'doc_id']) \
        .reset_index(drop=True)


SQL_WEIGHTED_SAMPLE_BY_LANG = """
WITH r AS (
  SELECT lang, doc_id, n_chars,
         CAST(md5_number_upper('wrs:42:' || CAST(doc_id AS VARCHAR))
              AS DOUBLE) / CAST(n_chars AS DOUBLE) AS race_key,
         row_number() OVER (PARTITION BY lang
                            ORDER BY CAST(md5_number_upper(
                                'wrs:42:' || CAST(doc_id AS VARCHAR))
                                AS DOUBLE) / CAST(n_chars AS DOUBLE),
                              doc_id) AS rn
  FROM documents WHERE n_chars > 0)
SELECT lang, doc_id, n_chars, race_key
FROM r WHERE rn <= 10 ORDER BY lang, race_key, doc_id
"""


@query(oracle=lambda: SQL_VALUE_GROUPING_SETS)
def q_value_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS (relational.grouping_sets_sum): sum of
    value cents at (type, hour), (type), (hour) and () granularities in
    ONE streamed pass — partial sums for every set fan out per batch,
    one (gid, keys)-keyed exchange combines; gid is the standard
    GROUPING_ID bitmask."""
    ev = rel.read_table(sf_dir, 'events', ['event_type', 'ts', 'value'])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'event_type': b['event_type'],
            'hour': b['ts'].dt.hour.astype('int64'),
            'cents': np.floor(b['value'].to_numpy() * 100).astype('int64')})

    prepped = ev.map_batches(prep, batch_format='pandas')
    out = rel.collect_pandas(rel.grouping_sets_sum(
        prepped,
        [('event_type', 'hour'), ('event_type',), ('hour',), ()],
        'cents', alias='total_cents'))
    out['gid'] = out['gid'].astype('int64')
    out['total_cents'] = out['total_cents'].astype('int64')
    # grouping padding as SENTINELS, not NULLs: the hash gate's row
    # canonicalization has no stable NULL ordering; gid already
    # disambiguates a real value from padding (the SQL COALESCEs match)
    out['event_type'] = out['event_type'].map(
        lambda v: '(all)' if pd.isna(v) else v)
    out['hour'] = out['hour'].map(
        lambda v: -1 if pd.isna(v) else int(v)).astype('int64')
    return out.sort_values(['gid', 'event_type', 'hour']) \
        .reset_index(drop=True)


SQL_VALUE_GROUPING_SETS = """
WITH c AS (
  SELECT event_type, CAST(extract(hour FROM ts) AS BIGINT) AS hour,
         CAST(floor(value * 100) AS BIGINT) AS cents
  FROM events)
SELECT CAST(GROUPING_ID(event_type, hour) AS BIGINT) AS gid,
       COALESCE(event_type, '(all)') AS event_type,
       CAST(COALESCE(hour, -1) AS BIGINT) AS hour,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM c
GROUP BY GROUPING SETS ((event_type, hour), (event_type), (hour), ())
ORDER BY gid, 2, 3
"""


@query(oracle=lambda: SQL_UNION_SCHEMA_EVOLUTION)
def q_union_schema_evolution(sf_dir: str):
    """UNION ALL BY NAME across evolving crawl-snapshot schemas: an old
    snapshot (doc_id, n_chars — no lang column yet) unions with a new one
    (doc_id, n_chars, lang) through the typed-null padding every exchange
    uses (relational.pad_to_union — int64 stays int64, missing lang
    becomes a typed NULL, surfaced as the '(missing)' sentinel), then one
    two-phase rollup per lang proves the padded stream aggregates
    correctly."""
    docs_old = rel.read_table(sf_dir, 'documents', ['doc_id', 'n_chars'])
    docs_new = rel.read_table(sf_dir, 'documents',
                              ['doc_id', 'n_chars', 'lang'])

    def old_side(b: pd.DataFrame) -> pa.Table:
        b = b[b['doc_id'] % 2 == 0]
        names, cols = rel.pad_to_union(
            b, ['doc_id', 'n_chars', 'lang'],
            {'doc_id': pa.int64(), 'n_chars': pa.int64(),
             'lang': pa.string()}, own={'doc_id', 'n_chars'})
        return pa.Table.from_arrays(cols, names)

    def new_side(b: pd.DataFrame) -> pa.Table:
        b = b[b['doc_id'] % 2 == 1]
        names, cols = rel.pad_to_union(
            b, ['doc_id', 'n_chars', 'lang'],
            {'doc_id': pa.int64(), 'n_chars': pa.int64(),
             'lang': pa.string()}, own={'doc_id', 'n_chars', 'lang'})
        return pa.Table.from_arrays(cols, names)

    unioned = docs_old.map_batches(old_side, batch_format='pandas').union(
        docs_new.map_batches(new_side, batch_format='pandas'))

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            'lang': b['lang'].map(
                lambda v: '(missing)' if pd.isna(v) else v),
            'n_chars': b['n_chars'].astype('int64')})

    agg = rel.two_phase_pandas_agg(
        unioned.map_batches(fill, batch_format='pandas'), ['lang'],
        {'n_docs': (None, 'count'), 'sum_chars': ('n_chars', 'sum')})
    out = rel.collect_pandas(agg)
    out['n_docs'] = out['n_docs'].astype('int64')
    out['sum_chars'] = out['sum_chars'].astype('int64')
    return out.sort_values('lang').reset_index(drop=True)


SQL_UNION_SCHEMA_EVOLUTION = """
WITH u AS (
  SELECT doc_id, n_chars, NULL AS lang FROM documents WHERE doc_id % 2 = 0
  UNION ALL BY NAME
  SELECT doc_id, n_chars, lang FROM documents WHERE doc_id % 2 = 1)
SELECT COALESCE(lang, '(missing)') AS lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM u GROUP BY 1 ORDER BY 1
"""


@query(oracle=lambda: SQL_CLUSTERING_COEFF)
def q_clustering_coefficients(sf_dir: str):
    """Local clustering coefficient per node — the triad-closure metric
    composed from the board's distributed triangle enumeration
    (graph.triangles, O(m^1.5) wedge join) and a two-phase degree count:
    cc = 2·T(v) / (deg·(deg−1)), floor-scaled single division over exact
    integers; degree-1 nodes dropped (cc undefined)."""
    from ..stages.graph import transition_edges, triangles, undirected_edges
    ev = rel.read_table(sf_dir, 'events',
                        ['user_id', 'ts', 'event_id', 'event_type'])
    und = undirected_edges(transition_edges(ev)).materialize()
    tri = triangles(und)

    def explode_tri(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'node': pd.concat(
            [b['x'], b['y'], b['z']], ignore_index=True)})

    tri_counts = rel.collect_pandas(rel.two_phase_count(
        tri.map_batches(explode_tri, batch_format='pandas'),
        ['node'], alias='t'))
    t_of = dict(zip(tri_counts['node'], tri_counts['t'].map(int))) \
        if not tri_counts.empty else {}

    def explode_deg(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({'node': pd.concat(
            [b['a'], b['b']], ignore_index=True)})

    deg = rel.collect_pandas(rel.two_phase_count(
        und.map_batches(explode_deg, batch_format='pandas'),
        ['node'], alias='deg'))
    rows = []
    for _, r in deg.iterrows():
        d = int(r['deg'])
        if d < 2:
            continue
        t = t_of.get(r['node'], 0)
        rows.append({'node': r['node'], 'deg': d, 'n_triangles': t,
                     'cc': math.floor(
                         float(2 * t) / float(d * (d - 1)) * 1e6) / 1e6})
    if not rows:
        return pd.DataFrame({'node': pd.Series(dtype=object),
                             'deg': pd.Series(dtype='int64'),
                             'n_triangles': pd.Series(dtype='int64'),
                             'cc': pd.Series(dtype='float64')})
    out = pd.DataFrame(rows)
    out['deg'] = out['deg'].astype('int64')
    out['n_triangles'] = out['n_triangles'].astype('int64')
    return out.sort_values('node').reset_index(drop=True)


SQL_CLUSTERING_COEFF = """
WITH seq AS (
  SELECT event_type AS src,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS dst
  FROM events),
und AS (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM seq WHERE dst IS NOT NULL AND src <> dst),
tri AS (
  SELECT t1.a AS x, t1.b AS y, t2.b AS z
  FROM und t1
  JOIN und t2 ON t2.a = t1.b
  JOIN und t3 ON t3.a = t1.a AND t3.b = t2.b),
tn AS (
  SELECT node, count(*) AS t
  FROM (SELECT x AS node FROM tri UNION ALL
        SELECT y FROM tri UNION ALL SELECT z FROM tri)
  GROUP BY 1),
deg AS (
  SELECT node, count(*) AS d
  FROM (SELECT a AS node FROM und UNION ALL SELECT b FROM und)
  GROUP BY 1)
SELECT deg.node, CAST(deg.d AS BIGINT) AS deg,
       CAST(COALESCE(tn.t, 0) AS BIGINT) AS n_triangles,
       floor(CAST(2 * COALESCE(tn.t, 0) AS DOUBLE)
             / CAST(deg.d * (deg.d - 1) AS DOUBLE) * 1e6) / 1e6 AS cc
FROM deg LEFT JOIN tn USING (node)
WHERE deg.d >= 2 ORDER BY deg.node
"""


@query(oracle=lambda: SQL_SOURCE_GINI)
def q_source_gini(sf_dir: str):
    """Domain-concentration Gini coefficient over per-source doc counts —
    the one-number skew audit curation dashboards track (a crawl where
    one host dominates needs domain capping). Two-phase source counts
    (the bounded host dim), then the exact rank formula
    G = (2·Σ i·c₍ᵢ₎)/(n·Σc) − (n+1)/n over counts sorted (count, source)
    — integer sums, one floor-scaled final expression."""
    docs = rel.read_table(sf_dir, 'documents', ['source'])
    counts = rel.collect_pandas(rel.two_phase_count(
        docs, ['source'], alias='c'))
    if counts.empty:
        return pd.DataFrame({'n_sources': pd.Series(dtype='int64'),
                             'n_docs': pd.Series(dtype='int64'),
                             'gini': pd.Series(dtype='float64')})
    counts = counts.sort_values(['c', 'source']).reset_index(drop=True)
    c = counts['c'].map(int).tolist()
    n = len(c)
    total = sum(c)
    weighted = sum((i + 1) * ci for i, ci in enumerate(c))
    gini = math.floor((float(2 * weighted) / float(n * total)
                       - float(n + 1) / float(n)) * 1e6) / 1e6
    return pd.DataFrame({'n_sources': pd.Series([n], dtype='int64'),
                         'n_docs': pd.Series([total], dtype='int64'),
                         'gini': [gini]})


SQL_SOURCE_GINI = """
WITH c AS (
  SELECT source, CAST(count(*) AS BIGINT) AS c
  FROM documents GROUP BY 1),
r AS (
  SELECT c, row_number() OVER (ORDER BY c, source) AS i FROM c),
s AS (
  SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(c) AS BIGINT) AS total,
         CAST(sum(i * c) AS BIGINT) AS weighted
  FROM r)
SELECT n AS n_sources, total AS n_docs,
       floor((CAST(2 * weighted AS DOUBLE) / CAST(n * total AS DOUBLE)
              - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE)) * 1e6) / 1e6
       AS gini
FROM s
"""
