"""The one bucket exchange in ``stages/relational.py``.

* Only ``relational`` owns the exchange: no other module reads the
  ``SMALL_EXCHANGE_BYTES`` gate or imports a private small-path reducer,
  so the gate and the reducer cannot be re-implemented (and drift) in a
  caller.
* ``shuffle_join`` keeps pandas nullable ``Int64`` payloads exact in
  every regime: Ray reports an ``Int64Dtype`` column's type as ``None``,
  which must count as unknown (exact pandas path), never as float64.
"""

import ast
import os

import numpy as np
import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_sources():
    for base in ('caligraph_ray', 'tools'):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, base)):
            for f in files:
                if f.endswith('.py'):
                    yield os.path.join(dirpath, f)
    for f in ('bench.py', '__ray_entry__.py'):
        yield os.path.join(ROOT, f)


def _is_exchange_internal(name: str) -> bool:
    return name == 'SMALL_EXCHANGE_BYTES' or (
        name.startswith('_small_') and name.endswith('exchange'))


def test_only_relational_owns_the_exchange_gate():
    owner = os.path.join(ROOT, 'caligraph_ray', 'stages', 'relational.py')
    offenders = []
    for path in _python_sources():
        if path == owner or not os.path.exists(path):
            continue
        with open(path, encoding='utf-8') as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            for n in names:
                if _is_exchange_internal(n):
                    offenders.append(
                        f'{os.path.relpath(path, ROOT)}:{node.lineno} {n}')
    assert not offenders, offenders


BIG = 2**53 + 1   # not representable as float64


@pytest.mark.parametrize('how', ['inner', 'left'])
@pytest.mark.parametrize('broadcast', [True, False])
@pytest.mark.parametrize('large_exchange', [False, True])
@pytest.mark.parametrize('right_hint', ['auto', 'fact'])
def test_shuffle_join_keeps_nullable_int64_exact(ray_session, monkeypatch, how,
                                                 broadcast, large_exchange,
                                                 right_hint):
    import ray.data as rd
    import caligraph_ray.stages.relational as rel
    if not broadcast:
        monkeypatch.setattr(rel, 'JOIN_BROADCAST_BYTES', 0)
    if large_exchange:
        monkeypatch.setattr(rel, 'SMALL_EXCHANGE_BYTES', -1)
    left = pd.DataFrame({'k': np.array([1, 2, 3, 4], dtype='int64')})
    right = pd.DataFrame({'rk': np.array([1, 2, 3], dtype='int64'),
                          'p': pd.array([BIG, None, 5], dtype='Int64')})
    out = rel.collect_pandas(rel.shuffle_join(
        rd.from_pandas(left), rd.from_pandas(right), 'k', 'rk', how=how,
        right_hint=right_hint))
    got = {int(k): p for k, p in zip(out['k'], out['p'])}
    want_keys = {1, 2, 3} if how == 'inner' else {1, 2, 3, 4}
    assert set(got) == want_keys
    for k, want in ((1, BIG), (3, 5)):
        v = got[k]
        assert isinstance(v, (int, np.integer)) and int(v) == want, \
            (k, v, type(v))
    assert pd.isna(got[2])
    if how == 'left':
        assert pd.isna(got[4])
