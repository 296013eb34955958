"""On-disk cache of the seeded page corpus and its oracle triple set.

The corpus is written by ``caligraph_ray.corpus.pages_dataset`` (Parquet in
the BASELINE.json page schema); the oracle is ``tests/oracle_kg.oracle_triples``
over the same pages, imported read-only. Both are keyed on page count, seed
and a hash of every source file they depend on (the oracle runs engine code:
the HTML parser, canonical naming, hashing, the config thresholds), so
repeated invocations pay for them once, neither counts toward set-up time,
and a change to the engine or the oracle never reuses a stale oracle.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
from typing import Set, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

Triple = Tuple[str, str, str, bool]


def _key_sources(root: str) -> list:
    """Every ``caligraph_ray`` module plus the oracle, in a fixed order."""
    out = [os.path.join('tests', 'oracle_kg.py')]
    for d, dirs, files in os.walk(os.path.join(root, 'caligraph_ray')):
        dirs.sort()
        out += [os.path.relpath(os.path.join(d, f), root)
                for f in sorted(files) if f.endswith('.py')]
    return out


def cache_dir(root: str, cache_root: str, n_pages: int, seed: int) -> str:
    h = hashlib.blake2b(digest_size=8)
    for rel in _key_sources(root):
        h.update(rel.encode('utf-8') + b'\0')
        with open(os.path.join(root, rel), 'rb') as f:
            h.update(f.read())
    return os.path.join(cache_root, f'corpus-{n_pages}-{seed}-{h.hexdigest()}')


def ensure(root: str, cache_root: str, n_pages: int, seed: int) -> str:
    """Generate (once) and return the cache directory holding ``pages/``
    and ``oracle.parquet``. Ray must be initialized."""
    d = cache_dir(root, cache_root, n_pages, seed)
    if os.path.exists(os.path.join(d, '_DONE')):
        return d
    from caligraph_ray.corpus import pages_dataset
    tmp = f'{d}.tmp{os.getpid()}'
    shutil.rmtree(tmp, ignore_errors=True)
    pages_dataset(n_pages, seed).write_parquet(os.path.join(tmp, 'pages'))
    want = _oracle(root, os.path.join(tmp, 'pages'))
    pq.write_table(triples_table(want), os.path.join(tmp, 'oracle.parquet'))
    with open(os.path.join(tmp, '_DONE'), 'w'):
        pass
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    return d


def _oracle(root: str, pages_dir: str) -> Set[Triple]:
    tests = os.path.join(root, 'tests')
    if tests not in sys.path:
        sys.path.append(tests)
    from oracle_kg import oracle_triples
    t = pq.read_table(pages_dir, columns=['url', 'html'])
    return oracle_triples(list(zip(t.column('url').to_pylist(),
                                   t.column('html').to_pylist())))


def triples_table(triples) -> pa.Table:
    rows = sorted(triples)
    return pa.Table.from_pydict({
        'subj': [r[0] for r in rows], 'pred': [r[1] for r in rows],
        'obj': [r[2] for r in rows], 'is_literal': [r[3] for r in rows]})


def digest(triples) -> str:
    """Order-independent digest of a triple set."""
    h = hashlib.blake2b(digest_size=16)
    for t in sorted(triples):
        h.update(repr(t).encode('utf-8'))
    return h.hexdigest()


def read_triples(path: str) -> Set[Triple]:
    """Triple set of a Parquet file or (hive-partitioned) directory."""
    t = pq.read_table(path, columns=['subj', 'pred', 'obj', 'is_literal'])
    return set(zip(*(t.column(c).to_pylist()
                     for c in ('subj', 'pred', 'obj', 'is_literal'))))
