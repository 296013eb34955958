"""Smoke test of the benchmark: every workload (the three BENCHMARK.json
lists and ``kg_broadcast``, which runs by hand), at a tiny page count, prints
every metric BENCHMARK.json names with its unit, and the benchmark refuses to
run without the engine next to it.

    python3 -m pytest kgbench/test_smoke.py -q      (about three minutes)
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from kgbench.workloads import NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, 'BENCHMARK.json')) as _f:
    SPEC = json.load(_f)


def _bench(cwd, *args):
    return subprocess.run(SPEC['command'] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize('trace', [0, 1])
@pytest.mark.parametrize('workload', NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    p = _bench(ROOT, '--workload', workload, '--seed', '3', '--seconds', '1',
               '--trace', str(trace), '--pages', '40')
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {'correct', 'attempted', 'failed', 'metrics'}
    assert res['correct'] and res['failed'] == 0 and res['attempted'] >= 1
    spec = SPEC['per_layer' if trace else 'end_to_end']
    assert {k: v['unit'] for k, v in res['metrics'].items()} == \
        {m['name']: m['unit'] for m in spec}
    assert all(isinstance(v['value'], (int, float))
               for v in res['metrics'].values())


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), tmp_path)
    for path in SPEC['paths']:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns('__pycache__'))
    p = _bench(tmp_path, '--workload', SPEC['workloads'][0]['name'],
               '--seed', '1', '--seconds', '1', '--trace', '0')
    assert p.returncode != 0
    assert p.stdout == ''


if __name__ == '__main__':
    sys.exit(pytest.main([__file__, '-q']))
