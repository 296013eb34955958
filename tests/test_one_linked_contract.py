"""One linked-row contract: both linkers emit (entity, link_score,
surface_rep), and ``stages/alias.py`` alone runs the surface kernel
``link_surface_bucket``. A caller needing ``surface_rep`` on rows of
another origin goes through ``alias.with_surface_rep`` or
``alias.edge_rows``, so no module re-implements the exchange or probes a
schema for the column. Tests may reference the kernel."""

import ast
import os

from test_one_exchange import ROOT, _python_sources


def test_only_alias_runs_the_surface_kernel():
    owner = os.path.join(ROOT, 'caligraph_ray', 'stages', 'alias.py')
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
            offenders += [f'{os.path.relpath(path, ROOT)}:{node.lineno} {n}'
                          for n in names if n == 'link_surface_bucket']
    assert not offenders, offenders
