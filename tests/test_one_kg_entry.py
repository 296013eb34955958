"""One KG entry point: ``pipelines/flagship.py`` alone knows the slim-union
format (the ``kind`` marker rows and their views) and the triple assembly.
The full KG is ``run_flagship`` given its companion tables, so no other
module under ``caligraph_ray/`` or ``tools/`` may import those helpers and
re-wire the pipeline by hand. Tests may import them."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLAGSHIP_PRIVATE = {'_mentions_cats_batch', '_cats_of', '_mentions_of',
                    '_assemble_triples', '_subjects_of'}


def test_only_flagship_knows_the_slim_union():
    owner = os.path.join(ROOT, 'caligraph_ray', 'pipelines', 'flagship.py')
    offenders = []
    for base in ('caligraph_ray', 'tools'):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, base)):
            for f in files:
                path = os.path.join(dirpath, f)
                if not f.endswith('.py') or path == owner:
                    continue
                with open(path, encoding='utf-8') as fh:
                    tree = ast.parse(fh.read(), filename=path)
                for node in ast.walk(tree):
                    names = []
                    if isinstance(node, ast.ImportFrom):
                        names = [a.name for a in node.names]
                    elif isinstance(node, ast.Attribute):
                        names = [node.attr]
                    offenders += [f'{os.path.relpath(path, ROOT)}:{node.lineno} {n}'
                                  for n in names if n in FLAGSHIP_PRIVATE]
    assert not offenders, offenders
