"""Query registry contract: every ``q_*`` in pipelines/queries.py registers
itself with ``@query``, and ``__ray_entry__`` serves exactly the names and
oracle SQL it served when the two lists were hand-kept dict literals."""

import ast
import hashlib
import inspect

import __ray_entry__ as entry
from caligraph_ray.pipelines import queries as Q


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode('utf-8')).hexdigest()[:16]


def test_every_q_function_is_registered():
    tree = ast.parse(inspect.getsource(Q))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith('q_')}
    registered = Q.queries()
    assert {f'q_{name}' for name in registered} == defined
    for name, fn in registered.items():
        assert fn is getattr(Q, f'q_{name}')


def test_entry_query_names_unchanged():
    names = entry.queries()
    assert len(names) == 154
    assert _digest('\n'.join(sorted(names))) == 'ab9376a118add550'


def test_entry_oracle_sql_unchanged():
    sql = entry.oracle_sql()
    assert len(sql) == 153
    assert _digest('\n'.join(k + '\x00' + sql[k] for k in sorted(sql))) \
        == '74bd51a3d6004a57'


def test_only_flagship_triples_has_no_oracle():
    assert set(entry.queries()) - set(entry.oracle_sql()) \
        == {'flagship_triples'}
