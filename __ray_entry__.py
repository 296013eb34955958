"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in caligraph_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship KG pipeline on /root/testdata/sf0.001: documents → rendered
    pages → parse → mention linking → canonicalization → triples."""
    from caligraph_ray.pipelines.flagship import run_flagship_on_documents
    return run_flagship_on_documents('/root/testdata/sf0.001')


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2, read
    from the ``@query`` registry in caligraph_ray.pipelines.queries."""
    from caligraph_ray.pipelines.queries import queries
    return queries()


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents for the SQL-expressible queries."""
    from caligraph_ray.pipelines.queries import oracle_sql
    return oracle_sql()
