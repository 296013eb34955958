"""Count the Ray Data streaming executions a piece of driver code starts.

Every ``materialize()``, count without metadata, write or iteration of a
lazy Dataset is one ``StreamingExecutor`` run, and each run has a fixed
start-up and polling cost. Counting them tells how many serial executions
a job takes:

    with count_executions() as names:
        run_flagship(pages)
    print(len(names), names)   # one operator-DAG name per execution
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List


@contextlib.contextmanager
def count_executions() -> Iterator[List[str]]:
    """While open, appends the name of every streaming execution this
    process starts to the yielded list."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    names: List[str] = []
    real = StreamingExecutor.execute

    def counting(self, dag, *args, **kwargs):
        names.append(dag.name)
        return real(self, dag, *args, **kwargs)

    StreamingExecutor.execute = counting
    try:
        yield names
    finally:
        StreamingExecutor.execute = real
