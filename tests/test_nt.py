"""N-Triples round-trip (S2 parser + S8 writer)."""

import os

import pyarrow as pa
import pytest

from caligraph_ray.sources.nt import read_nt, write_nt


def test_nt_roundtrip(ray_session, tmp_path):
    import ray.data as rd
    t = pa.Table.from_pydict({
        'subj': ['Alan Turing', 'Alan Turing', 'Paris'],
        'pred': ['birthPlace', 'label', 'country'],
        'obj': ['London', 'Alan "the machine" Turing', 'France'],
        'is_literal': [False, True, False],
    })
    out = str(tmp_path / 'nt')
    write_nt(rd.from_arrow(t), out)
    files = [f for f in os.listdir(out)]
    assert files
    back = read_nt([os.path.join(out, f) for f in files])
    rows = {(r['subj'], r['pred'], r['obj'], r['is_literal']) for r in back.take_all()}
    want = {tuple(r.values()) for r in t.to_pylist()}
    assert rows == want


def test_nt_literal_control_chars_roundtrip(ray_session, tmp_path):
    # a literal containing \n/\r/\t/backslash/quote must emit ONE valid NT
    # line and survive the write→read round trip (a raw newline split the
    # line in two and the triple silently vanished)
    import os
    import pyarrow as pa
    import ray.data as rd
    from caligraph_ray.sources.nt import read_nt, write_nt
    from caligraph_ray.stages.triples import TRIPLES_SCHEMA
    tricky = 'line1\nline2\twith\r "quotes" and \\slash'
    t = pa.Table.from_pydict(
        {'subj': ['S'], 'pred': ['label'], 'obj': [tricky],
         'is_literal': [True]}, schema=TRIPLES_SCHEMA)
    d = str(tmp_path / 'nt')
    write_nt(rd.from_arrow(t), d)
    raw = ''.join(open(os.path.join(d, f)).read() for f in sorted(os.listdir(d)))
    assert len([l for l in raw.splitlines() if l.strip()]) == 1
    back = read_nt([os.path.join(d, f) for f in os.listdir(d)]).take_all()
    assert len(back) == 1
    assert back[0]['obj'] == tricky


def test_second_write_replaces_the_first(ray_session, tmp_path):
    """Part files are uuid-named, so a second write into the same
    directory must clear it: 10 triples, then 3, read back as 3 lines."""
    import ray.data as rd
    out = str(tmp_path / 'nt')

    def triples(n):
        return rd.from_arrow(pa.Table.from_pydict({
            'subj': [f'S{i}' for i in range(n)], 'pred': ['p'] * n,
            'obj': [f'O{i}' for i in range(n)], 'is_literal': [False] * n}))

    write_nt(triples(10), out)
    write_nt(triples(3), out)
    lines = [l for f in os.listdir(out)
             for l in open(os.path.join(out, f)).read().splitlines() if l]
    assert len(lines) == 3
