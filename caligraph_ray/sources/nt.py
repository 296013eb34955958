"""N-Triples source/sink (reference S2 impl/util/rdf.py:144-161 parser and
S8 impl/caligraph/serialize.py:21-52 result writer, re-expressed columnar).

Triples read to the engine's canonical (subj, pred, obj, is_literal) schema;
names are the URI tail with '_' → ' ' (the reference's name↔iri mapping,
rdf.py:118-141).
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray  # noqa: F401  (string annotations resolve against module globals)

from ..stages.triples import TRIPLES_SCHEMA

# object triple: <s> <p> <o> .   literal triple: <s> <p> "lit"(^^<type>|@lang)? .
_OBJ_RE = re.compile(r'^<([^>]+)> <([^>]+)> <([^>]+)> \.\s*$')
_LIT_RE = re.compile(r'^<([^>]+)> <([^>]+)> "(.*)"(?:\^\^<[^>]+>|@[\w-]+)? \.\s*$')


# percent-encoding exceptions kept readable in IRIs (reference
# impl/util/serialize.py:16 RESOURCE_ENCODING_EXCEPTIONS)
RESOURCE_ENCODING_EXCEPTIONS = ['#', ':', ',', ';', '(', ')', "'", '&',
                                '!', '*', '=', '$']


def encode_resource_name(name: str) -> str:
    """Reference _encode_resource (serialize.py:63-71): space → '_', then
    percent-encode everything except the exception chars. Replays the
    tests/unit/util/test_serialize.py fixture ('12\"/50 caliber Mark 8 gun'
    → 12%22%2F50_caliber_Mark_8_gun) — which the reference's own
    _resource_to_string soft-fails on due to its prefix split at the last
    '/'; we encode the whole name."""
    from urllib.parse import quote
    enc = quote(name.replace(' ', '_'), safe='')
    for ch in RESOURCE_ENCODING_EXCEPTIONS:
        enc = enc.replace(quote(ch, safe=''), ch)
    return enc


def escape_literal(literal: str) -> str:
    """Reference _encode_literal_string (serialize.py:74-77) extended to
    full N-Triples string escaping: backslash, quote AND the control chars
    \\n/\\r/\\t — a raw newline inside one logical NT line would split it
    into two physical lines that no parser (ours included) matches, so the
    triple silently vanishes on round-trip."""
    return (literal.replace('\\', '\\\\').replace('"', '\\"')
            .replace('\n', '\\n').replace('\r', '\\r').replace('\t', '\\t'))


def unescape_literal(s: str) -> str:
    """Inverse of escape_literal: single left-to-right scan (pairwise
    .replace chains mis-decode adjacent escapes like '\\\\n')."""
    out, i, n = [], 0, len(s)
    sub = {'\\': '\\', '"': '"', 'n': '\n', 'r': '\r', 't': '\t'}
    while i < n:
        c = s[i]
        if c == '\\' and i + 1 < n and s[i + 1] in sub:
            out.append(sub[s[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def uri_to_name(uri: str) -> str:
    from urllib.parse import unquote
    return unquote(uri.rsplit('/', 1)[-1]).replace('_', ' ')


def name_to_uri(name: str, base: str = 'http://caligraph.org/resource/') -> str:
    return base + encode_resource_name(name)


def parse_nt_lines(batch) -> pa.Table:
    """map_batches fn: text lines → triples (non-matching lines dropped,
    counted nowhere — mirror of the reference's skip-on-no-match)."""
    lines = batch['text'] if 'text' in batch.column_names else batch['line']
    subj, pred, obj, lit = [], [], [], []
    for line in lines.to_pylist():
        m = _OBJ_RE.match(line)
        if m:
            subj.append(uri_to_name(m.group(1)))
            pred.append(uri_to_name(m.group(2)))
            obj.append(uri_to_name(m.group(3)))
            lit.append(False)
            continue
        m = _LIT_RE.match(line)
        if m:
            subj.append(uri_to_name(m.group(1)))
            pred.append(uri_to_name(m.group(2)))
            obj.append(unescape_literal(m.group(3)))
            lit.append(True)
    return pa.Table.from_pydict({'subj': subj, 'pred': pred, 'obj': obj,
                                 'is_literal': lit}, schema=TRIPLES_SCHEMA)


def read_nt(paths) -> 'ray.data.Dataset':
    """NT file(s) → triples Dataset (streaming read_text + vectorized parse)."""
    import ray.data as rd
    return rd.read_text(paths).map_batches(parse_nt_lines, batch_format='pyarrow')


def write_nt(triples_ds, out_dir: str,
             base_uri: str = 'http://caligraph.org/resource/'):
    """Triples Dataset → directory of .csv part files each holding raw NT
    lines (single unquoted column, one file per block — resumable layout)
    that replace whatever ``out_dir`` held."""
    import shutil

    from ray.data.datasource import BlockBasedFileDatasink
    from ..stages.triples import to_nt_lines

    class _NTSink(BlockBasedFileDatasink):
        def __init__(self, path):
            super().__init__(path, file_format='nt')

        def write_block_to_file(self, block, file):
            tbl = block.to_arrow()
            data = '\n'.join(tbl.column('nt').to_pylist())
            if data:
                file.write((data + '\n').encode('utf-8'))

    lines = triples_ds.map_batches(lambda b: to_nt_lines(b, base_uri),
                                   batch_format='pyarrow')
    shutil.rmtree(out_dir, ignore_errors=True)
    lines.write_datasink(_NTSink(out_dir))
    return out_dir
