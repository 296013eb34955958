"""Scalar string functions (reference impl/util/string.py, impl/util/nlp.py).

All functions are pure and deterministic. The vectorized variants (suffix
``_array``) operate on pyarrow arrays / numpy object arrays and are the ones
used inside ``map_batches`` hot paths; the scalar variants define the
semantics and back the pytest goldens.
"""

from __future__ import annotations

import re
from typing import List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# token = word chars or a single non-space symbol (deterministic stand-in for
# the reference's spaCy tokenizer, impl/util/spacy/__init__.py)
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

# by-phrase guards (reference impl/util/spacy/components.py:73-117)
_BY_PHRASE_EXCEPTIONS = frozenset({
    'bell hooks', 'DBC Pierre', 'KT Tunstall', 'U-Wei Saari',
    "`Abdu'l-Bahá", 'ibn Hazm', '2XL Games'})
# past-participle stand-in for the spaCy VBN tag (word before 'by')
_VBN_IRREGULAR = frozenset({
    'written', 'sung', 'held', 'made', 'built', 'won', 'drawn', 'given',
    'taken', 'known', 'seen', 'born', 'chosen', 'found', 'set', 'run',
    'begun', 'broadcast', 'shown', 'thrown', 'driven', 'kept', 'led',
    'left', 'lost', 'sold', 'spent', 'told', 'brought', 'bought'})

_NON_ALNUM_RE = re.compile(r"[^A-Za-z0-9 ]+")
# shared with the vectorized pyarrow filter and the SQL oracle replay
# (pipelines/queries.py q_frequent_labels) — one canonical pattern
NUMERIC_TOKEN_PATTERN = r"^[0-9]+([.,][0-9]+)*$"
_NUMERIC_RE = re.compile(NUMERIC_TOKEN_PATTERN)

# canonical-label cleanup regexes (reference impl/util/nlp.py:89-101, same order)
_CANONICAL_RES = [
    re.compile(r"\s*/[A-Za-z]+:\s*[A-Za-z](\s*[-–]\s*[A-Za-z])?$"),
    re.compile(r"\s+\([^()]+[-–][^()]+\)$"),
    re.compile(r"\s+\([A-Z]\)$"),
    re.compile(r"\s*[-:,–]\s*[A-Z][a-z]*\s?[-–]\s?[A-Z][a-z]*$"),
    re.compile(r"\s*[-:–]\s*([A-Z],\s*)*[A-Z]$"),
    re.compile(r"\s*/([A-Z],\s*)*[A-Z]$"),
    re.compile(r"\s+([A-Z],\s*)+[A-Z]$"),
    re.compile(r"\s*:\s*..?\s*[-–]\s*..?$"),
]

# RE2 twins of _CANONICAL_RES for the vectorized Arrow path: Python re's
# \s is full-unicode (NBSP, NEL, Z-category — common in wiki labels) while
# RE2's is ASCII-only, and Python's $ also matches before ONE trailing
# newline while RE2's matches end-of-text only. Both gaps mis-partition
# the canonical-label groupby (hypothesis caught '\xa0A,A'); the leftover
# trailing '\n' the Python side keeps after a zero-width-$ removal is
# collapsed away by the shared space-regularization step, so the two
# chains converge (property-tested against the scalar).
_PY_WS_RE2 = r"[\s\x1c-\x1f\x85\p{Z}]"
_CANONICAL_RES_RE2 = [
    rx.pattern.replace(r"\s", _PY_WS_RE2).replace("$", r"\n?$")
    for rx in _CANONICAL_RES
]

_BRACKET_PATTERNS = {
    '(': re.compile(r"\s*\([^()]*\)\s*"),
    '[': re.compile(r"\s*\[[^\[\]]*\]\s*"),
    '<': re.compile(r"\s*\<[^>]*\>+\s*"),
}


def capitalize(text: str) -> str:
    """First char upper, rest untouched (reference string.py:4-5)."""
    return text[0].upper() + text[1:] if len(text) > 1 else text.upper()


def regularize_spaces(text: str) -> str:
    """Collapse any whitespace runs to single spaces (reference string.py:8-9)."""
    return ' '.join(text.split())


def make_alphanumeric(text: str) -> str:
    """Strip non-alphanumerics; keep original if result ≤ 2 chars (reference string.py:32-34)."""
    text_alphanum = _NON_ALNUM_RE.sub('', text)
    return text_alphanum if len(text_alphanum) > 2 else text


def transfer_word_casing(source_word: str, target_word: str) -> str:
    """Apply source word's per-char casing onto target (reference string.py:16-25)."""
    out = []
    for idx, c in enumerate(target_word):
        if idx >= len(source_word):
            out.append(c)
        elif source_word[idx].isupper():
            out.append(c.upper())
        else:
            out.append(c.lower())
    return ''.join(out)


def remove_bracket_content(text: str, bracket_type: str = '(', substitute: str = ' ') -> str:
    """Remove bracketed content (reference nlp.py:76-86)."""
    return _BRACKET_PATTERNS[bracket_type].sub(substitute, text)


def remove_by_phrase(text: str) -> str:
    """Drop an organisational by-phrase: 'People by country' -> 'People'.

    Faithful token-rule port of the reference's spaCy tagger + remover
    (components.py:77-117 tag_by_phrase, nlp.py:129-140 remove_by_phrase),
    replaying its unit fixtures (tests/unit/util/test_nlp.py): authorship
    ('Work by Roy Lichtenstein', 'by L. J. Smith') and verb-governed
    ('Song recorded by ABBA') by-phrases are kept, a trailing 'in X' /
    'from X' clause survives removal ('Alumni by university or college in
    Honduras' -> 'Alumni in Honduras'). Deviations from spaCy: NNS =
    lowercase plural (via nlp.is_plural), VBN = -ed / irregular list; the
    lexical-head-in-tail guard is vacuous under our head rule (the head
    always precedes the first preposition) and is omitted.

    Reference QUIRKS deliberately preserved (components.py:83-89, 103):
    * when both 'in' and 'from' follow the last 'by', 'from' wins the cut
      point unconditionally — 'A by B in C from D' -> 'A from D' (the in-
      clause is removed with the by-phrase);
    * the cut point is computed from the LAST by-phrase only, so removing
      an earlier 'by' spans through any later one — 'Books by author in
      France by decade' -> 'Books';
    * the NNS guard scans to the END of the label (not just the by-phrase
      span), so a plural inside a kept in/from clause vetoes removal."""
    tokens = text.split()
    by_idx = [i for i, t in enumerate(tokens) if t == 'by']
    if not by_idx:
        return text
    end = len(tokens)
    last = by_idx[-1]
    tail = tokens[last:]
    if 'in' in tail:
        end = last + tail.index('in')
    if 'from' in tail:
        end = last + tail.index('from')
    from .nlp import is_plural   # lazy: nlp imports strings at load time
    for k, bi in enumerate(by_idx):
        if bi == 0 or bi == len(tokens) - 1:
            continue
        cur = tokens[:end] if k == len(by_idx) - 1 else tokens[:by_idx[k + 1]]
        after = cur[bi + 1:]
        if not after:
            continue
        if ' '.join(after) in _BY_PHRASE_EXCEPTIONS:
            continue
        w = after[0]
        if w[0].isupper() and (w.endswith('.') or not w.isupper()):
            continue   # capitalized name / abbreviation → authorship
        if any(t[:1].islower() and is_plural(t) for t in tokens[bi + 1:]):
            continue   # NNS in the tail
        before = tokens[bi - 1]
        if before.lower().endswith('ed') or before.lower() in _VBN_IRREGULAR:
            continue   # verb-governed 'by' (agent phrase)
        if w in ('a', 'an', 'the'):
            continue
        start = bi - 1 if tokens[bi - 1] == '(' else bi
        kept = tokens[:start] + (tokens[end:] if end < len(tokens) else [])
        return ' '.join(kept)
    return text


def get_canonical_label(text: str) -> str:
    """Strip Wikipedia organisational suffixes (reference nlp.py:89-101)."""
    text = remove_by_phrase(text)
    for rx in _CANONICAL_RES:
        text = rx.sub('', text)
    return regularize_spaces(text).rstrip(',')


def normalize_surface(text: str) -> str:
    """Canonical key for surface-form grouping: lower + space-collapse + alnum.

    This is the groupby key of the canonicalization shuffle (north star);
    analogue of reference lexical.py:47 (unidecode+lower) + string.py:32-34.
    """
    text = text.lower()
    text = _NON_ALNUM_RE.sub('', text)
    return ' '.join(text.split())


def is_valid_entity_label(label: str) -> bool:
    """len>2 and not purely numeric (reference mention_detection/__init__.py:111-112)."""
    return len(label) > 2 and not _NUMERIC_RE.match(label)


def tokenize(text: str) -> List[str]:
    """Deterministic tokenization: word chars or single symbols."""
    return _TOKEN_RE.findall(text)


def tokenize_with_ws(text: str) -> Tuple[List[str], List[str]]:
    """Tokens plus the whitespace following each token (reconstruction-safe).

    Analogue of reference get_tokens_and_whitespaces_from_text
    (impl/util/spacy/__init__.py).
    """
    tokens, whitespaces = [], []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if tokens:
            whitespaces.append(text[pos:m.start()])
        tokens.append(m.group(0))
        pos = m.end()
    if tokens:
        whitespaces.append(text[pos:])
    return tokens, whitespaces


# --- vectorized variants for map_batches hot paths ---

def normalize_surface_array(arr: pa.Array) -> pa.Array:
    """Vectorized normalize_surface over a pyarrow string array."""
    lowered = pc.utf8_lower(arr)
    alnum = pc.replace_substring_regex(lowered, pattern=r"[^a-z0-9 ]+", replacement="")
    collapsed = pc.replace_substring_regex(alnum, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(collapsed)


def canonical_label_array(arr: pa.Array) -> pa.Array:
    """Vectorized get_canonical_label. The by-phrase step is token-rule
    based (not one regex), so it runs as a Python map over the column —
    labels are short; the suffix regexes stay Arrow-kernel vectorized."""
    stripped = pa.array([remove_by_phrase(s) if s is not None else None
                         for s in arr.to_pylist()], pa.string())
    out = stripped
    for pat in _CANONICAL_RES_RE2:
        out = pc.replace_substring_regex(out, pattern=pat, replacement="")
    # RE2's \s is ASCII-only, but the scalar reference collapses with
    # str.split() (full unicode whitespace incl. NBSP — common in wiki
    # labels). Match Python's set exactly: ASCII \s + info separators +
    # NEL + every Z-category separator. Divergence here mis-partitions the
    # canonical-label groupby (property-tested against the scalar).
    out = pc.replace_substring_regex(out, pattern=r"[\s\x1c-\x1f\x85\p{Z}]+",
                                     replacement=" ")
    out = pc.utf8_trim_whitespace(out)
    return pc.replace_substring_regex(out, pattern=r",+$", replacement="")
