"""Deterministic HTML→text extraction + listing/structure detection.

Ray-Data-first analogue of the reference's markup pipeline
(impl/wikipedia/page_parser.py:224-516 + wikimarkup_parser.py:10-19):

* ``extract_text``        — the per-row invariant: byte-identical plaintext
                            per url (M1 pre-clean + M6 plaintext squeeze).
* ``parse_page``          — listing/table/section/category detection with the
                            reference's validity rules (M2-M9): enums need ≥3
                            entries, tables need ≥3 data rows and 2..100
                            columns, meta top-sections are dropped, pages
                            without valid listings are filtered.
* ``PageParser``          — the map_batches actor: html batch in → flat
                            item-level rows out (one row per listing item,
                            keyed (url, listing_idx, item_idx)) — flattening
                            early keeps blocks narrow at 10^12-page scale.

The HTML subset spec matches caligraph_ray/corpus.py; text extraction rules:
script/style/comment/ref-sup removal → &nbsp;/<br> to space → block tags to
newline → inline tags dropped → entity unescape → per-line space collapse +
strip, empty lines dropped → final strip(" '\\t\\n").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pyarrow as pa

from ..config import (MAX_TABLE_COLS, MIN_ENUM_ENTRIES, MIN_TABLE_COLS,
                      MIN_TABLE_ROWS, META_SECTIONS, PARSE_BATCH_SIZE,
                      PARSE_TIMEOUT_S)
from ..functions.hashing import stable_hash64
from ..functions.strings import tokenize

_SCRIPT_RE = re.compile(r'<script\b.*?</script>', re.S | re.I)
_STYLE_RE = re.compile(r'<style\b.*?</style>', re.S | re.I)
_COMMENT_RE = re.compile(r'<!--.*?-->', re.S)
_REF_SUP_RE = re.compile(r'<sup class="reference">.*?</sup>', re.S)
_BR_RE = re.compile(r'<br\s*/?>', re.I)
_BLOCK_TAG_RE = re.compile(
    r'</?(?:p|ul|ol|li|table|tr|td|th|h[1-6]|div|html|body|head|title|caption)\b[^>]*>', re.I)
_ANY_TAG_RE = re.compile(r'<[^>]+>')
_SPACE_RE = re.compile(r'[ \t]+')

# '&amp;' must be replaced LAST: doing it first rewrites escaped literal
# text like '&amp;lt;' to '&lt;' and then the later rules double-unescape
# it to '<' — silent corruption of any page text mentioning entities
_ENTITIES = [('&lt;', '<'), ('&gt;', '>'), ('&quot;', '"'), ('&#39;', "'"),
             ('&amp;', '&')]

_HEADING_RE = re.compile(r'<h([1-6])>(.*?)</h\1>', re.S)
_ANCHOR_RE = re.compile(r'<a href="/wiki/([^"]+)">(.*?)</a>', re.S)
_TABLE_RE = re.compile(r'<table\b[^>]*>(.*?)</table>', re.S | re.I)
_TR_RE = re.compile(r'<tr>(.*?)</tr>', re.S)
_CELL_RE = re.compile(r'<(t[dh])>(.*?)</t[dh]>', re.S)
_CATDIV_RE = re.compile(r'<div id="catlinks">(.*?)</div>', re.S)
_COLUMNS_OPEN_RE = re.compile(r'<div class="columns-list">', re.I)
_DIV_TAG_RE = re.compile(r'<(/?)div\b[^>]*>', re.I)
_LIST_TAG_RE = re.compile(r'</?(?:ul|ol)\b[^>]*>', re.I)
_DIV_ANY_RE = re.compile(r'</?div\b[^>]*>', re.I)


def _convert_columns_lists(s: str) -> str:
    """M3 analogue (reference page_parser.py:261-271 `columns-list`
    template expansion): a multi-column list container renders one LOGICAL
    list split across several <ul> blocks; splice them back into a single
    enum so the ≥3-entries validity rule sees the whole list, exactly as
    the reference splices the template's list argument into the page.
    Container spans are found by BALANCED div counting (columns are often
    wrapped in their own inner <div>s); nested list depth inside the
    container is flattened (the template's argument is a flat list)."""
    out = []
    pos = 0
    while True:
        m = _COLUMNS_OPEN_RE.search(s, pos)
        if not m:
            out.append(s[pos:])
            break
        out.append(s[pos:m.start()])
        depth = 1
        end = len(s)
        for dm in _DIV_TAG_RE.finditer(s, m.end()):
            depth += -1 if dm.group(1) == '/' else 1
            if depth == 0:
                end = dm.start()
                pos = dm.end()
                break
        else:
            pos = len(s)
        inner = _DIV_ANY_RE.sub('', s[m.end():end])
        out.append('<ul>' + _LIST_TAG_RE.sub('', inner) + '</ul>')
    return ''.join(out)


def _remove_enums_within_tables(frag: str) -> str:
    """M3 analogue (reference page_parser.py:275-285): enumeration markup
    inside a table is layout, not a listing — drop it so neither the
    standalone-enum scan nor the cell text sees it."""
    def strip_lists(m: "re.Match[str]") -> str:
        inner = m.group(0)
        out = []
        depth = 0
        pos = 0
        for lm in re.finditer(r'<(/?)(ul|ol)\b[^>]*>', inner, re.I):
            if lm.group(1) != '/':
                if depth == 0:
                    out.append(inner[pos:lm.start()])
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    pos = lm.end()
        out.append(inner[pos:])
        return ''.join(out)
    return _TABLE_RE.sub(strip_lists, frag)


def _pre_clean(s: str) -> str:
    """M1 analogue (reference page_parser.py:224-251): junk removal +
    whitespace-entity normalization, shared by text and structure paths."""
    s = _SCRIPT_RE.sub(' ', s)
    s = _STYLE_RE.sub(' ', s)
    s = _COMMENT_RE.sub(' ', s)
    s = _REF_SUP_RE.sub('', s)
    s = s.replace('&nbsp;', ' ')
    s = _BR_RE.sub(' ', s)
    return s


def _unescape(s: str) -> str:
    if '&' not in s:       # every entity starts with '&' — the common
        return s           # entity-free string skips all the replaces
    for ent, ch in _ENTITIES:
        s = s.replace(ent, ch)
    return s


def extract_text(html: bytes) -> str:
    """Byte-identical plaintext per url (the north-star per-row invariant)."""
    s = html.decode('utf-8', errors='replace')
    s = _pre_clean(s)
    s = _BLOCK_TAG_RE.sub('\n', s)
    s = _ANY_TAG_RE.sub('', s)
    s = _unescape(s)
    s = _SPACE_RE.sub(' ', s)
    lines = [ln.strip() for ln in s.split('\n')]
    return '\n'.join(ln for ln in lines if ln).strip(" '\t\n")


def _inline_to_text(fragment: str) -> str:
    """Inline HTML fragment → plain text (tags dropped, entities unescaped)."""
    s = _ANY_TAG_RE.sub('', fragment)
    s = _unescape(s)
    return _SPACE_RE.sub(' ', s).strip()


def _anchors(fragment: str) -> List[Tuple[str, str]]:
    """(target_name, label) pairs; File:/Image:/Category: targets skipped
    (reference wikimarkup_parser.py:34-47 semantics: label falls back to
    target, language-tag handling not needed in this HTML subset)."""
    out = []
    for m in _ANCHOR_RE.finditer(fragment):
        target, label = m.group(1), _inline_to_text(m.group(2))
        if target.startswith(('File:', 'Image:', 'Category:')):
            continue
        name = target.replace('_', ' ')
        if not label:
            label = name
        out.append((name, label))
    return out


@dataclass
class Mention:
    name: Optional[str]   # linked entity name; None → unlinked (NER-style)
    label: str
    start: int            # token span [start, end)
    end: int


@dataclass
class Item:
    item_idx: int
    depth: int
    is_leaf: bool
    text: str
    tokens: List[str]
    mentions: List[Mention] = field(default_factory=list)


@dataclass
class Listing:
    listing_idx: int
    ltype: str            # 'enum' | 'table'
    topsection: str
    section: str
    items: List[Item]
    header_tokens: List[str] = field(default_factory=list)


@dataclass
class ParsedPage:
    url: str
    title: str
    listings: List[Listing]
    categories: List[str]


def _locate_mentions(tokens: List[str], anchors: List[Tuple[str, str]]) -> List[Mention]:
    """Assign token spans to anchor mentions, first-match scanning from the
    current index (reference page_parser.py:434-455 semantics)."""
    mentions: List[Mention] = []
    current = 0
    for name, label in anchors:
        mtoks = tokenize(label)
        if not mtoks:
            continue
        start = current
        while True:
            try:
                start = tokens.index(mtoks[0], start)
            except ValueError:
                break
            end = start + len(mtoks)
            if tokens[start:end] != mtoks:
                start += 1
                continue
            mentions.append(Mention(name, label, start, end))
            current = end
            break
    return mentions


def _expand_mentions(tokens: List[str], mentions: List[Mention],
                     label_index: Dict[str, List[Tuple[List[str], str, str]]]) -> List[Mention]:
    """Mention expansion: re-find page-known labels at unlinked positions
    (reference page_parser.py:456-483). label_index: first_token →
    [(label_tokens, label, entity_name)] sorted by label length desc."""
    covered = set()
    for m in mentions:
        covered.update(range(m.start, m.end))
    out = list(mentions)
    for idx, tok in enumerate(tokens):
        if idx in covered or tok not in label_index:
            continue
        for ltoks, label, name in label_index[tok]:
            end = idx + len(ltoks)
            # the WHOLE span must be free: checking only the start token
            # would let an expansion overlap an existing anchor mention
            # and attribute its tokens twice
            if tokens[idx:end] == ltoks and \
                    not any(i in covered for i in range(idx + 1, end)):
                out.append(Mention(name, label, idx, end))
                covered.update(range(idx, end))
                break
    return sorted(out, key=lambda m: m.start)


def _build_label_index(page_anchors: List[Tuple[str, str]], title: str):
    """Page-level label→entity map indexed by first token, longest-first
    (reference page_parser.py:310-323)."""
    label_to_name: Dict[str, str] = {}
    for name, label in page_anchors:
        label_to_name.setdefault(label, name)
    label_to_name.setdefault(title, title)
    index: Dict[str, List[Tuple[List[str], str, str]]] = {}
    for label, name in label_to_name.items():
        ltoks = tokenize(label)
        if not ltoks:
            continue
        index.setdefault(ltoks[0], []).append((ltoks, label, name))
    for k in index:
        index[k].sort(key=lambda x: len(x[0]), reverse=True)
    return index


def _parse_enum_block(block: str) -> List[Tuple[int, str]]:
    """One top-level <ul>/<ol> block → [(depth, inline_html)] per <li>."""
    items = []
    # scan structure: track ul/ol depth; capture li content up to next tag-boundary
    tokens = re.split(r'(</?(?:ul|ol|li)\b[^>]*>)', block)
    depth = 0
    current_li: Optional[List[str]] = None
    cur_depth = 0
    for t in tokens:
        low = t.lower()
        if low.startswith('<ul') or low.startswith('<ol'):
            if current_li is not None:
                items.append((cur_depth, ''.join(current_li)))
                current_li = None
            depth += 1
        elif low.startswith('</ul') or low.startswith('</ol'):
            if current_li is not None:
                items.append((cur_depth, ''.join(current_li)))
                current_li = None
            depth -= 1
        elif low.startswith('<li'):
            if current_li is not None:
                items.append((cur_depth, ''.join(current_li)))
            current_li = []
            cur_depth = depth
        elif low.startswith('</li'):
            if current_li is not None:
                items.append((cur_depth, ''.join(current_li)))
                current_li = None
        elif current_li is not None:
            current_li.append(t)
    if current_li is not None:
        items.append((cur_depth, ''.join(current_li)))
    return items


def _top_level_list_blocks(fragment: str) -> List[str]:
    """Balanced top-level <ul>/<ol>…</ul>/<ol> spans within a section."""
    blocks = []
    depth = 0
    start = None
    for m in re.finditer(r'<(/?)(ul|ol)\b[^>]*>', fragment, re.I):
        closing = m.group(1) == '/'
        if not closing:
            if depth == 0:
                start = m.start()
            depth += 1
        else:
            depth -= 1
            if depth == 0 and start is not None:
                blocks.append(fragment[start:m.end()])
                start = None
    return blocks


def parse_page(url: str, html: bytes) -> Optional[ParsedPage]:
    """Full structure parse; returns None for pages without valid listings
    (usefulness filter, reference page_parser.py:254-258)."""
    s = _pre_clean(html.decode('utf-8', errors='replace'))

    title_m = re.search(r'<title>(.*?)</title>', s, re.S)
    title = _inline_to_text(title_m.group(1)) if title_m else url.rsplit('/', 1)[-1].replace('_', ' ')

    categories = []
    cat_m = _CATDIV_RE.search(s)
    if cat_m:
        for m in _ANCHOR_RE.finditer(cat_m.group(1)):
            if m.group(1).startswith('Category:'):
                categories.append(m.group(1)[len('Category:'):].replace('_', ' '))
    body = _CATDIV_RE.sub('', s)
    # M3: multi-column list containers splice into one logical enum
    body = _convert_columns_lists(body)

    label_index = _build_label_index(_anchors(body), title)

    # section segmentation
    headings = [(m.start(), m.end(), int(m.group(1)), _inline_to_text(m.group(2)))
                for m in _HEADING_RE.finditer(body)]
    sections: List[Tuple[str, str, str]] = []  # (topsection, section, fragment)
    topsection = 'Main'
    prev_end, prev_title = 0, 'Main'
    prev_top = 'Main'
    segs = []
    for (st, en, level, htitle) in headings + [(len(body), len(body), 1, '')]:
        segs.append((prev_top, prev_title, body[prev_end:st]))
        if level <= 2:
            topsection = htitle
        prev_top, prev_title, prev_end = topsection, htitle, en
    for top, sec, frag in segs:
        sections.append((top, sec, frag))

    listings: List[Listing] = []
    listing_idx = 0
    for top, sec, frag in sections:
        if top.lower() in META_SECTIONS:
            continue  # drop listings under meta top-sections (page_parser.py:344)
        # M3: enumeration markup inside tables is layout — remove it before
        # BOTH the standalone-enum scan and the table-cell text parse
        frag = _remove_enums_within_tables(frag)
        for block in _top_level_list_blocks(frag):
            raw_items = _parse_enum_block(block)
            items: List[Item] = []
            for i, (depth, inline) in enumerate(raw_items):
                text = _inline_to_text(inline)
                toks = tokenize(text)
                ms = _locate_mentions(toks, _anchors(inline))
                ms = _expand_mentions(toks, ms, label_index)
                is_leaf = (i + 1 >= len(raw_items)) or (raw_items[i + 1][0] <= depth)
                items.append(Item(i, depth, is_leaf, text, toks, ms))
            if len(items) < MIN_ENUM_ENTRIES:
                continue
            listings.append(Listing(listing_idx, 'enum', top, sec, items))
            listing_idx += 1
        for tm in _TABLE_RE.finditer(frag):
            tbl = _parse_table(tm.group(1), label_index)
            if tbl is None:
                continue
            header_tokens, rows = tbl
            listings.append(Listing(listing_idx, 'table', top, sec, rows, header_tokens))
            listing_idx += 1

    if not listings:
        return None
    return ParsedPage(url, title, listings, categories)


def _parse_table(inner: str, label_index) -> Optional[Tuple[List[str], List[Item]]]:
    """Reference table rules (page_parser.py:382-413): cols in [2,100] for
    every row else drop table; header = row 0 or any-<th> row; ≥3 data rows."""
    header_tokens: List[str] = []
    rows: List[Item] = []
    row_idx = 0
    for rm in _TR_RE.finditer(inner):
        cells = _CELL_RE.findall(rm.group(1))
        if not cells:
            continue
        if len(cells) < MIN_TABLE_COLS or len(cells) > MAX_TABLE_COLS:
            return None
        is_header = row_idx == 0 or any(kind == 'th' for kind, _ in cells)
        toks: List[str] = []
        mentions: List[Mention] = []
        texts: List[str] = []
        for _, cell_html in cells:
            cell_text = _inline_to_text(cell_html)
            cell_toks = tokenize(cell_text)
            cms = _locate_mentions(cell_toks, _anchors(cell_html))
            off = len(toks)
            for m in cms:
                mentions.append(Mention(m.name, m.label, m.start + off, m.end + off))
            toks.extend(cell_toks)
            texts.append(cell_text)
        if is_header:
            header_tokens = toks
        else:
            mentions = _expand_mentions(toks, mentions, label_index)
            rows.append(Item(len(rows), 1, True, ' '.join(texts), toks, mentions))
        row_idx += 1
    if len(rows) < MIN_TABLE_ROWS:
        return None
    return header_tokens, rows


# --- Ray stages ------------------------------------------------------------

MENTION_TYPE = pa.struct([('name', pa.string()), ('label', pa.string()),
                          ('start', pa.int32()), ('end', pa.int32())])

ITEMS_SCHEMA = pa.schema([
    ('url', pa.string()),
    ('page_id', pa.int64()),
    ('page_title', pa.string()),
    ('listing_idx', pa.int32()),
    ('ltype', pa.string()),
    ('topsection', pa.string()),
    ('section', pa.string()),
    ('header', pa.list_(pa.string())),
    ('item_idx', pa.int32()),
    ('depth', pa.int8()),
    ('is_leaf', pa.bool_()),
    ('text', pa.string()),
    ('tokens', pa.list_(pa.string())),
    ('mentions', pa.list_(MENTION_TYPE)),
])

CATS_SCHEMA = pa.schema([('url', pa.string()), ('page_id', pa.int64()), ('cat_name', pa.string())])

# single-parse union schema: item rows (kind='item') + category rows (kind='cat')
PARSED_SCHEMA = pa.schema(list(ITEMS_SCHEMA) + [('kind', pa.string()),
                                                ('cat_name', pa.string())])


class ParseTimeout(Exception):
    """A single page exceeded the per-row parse time budget."""


class PageParser:
    """Actor-pool stage: pages batch → union of flat item rows and category
    rows (PARSED_SCHEMA, ONE parse per page — items and categories split
    downstream with vectorized filters).

    Stateless apart from compiled module-level regexes, but run as a callable
    class so per-actor setup stays the pattern for heavier parser state.
    Per-row try/except keeps the reference's drop-bad-pages semantics
    (page_parser.py:287-301) without failing whole Ray blocks; a dropped
    page becomes a first-class ``kind='drop'`` row (url preserved), so drop
    counts survive any execution plan and are queryable via
    ``parse_drops`` — the lineage-visible drop record the north rule asks
    for, with no side-channel counters.

    ``timeout_s`` is the per-ROW wall-clock parse budget — the Ray-side
    analogue of the reference's 60 s SIGALRM guard (page_parser.py:287-301):
    one pathological page must not stall a whole block at scale. It is
    enforced with a real SIGALRM itimer when the UDF runs on a worker's main
    thread (Ray map_batches tasks do); off the main thread the guard
    degrades to no-op rather than breaking (documented limitation — the
    module's own regexes are RE2-compatible/linear, so the residual risk is
    Python-loop blowup, which the signal interrupts)."""

    def __init__(self, timeout_s: float = PARSE_TIMEOUT_S, parse_fn=None):
        import signal
        import threading
        self.timeout_s = timeout_s
        # parse_fn(url, payload) -> Optional[ParsedPage]: the markup front
        # end — parse_page (HTML) by default, wikitext.parse_wikitext_page
        # for dump ingestion; drop/timeout semantics apply to both
        self.parse_fn = parse_fn or parse_page
        self._can_alarm = (hasattr(signal, 'setitimer')
                           and threading.current_thread()
                           is threading.main_thread())

    def _parse_guarded(self, url: str, html):
        if not self._can_alarm or not self.timeout_s:
            return self.parse_fn(url, html)
        import signal

        def on_alarm(signum, frame):
            raise ParseTimeout(url)

        prev = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        try:
            return self.parse_fn(url, html)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, prev)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column('url').to_pylist()
        htmls = batch.column('html').to_pylist()
        cols = {name: [] for name in PARSED_SCHEMA.names}

        def blank_item_fields():
            cols['page_title'].append('')
            cols['listing_idx'].append(-1)
            cols['ltype'].append('')
            cols['topsection'].append('')
            cols['section'].append('')
            cols['header'].append([])
            cols['item_idx'].append(-1)
            cols['depth'].append(0)
            cols['is_leaf'].append(False)
            cols['text'].append('')
            cols['tokens'].append([])
            cols['mentions'].append([])

        for url, html in zip(urls, htmls):
            try:
                page = self._parse_guarded(url, html)
            except Exception:
                cols['url'].append(url)
                cols['page_id'].append(stable_hash64(url))
                cols['kind'].append('drop')
                cols['cat_name'].append('')
                blank_item_fields()
                continue
            if page is None:
                continue
            pid = stable_hash64(url)
            for cat in page.categories:
                cols['url'].append(url)
                cols['page_id'].append(pid)
                cols['kind'].append('cat')
                cols['cat_name'].append(cat)
                blank_item_fields()
            for lst in page.listings:
                for item in lst.items:
                    cols['url'].append(url)
                    cols['page_id'].append(pid)
                    cols['kind'].append('item')
                    cols['cat_name'].append('')
                    cols['page_title'].append(page.title)
                    cols['listing_idx'].append(lst.listing_idx)
                    cols['ltype'].append(lst.ltype)
                    cols['topsection'].append(lst.topsection)
                    cols['section'].append(lst.section)
                    cols['header'].append(lst.header_tokens)
                    cols['item_idx'].append(item.item_idx)
                    cols['depth'].append(item.depth)
                    cols['is_leaf'].append(item.is_leaf)
                    cols['text'].append(item.text)
                    cols['tokens'].append(item.tokens)
                    cols['mentions'].append([
                        {'name': m.name, 'label': m.label, 'start': m.start, 'end': m.end}
                        for m in item.mentions])
        return pa.Table.from_pydict(cols, schema=PARSED_SCHEMA)


def parse_drops(parsed_ds):
    """(n_dropped, urls) of pages the parser dropped (kind='drop' rows)."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column('kind'), pa.scalar('drop')))
        return t.select(['url'])

    dropped = parsed_ds.map_batches(f, batch_format='pyarrow')
    from .relational import collect_rows
    urls = [r['url'] for r in collect_rows(dropped)]
    return len(urls), urls


def parse_pages(pages_ds, concurrency: Optional[int] = None):
    """pages Dataset → PARSED_SCHEMA union rows (one parse per page).

    Runs as STATELESS tasks: the parser's only state is module-level
    compiled regexes, and a task pool scales out instantly where an actor
    pool pays per-actor startup ramp (measured 4× on a 100k-page corpus).
    Heavier parser state (a model) would flip this to ``concurrency=`` actor
    form — that is the only change needed."""
    def parse_batch(batch: pa.Table) -> pa.Table:
        return PageParser()(batch)
    kw = {} if concurrency is None else {'concurrency': concurrency}
    return pages_ds.map_batches(parse_batch, batch_format='pyarrow',
                                batch_size=PARSE_BATCH_SIZE, **kw)


def items_view(parsed_ds):
    """Vectorized item-row projection of the parsed union."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column('kind'), pa.scalar('item')))
        return t.drop_columns(['kind', 'cat_name'])
    return parsed_ds.map_batches(f, batch_format='pyarrow')


def cats_view(parsed_ds):
    """Vectorized category-row projection of the parsed union."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column('kind'), pa.scalar('cat')))
        return t.select(['url', 'page_id', 'cat_name'])
    return parsed_ds.map_batches(f, batch_format='pyarrow')


def parse_items(pages_ds, concurrency: Optional[int] = None):
    """pages Dataset → item rows Dataset (compat wrapper: single parse +
    item projection; pipelines that need items AND categories should call
    parse_pages once and use both views)."""
    return items_view(parse_pages(pages_ds, concurrency))
