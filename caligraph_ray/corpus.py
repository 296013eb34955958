"""Deterministic synthetic Common-Crawl-style page corpus (FIXTURES.md F1-F5).

Generates the input table of BASELINE.json's input_hint shape:
``(url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string)``
plus companion dimension tables (category membership/hierarchy, existing-KB
facts) that the Cat2Ax and listing-rule stages consume.

``html`` embeds Wikipedia-like structure rendered as simple HTML: sections,
enumerations (nested, incl. <3-item invalid ones), tables (header rows,
invalid 1-column ones), wiki links, ref markers, bold/italic, comments,
script/style junk, ``&nbsp;`` — one feature family per page so every parser
branch of the reference (page_parser.py:224-516) has an analogue with work
to do.

``text`` is the *expected* extraction, rendered from the structural model —
NOT by calling the extractor — so the byte-identity test in
tests/test_html_extract.py is not circular. Both renderers share only the
final whitespace normalization (``assemble_plain``), which is part of the
documented text spec.

Everything is a pure function of (seed, page index): generation can run
inside ``map_batches`` over ``ray.data.range`` for arbitrarily large
benchmark corpora without materializing anything on the driver.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

# --- entity universe -------------------------------------------------------

FIRST_NAMES = ['John', 'Mary', 'Ada', 'Alan', 'Grace', 'Edsger', 'Donald', 'Barbara', 'Ken', 'Dennis',
               'Radia', 'Tim', 'Vint', 'Margaret', 'Claude', 'Frances', 'Niklaus', 'Bjarne', 'Guido', 'Linus']
LAST_NAMES = ['Smith', 'Johnson', 'Lovelace', 'Turing', 'Hopper', 'Dijkstra', 'Knuth', 'Liskov', 'Thompson',
              'Ritchie', 'Perlman', 'Lee', 'Cerf', 'Hamilton', 'Shannon', 'Allen', 'Wirth', 'Stroustrup']
CITIES = ['Paris', 'Berlin', 'London', 'Tokyo', 'Madrid', 'Rome', 'Vienna', 'Oslo', 'Dublin', 'Prague',
          'Lisbon', 'Athens', 'Warsaw', 'Helsinki', 'Zagreb', 'Bern']
COUNTRIES = ['France', 'Germany', 'United Kingdom', 'Japan', 'Spain', 'Italy', 'Austria', 'Norway',
             'Ireland', 'Czech Republic', 'Portugal', 'Greece', 'Poland', 'Finland', 'Croatia', 'Switzerland']
COMPANIES = ['Acme Systems', 'Globex Works', 'Initech Labs', 'Umbra Devices', 'Vandelay Industries',
             'Hooli Networks', 'Stark Metals', 'Wayne Logistics']
# head entities: appear in a large share of mentions → stress head-surface skew
HEAD_ENTITIES = ['United States', 'John Smith']

# city i belongs to country i (fixed ground-truth relation for rule mining)
CITY_COUNTRY = {c: COUNTRIES[i % len(COUNTRIES)] for i, c in enumerate(CITIES)}

META_SECTION_TITLES = ['See also', 'References', 'External links', 'Further reading']
CONTENT_SECTION_TITLES = ['History', 'Career', 'Geography', 'Economy', 'Notable people', 'Culture', 'Works']

LANGS = ['en', 'en', 'en', 'en', 'en', 'en', 'de', 'fr', 'es', 'it']

WARC_EPOCH_US = 1_700_000_000_000_000  # fixed base timestamp (us)


def entity_to_target(name: str) -> str:
    return name.replace(' ', '_')


def alias_labels(name: str, rng: np.random.RandomState) -> str:
    """Pick a surface label for an entity (exercises the alias index)."""
    r = rng.randint(4)
    parts = name.split(' ')
    if r == 0 and len(parts) > 1:
        return parts[-1]                      # last word ('Smith', 'States')
    if r == 1 and len(parts) > 1:
        return ''.join(p[0] for p in parts)   # initialism ('US', 'JS')
    if r == 2:
        return 'the ' + name                  # determiner variant
    return name


# --- inline segment model --------------------------------------------------
# seg = ('t', text) | ('a', target, label) | ('b', text) | ('i', text)
#     | ('ref', text) | ('nbsp',) | ('br',) | ('amp', text_with_amp)

def _inline_html(segs) -> str:
    out = []
    for s in segs:
        k = s[0]
        if k == 't':
            out.append(s[1])
        elif k == 'a':
            out.append(f'<a href="/wiki/{entity_to_target(s[1])}">{s[2]}</a>')
        elif k == 'b':
            out.append(f'<b>{s[1]}</b>')
        elif k == 'i':
            out.append(f'<i>{s[1]}</i>')
        elif k == 'ref':
            out.append(f'<sup class="reference">[{s[1]}]</sup>')
        elif k == 'nbsp':
            out.append('&nbsp;')
        elif k == 'br':
            out.append('<br/>')
        elif k == 'amp':
            out.append(s[1].replace('&', '&amp;'))
    return ''.join(out)


def _inline_plain(segs) -> str:
    out = []
    for s in segs:
        k = s[0]
        if k == 't':
            out.append(s[1])
        elif k == 'a':
            out.append(s[2])
        elif k in ('b', 'i'):
            out.append(s[1])
        elif k == 'ref':
            out.append('')
        elif k == 'nbsp':
            out.append(' ')
        elif k == 'br':
            out.append(' ')
        elif k == 'amp':
            out.append(s[1])
    return ''.join(out)


def assemble_plain(lines: List[str]) -> str:
    """Shared final normalization of the text spec: one line per block,
    inner spaces collapsed, empty lines dropped, reference-style strip
    (analogue of wikimarkup_parser.py:10-19 whitespace squeeze)."""
    norm = []
    for ln in lines:
        ln = re.sub(r'[ \t]+', ' ', ln).strip()
        if ln:
            norm.append(ln)
    return '\n'.join(norm).strip(" '\t\n")


# --- page specs ------------------------------------------------------------

class _Blocks:
    """Accumulates paired (html, plain-lines) output."""

    def __init__(self):
        self.html: List[str] = []
        self.lines: List[str] = []

    def heading(self, level: int, title: str):
        self.html.append(f'<h{level}>{title}</h{level}>')
        self.lines.append(title)

    def para(self, segs):
        self.html.append(f'<p>{_inline_html(segs)}</p>')
        self.lines.append(_inline_plain(segs))

    def enum(self, items: List[Tuple[int, list]], ordered: bool = False):
        """items: list of (depth, segs); depth starts at 1."""
        tag = 'ol' if ordered else 'ul'
        html = []
        depth = 0
        for d, segs in items:
            while depth < d:
                html.append(f'<{tag}>')
                depth += 1
            while depth > d:
                html.append(f'</{tag}>')
                depth -= 1
            html.append(f'<li>{_inline_html(segs)}</li>')
            self.lines.append(_inline_plain(segs))
        while depth > 0:
            html.append(f'</{tag}>')
            depth -= 1
        self.html.append(''.join(html))

    def table(self, header: Optional[List[list]], rows: List[List[list]]):
        html = ['<table class="wikitable">']
        if header is not None:
            html.append('<tr>' + ''.join(f'<th>{_inline_html(c)}</th>' for c in header) + '</tr>')
            for c in header:
                self.lines.append(_inline_plain(c))
        for row in rows:
            html.append('<tr>' + ''.join(f'<td>{_inline_html(c)}</td>' for c in row) + '</tr>')
            for c in row:
                self.lines.append(_inline_plain(c))
        html.append('</table>')
        self.html.append(''.join(html))

    def catlinks(self, cats: List[str]):
        links = ' '.join(f'<a href="/wiki/Category:{entity_to_target(c)}">{c}</a>' for c in cats)
        self.html.append(f'<div id="catlinks">Categories: {links}</div>')
        self.lines.append('Categories: ' + ' '.join(cats))

    def noise(self, rng: np.random.RandomState):
        r = rng.randint(3)
        if r == 0:
            self.html.append('<script>var x = 1 < 2 && 3 > 2;</script>')
        elif r == 1:
            self.html.append('<style>.cls { color: red; }</style>')
        else:
            self.html.append('<!-- hidden comment with <ul><li>fake</li></ul> -->')


def _person_name(rng) -> str:
    if rng.rand() < 0.07:
        return 'John Smith'  # head entity skew
    return f'{FIRST_NAMES[rng.randint(len(FIRST_NAMES))]} {LAST_NAMES[rng.randint(len(LAST_NAMES))]}'


def _city(rng) -> str:
    return CITIES[rng.randint(len(CITIES))]


def _country(rng) -> str:
    if rng.rand() < 0.10:
        return 'United States'  # head entity skew
    return COUNTRIES[rng.randint(len(COUNTRIES))]


def _link(rng, name: str) -> tuple:
    return ('a', name, alias_labels(name, rng))


def build_page(page_idx: int, seed: int = 42) -> Dict:
    """Pure function (seed, idx) → page record dict.

    Page families by idx % 10:
      0-2 person pages (paras + categories, some enums)
      3-4 list pages   (big enums, nested sublists, invalid short enums)
      5-6 table pages  (header tables, an invalid 1-col table)
      7   city page    (paras + table + categories)
      8   junk-heavy page (noise, refs, nbsp, br, amp entities; still useful)
      9   non-listing page (paragraphs only → filtered by usefulness) or non-en
    """
    rng = np.random.RandomState((seed * 1_000_003 + page_idx) % (2**31 - 1))
    fam = page_idx % 10
    lang = 'en'
    b = _Blocks()
    cats: List[str] = []

    if fam in (0, 1, 2):   # person page
        name = f'{FIRST_NAMES[page_idx % len(FIRST_NAMES)]} {LAST_NAMES[(page_idx // 3) % len(LAST_NAMES)]}'
        title = name
        city = _city(rng)
        country = CITY_COUNTRY[city]
        b.heading(1, title)
        b.para([('t', f'{name} is a researcher born in '), _link(rng, city),
                ('t', ', '), _link(rng, country), ('t', '.'), ('ref', '1')])
        b.heading(2, 'Career')
        b.para([('t', 'Worked at '), _link(rng, COMPANIES[rng.randint(len(COMPANIES))]),
                ('t', ' with '), _link(rng, _person_name(rng)), ('t', '.')])
        if fam == 1:
            b.heading(2, 'Works')
            items = [(1, [('t', f'Publication {i}: on '), _link(rng, _city(rng)), ('t', f' ({1960 + i})')])
                     for i in range(3 + rng.randint(4))]
            b.enum(items)
        b.heading(2, 'See also')
        b.enum([(1, [_link(rng, _person_name(rng))]) for _ in range(3)])  # meta section: parsed out of listings
        cats = [f'People from {city}', f'{1920 + page_idx % 80} births']
    elif fam in (3, 4):    # list page
        city = CITIES[page_idx % len(CITIES)]
        title = f'List of people from {city}'
        b.heading(1, title)
        b.para([('t', f'Notable people associated with '), _link(rng, city), ('t', '.')])
        b.heading(2, 'Notable people')
        n_items = 4 + rng.randint(8)
        items = []
        for i in range(n_items):
            p = _person_name(rng)
            segs = [_link(rng, p), ('t', ' (born '), ('t', str(1900 + rng.randint(99))), ('t', '), '),
                    _link(rng, _country(rng))]
            items.append((1, segs))
            if rng.rand() < 0.25:
                items.append((2, [('t', 'noted for '), _link(rng, COMPANIES[rng.randint(len(COMPANIES))])]))
        b.enum(items)
        b.heading(2, 'Minor mentions')
        b.enum([(1, [_link(rng, _person_name(rng))]) for _ in range(2)])   # <3 items → invalid listing
        cats = [f'People from {city}', 'Lists of people by city']
    elif fam in (5, 6):    # table page
        country = COUNTRIES[page_idx % len(COUNTRIES)]
        title = f'Cities in {country}'
        b.heading(1, title)
        b.heading(2, 'Geography')
        header = [[('t', 'Name')], [('t', 'Country')], [('t', 'Population')]]
        rows = []
        for i in range(3 + rng.randint(6)):
            city = _city(rng)
            rows.append([[_link(rng, city)], [_link(rng, CITY_COUNTRY[city])],
                         [('t', str(10_000 + int(rng.randint(1_000_000))))]])
        b.table(header, rows)
        if fam == 6:
            b.heading(2, 'Economy')
            # invalid 1-column table → must be dropped by the parser
            b.table([[('t', 'Item')]], [[[('t', f'row {i}')]] for i in range(4)])
        cats = [f'Cities in {country}', f'Geography of {country}']
    elif fam == 7:         # city page
        city = CITIES[page_idx % len(CITIES)]
        country = CITY_COUNTRY[city]
        title = city
        b.heading(1, title)
        b.para([('t', f'{city} is a city in '), _link(rng, country), ('t', '.'), ('ref', 'a')])
        b.heading(2, 'Notable people')
        b.enum([(1, [_link(rng, _person_name(rng)), ('t', ', researcher')]) for _ in range(3 + rng.randint(3))])
        cats = [f'Cities in {country}', f'Populated places in {country}']
    elif fam == 8:         # junk-heavy page
        comp = COMPANIES[page_idx % len(COMPANIES)]
        title = comp
        b.heading(1, title)
        b.noise(rng)
        b.para([('t', 'The company'), ('nbsp',), ('b', comp), ('t', ' operates in '),
                _link(rng, _country(rng)), ('t', '.'), ('br',), ('amp', 'Known as R&D leader.'), ('ref', '2')])
        b.noise(rng)
        b.heading(2, 'History')
        b.enum([(1, [('t', f'In {1980 + i}, acquired '), ('i', f'unit {i}'), ('t', ' in '), _link(rng, _city(rng))])
                for i in range(4)])
        cats = ['Companies', f'{comp} stubs']   # maintenance cat name
    else:                  # fam == 9: paragraphs only, often non-en
        lang = LANGS[rng.randint(len(LANGS))]
        title = f'Essay {page_idx}'
        b.heading(1, title)
        for _ in range(2 + rng.randint(3)):
            b.para([('t', 'Prose about '), _link(rng, _country(rng)),
                    ('t', ' and '), _link(rng, _city(rng)), ('t', '.')])
        cats = []

    if cats:
        b.catlinks(cats)

    url = f'https://ex.org/wiki/{entity_to_target(title)}'
    html = ('<!DOCTYPE html><html><head><title>' + title + '</title></head><body>'
            + ''.join(b.html) + '</body></html>')
    text = assemble_plain([title] + b.lines)
    return {
        'url': url,
        'warc_ts': WARC_EPOCH_US + page_idx * 1_000_000,
        'html': html.encode('utf-8'),
        'text': text,
        'lang': lang,
        'title': title,
        'categories': cats,
    }


PAGES_SCHEMA = pa.schema([
    ('url', pa.string()),
    ('warc_ts', pa.timestamp('us')),
    ('html', pa.binary()),
    ('text', pa.string()),
    ('lang', pa.string()),
])


def build_pages_batch(indices, seed: int = 42) -> pa.Table:
    """Render a batch of pages as an Arrow table in the F1 schema."""
    recs = [build_page(int(i), seed) for i in indices]
    return pa.Table.from_pydict({
        'url': [r['url'] for r in recs],
        'warc_ts': pa.array([r['warc_ts'] for r in recs], type=pa.timestamp('us')),
        'html': pa.array([r['html'] for r in recs], type=pa.binary()),
        'text': [r['text'] for r in recs],
        'lang': [r['lang'] for r in recs],
    }, schema=PAGES_SCHEMA)


def generate_pages_table(n_pages: int, seed: int = 42) -> pa.Table:
    """Small in-memory corpus for tests. Note: page titles collide across
    indices by design (same list page regenerated → duplicate urls), mirroring
    crawl re-fetches; consumers dedup by url when required."""
    return build_pages_batch(range(n_pages), seed)


def pages_dataset(n_pages: int, seed: int = 42, parallelism: int = -1):
    """Distributed corpus: ray.data.range → map_batches render (no driver
    materialization; scales to arbitrary page counts)."""
    import ray.data as rd
    ds = rd.range(n_pages, override_num_blocks=parallelism if parallelism > 0 else None)
    return ds.map_batches(
        lambda batch: build_pages_batch(batch['id'], seed),
        batch_format='pandas', batch_size=512,
    )


def category_edges_table(n_pages: int, seed: int = 42) -> pa.Table:
    """Category membership + parents derived from the same page specs (F2).

    Parent naming exercises by-phrase/canonical-label handling:
    'People from <city>' → parent 'People by city'; '<year> births' →
    'Births by year'; 'Cities in <country>' → 'Cities by country'.
    """
    member_url, cat_name, parent = [], [], []
    for i in range(n_pages):
        rec = build_page(i, seed)
        for c in rec['categories']:
            member_url.append(rec['url'])
            cat_name.append(c)
            parent.append(category_parent(c))
    return pa.Table.from_pydict({'member_url': member_url, 'cat_name': cat_name, 'parent_cat': parent})


def category_parent(cat: str) -> str:
    if cat.startswith('People from '):
        return 'People by city'
    if cat.endswith(' births'):
        return 'Births by year'
    if cat.startswith('Cities in '):
        return 'Cities by country'
    if cat.startswith('Populated places in '):
        return 'Populated places by country'
    if cat.startswith('Geography of '):
        return 'Geography by country'
    if cat.startswith('Lists of '):
        return 'Lists'
    if cat.endswith(' stubs'):
        return 'Stub categories'
    return 'Main topic classifications'


def facts_table(n_pages: int, seed: int = 42) -> pa.Table:
    """Existing-KB facts (F5) for the entity universe: types + relations.

    Ground truth used by Cat2Ax statistics / listing-rule mining:
      person  → rdf:type Person,  birthPlace <city>
      city    → rdf:type City,    country <country>
      country → rdf:type Country
      company → rdf:type Company
    """
    subj, pred, obj, is_lit = [], [], [], []

    def add(s, p, o, lit=False):
        # entity names in canonical space form (matches page titles/labels)
        subj.append(s); pred.append(p); obj.append(o)
        is_lit.append(lit)

    seen_persons = set()
    for i in range(n_pages):
        rec = build_page(i, seed)
        if i % 10 in (0, 1, 2):
            name = rec['title']
            if name not in seen_persons:
                seen_persons.add(name)
                add(name, 'rdf:type', 'Person')
                city = next((c[len('People from '):] for c in rec['categories'] if c.startswith('People from ')), None)
                if city:
                    add(name, 'birthPlace', city)
                    add(name, 'label', name, lit=True)
    for city, country in CITY_COUNTRY.items():
        add(city, 'rdf:type', 'City')
        add(city, 'country', country)
        add(city, 'label', city, lit=True)
    for country in COUNTRIES + ['United States']:
        add(country, 'rdf:type', 'Country')
        add(country, 'label', country, lit=True)
    for comp in COMPANIES:
        add(comp, 'rdf:type', 'Company')
    add('John Smith', 'rdf:type', 'Person')
    return pa.Table.from_pydict({'subj': subj, 'pred': pred, 'obj': obj, 'is_literal': is_lit})
