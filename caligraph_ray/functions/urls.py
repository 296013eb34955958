"""URL canonicalization for web-corpus pipelines (beyond the reference's
operator set — the standard pre-dedup normalization every Common-Crawl
style pipeline applies before grouping by page identity; the north-star
input table is keyed by ``url``).

Canonical form: lowercase scheme + host, leading ``www.`` stripped,
default ports dropped, fragment dropped, tracking query params
(``utm_*``, ``fbclid``, ``gclid``, ``ref``) removed (remaining params keep
their order), trailing path slash stripped (root stays ``/``-less).
"""

from __future__ import annotations

from typing import List
from urllib.parse import parse_qsl, urlencode, urlsplit

import pyarrow.compute as pc

_TRACKING_KEYS = {'fbclid', 'gclid', 'ref'}
_DEFAULT_PORTS = {'http': 80, 'https': 443}


def canonicalize_url(url: str) -> str:
    """One URL → its canonical form (pure scalar function). A URL that
    urlsplit cannot parse, or whose port is malformed (``:80abc``,
    ``:99999``), comes back stripped-but-otherwise-unchanged — one junk URL
    in a web corpus must never kill a whole map_batches task."""
    try:
        parts = urlsplit(url.strip())
        port = parts.port   # raises ValueError on malformed/out-of-range
        host = (parts.hostname or '').lower()
    except ValueError:
        return url.strip()
    if not parts.scheme or not host:
        # scheme-less / host-less input ('example.com/path') would come
        # back as the invalid '://example.com/path'; keep the documented
        # stripped-but-otherwise-unchanged contract for non-URLs
        return url.strip()
    scheme = parts.scheme.lower()
    if host.startswith('www.'):
        host = host[4:]
    netloc = host
    if port is not None and port != _DEFAULT_PORTS.get(scheme):
        netloc = f'{host}:{port}'
    path = parts.path
    if path.endswith('/'):
        path = path.rstrip('/')
    params = [(k, v) for k, v in parse_qsl(parts.query, keep_blank_values=True)
              if not k.startswith('utm_') and k not in _TRACKING_KEYS]
    query = urlencode(params)
    out = f'{scheme}://{netloc}{path}'
    return f'{out}?{query}' if query else out


def url_host(url: str) -> str:
    """Lowercased host with any leading ``www.`` stripped. Malformed URLs
    ('http://[::1') yield '' — same never-kill-the-task contract as
    canonicalize_url."""
    try:
        host = (urlsplit(url.strip()).hostname or '').lower()
    except ValueError:
        return ''
    return host[4:] if host.startswith('www.') else host


def registered_domain(host: str) -> str:
    """Last two DNS labels (public-suffix-list-free approximation; the
    real PSL is a broadcast-dict swap on this same signature)."""
    labels = host.rstrip('.').split('.')
    return '.'.join(labels[-2:]) if len(labels) >= 2 else host


def canonicalize_batch(urls: List[str]) -> List[str]:
    return [canonicalize_url(u) for u in urls]


def page_titles(urls):
    """URL column (Arrow array or chunked array) → page-title column: the
    last path segment with ``_`` read as a space, i.e.
    ``url.rsplit('/', 1)[-1].replace('_', ' ')`` per row, vectorized."""
    return pc.replace_substring(pc.replace_substring_regex(urls, r'(?s)^.*/', ''),
                                '_', ' ')
