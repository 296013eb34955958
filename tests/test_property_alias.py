"""Property-based cross-checks of the alias linker against a plain-Python
Counter reference with the (freq desc, name asc) tie-break:

* link_mentions_join (one norm_surface exchange, each bucket linked by
  link_surface_bucket) gives every mention the reference's
  (entity, link_score), including wikilinked rows, NIL surfaces and ties.
* the per-surface argmax of link_surface_bucket equals the reference's.
"""

import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=list(HealthCheck))

_SURFACES = ['alpha', 'beta', 'gamma']
_NAMES = [None, 'Ent A', 'Ent B', 'Ent C']


@st.composite
def mentions_frame(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    rows = []
    for i in range(n):
        rows.append({'mention_uid': i + 1,
                     'norm_surface': draw(st.sampled_from(_SURFACES)),
                     'name': draw(st.sampled_from(_NAMES))})
    return pd.DataFrame(rows)


def _ref_index(df):
    counts = {}
    for _, r in df.iterrows():
        if r['name'] is None or r['norm_surface'] == '':
            continue
        k = (r['norm_surface'], r['name'])
        counts[k] = counts.get(k, 0) + 1
    index = {}
    for (s, nm), c in counts.items():
        index.setdefault(s, []).append((nm, c))
    for s in index:
        index[s].sort(key=lambda x: (-x[1], x[0]))
    return index


def _ref_links(df):
    """Per row, (mention_uid, entity, link_score): wikilinked rows keep
    their target at 1.0, the others take their surface's argmax at
    freq/total, or (None, 0.0) when the surface has no candidate."""
    index = _ref_index(df)
    out = []
    for uid, surf, name in zip(df['mention_uid'], df['norm_surface'],
                               df['name']):
        cands = index.get(surf)
        if name is not None:
            out.append((int(uid), name, 1.0))
        elif cands:
            total = sum(c for _, c in cands)
            out.append((int(uid), cands[0][0], round(cands[0][1] / total, 12)))
        else:
            out.append((int(uid), None, 0.0))
    return out


@SETTINGS
@given(mentions_frame())
def test_join_linking_matches_reference(ray_session, df):
    import ray.data as rd
    from caligraph_ray.stages.alias import link_mentions_join
    ds = rd.from_pandas(df).repartition(2)
    via_join = link_mentions_join(ds).to_pandas()
    got = {int(r['mention_uid']):
           (r['entity'] if pd.notna(r['entity']) else None,
            round(float(r['link_score']), 12))
           for _, r in via_join.iterrows()}
    assert got == {u: (e, s) for u, e, s in _ref_links(df)}


@SETTINGS
@given(mentions_frame())
def test_alias_argmax_matches_counter(ray_session, df):
    """One unlinked probe row per surface reads that surface's argmax off
    link_mentions_join: (top name, top freq / total), or NIL."""
    import ray.data as rd
    from caligraph_ray.stages.alias import link_mentions_join
    probes = pd.DataFrame({'mention_uid': [1000 + i for i in range(len(_SURFACES))],
                           'norm_surface': _SURFACES,
                           'name': [None] * len(_SURFACES)})
    got_df = link_mentions_join(
        rd.from_pandas(pd.concat([df, probes], ignore_index=True))
        .repartition(2)).to_pandas()
    got_df = got_df[got_df['mention_uid'] >= 1000]
    got = {r['norm_surface']:
           (r['entity'] if pd.notna(r['entity']) else None,
            round(float(r['link_score']), 12))
           for _, r in got_df.iterrows()}
    want = {s: (None, 0.0) for s in _SURFACES}
    for s, cands in _ref_index(df).items():
        total = sum(c for _, c in cands)
        want[s] = (cands[0][0], round(cands[0][1] / total, 12))
    assert got == want
