"""Property-based equivalence for listing-rule mining: mine_type_rules'
distributed two-level statistics (micro/macro mean, zero-filled std) vs a
dict-and-loop reimplementation of the documented reference semantics
(impl/listing/extract.py:90-147, 206-258).
"""

import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=list(HealthCheck))


# --- listing-rule mining ------------------------------------------------------

_TYPES = ['T1', 'T2', 'T3']


@st.composite
def context_frame(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    rows = []
    for i in range(n):
        types = draw(st.lists(st.sampled_from(_TYPES), min_size=0, max_size=2,
                              unique=True))
        rows.append({
            'page_type': draw(st.sampled_from(['List', 'Cat'])),
            'topsection': draw(st.sampled_from(['top', 'mid'])),
            'section': draw(st.sampled_from(['s1', 's2'])),
            'page_id': draw(st.integers(min_value=0, max_value=3)),
            'entity': f'e{i}',
            'ent_types': types})
    return pd.DataFrame(rows)


def _ref_mine(df, mean_threshold, min_pages, std_threshold, min_page_entities=3):
    """Loop reimplementation of the documented two-level statistics."""
    out = {}
    for key, g in df.groupby(['page_type', 'topsection', 'section']):
        totals = {p: len(sub) for p, sub in g.groupby('page_id')}
        totals = {p: t for p, t in totals.items() if t >= min_page_entities}
        hits = {}   # (target, page) -> n_hit
        for _, r in g.iterrows():
            if r['page_id'] not in totals:
                continue
            for t in r['ent_types']:
                hits[(t, r['page_id'])] = hits.get((t, r['page_id']), 0) + 1
        active = sorted({p for (_, p) in hits})
        if not active:
            continue
        denom = float(sum(totals[p] for p in active))
        page_count = len(active)
        for target in sorted({t for (t, _) in hits}):
            per_page = {p: c for (t, p), c in hits.items() if t == target}
            micro = min(sum(per_page.values()) / denom, 1.0)
            confs = [min(c / totals[p], 1.0) for p, c in per_page.items()]
            macro = sum(confs) / page_count
            dev = sum(abs(micro - c) for c in confs)
            std = (dev + (page_count - len(confs)) * micro) / page_count
            if (micro > mean_threshold and len(confs) >= min_pages
                    and (std_threshold is None or std < std_threshold)):
                out[key + (target,)] = (round(micro, 6), round(macro, 6),
                                        round(std, 6), len(confs), page_count)
    return out


@SETTINGS
@given(context_frame(), st.sampled_from([0.3, 0.6]),
       st.sampled_from([1, 2]), st.sampled_from([None, 0.5]))
def test_mine_type_rules_matches_reference(ray_session, df, mean_t, min_pages,
                                           std_t):
    import ray.data as rd
    from caligraph_ray.stages.listing_rules import mine_type_rules
    got_df = mine_type_rules(rd.from_pandas(df).repartition(2),
                             mean_threshold=mean_t, min_pages=min_pages,
                             std_threshold=std_t).to_pandas()
    got = {(r['page_type'], r['topsection'], r['section'], r['target']):
           (round(float(r['micro_mean']), 6), round(float(r['macro_mean']), 6),
            round(float(r['micro_std']), 6), int(r['n_pages']),
            int(r['page_count']))
           for _, r in got_df.iterrows()}
    assert got == _ref_mine(df, mean_t, min_pages, std_t)
