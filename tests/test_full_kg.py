"""Full KG: ``run_flagship`` given the companion category and fact tables
unions the taxonomy, Cat2Ax, Cali2Ax and listing-rule streams into the
flagship's triples, over the synthetic corpus.

* The taxonomy layer's rdfs:subClassOf and rdf:type triples equal the
  plain-Python ``oracle_taxonomy_triples``.
* ``run_flagship_checkpointed`` with the companions resumes after
  ``03_mentions`` into a sink equal to the direct run's.
* Adding or removing a companion changes the ``05_triples`` fingerprint
  and rebuilds only that stage.
* The listing-rule context ``kg_streams`` builds has one schema in every
  block, with an int64 ``page_id``.
"""

import os
import shutil

import pytest

from caligraph_ray.corpus import (category_edges_table, facts_table,
                                  generate_pages_table)
from oracle_kg import oracle_taxonomy_triples

N = 120


@pytest.fixture(scope='module')
def tables():
    return (generate_pages_table(N), category_edges_table(N), facts_table(N))


def _inputs(tables):
    import ray.data as rd
    pages, cats, facts = tables
    return (rd.from_arrow(pages).repartition(4), rd.from_arrow(cats),
            rd.from_arrow(facts))


def _triples(ds):
    return {(r['subj'], r['pred'], r['obj'], bool(r['is_literal']))
            for r in ds.take_all()}


@pytest.fixture(scope='module')
def full_kg(ray_session, tables):
    from caligraph_ray.pipelines.flagship import run_flagship
    pages, cats, facts = _inputs(tables)
    return _triples(run_flagship(pages, categories_ds=cats, facts_ds=facts))


def test_full_kg_includes_axiom_triples(full_kg):
    rows = {(s, p, o) for s, p, o, _ in full_kg}
    preds = {p for _, p, _ in rows}
    # flagship streams
    assert 'mentionedIn' in preds and 'subject' in preds
    # Cat2Ax axioms materialized onto members: persons typed + birthPlace
    typed = {(s, o) for s, p, o in rows if p == 'rdf:type'}
    assert any(o == 'Person' for _, o in typed), 'expected Person type axioms'
    bp = {(s, o) for s, p, o in rows if p == 'birthPlace'}
    assert bp, 'expected birthPlace axioms from People-from-X categories'
    # axiom values must be the city of the category, consistent with facts
    from caligraph_ray.corpus import CITY_COUNTRY
    cities = set(CITY_COUNTRY)
    assert all(o in cities for _, o in bp)
    # taxonomy streams: subClassOf edges from the category hierarchy and
    # rdf:type closure onto members (page titles typed with their category
    # node and its ancestors)
    sub_edges = {(s, o) for s, p, o in rows if p == 'rdfs:subClassOf'}
    assert sub_edges, 'expected rdfs:subClassOf triples from the taxonomy'
    # 'People from <city>' categories merge/attach under a People-headed node
    people_children = {s for s, o in sub_edges if s.startswith('People from ')}
    assert people_children, 'expected People-from-X classes in the taxonomy'
    # members got closure types: some member typed with a parent-level class
    closure_objs = {o for _, o in typed}
    assert any(o in {'People by city', 'People', 'Births by year',
                     'Cities by country'} for o in closure_objs), \
        'expected transitive parent types on members'


def test_taxonomy_triples_match_oracle(full_kg, tables):
    """Every subClassOf triple, and every rdf:type triple whose class is
    not a type of the facts table (those are the axiom streams'), is the
    plain-Python oracle's."""
    _, cats, facts = tables
    want = oracle_taxonomy_triples(list(zip(
        *(cats.column(c).to_pylist()
          for c in ('member_url', 'cat_name', 'parent_cat')))))
    kb_types = {o for p, o in zip(facts.column('pred').to_pylist(),
                                  facts.column('obj').to_pylist())
                if p == 'rdf:type'}
    got = {t for t in full_kg if t[1] == 'rdfs:subClassOf'
           or (t[1] == 'rdf:type' and t[2] not in kb_types)}
    assert want and got == want


def test_checkpointed_full_kg_resumes_after_mentions(full_kg, tables,
                                                     tmp_path):
    import ray.data as rd
    from caligraph_ray.pipelines.flagship import run_flagship_checkpointed
    root = str(tmp_path)
    pages, cats, facts = _inputs(tables)
    assert _triples(run_flagship_checkpointed(
        pages, root, categories_ds=cats, facts_ds=facts)) == full_kg
    for d in ('04_linked', '05_triples', 'triples_out'):
        shutil.rmtree(os.path.join(root, d))
    pages, cats, facts = _inputs(tables)
    assert _triples(run_flagship_checkpointed(
        pages, root, categories_ds=cats, facts_ds=facts)) == full_kg
    assert _triples(rd.read_parquet(os.path.join(root, 'triples_out'))
                    .drop_columns(['subj_bucket'])) == full_kg


def test_companions_enter_the_triples_fingerprint(ray_session, full_kg,
                                                  tables, tmp_path):
    from caligraph_ray.pipelines.flagship import (run_flagship,
                                                  run_flagship_checkpointed)
    from caligraph_ray.state.checkpoint import read_lineage
    root = str(tmp_path)

    def run(cats=False, facts=False):
        pages, cats_ds, facts_ds = _inputs(tables)
        got = _triples(run_flagship_checkpointed(
            pages, root, categories_ds=cats_ds if cats else None,
            facts_ds=facts_ds if facts else None))
        return got, read_lineage(root, '05_triples')['fingerprint']

    def linked_stamp():
        return os.path.getmtime(os.path.join(root, '04_linked', '_SUCCESS'))

    plain, fp_plain = run()
    stamp = linked_stamp()
    pages, _, _ = _inputs(tables)
    assert plain == _triples(run_flagship(pages))

    full, fp_full = run(cats=True, facts=True)
    assert full == full_kg
    cats_only, fp_cats = run(cats=True)
    pages, cats, _ = _inputs(tables)
    assert cats_only == _triples(run_flagship(pages, categories_ds=cats))
    again, fp_again = run()
    assert again == plain
    assert len({fp_plain, fp_full, fp_cats}) == 3 and fp_again == fp_plain
    # the companions touch only the triples stage
    assert linked_stamp() == stamp


def test_build_context_blocks_share_one_schema(ray_session, tables,
                                               monkeypatch):
    import ray
    from caligraph_ray.pipelines import full_kg
    from caligraph_ray.pipelines.flagship import run_flagship
    built, real = [], full_kg.build_context

    def recording(*a, **kw):
        out = real(*a, **kw).materialize()
        built.append(out)
        return out

    monkeypatch.setattr(full_kg, 'build_context', recording)
    pages, cats, facts = _inputs(tables)
    run_flagship(pages, categories_ds=cats, facts_ds=facts)
    blocks = ray.get([ref for bundle in built[0].iter_internal_ref_bundles()
                      for ref, _ in bundle.blocks])
    assert blocks
    dtypes = {tuple(map(str, b.dtypes.items())) for b in blocks}
    assert len(dtypes) == 1, dtypes
    assert all(str(b['page_id'].dtype) == 'int64' for b in blocks)
