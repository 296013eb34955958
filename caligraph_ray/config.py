"""Engine-wide configuration (thresholds mirror reference config.yaml:4-25).

Every constant that shapes the *semantics* of an operator lives here so the
pytest goldens and the distributed stages can never drift apart.
"""

from __future__ import annotations


# --- entity-index sentinels (reference impl/util/transformer.py:5-8) ---
NEW_ENTITY = -1
NO_ENTITY = -2

# --- Cat2Ax (reference config.yaml: cat2ax.pattern_confidence = 0.05) ---
CAT2AX_PATTERN_CONF = 0.05

# --- linking / clustering thresholds (reference entity_disambiguation/__init__.py:69) ---
MENTION_MENTION_THRESHOLD = 0.8
MENTION_ENTITY_THRESHOLD = 0.95
PATH_THRESHOLD = 0.75
# weight of the per-surface mention-mention star edges (read by edge
# generation; the component split takes the weight off each edge)
MM_SCORE = 0.9

# --- listing parsing guards (reference page_parser.py:256-258, 393-395, 411) ---
MIN_ENUM_ENTRIES = 3
MIN_TABLE_ROWS = 3
MIN_TABLE_COLS = 2
MAX_TABLE_COLS = 100

# --- surface-form handling ---
# labels shorter than this or numeric are never subject-entity labels
# (reference impl/subject_entity/mention_detection/__init__.py:111-112)
MIN_LABEL_LEN = 3
# unknown labels occurring more often than this are dropped
# (reference impl/wikipedia/__init__.py:59-67)
MAX_UNKNOWN_LABEL_FREQ = 50

# --- meta sections dropped during parsing (reference page_parser.py:86-91) ---
META_SECTIONS = frozenset({
    'see also', 'external links', 'references', 'notes', 'sources',
    'external sources', 'general sources', 'bibliography',
    'notes and references', 'citations', 'references and footnotes',
    'references and links', 'maps', 'further reading',
})

# --- functional predicate heuristic (reference impl/dbpedia/heuristics.py:163-184) ---
FUNCTIONAL_PRED_THRESHOLD = 0.95

# --- domain/range heuristic thresholds (reference heuristics.py:38-62) ---
DOMAIN_THRESHOLD = 0.96
RANGE_THRESHOLD = 0.77

import os as _os

# SemDeDup megacluster guard (dedup.semdedup_keep): a cluster larger than
# this many rows is split into ceil(size/cap) deterministic id-hash chunks
# and pruned via a chunk-PAIR exchange (cross comparisons only) — keep
# decisions identical to the single-bucket path, per-task memory bounded by
# 2·cap rows. Env-overridable so the guard pytest forces a tiny cap.
SEMDEDUP_CLUSTER_CAP = int(_os.environ.get('SEMDEDUP_CLUSTER_CAP', 65_536))

# candidate-pair count above which pairs_to_groups must NOT collect the pair
# list to the driver (near-dup pairs scale WITH a web corpus — 30-50% of
# crawl docs have a near-dup): groups then derive from the adaptive
# distributed connected_components (canonicalize.py) whose driver tail is a
# contracted spanning forest, not the raw edge list. Env so tests force it.
PAIR_GROUPS_DRIVER_LIMIT = int(
    _os.environ.get('PAIR_GROUPS_DRIVER_LIMIT', 5_000_000))

# --- dedup defaults ---
MINHASH_NUM_PERM = 64
MINHASH_BANDS = 16          # 16 bands x 4 rows
MINHASH_SHINGLE_SIZE = 3    # word shingles
SIMHASH_BITS = 64
SIMHASH_HAMMING_THRESHOLD = 3
NGRAM_JACCARD_THRESHOLD = 0.8
EMBEDDING_DUP_COSINE = 0.95
# exact O(N²) embedding near-dup runs K(K+1)/2 block-pair tasks; above this
# many normalized blocks the auto path routes to the sub-quadratic LSH
# variant. 64 blocks × 65536 rows ≈ 4M vectors / 2080 tasks — past that,
# exact is a scale-killer.
EMBEDDING_EXACT_MAX_BLOCKS = 64
# per-ROW page-parse wall-clock budget (reference: 60 s SIGALRM,
# page_parser.py:287-301); a page over budget becomes a kind='drop' row.
PARSE_TIMEOUT_S = 60.0

# --- batching defaults (tuned single-node; hold at cluster scale because they
#     are per-task quantities, not per-dataset) ---
PARSE_BATCH_SIZE = 256        # html pages per parse batch (heavy rows)
TOKEN_BATCH_SIZE = 4096       # token/mention-level batches
AGG_BATCH_SIZE = 65536        # lightweight relational batches
OUTPUT_PARTITIONS = 16        # hash(subj) partitions of the triple sink


# --- listing-rule thresholds (reference config.yaml listing.*) ---
LISTING_TYPE_MEAN_THRESHOLD = 0.9
LISTING_TYPE_STD_THRESHOLD = 0.2
LISTING_RELATION_MEAN_THRESHOLD = 0.85
LISTING_RELATION_STD_THRESHOLD = 0.2

