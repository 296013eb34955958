"""Deterministic hashing primitives: stable ids, MinHash, SimHash, fingerprints.

Everything here is seed-fixed and process-independent (no PYTHONHASHSEED
dependence) so that distributed runs are reproducible — the engine's
universal-entity-key analogue of the reference's integer ``idx``
(impl/util/rdf.py:70-103).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

import numpy as np

_MERSENNE = (1 << 61) - 1
_MAX64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def stable_hash64(text: str) -> int:
    """Deterministic 63-bit non-negative hash of a string (blake2b-based)."""
    return int.from_bytes(hashlib.blake2b(text.encode('utf-8'), digest_size=8).digest(), 'big') >> 1


def stable_hash64_array(texts) -> np.ndarray:
    """Vectorized-over-rows stable_hash64 (hashlib per row; cheap vs. parse cost)."""
    return np.fromiter((stable_hash64(t) for t in texts), dtype=np.int64, count=len(texts))


def md5_hash64(text: str) -> int:
    """First 8 md5 bytes, little-endian — bit-identical to DuckDB's
    ``md5_number_upper``, which makes any operator parameterized on this
    hash SQL-oracle-checkable (simhash, winnowing fingerprints)."""
    return int.from_bytes(hashlib.md5(text.encode('utf-8')).digest()[:8], 'little')


def md5_hash64_batch(values, prefix: str = '') -> np.ndarray:
    """Batched ``md5_hash64(prefix + str(v))`` → uint64 array, bit-identical
    to the per-row call (property-pinned). The sampling/capping membership
    functions run this over EVERY row of the corpus, so the Python overhead
    around each digest matters: bytes %-formatting for integer keys plus an
    ``np.fromiter`` digest loop cuts a 65k-row batch from ~76 ms to ~54 ms
    (1.4×; the md5 calls themselves are the remaining floor — there is no
    vectorized md5 kernel in numpy/pyarrow, and the hash must stay md5 for
    DuckDB ``md5_number_upper`` oracle parity)."""
    md5 = hashlib.md5
    pre = prefix.encode('utf-8')
    arr = values.to_numpy() if hasattr(values, 'to_numpy') else \
        np.asarray(values)
    n = len(arr)
    if arr.dtype.kind in 'iu':
        enc = [pre + b'%d' % x for x in arr.tolist()]
    else:
        # str(x) matches f'{x}' for every value (None → 'None', nan →
        # 'nan'), so membership is unchanged on object/string id columns
        enc = [pre + str(x).encode('utf-8') for x in arr.tolist()]
    return np.fromiter((int.from_bytes(md5(b).digest()[:8], 'little')
                        for b in enc), np.uint64, n)


LOG2_FIXED_S = 40   # mantissa fixed-point scale (fractional bits kept)
LOG2_FIXED_F = 20   # fractional bits of the emitted log2


def log2_fixed(v: int, S: int = LOG2_FIXED_S, F: int = LOG2_FIXED_F) -> int:
    """Fixed-point ``floor(log2(v) * 2**F)``-style quantization computed with
    INTEGER arithmetic only (shift-and-square), so any engine with exact
    integer ops replays it bit-for-bit — no ``ln``/``round`` last-ulp or
    half-even-vs-half-away divergence is possible.  Used by the unigram-LM
    scoring contract (see stages/textstats.unigram_logprob_scores and its
    recursive-CTE DuckDB twin in pipelines/queries.SQL_UNIGRAM_LP).

    Algorithm: normalize v to a mantissa y in [2^S, 2^(S+1)); each of the F
    squaring steps extracts one fractional bit of log2 (truncating the
    mantissa back to S bits) — the classical binary-logarithm iteration.
    Requires v >= 1.
    """
    i = v.bit_length() - 1
    y = (v << S) >> i
    frac = 0
    for _ in range(F):
        y = (y * y) >> S
        if y >= (2 << S):
            frac = frac * 2 + 1
            y >>= 1
        else:
            frac = frac * 2
    return i * (1 << F) + frac


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """Word-shingle MinHash with banding for LSH (SURVEY.md dedup additions).

    Stateless w.r.t. data; instantiate once per actor (permutation params
    computed in __init__, reused per batch).
    """

    def __init__(self, num_perm: int = 64, shingle_size: int = 3, bands: int = 16,
                 seed: int = 7, shingle_hash=None):
        assert num_perm % bands == 0
        self.num_perm = num_perm
        self.shingle_size = shingle_size
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.a, self.b = _minhash_params(num_perm, seed)
        # shingle_hash=md5_hash64 makes signatures SQL-recomputable
        self.shingle_hash = shingle_hash or stable_hash64

    def shingles(self, tokens: List[str]) -> np.ndarray:
        k = self.shingle_size
        if len(tokens) < k:
            joined = [' '.join(tokens)] if tokens else ['']
        else:
            joined = [' '.join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]
        return np.unique(np.array([self.shingle_hash(s) for s in joined], dtype=np.uint64))

    def signature(self, tokens: List[str]) -> np.ndarray:
        sh = self.shingles(tokens)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (num_perm, n_shingles) universal hashing, min per permutation
        vals = (np.outer(self.a, sh) + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """One stable hash per band → LSH bucket keys."""
        out = np.empty(self.bands, dtype=np.int64)
        r = self.rows_per_band
        for i in range(self.bands):
            h = hashlib.blake2b(sig[i * r:(i + 1) * r].tobytes(), digest_size=8)
            out[i] = int.from_bytes(h.digest(), 'big') >> 1
        return out

    @staticmethod
    def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float(np.mean(sig_a == sig_b))


def simhash64(tokens: Iterable[str], hash_fn=None) -> int:
    """64-bit SimHash over token hashes (near-dup by hamming distance).
    ``hash_fn`` defaults to stable_hash64 with bit 62 forced (63 informative
    bits); pass ``md5_hash64`` for the SQL-checkable variant."""
    acc = np.zeros(64, dtype=np.int64)
    n = 0
    for t in tokens:
        h = hash_fn(t) if hash_fn else (stable_hash64(t) | (1 << 62))
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += 2 * bits.astype(np.int64) - 1
        n += 1
    if n == 0:
        return 0
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count('1')


def rolling_fingerprint(text: str, window: int = 16, keep: int = 8,
                        hash_fn=stable_hash64) -> List[int]:
    """Winnowing-style document fingerprint: the `keep` smallest of the
    rolling-window hashes (deterministic, order-free). Pass
    ``hash_fn=md5_hash64`` for the DuckDB-checkable variant."""
    if not text:
        return []
    n = len(text)
    if n <= window:
        return [hash_fn(text)]
    hashes = sorted({hash_fn(text[i:i + window]) for i in range(0, n - window + 1)})
    return hashes[:keep]


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)
