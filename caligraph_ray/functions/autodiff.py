"""Micro reverse-mode autodiff over numpy arrays — just enough ops to
backpropagate through functions/tiny_transformer.TinyTransformer
(embedding gather, batched matmul, softmax attention, layer-norm, GELU,
masked mean pool, L2 normalize, InfoNCE cross-entropy).

Why hand-rolled: the sandbox has no torch/jax; the training loop
(functions/train_transformer.py) is the honest numpy analogue of the
reference's HF Trainer fine-tuning (mention_detection/__init__.py:17-49,
biencoder fit). Every op's backward is local and checked against central
finite differences in tests/test_train_transformer.py.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class Var:
    """Node in the tape: value + accumulated gradient + backward closure."""

    __slots__ = ('v', 'g', 'parents', 'bw', 'leaf')

    def __init__(self, v, parents: Sequence['Var'] = (),
                 bw: Optional[Callable] = None, leaf: bool = False):
        self.v = np.asarray(v, dtype=np.float64)
        self.g: Optional[np.ndarray] = None
        self.parents = list(parents)
        self.bw = bw          # out_grad -> tuple of parent grads
        self.leaf = leaf

    @property
    def shape(self):
        return self.v.shape


def param(v) -> Var:
    return Var(v, leaf=True)


def _unbroadcast(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a: Var, b: Var) -> Var:
    return Var(a.v + b.v, (a, b),
               lambda go: (_unbroadcast(go, a.v.shape),
                           _unbroadcast(go, b.v.shape)))


def mul(a: Var, b: Var) -> Var:
    return Var(a.v * b.v, (a, b),
               lambda go: (_unbroadcast(go * b.v, a.v.shape),
                           _unbroadcast(go * a.v, b.v.shape)))


def scale(a: Var, s: float) -> Var:
    return Var(a.v * s, (a,), lambda go: (go * s,))


def add_const(a: Var, c) -> Var:
    c = np.asarray(c, dtype=np.float64)
    return Var(a.v + c, (a,), lambda go: (_unbroadcast(go, a.v.shape),))


def matmul(a: Var, b: Var) -> Var:
    """np.matmul semantics (supports batched stacks; backward sums the
    broadcast batch dims back down)."""
    out = a.v @ b.v

    def bw(go):
        bt = np.swapaxes(b.v, -1, -2)
        at = np.swapaxes(a.v, -1, -2)
        ga = go @ bt
        gb = at @ go
        return (_unbroadcast(ga, a.v.shape), _unbroadcast(gb, b.v.shape))

    return Var(out, (a, b), bw)


def transpose(a: Var, axes: Tuple[int, ...]) -> Var:
    inv = np.argsort(axes)
    return Var(a.v.transpose(axes), (a,),
               lambda go: (go.transpose(tuple(inv)),))


def reshape(a: Var, shape: Tuple[int, ...]) -> Var:
    old = a.v.shape
    return Var(a.v.reshape(shape), (a,), lambda go: (go.reshape(old),))


def gather_rows(table: Var, ids: np.ndarray) -> Var:
    """table[ids] for an (V, D) table and integer id array of any shape;
    backward scatter-adds into the table rows."""
    out = table.v[ids]

    def bw(go):
        g = np.zeros_like(table.v)
        np.add.at(g, ids.reshape(-1), go.reshape(-1, table.v.shape[-1]))
        return (g,)

    return Var(out, (table,), bw)


def softmax_last(a: Var) -> Var:
    x = a.v - a.v.max(-1, keepdims=True)
    e = np.exp(x)
    y = e / e.sum(-1, keepdims=True)
    return Var(y, (a,),
               lambda go: ((go - (go * y).sum(-1, keepdims=True)) * y,))


def gelu(a: Var) -> Var:
    c = np.sqrt(2 / np.pi)
    x = a.v
    inner = c * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    y = 0.5 * x * (1.0 + t)

    def bw(go):
        dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        return (go * dy,)

    return Var(y, (a,), bw)


def layer_norm(x: Var, g: Var, b: Var, eps: float = 1e-5) -> Var:
    mu = x.v.mean(-1, keepdims=True)
    var = x.v.var(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.v - mu) * inv
    y = g.v * xhat + b.v

    def bw(go):
        gg = _unbroadcast(go * xhat, g.v.shape)
        gb = _unbroadcast(go, b.v.shape)
        gx_hat = go * g.v
        gx = inv * (gx_hat - gx_hat.mean(-1, keepdims=True)
                    - xhat * (gx_hat * xhat).mean(-1, keepdims=True))
        return (gx, gg, gb)

    return Var(y, (x, g, b), bw)


def masked_mean_pool(x: Var, mask: np.ndarray) -> Var:
    """x (B,T,D), mask (B,T) of 0/1 → (B,D) mean over unmasked steps."""
    denom = np.maximum(mask.sum(1, keepdims=True), 1.0)        # (B,1)
    y = (x.v * mask[:, :, None]).sum(1) / denom

    def bw(go):
        return (go[:, None, :] * mask[:, :, None] / denom[:, :, None],)

    return Var(y, (x,), bw)


def l2_normalize(x: Var, eps: float = 1e-12) -> Var:
    """Row-wise x/‖x‖ over the last axis."""
    nrm = np.maximum(np.linalg.norm(x.v, axis=-1, keepdims=True), eps)
    y = x.v / nrm

    def bw(go):
        return ((go - (go * y).sum(-1, keepdims=True) * y) / nrm,)

    return Var(y, (x,), bw)


def cross_entropy_rows(logits: Var, targets: np.ndarray) -> Var:
    """Mean CE of each row's target class; dlogits = (softmax−onehot)/B."""
    x = logits.v - logits.v.max(-1, keepdims=True)
    e = np.exp(x)
    p = e / e.sum(-1, keepdims=True)
    b = len(targets)
    rows = np.arange(b)
    loss = -np.mean(np.log(np.maximum(p[rows, targets], 1e-30)))

    def bw(go):
        g = p.copy()
        g[rows, targets] -= 1.0
        return (go * g / b,)

    return Var(loss, (logits,), bw)


def cross_entropy_tokens(logits: Var, targets: np.ndarray,
                         valid: np.ndarray) -> Var:
    """Mean CE over VALID token positions: logits (B,T,C), targets (B,T)
    class ids (ignored where ``valid`` is 0), valid (B,T) of 0/1."""
    x = logits.v - logits.v.max(-1, keepdims=True)
    e = np.exp(x)
    p = e / e.sum(-1, keepdims=True)
    v = valid.astype(bool)
    n = max(int(v.sum()), 1)
    tgt = np.where(v, targets, 0)
    b_idx, t_idx = np.nonzero(v)
    loss = -np.sum(np.log(np.maximum(
        p[b_idx, t_idx, tgt[b_idx, t_idx]], 1e-30))) / n

    def bw(go):
        g = p.copy()
        np.subtract.at(g, (b_idx, t_idx, tgt[b_idx, t_idx]), 1.0)
        g *= v[:, :, None]
        return (go * g / n,)

    return Var(loss, (logits,), bw)


def backward(out: Var):
    """Reverse-topological accumulation from a scalar output."""
    order: List[Var] = []
    seen = set()

    def visit(n: Var):
        if id(n) in seen:
            return
        seen.add(id(n))
        for p in n.parents:
            visit(p)
        order.append(n)

    visit(out)
    for n in order:
        n.g = None
    out.g = np.ones_like(out.v)
    for n in reversed(order):
        if n.bw is None or n.g is None:
            continue
        for p, g in zip(n.parents, n.bw(n.g)):
            if g is None:
                continue
            p.g = g if p.g is None else p.g + g
