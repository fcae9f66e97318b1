"""Sampling of W-random graphs and monotone couplings of two graphons.

Draw layout is fixed so that samples are reproducible and couplings are
exact: for a sample on n vertices, counters 0..n-1 of the stream hold the
latent uniforms X_1..X_n, and counter n + p holds the edge uniform for the
p-th vertex pair in lexicographic order.  Two graphons sampled with the
same seed therefore share both latents and edge uniforms, which turns the
pointwise order of graphons into a sure subgraph relation of the samples.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .graphon import StepGraphon, pointwise_leq
from .graphs import SimpleGraph, all_pairs
from .rng import TWO_NEG_53, CounterStream, SampleSeed, raw_block


def _latent_blocks(W: StepGraphon, n: int, stream: CounterStream) -> list:
    """Block index of each latent X_i, resolved with exact rationals."""
    cuts = W.boundaries()
    k = W.k
    return [min(bisect_right(cuts, Fraction(m, 1 << 53)), k - 1)
            for m in (raw_block(stream.key, 0, n) >> np.uint64(11)).tolist()]


def sample_wrandom(W: StepGraphon, n: int, seed: SampleSeed) -> SimpleGraph:
    """W-random graph: latent uniforms X_i, edge {i,j} with prob W(X_i, X_j).

    The pair uniforms (counters n .. n + C(n,2) - 1) are read as one block
    and compared as an array: every (draw >> 11) is below 2^53, so it and
    its product with 2^-53 are exact in float64, as in the scalar
    expression, and a uniform is never below a zero probability.
    """
    if n < 1:
        raise ValidationError("need at least one vertex")
    stream = CounterStream(seed)
    blocks = np.array(_latent_blocks(W, n, stream), dtype=np.intp)
    pairs = all_pairs(n)
    rows, cols = np.triu_indices(n, 1)  # all_pairs order
    prob = W.values[blocks[rows], blocks[cols]]
    uniform = (raw_block(stream.key, n, len(pairs)) >> np.uint64(11)).astype(
        np.float64) * TWO_NEG_53
    hits = np.flatnonzero(uniform < prob).tolist()
    return SimpleGraph.from_edges(n, [pairs[p] for p in hits])


def sample_coupled(Wlow: StepGraphon, Whigh: StepGraphon, n: int,
                   seed: SampleSeed):
    """Coupled pair (G_low, G_high) with E(G_low) contained in E(G_high), surely.

    Requires Wlow <= Whigh pointwise.  Both graphs are sample_wrandom draws
    with the same seed, so they read the same latents and the same
    per-pair uniform; an edge enters each graph iff its uniform falls
    below that graphon's value, so containment is an identity, not a
    statistical event.
    """
    if not pointwise_leq(Wlow, Whigh):
        raise ValidationError("sample_coupled requires Wlow <= Whigh pointwise")
    return sample_wrandom(Wlow, n, seed), sample_wrandom(Whigh, n, seed)
