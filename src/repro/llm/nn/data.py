"""Deterministic synthetic datasets for the study models.

Stand-ins for the paper's datasets (which require HuggingFace access):

* **Markov text** — a Zipfian-unigram, sparse-bigram Markov chain.  A
  trained LM reaches a perplexity well below the uniform baseline, so
  approximation damage is measurable (Fig. 6's PPL deltas).
* **Patch classification** — sequences of "image patches" whose class is
  encoded in a class-specific frequency pattern plus noise (the
  SwinV2/ViViT stand-in task).
* **Feature transcription** — continuous feature sequences that encode a
  token string for the encoder-decoder (Whisper stand-in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from ...errors import ConfigError


@dataclass(frozen=True)
class MarkovCorpus:
    """A synthetic language with Zipfian unigrams and sparse bigrams."""

    vocab_size: int
    transition: np.ndarray  # [vocab, vocab] row-stochastic.

    def sample(self, rng, batch: int, seq_len: int) -> np.ndarray:
        """Sample token sequences ``[batch, seq_len + 1]`` (inputs+targets)."""
        out = np.empty((batch, seq_len + 1), dtype=np.int64)
        cum = np.cumsum(self.transition, axis=1)
        state = rng.integers(0, self.vocab_size, size=batch)
        out[:, 0] = state
        for t in range(1, seq_len + 1):
            u = rng.random(batch)
            state = np.array([np.searchsorted(cum[s], x)
                              for s, x in zip(state, u)])
            state = np.minimum(state, self.vocab_size - 1)
            out[:, t] = state
        return out


def make_markov_corpus(vocab_size: int = 256, branching: int = 6,
                       zipf_a: float = 1.2, seed: int = 1234) -> MarkovCorpus:
    """Build a corpus where each token has ``branching`` likely successors.

    The successor sets are Zipf-weighted so frequent tokens dominate, and
    a small uniform smoothing keeps the chain ergodic.
    """
    if branching < 1 or branching >= vocab_size:
        raise ConfigError("branching must be in [1, vocab_size)")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, branching + 1) ** zipf_a
    transition = np.full((vocab_size, vocab_size),
                         0.02 / vocab_size)
    for token in range(vocab_size):
        successors = rng.choice(vocab_size, size=branching, replace=False)
        transition[token, successors] += 0.98 * weights / weights.sum()
    transition /= transition.sum(axis=1, keepdims=True)
    return MarkovCorpus(vocab_size=vocab_size, transition=transition)


def entropy_floor_ppl(corpus: MarkovCorpus) -> float:
    """The chain's per-token entropy → best achievable perplexity."""
    p = corpus.transition
    stationary = np.full(corpus.vocab_size, 1.0 / corpus.vocab_size)
    for _ in range(200):
        stationary = stationary @ p
    h = -np.sum(stationary[:, None] * p * np.log(p + 1e-30))
    return float(np.exp(h))


def make_patch_dataset(rng, n_classes: int, batch: int, seq_len: int,
                       dim: int, noise: float = 0.35
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Class-conditioned patch sequences ``([b, t, dim], labels)``.

    Each class projects a fixed sinusoidal signature across patches;
    the classifier must denoise and pool it.
    """
    labels = rng.integers(0, n_classes, size=batch)
    t = np.arange(seq_len)[:, None]
    d = np.arange(dim)[None, :]
    patches = np.empty((batch, seq_len, dim))
    for i, label in enumerate(labels):
        signature = np.sin(2 * np.pi * (label + 1) * t / seq_len
                           + d * (label + 1) / dim)
        patches[i] = signature + noise * rng.standard_normal((seq_len, dim))
    return patches, labels


def make_transcription_batch(rng, corpus: MarkovCorpus, batch: int,
                             seq_len: int, dim: int, noise: float = 0.2
                             ) -> tuple[np.ndarray, np.ndarray]:
    """(features, tokens) pairs for the encoder-decoder stand-in.

    The feature sequence is a noisy random linear embedding of the token
    string — the decoder can "transcribe" it through cross-attention.
    """
    tokens = corpus.sample(rng, batch, seq_len)
    embed_rng = np.random.default_rng(7)  # Fixed "acoustic" embedding.
    basis = embed_rng.standard_normal((corpus.vocab_size, dim)) * 0.5
    features = basis[tokens[:, :-1]] + noise * rng.standard_normal(
        (batch, seq_len, dim))
    return features, tokens
