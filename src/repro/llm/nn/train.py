"""Training loops for the study models.

Each trainer is deterministic given its seed and returns the model plus
its loss history.  The trained models are what the accuracy experiments
(Fig. 4/6/7/8 reproductions) perturb with nonlinear approximations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from .data import (
    MarkovCorpus,
    make_markov_corpus,
    make_patch_dataset,
    make_transcription_batch,
)
from .optim import Adam, cross_entropy
from .transformer import (
    EncoderDecoderLM,
    TinyModelConfig,
    TransformerClassifier,
    TransformerLM,
)


@dataclass
class TrainResult:
    """A trained model and its telemetry."""

    model: object
    losses: list = field(default_factory=list)
    corpus: MarkovCorpus | None = None


def train_lm(cfg: TinyModelConfig | None = None, steps: int = 250,
             batch: int = 16, seq_len: int = 64, lr: float = 3e-3,
             seed: int = 0) -> TrainResult:
    """Train a decoder LM on the Markov corpus (Llama-2 stand-in)."""
    cfg = cfg or TinyModelConfig()
    corpus = make_markov_corpus(vocab_size=cfg.vocab_size, seed=seed + 1000)
    model = TransformerLM(cfg, seed=seed)
    opt = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed + 1)
    losses = []
    for _ in range(steps):
        tokens = corpus.sample(rng, batch, seq_len)
        logits = model.forward(tokens[:, :-1])
        loss, d_logits = cross_entropy(logits, tokens[:, 1:])
        opt.zero_grad()
        model.backward(d_logits)
        opt.step()
        losses.append(loss)
    return TrainResult(model=model, losses=losses, corpus=corpus)


def train_classifier(cfg: TinyModelConfig | None = None, n_classes: int = 8,
                     steps: int = 250, batch: int = 16, seq_len: int = 32,
                     lr: float = 1e-3, seed: int = 0) -> TrainResult:
    """Train a patch classifier (SwinV2 / ViViT stand-in)."""
    cfg = cfg or TinyModelConfig(activation="gelu")
    model = TransformerClassifier(cfg, n_classes=n_classes, seed=seed)
    opt = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed + 2)
    losses = []
    for _ in range(steps):
        patches, labels = make_patch_dataset(rng, n_classes, batch,
                                             seq_len, cfg.dim)
        logits = model.forward(patches)
        loss, d_logits = cross_entropy(logits, labels)
        opt.zero_grad()
        model.backward(d_logits)
        opt.step()
        losses.append(loss)
    return TrainResult(model=model, losses=losses)


def train_encoder_decoder(cfg: TinyModelConfig | None = None,
                          steps: int = 250, batch: int = 8,
                          seq_len: int = 32, lr: float = 1e-3,
                          seed: int = 0) -> TrainResult:
    """Train the transcription encoder-decoder (Whisper stand-in)."""
    cfg = cfg or TinyModelConfig(activation="gelu")
    corpus = make_markov_corpus(vocab_size=cfg.vocab_size, seed=seed + 3000)
    model = EncoderDecoderLM(cfg, seed=seed)
    opt = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed + 3)
    losses = []
    for _ in range(steps):
        features, tokens = make_transcription_batch(rng, corpus, batch,
                                                    seq_len, cfg.dim)
        logits = model.forward(features, tokens[:, :-1])
        loss, d_logits = cross_entropy(logits, tokens[:, 1:])
        opt.zero_grad()
        model.backward(d_logits)
        opt.step()
        losses.append(loss)
    return TrainResult(model=model, losses=losses, corpus=corpus)
