"""Perplexity / loss evaluation under nonlinear approximations (Fig. 6/7).

Given a trained study model and an approximation configuration, these
helpers measure the end-to-end metric (perplexity for LMs, loss for
classifiers) with the approximation installed — the workload half of the
paper's evaluation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from ..baselines import precise
from ..baselines.pwl import PWLApproximator, PWLConfig
from ..baselines.taylor import TaylorConfig, TaylorExpApproximator
from ..core.approx import VLPApproxConfig, VLPApproximator
from ..errors import ConfigError
from .nn.optim import cross_entropy, perplexity_from_loss


def softmax_from_exp(exp_fn: Callable, row_windows: bool = False
                     ) -> Callable:
    """Wrap an elementwise exp approximation into a softmax function.

    Max-subtraction and the sum/reciprocal stay precise (the vector-array
    portion of Mugi's softmax, §4.1).  With ``row_windows`` the exp
    approximation receives per-row tiling (VLP sliding windows).
    """
    def softmax(scores: np.ndarray) -> np.ndarray:
        shifted = scores - np.max(scores, axis=-1, keepdims=True)
        # Mask fill values (-1e30) would poison window selection.
        masked = shifted < -1e20
        safe = np.where(masked, 0.0, shifted)
        if row_windows:
            e = exp_fn(safe, tile_axes=(-1,))
        else:
            e = exp_fn(safe)
        e = np.where(masked, 0.0, np.maximum(e, 0.0))
        denom = np.sum(e, axis=-1, keepdims=True)
        denom = np.where(denom <= 0, 1.0, denom)
        return e / denom

    return softmax


def make_softmax_fn(method: str, **params) -> Callable:
    """Softmax implementations by method name.

    ``"precise"`` | ``"vlp"`` (params: lut_size, max_exp, ...) |
    ``"pwl"`` (segments, segment_range) | ``"taylor"`` (degree, center).
    """
    method = method.lower()
    if method == "precise":
        return lambda s: precise.softmax(s, axis=-1)
    if method == "vlp":
        approx = VLPApproximator(VLPApproxConfig(op="exp", **params))
        return softmax_from_exp(approx, row_windows=True)
    if method == "pwl":
        approx = PWLApproximator(PWLConfig(op="exp", **params))
        return softmax_from_exp(approx)
    if method == "taylor":
        approx = TaylorExpApproximator(TaylorConfig(**params))
        return softmax_from_exp(approx)
    raise ConfigError(f"unknown softmax method {method!r}")


def make_activation_fn(method: str, op: str, **params) -> Callable:
    """Elementwise activation implementations by method name."""
    method = method.lower()
    if method == "precise":
        return precise.get_function(op)
    if method == "vlp":
        return VLPApproximator(VLPApproxConfig(op=op, **params))
    if method == "pwl":
        return PWLApproximator(PWLConfig(op=op, **params))
    if method == "pa":
        from ..baselines.partial import PartialApproximator
        return PartialApproximator(op)
    raise ConfigError(f"unknown activation method {method!r}")


# ---------------------------------------------------------------------------
def evaluate_lm_perplexity(model, corpus, n_batches: int = 8,
                           batch: int = 8, seq_len: int = 64,
                           seed: int = 99) -> float:
    """Held-out perplexity of a decoder LM (with whatever nonlinear
    implementations are currently installed on the model)."""
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n_batches):
        tokens = corpus.sample(rng, batch, seq_len)
        logits = model.forward(tokens[:, :-1])
        loss, _ = cross_entropy(logits, tokens[:, 1:])
        losses.append(loss)
    return perplexity_from_loss(float(np.mean(losses)))


def evaluate_classifier_loss(model, n_batches: int = 8, batch: int = 16,
                             seq_len: int = 32, seed: int = 99) -> float:
    """Held-out cross-entropy loss of a patch classifier."""
    from .nn.data import make_patch_dataset
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n_batches):
        patches, labels = make_patch_dataset(rng, model.n_classes, batch,
                                             seq_len, model.cfg.dim)
        logits = model.forward(patches)
        loss, _ = cross_entropy(logits, labels)
        losses.append(loss)
    return float(np.mean(losses))


def evaluate_encdec_perplexity(model, corpus, n_batches: int = 8,
                               batch: int = 8, seq_len: int = 32,
                               seed: int = 99) -> float:
    """Held-out perplexity of the encoder-decoder stand-in."""
    from .nn.data import make_transcription_batch
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n_batches):
        features, tokens = make_transcription_batch(
            rng, corpus, batch, seq_len, model.cfg.dim)
        logits = model.forward(features, tokens[:, :-1])
        loss, _ = cross_entropy(logits, tokens[:, 1:])
        losses.append(loss)
    return perplexity_from_loss(float(np.mean(losses)))


def evaluate_with_approximation(model, evaluator: Callable,
                                softmax_fn: Callable | None = None,
                                activation_fn: Callable | None = None,
                                layers: list[int] | None = None) -> float:
    """Install approximations, evaluate, and restore precise ops."""
    model.set_nonlinear(softmax_fn=softmax_fn, activation_fn=activation_fn,
                        layers=layers)
    try:
        return evaluator(model)
    finally:
        model.clear_nonlinear()
