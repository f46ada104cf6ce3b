"""Trained study models, cached per process.

The accuracy experiments (Figs. 4, 6, 7, 8) all perturb the *same*
trained models, so training happens once per process and is memoized.
Four families mirror Table 1: a decoder LM (Llama-2), an encoder-decoder
(Whisper), and two classifiers (SwinV2, ViViT) distinguished by sequence
geometry.
"""

from __future__ import annotations

from functools import lru_cache

from ..llm.nn import (
    TinyModelConfig,
    TrainResult,
    train_classifier,
    train_encoder_decoder,
    train_lm,
)

#: Families studied by the workload evaluation (Table 1).
FAMILIES = ("llama2", "whisper", "swinv2", "vivit")


# Each getter passes its arguments positionally and in full to a cached
# trainer: ``lru_cache`` keys on arguments as spelled, so
# ``get_lm(steps=120)`` and ``get_lm(120, 2, 0)`` would otherwise train
# the same model twice.

def get_lm(steps: int = 250, n_layers: int = 2, seed: int = 0) -> TrainResult:
    """The decoder-LM stand-in (Llama-2 family): SiLU gated FFN, RMSNorm."""
    return _trained_lm(steps, n_layers, seed)


@lru_cache(maxsize=None)
def _trained_lm(steps: int, n_layers: int, seed: int) -> TrainResult:
    cfg = TinyModelConfig(vocab_size=256, dim=64, n_layers=n_layers,
                          n_heads=4, ffn_dim=128, max_seq_len=128,
                          activation="silu")
    return train_lm(cfg, steps=steps, seed=seed)


def get_encoder_decoder(steps: int = 200, seed: int = 0) -> TrainResult:
    """The encoder-decoder stand-in (Whisper family): GELU, LayerNorm."""
    return _trained_encoder_decoder(steps, seed)


@lru_cache(maxsize=None)
def _trained_encoder_decoder(steps: int, seed: int) -> TrainResult:
    cfg = TinyModelConfig(vocab_size=128, dim=48, n_layers=2, n_heads=4,
                          ffn_dim=96, max_seq_len=64, activation="gelu")
    return train_encoder_decoder(cfg, steps=steps, seed=seed)


def get_classifier(family: str = "swinv2", steps: int = 200,
                   seed: int = 0) -> TrainResult:
    """Classifier stand-ins: SwinV2 (short windows) / ViViT (long seq)."""
    return _trained_classifier(family, steps, seed)


@lru_cache(maxsize=None)
def _trained_classifier(family: str, steps: int, seed: int) -> TrainResult:
    if family == "swinv2":
        cfg = TinyModelConfig(dim=48, n_layers=2, n_heads=4, ffn_dim=96,
                              max_seq_len=16, activation="gelu")
        return train_classifier(cfg, n_classes=8, steps=steps,
                                seq_len=16, seed=seed)
    cfg = TinyModelConfig(dim=48, n_layers=2, n_heads=4, ffn_dim=96,
                          max_seq_len=48, activation="gelu")
    return train_classifier(cfg, n_classes=8, steps=steps, seq_len=48,
                            seed=seed + 10)


def quick_lm(seed: int = 0) -> TrainResult:
    """A faster-to-train LM for unit tests (fewer steps)."""
    return get_lm(steps=120, n_layers=2, seed=seed)
