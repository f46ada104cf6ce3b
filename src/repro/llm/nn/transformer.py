"""Transformer models: decoder LM, encoder classifier, encoder-decoder.

Three scaled-down stand-ins for the paper's four model families (Table 1):

* :class:`TransformerLM` — decoder-only causal LM with RMSNorm and a
  gated SiLU FFN (the Llama-2 shape);
* :class:`TransformerClassifier` — encoder with LayerNorm, GELU MLP, and
  a mean-pool head (the SwinV2 / ViViT shape; loss instead of perplexity);
* :class:`EncoderDecoderLM` — encoder + causally-masked decoder with
  cross-attention and GELU (the Whisper shape).

All support full backward passes through the *precise* nonlinearities;
approximations are injected at evaluation time via ``set_nonlinear`` —
including per-layer overrides, which is what the Fig. 7 per-layer tuning
experiment exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from ...baselines import precise
from ...errors import ConfigError
from .attention import MultiHeadAttention
from .layers import Embedding, LayerNorm, Linear, Module, RMSNorm


@dataclass(frozen=True)
class TinyModelConfig:
    """Geometry of a scaled-down study model.

    ``activation`` is "silu" (gated FFN, Llama style) or "gelu" (plain
    MLP, Whisper/Swin/ViViT style).
    """

    vocab_size: int = 256
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_kv_heads: int | None = None
    ffn_dim: int = 128
    max_seq_len: int = 128
    activation: str = "silu"

    def __post_init__(self):
        if self.activation not in ("silu", "gelu"):
            raise ConfigError("activation must be 'silu' or 'gelu'")


def _silu_grad(x: np.ndarray) -> np.ndarray:
    s = precise.sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return cdf + x * pdf


class FeedForward(Module):
    """FFN with pluggable activation: gated (SiLU) or plain (GELU)."""

    def __init__(self, dim: int, ffn_dim: int, activation: str, rng):
        self.activation = activation
        self.gated = activation == "silu"
        self.up = Linear(dim, ffn_dim, rng, bias=False)
        self.gate = Linear(dim, ffn_dim, rng, bias=False) if self.gated else None
        self.down = Linear(ffn_dim, dim, rng, bias=False)
        #: Evaluation-time activation override (None = precise).
        self.activation_fn: Callable | None = None
        #: Capture hook for pre-activation values.
        self.preact_hook: Callable | None = None
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        up = self.up.forward(x)
        act_in = self.gate.forward(x) if self.gated else up
        if self.preact_hook is not None:
            self.preact_hook(act_in)
        fn = self.activation_fn or getattr(precise, self.activation)
        act = fn(act_in)
        hidden = act * up if self.gated else act
        self._cache = (act_in, act, up)
        return self.down.forward(hidden)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        act_in, act, up = self._cache
        self._cache = None
        d_hidden = self.down.backward(dy)
        if self.gated:
            d_act = d_hidden * up
            d_up = d_hidden * act
            d_gate_in = d_act * _silu_grad(act_in)
            return self.up.backward(d_up) + self.gate.backward(d_gate_in)
        d_act_in = d_hidden * _gelu_grad(act_in)
        return self.up.backward(d_act_in)


class TransformerBlock(Module):
    """Pre-norm attention (+ optional cross-attention) + FFN block."""

    def __init__(self, cfg: TinyModelConfig, rng, norm_cls, causal: bool,
                 cross_attention: bool = False):
        self.attn_norm = norm_cls(cfg.dim)
        self.attn = MultiHeadAttention(cfg.dim, cfg.n_heads, rng,
                                       n_kv_heads=cfg.n_kv_heads,
                                       causal=causal)
        self.cross = None
        self.cross_norm = None
        if cross_attention:
            self.cross_norm = norm_cls(cfg.dim)
            self.cross = MultiHeadAttention(cfg.dim, cfg.n_heads, rng,
                                            causal=False)
        self.ffn_norm = norm_cls(cfg.dim)
        self.ffn = FeedForward(cfg.dim, cfg.ffn_dim, cfg.activation, rng)

    def forward(self, x: np.ndarray,
                context: np.ndarray | None = None) -> np.ndarray:
        x = x + self.attn.forward(self.attn_norm.forward(x))
        if self.cross is not None:
            x = x + self.cross.forward(self.cross_norm.forward(x),
                                       context=context)
        return x + self.ffn.forward(self.ffn_norm.forward(x))

    def backward(self, dy: np.ndarray):
        """Returns ``(dx, d_context)``; ``d_context`` is None without
        cross-attention."""
        d_ffn = self.ffn.backward(dy)
        dy = dy + self.ffn_norm.backward(d_ffn)
        d_ctx = None
        if self.cross is not None:
            d_q_in, d_ctx = self.cross.backward(dy)
            dy = dy + self.cross_norm.backward(d_q_in)
        d_attn = self.attn.backward(dy)
        return dy + self.attn_norm.backward(d_attn), d_ctx


def _positional_encoding(max_len: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position encoding."""
    pos = np.arange(max_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


class TransformerLM(Module):
    """Decoder-only causal language model (the Llama-2 stand-in)."""

    def __init__(self, cfg: TinyModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.dim, rng)
        self.pos = _positional_encoding(cfg.max_seq_len, cfg.dim)
        self.blocks = [TransformerBlock(cfg, rng, RMSNorm, causal=True)
                       for _ in range(cfg.n_layers)]
        self.final_norm = RMSNorm(cfg.dim)
        self.lm_head = Linear(cfg.dim, cfg.vocab_size, rng, bias=False)

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """``tokens [batch, seq]`` → logits ``[batch, seq, vocab]``."""
        t = tokens.shape[1]
        if t > self.cfg.max_seq_len:
            raise ConfigError("sequence exceeds max_seq_len")
        x = self.embed.forward(tokens) + self.pos[:t]
        for block in self.blocks:
            x = block.forward(x)
        return self.lm_head.forward(self.final_norm.forward(x))

    def backward(self, d_logits: np.ndarray) -> None:
        dx = self.final_norm.backward(self.lm_head.backward(d_logits))
        for block in reversed(self.blocks):
            dx, _ = block.backward(dx)
        self.embed.backward(dx)

    # -- approximation plumbing (evaluation only) -----------------------
    def set_nonlinear(self, softmax_fn: Callable | None = None,
                      activation_fn: Callable | None = None,
                      layers: list[int] | None = None) -> None:
        """Install approximation overrides, optionally per layer.

        ``softmax_fn`` receives the raw scores array and must softmax the
        last axis; ``activation_fn`` is elementwise.  ``layers=None``
        applies to every layer (Fig. 6); a list restricts the override to
        those layer indices (Fig. 7 per-layer tuning).
        """
        targets = range(len(self.blocks)) if layers is None else layers
        for idx in targets:
            block = self.blocks[idx]
            if softmax_fn is not None:
                block.attn.softmax_fn = softmax_fn
            if activation_fn is not None:
                block.ffn.activation_fn = activation_fn

    def clear_nonlinear(self) -> None:
        """Restore precise nonlinearities everywhere."""
        for block in self.blocks:
            block.attn.softmax_fn = None
            block.ffn.activation_fn = None


class TransformerClassifier(Module):
    """Encoder + mean-pool classifier (the SwinV2/ViViT stand-in)."""

    def __init__(self, cfg: TinyModelConfig, n_classes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.n_classes = n_classes
        self.input_proj = Linear(cfg.dim, cfg.dim, rng)
        self.pos = _positional_encoding(cfg.max_seq_len, cfg.dim)
        self.blocks = [TransformerBlock(cfg, rng, LayerNorm, causal=False)
                       for _ in range(cfg.n_layers)]
        self.final_norm = LayerNorm(cfg.dim)
        self.head = Linear(cfg.dim, n_classes, rng)
        self._seq_len = None

    def forward(self, patches: np.ndarray) -> np.ndarray:
        """``patches [batch, seq, dim]`` → logits ``[batch, classes]``."""
        t = patches.shape[1]
        self._seq_len = t
        x = self.input_proj.forward(patches) + self.pos[:t]
        for block in self.blocks:
            x = block.forward(x)
        pooled = self.final_norm.forward(x).mean(axis=1)
        return self.head.forward(pooled)

    def backward(self, d_logits: np.ndarray) -> None:
        d_pooled = self.head.backward(d_logits)
        t = self._seq_len
        dx = np.repeat(d_pooled[:, None, :], t, axis=1) / t
        dx = self.final_norm.backward(dx)
        for block in reversed(self.blocks):
            dx, _ = block.backward(dx)
        self.input_proj.backward(dx)

    def set_nonlinear(self, softmax_fn: Callable | None = None,
                      activation_fn: Callable | None = None,
                      layers: list[int] | None = None) -> None:
        """Same override semantics as :meth:`TransformerLM.set_nonlinear`."""
        targets = range(len(self.blocks)) if layers is None else layers
        for idx in targets:
            block = self.blocks[idx]
            if softmax_fn is not None:
                block.attn.softmax_fn = softmax_fn
            if activation_fn is not None:
                block.ffn.activation_fn = activation_fn

    def clear_nonlinear(self) -> None:
        for block in self.blocks:
            block.attn.softmax_fn = None
            block.ffn.activation_fn = None


class EncoderDecoderLM(Module):
    """Encoder-decoder LM with cross-attention (the Whisper stand-in).

    The encoder consumes a continuous "audio-feature" sequence; the
    decoder predicts tokens conditioned on it.
    """

    def __init__(self, cfg: TinyModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.enc_proj = Linear(cfg.dim, cfg.dim, rng)
        self.pos = _positional_encoding(cfg.max_seq_len, cfg.dim)
        self.encoder = [TransformerBlock(cfg, rng, LayerNorm, causal=False)
                        for _ in range(cfg.n_layers)]
        self.embed = Embedding(cfg.vocab_size, cfg.dim, rng)
        self.decoder = [TransformerBlock(cfg, rng, LayerNorm, causal=True,
                                         cross_attention=True)
                        for _ in range(cfg.n_layers)]
        self.final_norm = LayerNorm(cfg.dim)
        self.lm_head = Linear(cfg.dim, cfg.vocab_size, rng, bias=False)
        self._enc_out = None

    def forward(self, features: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """``features [b, t_enc, dim]``, ``tokens [b, t_dec]`` → logits."""
        enc = self.enc_proj.forward(features) + self.pos[:features.shape[1]]
        for block in self.encoder:
            enc = block.forward(enc)
        self._enc_out = enc
        dec = self.embed.forward(tokens) + self.pos[:tokens.shape[1]]
        for block in self.decoder:
            dec = block.forward(dec, context=enc)
        return self.lm_head.forward(self.final_norm.forward(dec))

    def backward(self, d_logits: np.ndarray) -> None:
        dx = self.final_norm.backward(self.lm_head.backward(d_logits))
        d_enc = np.zeros_like(self._enc_out)
        for block in reversed(self.decoder):
            dx, d_ctx = block.backward(dx)
            d_enc += d_ctx
        self.embed.backward(dx)
        for block in reversed(self.encoder):
            d_enc, _ = block.backward(d_enc)
        self.enc_proj.backward(d_enc)

    def set_nonlinear(self, softmax_fn: Callable | None = None,
                      activation_fn: Callable | None = None,
                      layers: list[int] | None = None) -> None:
        """Apply overrides to encoder and decoder blocks alike."""
        all_blocks = self.encoder + self.decoder
        targets = range(len(all_blocks)) if layers is None else layers
        for idx in targets:
            block = all_blocks[idx]
            if softmax_fn is not None:
                block.attn.softmax_fn = softmax_fn
                if block.cross is not None:
                    block.cross.softmax_fn = softmax_fn
            if activation_fn is not None:
                block.ffn.activation_fn = activation_fn

    def clear_nonlinear(self) -> None:
        for block in self.encoder + self.decoder:
            block.attn.softmax_fn = None
            if block.cross is not None:
                block.cross.softmax_fn = None
            block.ffn.activation_fn = None
