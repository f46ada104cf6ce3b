"""Model configurations studied in the paper (Table 1).

Llama-2 (7B / 13B / 70B, the 70B optionally with GQA group 8), Whisper
(tiny / large), SwinV2 (tiny / large), and ViViT base.  The architecture
evaluation uses the Llama family; the workload (accuracy) evaluation uses
all four families via the scaled-down synthetic stand-ins in
:mod:`repro.llm.nn`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: FFN nonlinearities the operator graphs and cost models support.
FFN_ACTIVATIONS = ("silu", "gelu")


@dataclass(frozen=True)
class ModelConfig:
    """One transformer model configuration (a row of Table 1).

    Attributes
    ----------
    name / family:
        Display name and model family ("llama2", "whisper", "swinv2",
        "vivit").
    n_layers / n_heads / n_kv_heads:
        Depth and attention geometry; ``n_kv_heads < n_heads`` is GQA.
    hidden_dim / ffn_dim:
        Attention hidden size and FFN intermediate size.
    max_seq_len:
        Context length used by the paper's evaluation.
    activation:
        FFN nonlinearity ("silu" for Llama-2, "gelu" otherwise).
    gated_ffn:
        SwiGLU-style gated FFN (two up projections) vs plain MLP.
    vocab_size:
        Output vocabulary (LM head GEMM).
    """

    name: str
    family: str
    n_layers: int
    n_heads: int
    n_kv_heads: int
    hidden_dim: int
    ffn_dim: int
    max_seq_len: int
    activation: str = "silu"
    gated_ffn: bool = True
    vocab_size: int = 32000

    def __post_init__(self):
        if self.activation not in FFN_ACTIVATIONS:
            raise ConfigError(f"{self.name}: unknown activation "
                              f"{self.activation!r}; choose from "
                              f"{FFN_ACTIVATIONS}")
        if self.hidden_dim % self.n_heads:
            raise ConfigError(f"{self.name}: hidden_dim must divide by heads")
        if self.n_heads % self.n_kv_heads:
            raise ConfigError(f"{self.name}: heads must divide by kv heads")

    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_dim // self.n_heads

    @property
    def gqa_group(self) -> int:
        """Q heads sharing one KV head (1 = plain MHA, 8 = Llama-70B GQA)."""
        return self.n_heads // self.n_kv_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) projection output."""
        return self.n_kv_heads * self.head_dim

    def param_count(self) -> int:
        """Approximate weight-parameter count (projections + FFN + head)."""
        attn = self.hidden_dim * (self.hidden_dim + 2 * self.kv_dim) \
            + self.hidden_dim * self.hidden_dim
        ffn_in = 2 if self.gated_ffn else 1
        ffn = ffn_in * self.hidden_dim * self.ffn_dim \
            + self.ffn_dim * self.hidden_dim
        per_layer = attn + ffn
        embeddings = 2 * self.vocab_size * self.hidden_dim
        return self.n_layers * per_layer + embeddings

    def kv_cache_bytes(self, seq_len: int, batch: int, bits: int = 4) -> float:
        """KV-cache footprint at a context length (KVQ bits per value)."""
        return (2 * self.n_layers * self.n_kv_heads * self.head_dim
                * seq_len * batch * bits / 8)


# --- Llama 2 (decoder LMs; SiLU gated FFN) ------------------------------
LLAMA2_7B = ModelConfig(name="Llama2-7B", family="llama2", n_layers=32,
                        n_heads=32, n_kv_heads=32, hidden_dim=4096,
                        ffn_dim=11008, max_seq_len=4096)
LLAMA2_13B = ModelConfig(name="Llama2-13B", family="llama2", n_layers=40,
                         n_heads=40, n_kv_heads=40, hidden_dim=5120,
                         ffn_dim=13824, max_seq_len=4096)
#: 70B evaluated with one KV head per Q head (the "70B" columns).
LLAMA2_70B = ModelConfig(name="Llama2-70B", family="llama2", n_layers=80,
                         n_heads=64, n_kv_heads=64, hidden_dim=8192,
                         ffn_dim=28672, max_seq_len=4096)
#: 70B with its native GQA group of 8 (the "70B GQA" columns).
LLAMA2_70B_GQA = ModelConfig(name="Llama2-70B-GQA", family="llama2",
                             n_layers=80, n_heads=64, n_kv_heads=8,
                             hidden_dim=8192, ffn_dim=28672,
                             max_seq_len=4096)

# --- Whisper (encoder-decoder speech; GELU) -----------------------------
WHISPER_TINY = ModelConfig(name="Whisper-tiny", family="whisper", n_layers=4,
                           n_heads=6, n_kv_heads=6, hidden_dim=384,
                           ffn_dim=1536, max_seq_len=1500,
                           activation="gelu", gated_ffn=False,
                           vocab_size=51865)
WHISPER_LARGE = ModelConfig(name="Whisper-large", family="whisper",
                            n_layers=32, n_heads=20, n_kv_heads=20,
                            hidden_dim=1280, ffn_dim=5120, max_seq_len=1500,
                            activation="gelu", gated_ffn=False,
                            vocab_size=51865)

# --- SwinV2 (hierarchical vision; GELU).  Head counts/dims vary by
# stage; the config records the final-stage geometry (Table 1 ranges). ---
SWINV2_TINY = ModelConfig(name="SwinV2-tiny", family="swinv2", n_layers=12,
                          n_heads=24, n_kv_heads=24, hidden_dim=768,
                          ffn_dim=3072, max_seq_len=64, activation="gelu",
                          gated_ffn=False, vocab_size=1000)
SWINV2_LARGE = ModelConfig(name="SwinV2-large", family="swinv2",
                           n_layers=24, n_heads=48, n_kv_heads=48,
                           hidden_dim=1536, ffn_dim=6144, max_seq_len=64,
                           activation="gelu", gated_ffn=False,
                           vocab_size=1000)

# --- ViViT (video; GELU) -------------------------------------------------
VIVIT_BASE = ModelConfig(name="ViViT-base", family="vivit", n_layers=12,
                         n_heads=12, n_kv_heads=12, hidden_dim=768,
                         ffn_dim=3072, max_seq_len=3136, activation="gelu",
                         gated_ffn=False, vocab_size=400)

#: All Table 1 configs by name.
MODELS = {cfg.name: cfg for cfg in (
    LLAMA2_7B, LLAMA2_13B, LLAMA2_70B, LLAMA2_70B_GQA,
    WHISPER_TINY, WHISPER_LARGE, SWINV2_TINY, SWINV2_LARGE, VIVIT_BASE)}

#: The Llama family used by the architecture evaluation (Figs. 12–17).
LLAMA_FAMILY = (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B, LLAMA2_70B_GQA)


def get_model(name: str) -> ModelConfig:
    """Look up a Table 1 configuration by name."""
    try:
        return MODELS[name]
    except KeyError:
        raise ConfigError(f"unknown model {name!r}; "
                          f"choose from {sorted(MODELS)}") from None
