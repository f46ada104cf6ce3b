"""Fig. 4 — nonlinear input value/exponent distributions across models.

Profiles all four study-model families over held-out evaluation batches
and summarizes each family's softmax / activation input distributions:
the concentrated exponent bands that justify the value-centric window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from ...llm.nn.data import make_patch_dataset, make_transcription_batch
from ...llm.profiling import DistributionProfile, profile_model, profile_per_layer
from ..model_zoo import get_classifier, get_encoder_decoder, get_lm


@dataclass
class FamilyProfile:
    """Fig. 4 column for one model family."""

    family: str
    profiles: dict = field(default_factory=dict)  # op -> DistributionProfile

    def summary_rows(self) -> list:
        """Rows: op, value range, exponent range, dominant 8-exp window,
        mass inside it."""
        rows = []
        for op, prof in self.profiles.items():
            lo, hi = prof.dominant_window(8)
            rows.append([self.family, op,
                         f"[{prof.values.min():.2f}, {prof.values.max():.2f}]",
                         f"[{prof.exponent_range[0]}, {prof.exponent_range[1]}]",
                         f"[{lo}, {hi}]",
                         f"{prof.mass_within(lo, hi):.3f}"])
        return rows


def _lm_batches(trained, n_batches: int = 3, batch: int = 4,
                seq_len: int = 64) -> list:
    rng = np.random.default_rng(42)
    return [(trained.corpus.sample(rng, batch, seq_len)[:, :-1],)
            for _ in range(n_batches)]


def profile_family(family: str, steps: int = 250) -> FamilyProfile:
    """Profile one model family's nonlinear inputs (a Fig. 4 column)."""
    rng = np.random.default_rng(7)
    if family == "llama2":
        trained = get_lm(steps=steps)
        batches = _lm_batches(trained)
        profiles = profile_model(trained.model, batches)
    elif family == "whisper":
        trained = get_encoder_decoder(steps=min(steps, 200))
        batches = []
        for _ in range(2):
            features, tokens = make_transcription_batch(
                rng, trained.corpus, 4, 32, trained.model.cfg.dim)
            batches.append((features, tokens[:, :-1]))
        profiles = profile_model(trained.model, batches)
    elif family in ("swinv2", "vivit"):
        trained = get_classifier(family, steps=min(steps, 200))
        seq = trained.model.cfg.max_seq_len
        batches = [(make_patch_dataset(rng, trained.model.n_classes, 8,
                                       seq, trained.model.cfg.dim)[0],)
                   for _ in range(2)]
        profiles = profile_model(trained.model, batches)
    else:
        raise KeyError(f"unknown family {family!r}")
    return FamilyProfile(family=family, profiles=profiles)


def per_layer_softmax_profiles(steps: int = 250) -> list[DistributionProfile]:
    """Per-layer softmax exponent profiles of the decoder LM (the layer-
    colored Fig. 4 curves / the Fig. 7 motivation)."""
    trained = get_lm(steps=steps)
    return profile_per_layer(trained.model, _lm_batches(trained))


def run_all(steps: int = 250) -> list[FamilyProfile]:
    """All four Fig. 4 columns."""
    return [profile_family(f, steps=steps)
            for f in ("llama2", "whisper", "swinv2", "vivit")]
