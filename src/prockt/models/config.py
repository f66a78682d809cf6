"""Model configuration."""

from __future__ import annotations

from dataclasses import dataclass

BACKBONES = ("recurrent", "attention")
VARIANTS = ("original", "statuskt")

DEFAULT_EMBED_DIM = {"recurrent": 200, "attention": 256}


class ConfigError(ValueError):
    """Invalid model configuration."""


@dataclass
class ModelConfig:
    backbone: str
    variant: str
    num_questions: int
    num_concepts: int
    max_len: int = 200
    embed_dim: int | None = None
    dropout: float = 0.1
    attention_heads: int = 8
    seed: int = 42

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.embed_dim is None:
            self.embed_dim = DEFAULT_EMBED_DIM[self.backbone]
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be at least 1, got {self.embed_dim}")
        if self.backbone == "attention" and self.embed_dim % self.attention_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"attention_heads {self.attention_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)
