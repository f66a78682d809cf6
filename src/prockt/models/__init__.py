from .config import BACKBONES, VARIANTS, ConfigError, ModelConfig
from .base import KTModel
from .recurrent import RecurrentKT
from .attention import AttentionKT


def build_model(config: ModelConfig) -> KTModel:
    """Instantiate the configured backbone with seeded parameters."""
    if config.backbone == "recurrent":
        return RecurrentKT(config)
    return AttentionKT(config)


__all__ = [
    "AttentionKT", "BACKBONES", "ConfigError", "KTModel", "ModelConfig",
    "RecurrentKT", "VARIANTS", "build_model",
]
