"""Turning verdicts into per-dimension proficiency ratios."""

from __future__ import annotations

from ..data.schema import MPRatios
from .types import IncompleteVerdictError, IndicatorSet


def compute_mp_ratios(indicators: IndicatorSet, verdicts: dict[str, int]) -> MPRatios:
    """Per dimension: satisfied indicators over generated indicators.

    Dimensions with no indicators are marked absent. Requires a complete
    verdict map over the indicator set.
    """
    missing = [c for c in indicators.codes() if c not in verdicts]
    if missing:
        raise IncompleteVerdictError(missing)
    return MPRatios.from_counts({d: (sum(verdicts[ind.code] for ind in inds), len(inds))
                                 for d, inds in indicators.by_category().items()})
