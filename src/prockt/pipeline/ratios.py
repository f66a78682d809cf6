"""Turning verdicts into per-dimension proficiency ratios."""

from __future__ import annotations

from ..data.schema import DIMENSIONS, MPRatios
from .types import IncompleteVerdictError, IndicatorSet


def compute_mp_ratios(indicators: IndicatorSet, verdicts: dict[str, int]) -> MPRatios:
    """Per dimension: satisfied indicators over generated indicators.

    Dimensions with no indicators are marked absent. Requires a complete
    verdict map over the indicator set.
    """
    missing = [c for c in indicators.indicators if c not in verdicts]
    if missing:
        raise IncompleteVerdictError(missing)
    counts = {d: [0, 0] for d in DIMENSIONS}
    for code in indicators.indicators:
        pair = counts[code[:2]]
        pair[0] += verdicts[code]
        pair[1] += 1
    return MPRatios.from_counts(counts)
