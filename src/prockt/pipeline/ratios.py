"""Turning verdicts into per-dimension proficiency ratios."""

from __future__ import annotations

import numpy as np

from ..data.io import Dataset
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


def ratio_agreement(inputs: Dataset, outputs: Dataset) -> dict | None:
    """How the ratios of ``outputs`` agree with those its records had in ``inputs``.

    Only records that carried ratios in ``inputs`` count; None if none did.
    Per dimension: ``n``, the records where both sides have the dimension;
    over those, Pearson ``r`` (None when either column is constant) and the
    ``mse``; and ``presence``, the share of records whose presence bits agree.
    """
    pairs = [(a.mp.values, a.mp.present, b.mp.values, b.mp.present)
             for seq_a, seq_b in zip(inputs.sequences, outputs.sequences)
             for a, b in zip(seq_a.steps, seq_b.steps) if a.mp is not None]
    if not pairs:
        return None
    block = {}
    for d in DIMENSIONS:
        x, y = np.array([(va[d], vb[d]) for va, pa, vb, pb in pairs
                         if pa[d] and pb[d]]).reshape(-1, 2).T
        constant = x.size == 0 or x.min() == x.max() or y.min() == y.max()
        block[d] = {"n": x.size,
                    "r": None if constant else float(np.corrcoef(x, y)[0, 1]),
                    "mse": float(np.mean((x - y) ** 2)) if x.size else None,
                    "presence": sum(pa[d] == pb[d] for _, pa, _, pb in pairs) / len(pairs)}
    return block
