"""Parsers for the three stages' completions.

Chat models routinely wrap their JSON in prose or code fences, so every
parser first extracts the outermost JSON object it can decode.
"""

from __future__ import annotations

import json
import logging
import re

from .types import (CODE_PATTERN, EmptyRubricError, IncompleteVerdictError, IndicatorSet,
                    ParseError)

log = logging.getLogger(__name__)

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)
_raw_decode = json.JSONDecoder().raw_decode

UNANSWERED = "I don't know"


def extract_json_object(raw: str) -> dict:
    """Return the first decodable JSON object in ``raw``.

    Tries fenced code blocks first, then every '{' in the text. The fence
    regex runs only on a completion that holds a fence.
    """
    candidates = _FENCE_RE.findall(raw) if "```" in raw else []
    candidates.append(raw)
    for text in candidates:
        pos = text.find("{")
        while pos >= 0:
            try:
                obj, _ = _raw_decode(text, pos)
            except json.JSONDecodeError:
                obj = None
            if isinstance(obj, dict):
                return obj
            pos = text.find("{", pos + 1)
    raise ParseError(f"no JSON object found in completion: {raw[:200]!r}")


def _entries(obj) -> list[tuple[str, object]]:
    """Flatten a dict or a list of single-key dicts into (key, value) pairs."""
    if isinstance(obj, dict):
        return list(obj.items())
    pairs = []
    if isinstance(obj, list):
        for item in obj:
            if isinstance(item, dict):
                pairs.extend(item.items())
    return pairs


def parse_indicators(raw: str, problem_id: str) -> IndicatorSet:
    """Parse the teacher completion into an ordered indicator set.

    Entries whose key does not match the CU/SC/PF/AR code pattern are
    dropped with a warning; duplicates keep the first occurrence.
    """
    obj = extract_json_object(raw)
    listing = obj.get("mathematical_proficiency_indicators", obj)
    indicators: dict[str, str] = {}
    for code, text in _entries(listing):
        if CODE_PATTERN.fullmatch(code) is None:
            log.warning("problem %s: dropping indicator with unknown code %r", problem_id, code)
        elif code in indicators:
            log.warning("problem %s: dropping duplicate indicator %r", problem_id, code)
        else:
            indicators[code] = str(text)
    if not indicators:
        raise EmptyRubricError(f"problem {problem_id}: no valid indicators in completion")
    return IndicatorSet(problem_id=problem_id, indicators=indicators)


def parse_responses(raw: str, indicators: IndicatorSet) -> dict[str, str]:
    """Parse the student completion into code -> answer text.

    Missing codes are filled with the literal unanswered marker; keys
    outside the rubric are dropped with a warning.
    """
    obj = extract_json_object(raw)
    responses: dict[str, str] = {}
    for code, text in _entries(obj):
        if code not in indicators.indicators:
            log.warning("problem %s: dropping response for unknown indicator %r",
                        indicators.problem_id, code)
            continue
        responses[code] = str(text)
    for code in indicators.indicators:
        responses.setdefault(code, UNANSWERED)
    return responses


def parse_verdicts(raw: str, indicators: IndicatorSet) -> dict[str, int]:
    """Parse the evaluation completion into a complete code -> {0, 1} map."""
    obj = extract_json_object(raw)
    verdicts: dict[str, int] = {}
    for code, value in _entries(obj):
        if code not in indicators.indicators:
            log.warning("problem %s: dropping verdict for unknown indicator %r",
                        indicators.problem_id, code)
            continue
        if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
            raise ValueError(
                f"problem {indicators.problem_id}: verdict for {code} must be 0 or 1, "
                f"got {value!r}")
        verdicts[code] = value
    missing = [c for c in indicators.indicators if c not in verdicts]
    if missing:
        raise IncompleteVerdictError(missing)
    return verdicts
