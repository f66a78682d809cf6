"""Domain types for the rubric pipeline."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring

CODE_PATTERN = re.compile(r"(CU|SC|PF|AR)([0-9]+)")


def json_listing(pairs) -> str:
    """String pairs as a JSON list of one-entry objects, one object a line."""
    lines = ",\n".join("    {%s: %s}" % (encode_basestring(key), encode_basestring(value))
                        for key, value in pairs)
    return "[\n" + lines + "\n]"


class ParseError(ValueError):
    """No JSON object could be extracted from a completion."""


class EmptyRubricError(ValueError):
    """The teacher stage produced no valid indicators."""


class IncompleteVerdictError(ValueError):
    """The evaluation stage skipped one or more indicators."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__(f"missing verdicts for: {', '.join(self.missing)}")


@dataclass
class IndicatorSet:
    """A problem's rubric: each indicator code maps to its text, in rubric order."""

    problem_id: str
    indicators: dict[str, str] = field(default_factory=dict)

    @cached_property
    def prompt_text(self) -> str:
        """The indicators as the JSON list the student and eval prompts show.

        Rendered at first use and kept, so the map is not to change after.
        """
        return json_listing(self.indicators.items())
