from .types import EmptyRubricError, IncompleteVerdictError, IndicatorSet, ParseError
from .prompts import render_eval_prompt, render_indicator_prompt, render_student_prompt
from .parsing import extract_json_object, parse_indicators, parse_responses, parse_verdicts
from .ratios import compute_mp_ratios, ratio_agreement
from .client import (
    ChatClient,
    ChatClientError,
    ChatParams,
    HttpChatClient,
    MockChatClient,
)
from .runner import PipelineReport, run_pipeline

__all__ = [
    "ChatClient", "ChatClientError", "ChatParams", "EmptyRubricError",
    "HttpChatClient", "IncompleteVerdictError", "IndicatorSet",
    "MockChatClient", "ParseError", "PipelineReport",
    "compute_mp_ratios", "extract_json_object",
    "parse_indicators", "parse_responses", "parse_verdicts", "ratio_agreement",
    "render_eval_prompt", "render_indicator_prompt", "render_student_prompt",
    "run_pipeline",
]
