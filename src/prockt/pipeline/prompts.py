"""Prompt templates for the three-stage rubric pipeline.

Stage 1 (teacher): generate per-problem proficiency indicators.
Stage 2 (student): answer each indicator from the written solving trace.
Stage 3 (teacher): judge each answer 0/1 against its indicator.

The template bodies are fixed text; rendering substitutes the named
``{placeholder}`` tokens in one pass over the template text only, so a
token inside an inserted value (a trace, an indicator, an answer) is kept
verbatim, and two renders of the same inputs are byte-identical.
Golden-file tests pin each template.
"""

from __future__ import annotations

import functools
import json
import re

from ..data.schema import Problem
from .parsing import UNANSWERED
from .types import IndicatorSet, json_listing

# option texts come from the data file as any JSON value
_encode_option = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

INDICATOR_TEMPLATE = """You are Teacher GPT.
Your task is to analyze a given math Problem and its Unit name, and then generate a step-by-step
set of indicators that describe the process a student should ideally follow to solve the problem.

###Guidelines:
- The indicators must be organized into the four categories of Mathematical Proficiency:
  - Conceptual Understanding (CU)
  - Procedural Fluency (PF)
  - Strategic Competence (SC)
  - Adaptive Reasoning (AR)

- However, instead of just listing general skills, write the indicators as concrete *steps*
that a student would naturally take while solving the given problem.
- Each indicator should be prefixed with its category code (e.g., "CU1", "PF1", "SC2", "AR3").
- The order of the indicators should roughly follow the logical order of problem solving
(from initial understanding → strategy selection → execution → justification).

- Output format must be a JSON dictionary:
{
  "mathematical_proficiency_indicators": [
    "CU1": "...",
    "SC1": "...",
    "CU2": "...",
    ...
  ]
}

---
### One-shot Example

**Input**
Problem: Solve the differential equation $(\\frac{dy}{dx} = 2x)$ with initial condition $(y(0)=1)$."
Unit: Differential Equations

**Output**
{
  "mathematical_proficiency_indicators": [
    {"CU1": "Determine the type and order of this equation"},
    {"SC1": "Rewrite the equation in an easier way"},
    {"CU2": "Write the mathematical idea you need to solve this equation"},
    {"CU3": "Give an example of how this equation will be applied in real life"},
    {"CU4": "Find another differential equation whose solution steps are similar"},
    {"SC2": "Sort the necessary data and ignore the redundant ones"},
    {"PF2": "Predict a solution"},
    {"CU5": "Show the steps for solving the equation using a table, a figure and a diagram"},
    {"PF1": "Summarize the steps in the solution"},
    {"PF3": "Write a suitable algorithm to solve this equation"},
    {"SC3": "Identify any special numerical cases used by this equation to generalize the solution"},
    {"AR1": "Describe your solution in general"},
    {"AR2": "Based on your knowledge of differential equations, interpret your solution"},
    {"AR3": "According to your solution, draw the conclusions"}
  ]
}
----------------------------------------------------------------------------------------------------

Problem (in Korean): {Problem_text}
{problem_option_string}
Unit (in Korean): {curriculum_theme_title}
"""

STUDENT_TEMPLATE = """You are Student GPT.
You will receive:
1. A math problem statement.
2. A set of indicators generated by Teacher GPT.
3. A student's written solution attempt (from OCR).

Your task:
    - Pretend you are the student who wrote the solution.
    - For each indicator, provide an answer based **only on the student's written solution**.
    - If the student's solution clearly contains the relevant information, restate it as the answer.
    - If a step is missing but can be reasonably inferred (e.g., a basic algebraic manipulation or obvious arithmetic), you may state it as: "Not written, but likely ...".
    - Keep the student's mistakes. **Do not** correct them.
    - If step looks incomplete or skipped, you can imagine that step and answer to indicator.
    - If there is no evidence in the solution for an indicator, answer with: "I don't know"

**Output format**
Return your answers as a dictionary, and indicators should be written in Korean.
Output:
{
    "CU1": "...",
    "SC1": "...",
    "CU2": "...",
    ...
}


---

### One-shot Example

Input Indicators:
{
    "CU1": "Determine the type and order of this equation",
    "SC1": "Rewrite the equation in a simpler form",
    "AD1": "Identify the conditions required to solve the equation",
    "PF1": "Compute the values that satisfy the conditions"
}

Question: Find the value(s) of y that make the following expression equal to 0.
                      y^2 + 3y + 2

My solving process (OCR):
    `y^2 + 3y' + 2y = 0`
    `(r+1)(r+2)=0`

My answer: -1, -2

Output:
{
    "CU1": "This is a quadratic equation.",
    "SC1": "Rewrite the characteristic polynomial as (r+1)(r+2)=0.",
    "AD1": "If one of the multiplied factors is zero, the result becomes zero.",
    "PF1": "The values that satisfy the condition are -1 and -2.."
}
-----------------------------------------------------------------------------------

Input Indicators: {indicator_text}

Problem (in Korean): {problem}
{problem_option_string}

My solving process (OCR):{student_solving_trace}

My answer: {solution_answer_sets}
"""

EVAL_TEMPLATE = """You are Teacher GPT. Your task is to evaluate a student's responses (answer_indicate)
against the reference mathematical proficiency indicators (mathematical_proficiency_indicators).

## Evaluation Rules
1. For each indicator:
   - If the student's response is **"I don't know"**, assign 0.
   - If the student's response is **"Not written, but likely ..."**, treat it as the student's actual answer and evaluate normally.
   - If the response does not match or is irrelevant to the indicator, assign 0.
   - If the response matches the indicator's intent and shows correct reasoning/application, assign 1.
2. Output strictly in JSON format, with indicator keys mapped to 0 or 1.
3. Ensure that every indicator is carefully evaluated without skipping or overlooking any of them.

## Input
Problem:
{problem_text}

mathematical_proficiency_indicators:
{mathematical_proficiency_indicators JSON}

answer_indicate:
{answer_indicate JSON}

## Output
Provide the evaluation result in the following JSON format:
{
    "CU1": 0 or 1, "CU2": 0 or 1, "SC1": 0 or 1, "SC2": 0 or 1, "PF1": 0 or 1, "PF2": 0 or 1, "AR1": 0 or 1, "PF3": 0 or 1, "PF4": 0 or 1, "AR2": 0 or 1
}

## Input Example
Problem: For the rational function $y=\\dfrac{2x-3}{2x+5}$, how many points on its graph have both
$x$- and $y$-coordinates as integers?
Options: [{"index":1,"text":"$1$"}, {"index":2,"text":"$2$"}, {"index":3,"text":"$3$"}, {"index":4,"text":"$4$"}, {"index":5,"text":"$5$"}]

mathematical_proficiency_indicators:[
    {"CU1": "Interpret what the problem is asking, and recognize that it is about finding points on the graph of the rational function y = (2x - 3) / (2x + 5) whose x- and y-values are both integers."},
    {"CU2": "Identify the domain restriction 2x + 5 is not 0, and observe that when x is an integer, 2x + 5 is always odd."},
    {"SC1": "Choose a strategy to rewrite the equation in a form that makes the integer condition more explicit, such as expressing it in terms of y - 1."},
    {"PF1": "Transform y = (2x - 3)/(2x + 5) into y - 1 = [(2x - 3) - (2x + 5)]/(2x + 5) = -8/(2x + 5)."},
    {"SC2": "Since y must be an integer, -8/(2x + 5) must be an integer; thus reinterpret this as the divisibility condition 2x + 5 | 8."},
    {"AR1": "Use the fact that 2x + 5 is odd to restrict the candidates to the odd divisors of 8."},
    {"PF2": "List the possible denominators: 2x + 5 ∈ {1, -1}."},
    {"PF3": "Solve for x for each candidate: 2x + 5 = 1 => x = -2; 2x + 5 = -1 => x = -3."},
    {"PF4": "For each x, compute y using y = 1 - 8/(2x + 5): for x = -2 => y = -7; for x = -3 => y = 9."},
    {"PF5": "Verify that the points (-2, -7) and (-3, 9) satisfy the original equation y = (2x - 3)/(2x + 5)."},
    {"AR2": "Provide reasoning that only +1 or -1 can occur, since all odd divisors of 8 have been fully checked and no others are possible."},
    {"SC3": "Alternative check: assuming y is not equal to 1, set x = -(5y + 3)/(2(y - 1)). Let d = y - 1. Then x = -5/2 - 4/d, and x is an integer only when d = ±8, confirming the two solutions (-2, -7) and (-3, 9)."},
    {"CU3": "Count the integer lattice points obtained and select the corresponding choice from the answer options."}
]

answer_indicate:[
    {"CU1": "Although not written explicitly, by rewriting y = (2x - 3)/(2x + 5) as y = -8/(2x + 5) + 1 and listing possible values of 2x + 5 to find integer pairs (x, y), it appears the student recognized the task as identifying integer lattice points."},
    {"CU2": "The student did not mention the condition 2x + 5 is not equal to 0 or the observation that 2x + 5 must be odd when x is an integer. Instead, they listed all divisors of 8 (1, 2, 4, 8, -1, -2, -4, -8)."},
    {"SC1": "They rewrote y = (2x - 3)/(2x + 5) as y = -8/(2x + 5) + 1."},
    {"PF1": "Although intermediate algebra steps were omitted, the final expression y - 1 = -8/(2x + 5) was obtained."},
    {"SC2": "They interpreted the requirement that -8/(2x + 5) must be an integer by considering all divisors of 8, listing 2x + 5 = 1, 2, 4, 8, -1, -2, -4, -8."},
    {"AR1": "They did not use the constraint that 2x + 5 must be odd, which would reduce the candidates to the odd divisors only."},
    {"PF2": "They listed 2x + 5 ∈ {1, 2, 4, 8, -1, -2, -4, -8} as possible candidates."},
    {"PF3": "They solved only some candidates: 2x + 5 = 1 => x = -2, and 2x + 5 = -1 => x = -3. The remaining cases were left incomplete or not shown."},
    {"PF4": "For x = -2 and x = -3, the y-values were left blank; but likely x = -2 => y = -7, and x = -3 => y = 9."},
    {"PF5": "I don't know."},
    {"AR2": "I don't know."},
    {"SC3": "I don't know."},
    {"CU3": "The student eventually selected choice (2)."}
]

Output:
{
    "CU1": 1, "CU2": 0, "SC1": 1, "PF1": 1, "SC2": 1, "AR1": 0, "PF2": 1, "PF3": 1, "PF4": 1, "PF5": 0, "AR2": 0, "SC3": 0, "CU3": 1
}
-----------------------------------------------------------------------------------

Problem (in Korean): {problem}
{problem_option_string}

Mathematical Proficiency Indicators:
{indicator_text}

Answer Indicate: {answer_indicator_text}
"""


# The text every prompt of a stage starts with: its template up to the first
# placeholder, by stage name. The mock client tells the stages apart by them.
STAGE_HEADS = {
    "indicators": INDICATOR_TEMPLATE[:INDICATOR_TEMPLATE.index("{Problem_text}")],
    "responses": STUDENT_TEMPLATE[:STUDENT_TEMPLATE.index("{indicator_text}")],
    "verdicts": EVAL_TEMPLATE[:EVAL_TEMPLATE.index("{problem}")],
}


@functools.lru_cache(maxsize=16)
def _pieces(template: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """``template`` split at its ``{name}`` tokens: text, name, text, ..., text."""
    tokens = "|".join(re.escape(name) for name in names)
    return tuple(re.split(r"\{(" + tokens + r")\}", template))


def _render(template: str, **values: str) -> str:
    """``template`` with each named token replaced by its value, in one pass."""
    return "".join([values[piece] if i % 2 else piece
                    for i, piece in enumerate(_pieces(template, tuple(values)))])


def _option_string(problem: Problem) -> str:
    if problem.question_type != "multiple_choice" or not problem.options:
        return ""
    items = ", ".join('{"index":%d,"text":%s}' % (i + 1, _encode_option(text))
                      for i, text in enumerate(problem.options))
    return f"Options: [{items}]"


def _response_text(indicators: IndicatorSet, responses: dict[str, str]) -> str:
    return json_listing((code, responses.get(code, UNANSWERED))
                        for code in indicators.indicators)


def render_indicator_prompt(problem: Problem) -> str:
    """Stage-1 prompt: problem text and unit name into the teacher template."""
    if not problem.text.strip():
        raise ValueError(f"problem {problem.problem_id} has empty text")
    return _render(INDICATOR_TEMPLATE, Problem_text=problem.text,
                   problem_option_string=_option_string(problem),
                   curriculum_theme_title=", ".join(problem.kc_ids))


def render_student_prompt(problem: Problem, indicators: IndicatorSet,
                          process_text: str, selected_answer: str) -> str:
    """Stage-2 prompt: indicators plus the student's written trace and answer."""
    if not indicators.indicators:
        raise ValueError("indicator set is empty")
    return _render(STUDENT_TEMPLATE, indicator_text=indicators.prompt_text,
                   problem=problem.text, problem_option_string=_option_string(problem),
                   student_solving_trace=process_text,
                   solution_answer_sets=selected_answer)


def render_eval_prompt(problem: Problem, indicators: IndicatorSet,
                       responses: dict[str, str]) -> str:
    """Stage-3 prompt: indicators and the student answers to be judged."""
    return _render(EVAL_TEMPLATE, indicator_text=indicators.prompt_text,
                   answer_indicator_text=_response_text(indicators, responses),
                   problem=problem.text, problem_option_string=_option_string(problem))
