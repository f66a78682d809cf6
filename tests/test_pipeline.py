import email.utils
import json
import os
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import CountingClient, logged_failures, make_dataset, make_problem, make_record
from prockt import synth
from prockt.data import DIMENSIONS, Dataset, MPRatios, StudentSequence
from prockt.pipeline import (
    ChatClientError,
    ChatParams,
    EmptyRubricError,
    HttpChatClient,
    IncompleteVerdictError,
    IndicatorSet,
    MockChatClient,
    ParseError,
    compute_mp_ratios,
    extract_json_object,
    parse_indicators,
    parse_responses,
    parse_verdicts,
    ratio_agreement,
    render_eval_prompt,
    render_indicator_prompt,
    render_student_prompt,
    run_pipeline,
)
from prockt.pipeline import client as client_module
from prockt.pipeline import prompts
from prockt.pipeline import runner as runner_module
from prockt.pipeline.runner import JsonLog
from prockt.pipeline.prompts import EVAL_TEMPLATE, INDICATOR_TEMPLATE, STUDENT_TEMPLATE

GOLDEN = Path(__file__).parent / "golden"


def fixed_indicators():
    return IndicatorSet(problem_id="prob-1", indicators={
        "CU1": "Recognize this as a quadratic equation",
        "SC1": "Choose factoring as the solution strategy",
        "PF1": "Factor the quadratic into two binomials",
        "AR1": "Justify why each root satisfies the equation",
    })


FIXED_PROCESS = "x^2 - 5x + 6 = 0\n(x-2)(x-3) = 0\nx = 2 or x = 3"
FIXED_RESPONSES = {
    "CU1": "This is a quadratic equation.",
    "SC1": "I factored the expression.",
    "PF1": "(x-2)(x-3) = 0",
    "AR1": "I don't know",
}


# -- prompt rendering -----------------------------------------------------

class TestPrompts:
    def test_indicator_prompt_matches_golden(self):
        rendered = render_indicator_prompt(make_problem())
        assert rendered == (GOLDEN / "indicator_prompt.txt").read_text()

    def test_student_prompt_matches_golden(self):
        rendered = render_student_prompt(make_problem(), fixed_indicators(),
                                         FIXED_PROCESS, "2")
        assert rendered == (GOLDEN / "student_prompt.txt").read_text()

    def test_eval_prompt_matches_golden(self):
        rendered = render_eval_prompt(make_problem(), fixed_indicators(),
                                      FIXED_RESPONSES)
        assert rendered == (GOLDEN / "eval_prompt.txt").read_text()

    def test_required_literals(self):
        assert INDICATOR_TEMPLATE.startswith("You are Teacher GPT.")
        assert STUDENT_TEMPLATE.startswith("You are Student GPT.")
        assert '"I don\'t know"' in STUDENT_TEMPLATE
        assert 'assign 0' in EVAL_TEMPLATE
        assert '"Not written, but likely ..."' in EVAL_TEMPLATE

    def test_rendering_substitutes_all_placeholders(self):
        rendered = render_student_prompt(make_problem(), fixed_indicators(),
                                         FIXED_PROCESS, "2")
        # placeholder names from the input sections must all be gone
        for name in ("indicator_text", "problem_option_string",
                     "student_solving_trace", "solution_answer_sets"):
            assert "{" + name + "}" not in rendered

    def test_option_line_format(self):
        rendered = render_indicator_prompt(make_problem())
        assert 'Options: [{"index":1,"text":"1"}, {"index":2,"text":"2"}' in rendered

    def test_short_answer_has_no_option_line(self):
        problem = make_problem(qtype="short_answer", options=())
        rendered = render_indicator_prompt(problem)
        assert "Options:" not in rendered.split("----------------------------------")[-1]

    def test_unit_name_joins_concepts(self):
        problem = make_problem(kc_ids=("Sequences", "Series"))
        rendered = render_indicator_prompt(problem)
        assert rendered.rstrip().endswith("Unit (in Korean): Sequences, Series")

    def test_empty_problem_text_rejected(self):
        with pytest.raises(ValueError):
            render_indicator_prompt(make_problem(text="   "))

    def test_empty_indicator_set_rejected(self, problem):
        with pytest.raises(ValueError):
            render_student_prompt(problem, IndicatorSet(problem_id="p"), "x", "1")

    def test_rendering_is_deterministic(self, problem):
        a = render_eval_prompt(problem, fixed_indicators(), FIXED_RESPONSES)
        b = render_eval_prompt(problem, fixed_indicators(), FIXED_RESPONSES)
        assert a == b

    def test_inserted_text_is_kept_verbatim(self, problem):
        # a placeholder token inside a value is text, not a placeholder
        indicators = IndicatorSet(problem_id="prob-1", indicators={
            "CU1": "Restate {problem} in your own words"})
        responses = {"CU1": "I copied {problem} and {indicator_text}"}
        student = render_student_prompt(problem, indicators,
                                        "line1 {solution_answer_sets}", "42")
        assert "My solving process (OCR):line1 {solution_answer_sets}\n" in student
        assert '{"CU1": "Restate {problem} in your own words"}' in student
        evaluation = render_eval_prompt(problem, indicators, responses)
        assert '{"CU1": "Restate {problem} in your own words"}' in evaluation
        assert '{"CU1": "I copied {problem} and {indicator_text}"}' in evaluation
        assert evaluation.count(problem.text) == student.count(problem.text) == 1

    def test_cold_pass_prompts_match_sequential_replace(self, tmp_path, monkeypatch):
        # oracle: every prompt of a mock cold pass over synthetic data equals
        # the str.replace chain's rendering of the same inputs, byte for byte
        data = synth.generate(synth.SimConfig(num_students=8, num_problems=12,
                                              steps_per_student=6, seed=3))
        checked = {}
        for name in ("render_indicator_prompt", "render_student_prompt",
                     "render_eval_prompt"):
            def spy(*args, _fast=getattr(prompts, name), _slow=getattr(ref, name),
                    _name=name):
                rendered = _fast(*args)
                assert rendered == _slow(*args)
                checked[_name] = checked.get(_name, 0) + 1
                return rendered
            monkeypatch.setattr(prompts, name, spy)
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path, concurrency=2)
        assert report.annotated == 48 and report.failed == 0
        assert checked == {"render_indicator_prompt": len({r.problem_id for s in data.sequences
                                                           for r in s.steps}),
                           "render_student_prompt": 48, "render_eval_prompt": 48}


# -- completion parsing ---------------------------------------------------

FOURTEEN = [
    ("CU1", "Determine the type and order of this equation"),
    ("SC1", "Rewrite the equation in an easier way"),
    ("CU2", "Write the mathematical idea you need to solve this equation"),
    ("CU3", "Give an example of how this equation will be applied in real life"),
    ("CU4", "Find another differential equation whose solution steps are similar"),
    ("SC2", "Sort the necessary data and ignore the redundant ones"),
    ("PF2", "Predict a solution"),
    ("CU5", "Show the steps for solving the equation using a table, a figure and a diagram"),
    ("PF1", "Summarize the steps in the solution"),
    ("PF3", "Write a suitable algorithm to solve this equation"),
    ("SC3", "Identify any special numerical cases used by this equation to generalize the solution"),
    ("AR1", "Describe your solution in general"),
    ("AR2", "Based on your knowledge of differential equations, interpret your solution"),
    ("AR3", "According to your solution, draw the conclusions"),
]


def indicator_completion(pairs):
    body = {"mathematical_proficiency_indicators": [{c: t} for c, t in pairs]}
    return json.dumps(body, indent=2)


def outcome(parse, raw):
    """What ``parse`` makes of ``raw``: the repr of its object, or that it raised."""
    try:
        return repr(parse(raw))
    except ValueError:
        return "no object"


class TestExtractJsonObject:
    def test_bare_object(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_fenced_object(self):
        raw = 'Sure, here you go:\n```json\n{"a": 1}\n```\nHope that helps.'
        assert extract_json_object(raw) == {"a": 1}

    def test_object_embedded_in_prose(self):
        raw = 'The rubric {which follows} is: {"CU1": "x"} as requested.'
        assert extract_json_object(raw) == {"CU1": "x"}

    def test_no_object_raises(self):
        with pytest.raises(ParseError):
            extract_json_object("no json here [1, 2, 3]")

    def test_fast_path_equals_the_fence_first_scan(self):
        problem = make_problem()
        mock = MockChatClient()
        corpus = [mock.complete("", render_indicator_prompt(make_problem(text=f"Solve {i}.")),
                                ChatParams()) for i in range(8)]  # fenced and bare
        corpus += [
            mock.complete("", render_student_prompt(problem, fixed_indicators(),
                                                    FIXED_PROCESS, "2"), ChatParams()),
            mock.complete("", render_eval_prompt(problem, fixed_indicators(), FIXED_RESPONSES),
                          ChatParams()),
            '{"a": 1}', '{"a": 1} and more', "{}", "{", "", " {\"a\": 1}", '{"a": NaN}',
            '{"a": 1, "a": 2}', 'Sure:\n```json\n{"a": 1}\n```\nThanks.', '```\n{"a": 1}\n```',
            '{"a": 1}\n```json\n{"b": 2}\n```', '```json\n{bad\n```\n{"b": 2}',
            'The rubric {which follows} is: {"CU1": "x"} as requested.',
            '{"a": "{not an object"}', '{"a": "x"} {"b": "{"}', 'a "{" then {"c": 1}',
            '{"a": "```"}', '{"a": 1,, "b": 2} {"c": 3}', '{bad} {"ok": true}',
            '{"x": {"y": 1}', '{"a": [1, 2} {"b": 1}',
            '{"mathematical_proficiency_indicators": [{"CU1": "a"}, {"PF1": "b"}]}',
            '[{"a": 1}, {"b": 2}]', '["{", {"a": 1}]', "no json here [1, 2, 3]",
        ]
        for raw in corpus:
            assert outcome(extract_json_object, raw) == outcome(ref.extract_json_object, raw), raw

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(['{', '}', '"', ':', ',', '1', 'a', '[', ']', ' ', '\n',
                                     '```', 'json\n', '"k": ', '{"k": 1}', '\\"']),
                    max_size=14))
    def test_fast_path_equals_the_fence_first_scan_on_any_text(self, pieces):
        raw = "".join(pieces)
        assert outcome(extract_json_object, raw) == outcome(ref.extract_json_object, raw)


class TestParseIndicators:
    def test_full_rubric(self):
        got = parse_indicators(indicator_completion(FOURTEEN), "p1")
        assert list(got.indicators) == [c for c, _ in FOURTEEN]
        sizes = Counter(code[:2] for code in got.indicators)
        assert sizes == {"CU": 5, "SC": 3, "PF": 3, "AR": 3}
        assert got.indicators["CU1"] == FOURTEEN[0][1]

    def test_unknown_code_dropped(self):
        pairs = [("CU1", "a"), ("AD1", "not a real category"), ("PF1", "b")]
        got = parse_indicators(indicator_completion(pairs), "p1")
        assert list(got.indicators) == ["CU1", "PF1"]

    def test_code_with_a_trailing_newline_dropped(self, caplog):
        pairs = [("CU1\n", "a"), ("CU1", "b"), ("SC1", "s")]
        with caplog.at_level("WARNING", logger="prockt.pipeline.parsing"):
            got = parse_indicators(indicator_completion(pairs), "p1")
        assert list(got.indicators) == ["CU1", "SC1"] and got.indicators["CU1"] == "b"
        assert [r.getMessage() for r in caplog.records] == [
            "problem p1: dropping indicator with unknown code 'CU1\\n'"]

    def test_duplicate_keeps_first(self):
        pairs = [("CU1", "first"), ("CU1", "second"), ("SC1", "s")]
        got = parse_indicators(indicator_completion(pairs), "p1")
        assert list(got.indicators) == ["CU1", "SC1"]
        assert got.indicators["CU1"] == "first"

    def test_plain_dict_listing(self):
        raw = json.dumps({"mathematical_proficiency_indicators": {"CU1": "a", "PF1": "b"}})
        assert list(parse_indicators(raw, "p1").indicators) == ["CU1", "PF1"]

    def test_all_invalid_raises(self):
        raw = indicator_completion([("AD1", "x"), ("XY2", "y")])
        with pytest.raises(EmptyRubricError):
            parse_indicators(raw, "p1")

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_indicators("I cannot help with that.", "p1")


class TestParseResponses:
    def test_missing_filled_with_unanswered(self):
        raw = json.dumps({"CU1": "yes", "PF1": "done"})
        got = parse_responses(raw, fixed_indicators())
        assert got == {"CU1": "yes", "PF1": "done",
                       "SC1": "I don't know", "AR1": "I don't know"}

    def test_unknown_keys_dropped(self):
        raw = json.dumps({"CU1": "yes", "CU9": "extra"})
        got = parse_responses(raw, fixed_indicators())
        assert "CU9" not in got
        assert set(got) == {"CU1", "SC1", "PF1", "AR1"}

    def test_fenced_response_object(self):
        raw = '```json\n{"CU1": "a", "SC1": "b"}\n```'
        got = parse_responses(raw, fixed_indicators())
        assert got["CU1"] == "a" and got["SC1"] == "b"
        assert got["PF1"] == "I don't know"


class TestParseVerdicts:
    RAW = json.dumps({
        "CU1": 1, "CU2": 0, "SC1": 1, "PF1": 1, "SC2": 1, "AR1": 0, "PF2": 1,
        "PF3": 1, "PF4": 1, "PF5": 0, "AR2": 0, "SC3": 0, "CU3": 1,
    })

    @staticmethod
    def rubric():
        codes = ["CU1", "CU2", "SC1", "PF1", "SC2", "AR1", "PF2", "PF3",
                 "PF4", "PF5", "AR2", "SC3", "CU3"]
        return IndicatorSet(problem_id="p1", indicators={c: f"step {c}" for c in codes})

    def test_full_verdict_map(self):
        got = parse_verdicts(self.RAW, self.rubric())
        assert len(got) == 13
        assert sum(got.values()) == 8
        assert got["PF5"] == 0 and got["CU1"] == 1

    def test_fractional_verdict_rejected(self):
        raw = json.dumps({c: (0.5 if c == "SC1" else 1) for c in self.rubric().indicators})
        with pytest.raises(ValueError, match="0 or 1"):
            parse_verdicts(raw, self.rubric())

    def test_bool_verdict_rejected(self):
        raw = json.dumps({c: (True if c == "SC1" else 1) for c in self.rubric().indicators})
        with pytest.raises(ValueError):
            parse_verdicts(raw, self.rubric())

    def test_incomplete_raises_with_missing_codes(self):
        partial = json.loads(self.RAW)
        del partial["SC3"]
        with pytest.raises(IncompleteVerdictError) as exc_info:
            parse_verdicts(json.dumps(partial), self.rubric())
        assert exc_info.value.missing == ["SC3"]


# -- verdicts to ratios ---------------------------------------------------

class TestComputeMPRatios:
    def test_reference_case(self):
        verdicts = json.loads(TestParseVerdicts.RAW)
        mp = compute_mp_ratios(TestParseVerdicts.rubric(), verdicts)
        expect = {"CU": Fraction(2, 3), "SC": Fraction(2, 3),
                  "PF": Fraction(4, 5), "AR": Fraction(0, 2)}
        for d, frac in expect.items():
            assert mp.present[d]
            assert Fraction(*mp.counts[d]) == frac
            assert mp.values[d] == frac.numerator / frac.denominator

    def test_dimension_without_indicators_is_absent(self):
        rubric = IndicatorSet(problem_id="p", indicators={"CU1": "a", "PF1": "b"})
        mp = compute_mp_ratios(rubric, {"CU1": 1, "PF1": 0})
        assert mp.present == {"CU": True, "SC": False, "PF": True, "AR": False}
        assert mp.counts["SC"] == (0, 0)

    def test_incomplete_verdicts_rejected(self):
        with pytest.raises(IncompleteVerdictError):
            compute_mp_ratios(fixed_indicators(), {"CU1": 1})

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["CU", "SC", "PF", "AR"]),
                              st.booleans()), min_size=1, max_size=20),
           st.data())
    def test_flipping_verdict_up_never_lowers_a_ratio(self, spec, data):
        ordinals = {"CU": 0, "SC": 0, "PF": 0, "AR": 0}
        inds, verdicts = {}, {}
        for cat, sat in spec:
            ordinals[cat] += 1
            code = f"{cat}{ordinals[cat]}"
            inds[code] = "step"
            verdicts[code] = int(sat)
        rubric = IndicatorSet(problem_id="p", indicators=inds)
        before = compute_mp_ratios(rubric, verdicts)
        flip = data.draw(st.sampled_from(sorted(verdicts)))
        bumped = dict(verdicts, **{flip: 1})
        after = compute_mp_ratios(rubric, bumped)
        for d in ("CU", "SC", "PF", "AR"):
            assert after.values[d] >= before.values[d]


# -- end-to-end over the mock client --------------------------------------

class FaultyClient:
    """Wraps the mock and errors on stage-2 prompts containing a marker."""

    def __init__(self, inner, marker):
        self.inner = inner
        self.model = inner.model  # its completions are keyed as the wrapped client's
        self.marker = marker

    def complete(self, system_message, user_message, params):
        if (user_message.startswith("You are Student GPT")
                and self.marker in user_message):
            raise ChatClientError("injected transport failure")
        return self.inner.complete(system_message, user_message, params)


def with_ratios(counts):
    """One student's records, with the ratios of each ``counts`` dict (None: none)."""
    return Dataset(problems={}, sequences=[StudentSequence("s1", [
        make_record(timestamp=1000 + t, mp=None if c is None else MPRatios.from_counts(c))
        for t, c in enumerate(counts)])])


class TestRatioAgreement:
    # per dimension over the three records that carried ratios (the fourth did not):
    # CU in 0, 1/2, 1 and out 1/2, 1/2, 1: r = (1/4) / sqrt(1/2 * 1/6) = sqrt(3)/2, mse 1/12;
    # SC absent in, absent out, and 1/4 against 3/4: one pair, so no r; mse 1/4;
    # PF in 1/2, 1/2 (constant, so no r) and out 0, 1: mse 1/4; AR absent throughout
    INPUTS = [{"CU": (0, 1), "PF": (1, 2)}, {"CU": (1, 2), "SC": (1, 2), "PF": (2, 4)},
              {"CU": (3, 3), "SC": (1, 4)}, None]
    OUTPUTS = [{"CU": (1, 2), "SC": (1, 1), "PF": (0, 1)}, {"CU": (2, 4), "PF": (3, 3)},
               {"CU": (2, 2), "SC": (3, 4)}, {"CU": (1, 1)}]

    def test_hand_computed_values(self):
        block = ratio_agreement(with_ratios(self.INPUTS), with_ratios(self.OUTPUTS))
        assert list(block) == list(DIMENSIONS)
        assert block["CU"] == {"n": 3, "r": pytest.approx(3 ** 0.5 / 2, abs=1e-15),
                               "mse": pytest.approx(1 / 12, abs=1e-15), "presence": 1.0}
        assert block["SC"] == {"n": 1, "r": None, "mse": 0.25, "presence": 1 / 3}
        assert block["PF"] == {"n": 2, "r": None, "mse": 0.25, "presence": 1.0}
        assert block["AR"] == {"n": 0, "r": None, "mse": None, "presence": 1.0}

    def test_input_without_ratios_gives_none(self):
        assert ratio_agreement(with_ratios([None, None]), with_ratios(self.OUTPUTS[:2])) is None

    def test_input_ratios_change_no_prompt(self, tmp_path):
        data = make_dataset()
        changed = make_dataset()
        for seq in changed.sequences:
            for rec in seq.steps:
                rec.mp = MPRatios.from_counts({"SC": (1, 1)})
        prompts, outputs = [], []
        for run, dataset in enumerate((data, changed)):
            client = CountingClient(delay=0)
            out, _ = run_pipeline(dataset, client, tmp_path / str(run))
            prompts.append(sorted(client.prompts))
            outputs.append([r.to_json() for seq in out.sequences for r in seq.steps])
        assert prompts[0] == prompts[1] and outputs[0] == outputs[1]


class TestRunPipeline:
    def test_annotates_every_interaction(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        client = MockChatClient()
        out, report = run_pipeline(data, client, tmp_path)
        assert report.annotated == 12 and report.failed == 0
        for seq in out.sequences:
            for rec in seq.steps:
                assert rec.mp is not None
                assert MPRatios.from_json(rec.mp.to_json()) == rec.mp
                assert any(rec.mp.present.values())

    def test_stage_one_shared_per_problem(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        client = CountingClient(delay=0)
        run_pipeline(data, client, tmp_path)
        # 12 interactions over 4 distinct problems; stage-2/3 prompts repeat
        # across students here (same trace and answer), so the completion
        # cache collapses each stage to one call per problem
        assert len(client.prompts) == 12

    def test_deterministic_across_fresh_caches(self, tmp_path):
        data = make_dataset()
        out1, _ = run_pipeline(data, MockChatClient(), tmp_path / "a")
        out2, _ = run_pipeline(data, MockChatClient(), tmp_path / "b")
        for s1, s2 in zip(out1.sequences, out2.sequences):
            for r1, r2 in zip(s1.steps, s2.steps):
                assert r1.mp.to_json() == r2.mp.to_json()

    def test_warm_rerun_makes_no_calls(self, tmp_path):
        data = make_dataset()
        run_pipeline(data, MockChatClient(), tmp_path)
        client = CountingClient(delay=0)
        out, report = run_pipeline(data, client, tmp_path)
        assert len(client.prompts) == 0
        assert report.cached == 12
        assert all(rec.mp is not None for seq in out.sequences for rec in seq.steps)

    def test_concurrency_matches_serial(self, tmp_path):
        data = make_dataset()
        out1, _ = run_pipeline(data, MockChatClient(), tmp_path / "serial")
        out2, _ = run_pipeline(data, MockChatClient(), tmp_path / "pool", concurrency=4)
        for s1, s2 in zip(out1.sequences, out2.sequences):
            for r1, r2 in zip(s1.steps, s2.steps):
                assert r1.mp.to_json() == r2.mp.to_json()

    def test_annotated_records_equal_the_replace_built_ones(self, tmp_path):
        # each record is built field by field; it must equal a copy of the
        # input made by dataclasses.replace with only mp changed
        data = make_dataset(num_students=3, steps=4)
        data.sequences[2].steps[1].mp = None
        out, _ = run_pipeline(data, MockChatClient(), tmp_path)
        assert [seq.student_id for seq in out.sequences] == \
            [seq.student_id for seq in data.sequences]
        for seq, annotated in zip(data.sequences, out.sequences):
            assert len(annotated.steps) == len(seq.steps)
            for rec, got in zip(seq.steps, annotated.steps):
                assert got is not rec and got.mp is not None
                assert got == replace(rec, mp=got.mp)

    def test_failures_flagged_and_run_continues(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        marker = "XFAULTX"
        bad = data.sequences[1].steps[2]
        bad.process_text = bad.process_text + f"\n{marker}"
        client = FaultyClient(MockChatClient(), marker)
        out, report = run_pipeline(data, client, tmp_path)
        assert report.failed == 1 and report.annotated == 11
        assert logged_failures(tmp_path, report.failures) == [
            ({"status": "failed"}, (bad.student_id, bad.problem_id, bad.timestamp))]
        failed_mp = out.sequences[1].steps[2].mp
        assert not any(failed_mp.present.values())

    def test_failed_audit_persists_for_rerun(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        marker = "XFAULTX"
        data.sequences[0].steps[0].process_text += f"\n{marker}"
        run_pipeline(data, FaultyClient(MockChatClient(), marker), tmp_path)
        results = [v for _, v in map(json.loads,
                                     (tmp_path / "ratios.jsonl").read_text().splitlines())]
        assert results.count({"status": "failed"}) == 1
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path)
        assert len(client.prompts) == 0
        assert report.failed == 1 and report.cached == 12

    def test_deleting_the_result_log_retries_failures(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        marker = "XFAULTX"
        data.sequences[0].steps[0].process_text += f"\n{marker}"
        run_pipeline(data, FaultyClient(MockChatClient(), marker), tmp_path)
        (tmp_path / "ratios.jsonl").unlink()
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path)
        # only the failed interaction's stage-2 and stage-3 calls were never cached
        assert report.failed == 0 and report.annotated == 12 and report.cached == 0
        assert len(client.prompts) == 2 and marker in client.prompts[0]
        assert client.prompts[0].startswith("You are Student GPT")

    def test_audit_records_reconstruct_ratios(self, tmp_path):
        data = make_dataset(num_students=1, steps=2)
        out, _ = run_pipeline(data, MockChatClient(), tmp_path)
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        docs = {(d["student_id"], d["problem_id"], d["timestamp"]): d
                for _, d in map(json.loads, lines)}
        assert len(lines) == len(docs) == 2
        for step_i, rec in enumerate(data.sequences[0].steps):
            doc = docs[(rec.student_id, rec.problem_id, rec.timestamp)]
            assert doc["status"] == "ok"
            recomputed = {}
            for cat in ("CU", "SC", "PF", "AR"):
                members = [c for entry in doc["indicators"] for c in entry
                           if c.startswith(cat)]
                if members:
                    recomputed[cat] = (sum(doc["verdicts"][c] for c in members),
                                       len(members))
            assert doc["ratios"]["counts"] == {
                d: list(recomputed.get(d, (0, 0))) for d in ("CU", "SC", "PF", "AR")}
            assert out.sequences[0].steps[step_i].mp.to_json() == doc["ratios"]


def distinct_students(num_students, steps):
    """Students with their own traces, so stage-2/3 prompts differ by student."""
    data = make_dataset(num_students=num_students, steps=steps)
    for seq in data.sequences:
        for rec in seq.steps:
            rec.process_text += f"\nby {seq.student_id}"
    return data


_WHOLE = b'["a", 1]\n["b", {"x": [1, 2.5]}]\n["c", "say \\"\\u00e9\\""]\n'
# logs as JsonLog might find them: whole, torn, garbled or hand-edited
LOG_FILES = {
    "whole": _WHOLE,
    "empty": b"",
    "torn-last-line": _WHOLE + b'["d", {"x": 1',
    "torn-line-then-append": _WHOLE + b'["d", {"x"\n["e", 2]\n',
    "no-final-newline": b'["a", 1]\n["b", 2]',
    "blank-lines": b'["a", 1]\n\n["b", 2]\n\n',
    "byte-order-mark": b'\xef\xbb\xbf["a", 1]\n["b", 2]\n',
    "invalid-utf8": b'["a", 1]\n["\xff", 2]\n["b", 3]\n',
    "utf8-surrogate": b'["a", "\xed\xa0\x80"]\n["b", 1]\n',
    "two-values-on-a-line": b'["a",1],["b",2]\n["c", 3]\n',
    "two-lines-join-into-one-value": b'[["a", 1]\n["b", 2]]\n',
    "a-value-over-two-lines": b'["a",\n 1]\n["b", 2]\n',
    "carriage-returns": b'["a",\r1]\n["b", 2]\r\n',
    "non-pairs": b'[["a"], 1]\n[1, 2]\n["a", 1, 2]\n["a"]\n{"a": 1, "b": 2}\n"ab"\nnull\n["k", 1]\n',
    "duplicate-keys": b'["a", 1]\n["b", 2]\n["a", 3]\n',
    "blanks-around-values": b' ["a", 1] \n\t["b", 2]\t\n',
}


class TestCacheLog:
    def test_cache_is_three_logs(self, tmp_path):
        run_pipeline(make_dataset(), MockChatClient(), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audit.jsonl",
                                                              "completions.jsonl",
                                                              "ratios.jsonl"]
        audits = [json.loads(line) for line in
                  (tmp_path / "audit.jsonl").read_text().splitlines()]
        results = [json.loads(line) for line in
                   (tmp_path / "ratios.jsonl").read_text().splitlines()]
        assert len(audits) == len(results) == 12
        # each result line holds its audit's key, status and counts, in the same order
        assert results == [[key, {"status": "ok", "counts": audit["ratios"]["counts"]}]
                           for key, audit in audits]

    def test_torn_last_line_is_skipped_and_next_append_survives(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        run_pipeline(data, MockChatClient(), tmp_path)
        log_path = tmp_path / "ratios.jsonl"
        text = log_path.read_text()
        log_path.write_text(text[:-40])  # a crash in the middle of the last record
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path)
        assert report.cached == 11 and report.annotated == 12
        assert len(client.prompts) == 0  # re-annotated from cached completions
        lines = log_path.read_text().splitlines()
        assert len(lines) == 13
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[11])
        assert all(len(json.loads(line)) == 2 for line in lines[:11] + lines[12:])
        warm = CountingClient(delay=0)
        _, report = run_pipeline(data, warm, tmp_path)
        assert len(warm.prompts) == 0 and report.cached == 12

    def test_torn_audit_line_is_no_miss_and_next_append_survives(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        run_pipeline(data, MockChatClient(), tmp_path)
        log_path = tmp_path / "audit.jsonl"
        log_path.write_text(log_path.read_text()[:-40])
        torn = log_path.read_bytes()
        warm = CountingClient(delay=0)
        _, report = run_pipeline(data, warm, tmp_path)
        assert len(warm.prompts) == 0 and report.cached == 12
        assert log_path.read_bytes() == torn
        data.sequences[0].steps[0].selected_answer = "3"  # one miss appends one audit
        _, report = run_pipeline(data, MockChatClient(), tmp_path)
        assert report.cached == 11 and report.annotated == 12
        lines = log_path.read_text().splitlines()
        assert len(lines) == 13
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[11])
        assert all(len(json.loads(line)) == 2 for line in lines[:11] + lines[12:])

    def test_warm_run_never_reads_the_audit_log(self, tmp_path):
        data = make_dataset()
        cold, _ = run_pipeline(data, MockChatClient(), tmp_path)
        garbage = b'not json\n[["a"], 1]\n\xff\xfe\n{"a": 1, "b": 2}\n' * 12
        (tmp_path / "audit.jsonl").write_bytes(garbage)
        client = CountingClient(delay=0)
        warm, report = run_pipeline(data, client, tmp_path)
        assert len(client.prompts) == 0 and report.cached == report.annotated == 12
        assert (tmp_path / "audit.jsonl").read_bytes() == garbage
        assert [r.to_json() for s in warm.sequences for r in s.steps] == \
            [r.to_json() for s in cold.sequences for r in s.steps]

    def test_cache_without_a_result_log_is_reannotated_without_calls(self, tmp_path):
        # a cache written before the result log: only audits and completions
        data = distinct_students(num_students=4, steps=3)
        cold, cold_report = run_pipeline(data, MockChatClient(), tmp_path)
        (tmp_path / "ratios.jsonl").unlink()
        client = CountingClient(delay=0)
        out, report = run_pipeline(data, client, tmp_path, concurrency=4)
        assert len(client.prompts) == 0
        assert (report.annotated, report.failed, report.cached) == (12, 0, 0)
        assert [r.to_json() for s in out.sequences for r in s.steps] == \
            [r.to_json() for s in cold.sequences for r in s.steps]
        warm = CountingClient(delay=0)
        _, report = run_pipeline(data, warm, tmp_path)
        assert len(warm.prompts) == 0 and report.cached == 12

    @pytest.mark.parametrize("value", [
        5, "ok", [1, 2], {"status": "ok"},
        {"status": "maybe", "counts": {"CU": [1, 2], "SC": [0, 0], "PF": [0, 0], "AR": [0, 0]}},
        {"status": "ok", "counts": {"CU": [3, 2], "SC": [0, 0], "PF": [0, 0], "AR": [0, 0]}},
        {"status": "ok", "counts": {"CU": [1, 2], "SC": [0, 0], "PF": [0, 0]}},
        {"status": "ok", "counts": {"CU": [1.0, 2], "SC": [0, 0], "PF": [0, 0], "AR": [0, 0]}},
        {"status": "ok", "counts": {"CU": [True, 2], "SC": [0, 0], "PF": [0, 0], "AR": [0, 0]}},
        {"status": "ok", "counts": {"CU": "12", "SC": [0, 0], "PF": [0, 0], "AR": [0, 0]}},
        {"status": "failed", "error": "x"},
    ])
    def test_malformed_result_is_a_miss(self, tmp_path, value):
        data = make_dataset()
        cold, _ = run_pipeline(data, MockChatClient(), tmp_path)
        log_path = tmp_path / "ratios.jsonl"
        lines = log_path.read_text().splitlines()
        key = json.loads(lines[0])[0]
        log_path.write_text("\n".join([json.dumps([key, value])] + lines[1:]) + "\n")
        client = CountingClient(delay=0)
        out, report = run_pipeline(data, client, tmp_path)
        assert len(client.prompts) == 0  # re-annotated from cached completions
        assert report.cached == 11 and report.annotated == 12
        assert [r.to_json() for s in out.sequences for r in s.steps] == \
            [r.to_json() for s in cold.sequences for r in s.steps]
        assert len(log_path.read_text().splitlines()) == 13

    def test_lines_that_are_not_key_value_pairs_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        bad = [b'[["a"], 1]', b"[1, 2]", b'["a", 1, 2]', b'["a"]', b'{"a": 1, "b": 2}',
               b'"ab"', b"null", b"", b'["\xff", 1]', b"[1,"]
        path.write_bytes(b"\n".join(bad + [b'["k", {"x": 1}]']) + b"\n")
        log = JsonLog(path)
        log.close()
        assert log.entries == {"k": {"x": 1}}

    @pytest.mark.parametrize("name", sorted(LOG_FILES))
    def test_one_decode_read_equals_the_per_line_read(self, tmp_path, name):
        path = tmp_path / "log.jsonl"
        path.write_bytes(LOG_FILES[name])
        log = JsonLog(path)
        log.close()
        assert log.entries == ref.read_log_lines(LOG_FILES[name])

    def test_whole_log_is_one_decode(self, tmp_path, monkeypatch):
        def per_line(data):
            raise AssertionError("a whole log was read line by line")

        monkeypatch.setattr(runner_module, "_read_lines", per_line)
        path = tmp_path / "log.jsonl"
        path.write_bytes(LOG_FILES["whole"])
        log = JsonLog(path)
        log.close()
        assert log.entries == {"a": 1, "b": {"x": [1, 2.5]}, "c": 'say "\u00e9"'}

    def test_bad_lines_do_not_stop_later_runs(self, tmp_path):
        data = make_dataset()
        run_pipeline(data, MockChatClient(), tmp_path)
        for path in tmp_path.iterdir():
            with open(path, "a") as fh:
                fh.write('[["a"], 1]\n[1, 2]\n{"a": 1, "b": 2}\n')
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path)
        assert len(client.prompts) == 0 and report.cached == 12
        data.sequences[0].steps[0].selected_answer = "3"  # a miss reads the completions
        _, report = run_pipeline(data, client, tmp_path)
        assert report.cached == 11 and report.annotated == 12

    def test_put_writes_the_bytes_json_dumps_writes(self, tmp_path):
        values = [{"status": "ok", "counts": {"CU": [1, 2], "SC": [0, 0]}}, "é 😀 \ud800 \x1f",
                  [1.5, -0.0, 1e300, float("nan"), float("inf"), 10 ** 30], None, True,
                  {1: "int key", None: "null key", True: "bool key", 2.5: "float key"}]
        log = JsonLog(tmp_path / "log.jsonl")
        for i, value in enumerate(values):
            log.put(f"k{i}", value)
        log.close()
        assert (tmp_path / "log.jsonl").read_bytes() == b"".join(
            json.dumps([f"k{i}", value]).encode() + b"\n" for i, value in enumerate(values))

    def test_short_write_is_torn_and_next_append_survives(self, tmp_path, monkeypatch):
        log = JsonLog(tmp_path / "log.jsonl")
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:10]))
        with pytest.raises(OSError):
            log.put("a", {"x": 1})
        monkeypatch.setattr(os, "write", write)
        log.put("b", {"x": 2})
        log.close()
        assert log.entries == {"b": {"x": 2}}
        reread = JsonLog(tmp_path / "log.jsonl")
        reread.close()
        assert reread.entries == {"b": {"x": 2}}

    def test_two_runners_sharing_a_cache_lose_no_line(self, tmp_path):
        data = distinct_students(num_students=8, steps=5)
        halves = [Dataset(problems=data.problems, sequences=data.sequences[i::2])
                  for i in range(2)]
        threads = [threading.Thread(target=run_pipeline,
                                    args=(half, CountingClient(), tmp_path),
                                    kwargs={"concurrency": 4}) for half in halves]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name in ("audit.jsonl", "ratios.jsonl"):
            assert len((tmp_path / name).read_text().splitlines()) == 40
        for name in ("audit.jsonl", "completions.jsonl", "ratios.jsonl"):
            for line in (tmp_path / name).read_text().splitlines():
                assert len(json.loads(line)) == 2
        warm = CountingClient(delay=0)
        _, report = run_pipeline(data, warm, tmp_path)
        assert len(warm.prompts) == 0 and report.cached == 40


class TestSingleFlight:
    def test_concurrency_makes_one_call_per_unique_prompt(self, tmp_path):
        # the first 8 jobs need 2 indicator prompts, 4 workers each
        data = distinct_students(num_students=16, steps=2)
        serial, pooled = CountingClient(delay=0.005), CountingClient(delay=0.005)
        out1, _ = run_pipeline(data, serial, tmp_path / "serial", concurrency=1)
        out8, _ = run_pipeline(data, pooled, tmp_path / "pool", concurrency=8)
        assert len(pooled.prompts) == len(serial.prompts) == len(set(serial.prompts))
        assert len(set(pooled.prompts)) == len(pooled.prompts)
        for s1, s8 in zip(out1.sequences, out8.sequences):
            for r1, r8 in zip(s1.steps, s8.steps):
                assert r1.mp.to_json() == r8.mp.to_json()

    def test_failed_call_is_not_shared(self, tmp_path):
        # every interaction of problem p0 needs the same indicator prompt; its
        # first call fails, so exactly one interaction fails and one more
        # call for that prompt is made, at any concurrency
        data = make_dataset(num_students=6, steps=5)
        p0 = render_indicator_prompt(data.problems["p0"])
        reports, clients = [], []
        for concurrency in (1, 8):
            client = CountingClient(fail_first=p0)
            _, report = run_pipeline(data, client, tmp_path / str(concurrency),
                                     concurrency=concurrency)
            reports.append(report)
            clients.append(client)
        assert [r.failed for r in reports] == [1, 1]
        assert [c.prompts.count(p0) for c in clients] == [2, 2]
        assert len(clients[0].prompts) == len(clients[1].prompts)


def stage_of(prompt):
    for stage, template in (("indicators", INDICATOR_TEMPLATE), ("responses", STUDENT_TEMPLATE),
                            ("verdicts", EVAL_TEMPLATE)):
        if prompt.startswith(template[:template.index("{")]):
            return stage


def without_annotated_at(path):
    return re.sub(rb', "annotated_at": [0-9.e+-]+', b"", path.read_bytes())


class InFlightClient(CountingClient):
    """Sleeps 20 ms per call and records the most calls in flight at once, per stage."""

    def __init__(self):
        super().__init__(delay=0.02)
        self.in_flight = {}
        self.most = {}

    def complete(self, system_message, user_message, params):
        stage = stage_of(user_message)
        with self._lock:
            self.in_flight[stage] = self.in_flight.get(stage, 0) + 1
            self.most[stage] = max(self.most.get(stage, 0), self.in_flight[stage])
        try:
            return super().complete(system_message, user_message, params)
        finally:
            with self._lock:
                self.in_flight[stage] -= 1


class InterruptingClient(CountingClient):
    """Raises KeyboardInterrupt on the third stage-3 call; records the answered prompts."""

    def __init__(self):
        super().__init__(delay=0.002)
        self.verdict_calls = 0
        self.answered = []

    def complete(self, system_message, user_message, params):
        if stage_of(user_message) == "verdicts":
            with self._lock:
                self.verdict_calls += 1
                interrupt = self.verdict_calls == 3
            if interrupt:
                raise KeyboardInterrupt
        text = super().complete(system_message, user_message, params)
        with self._lock:
            self.answered.append(user_message)
        return text


class SlowRubricClient(CountingClient):
    """Holds each rubric call for the problem text ``slow`` for 300 ms; records the
    order in which calls return."""

    def __init__(self, slow):
        super().__init__(delay=0.001)
        self.slow = slow
        self.returned = []

    def complete(self, system_message, user_message, params):
        if stage_of(user_message) == "indicators" and self.slow in user_message:
            time.sleep(0.3)
        text = super().complete(system_message, user_message, params)
        with self._lock:
            self.returned.append(user_message)
        return text


class TestPipelinedStages:
    def test_logs_do_not_depend_on_concurrency(self, tmp_path):
        data = distinct_students(num_students=6, steps=5)
        runs = [("serial", 1), ("pool-a", 4), ("pool-b", 4)]
        for name, concurrency in runs:
            run_pipeline(data, CountingClient(), tmp_path / name, concurrency=concurrency)
        ratios = {(tmp_path / name / "ratios.jsonl").read_bytes() for name, _ in runs}
        audits = {without_annotated_at(tmp_path / name / "audit.jsonl") for name, _ in runs}
        assert len(ratios) == len(audits) == 1
        assert audits.pop().count(b"\n") == 30

    def test_stages_two_and_three_fill_the_pool(self, tmp_path):
        data = distinct_students(num_students=4, steps=3)
        client = InFlightClient()
        _, report = run_pipeline(data, client, tmp_path, concurrency=4)
        assert report.annotated == 12
        assert client.most["responses"] == client.most["verdicts"] == 4
        assert max(client.most.values()) == 4

    def test_problem_with_empty_text_fails_without_a_call(self, tmp_path):
        data = make_dataset(num_students=3, steps=4)
        data.problems["p0"].text = ""
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path / "run", concurrency=4)
        bad = [rec for seq in data.sequences for rec in seq.steps if rec.problem_id == "p0"]
        assert report.failed == len(bad) == 3 and report.annotated == 9
        audits = dict(map(json.loads, (tmp_path / "run" / "audit.jsonl").read_text().splitlines()))
        assert [audits[key]["error"] for key in report.failures] == \
            ["ValueError: problem p0 has empty text"] * 3
        # the client sees exactly the prompts of a run without p0's interactions
        rest = Dataset(problems=data.problems, sequences=[
            replace(seq, steps=[rec for rec in seq.steps if rec.problem_id != "p0"])
            for seq in data.sequences])
        expected = CountingClient(delay=0)
        run_pipeline(rest, expected, tmp_path / "rest")
        assert sorted(client.prompts) == sorted(expected.prompts)

    def test_a_slow_call_holds_up_only_the_interactions_that_need_it(self, tmp_path):
        data = distinct_students(num_students=4, steps=3)
        slow = data.problems["p0"].text
        client = SlowRubricClient(slow)
        _, report = run_pipeline(data, client, tmp_path, concurrency=4)
        assert report.annotated == 12
        rubric = next(i for i, p in enumerate(client.returned)
                      if stage_of(p) == "indicators" and slow in p)
        # the 8 interactions of p1 and p2 are judged while p0's rubric call is out
        assert [stage_of(p) for p in client.returned[:rubric]].count("verdicts") == 8

    def test_serial_runs_write_the_same_completions_log(self, tmp_path):
        # a job that reaches a prompt whose call has ended, but whose end the
        # calling thread has not handled yet, waits for it like any other job
        data = synth.generate(synth.SimConfig(num_students=12, num_problems=10,
                                              steps_per_student=8))
        logs = set()
        for run in range(3):
            run_pipeline(data, MockChatClient(), tmp_path / str(run), concurrency=1)
            logs.add((tmp_path / str(run) / "completions.jsonl").read_bytes())
        assert len(logs) == 1

    @pytest.mark.parametrize("concurrency", (1, 4))
    def test_interrupt_in_stage_three_resumes_with_the_unanswered_prompts(self, tmp_path,
                                                                          concurrency):
        data = distinct_students(num_students=4, steps=3)
        cold = CountingClient(delay=0)
        run_pipeline(data, cold, tmp_path / "cold")
        client = InterruptingClient()
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(data, client, tmp_path / "run", concurrency=concurrency)
        # results and audits are appended only once every interaction is done
        for name in ("audit.jsonl", "ratios.jsonl"):
            assert (tmp_path / "run" / name).read_text() == ""
        rerun = CountingClient(delay=0)
        _, report = run_pipeline(data, rerun, tmp_path / "run", concurrency=concurrency)
        assert report.annotated == 12 and report.failed == 0
        # every answered call was cached; the stages of different interactions
        # overlap, so a call of any stage may be among those never answered
        assert sorted(rerun.prompts) == sorted(set(cold.prompts) - set(client.answered))
        assert "verdicts" in map(stage_of, rerun.prompts)


class RaisingClient(CountingClient):
    """Raises ``error`` on call number ``on``; counts every call in ``calls``."""

    def __init__(self, error, on=3, delay=0.002):
        super().__init__(delay=delay)
        self.error = error
        self.on = on
        self.calls = 0

    def complete(self, system_message, user_message, params):
        with self._lock:
            self.calls += 1
            raise_now = self.calls == self.on
        if raise_now:
            raise self.error
        return super().complete(system_message, user_message, params)


class TestWorkers:
    @pytest.mark.parametrize("concurrency", (1, 4))
    @pytest.mark.parametrize("error", [None, ChatClientError("injected"), KeyboardInterrupt(),
                                       SystemExit(5)],
                             ids=["normal", "exception", "interrupt", "exit"])
    def test_no_worker_outlives_a_run(self, tmp_path, concurrency, error):
        data = distinct_students(num_students=4, steps=3)
        before = set(threading.enumerate())
        client = CountingClient() if error is None else RaisingClient(error)
        if isinstance(error, Exception) or error is None:
            _, report = run_pipeline(data, client, tmp_path, concurrency=concurrency)
            assert report.failed == (error is not None)
        else:  # what is no Exception reaches the caller as it was raised
            with pytest.raises(type(error)) as raised:
                run_pipeline(data, client, tmp_path, concurrency=concurrency)
            assert raised.value is error
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("concurrency", (0, -3))
    @pytest.mark.parametrize("warm", (False, True), ids=["cold", "warm"])
    def test_concurrency_below_one_is_rejected(self, tmp_path, concurrency, warm):
        # with no worker to make the calls, a miss would wait forever
        data = make_dataset(num_students=2, steps=2)
        cache = tmp_path / "cache"
        if warm:
            run_pipeline(data, MockChatClient(), cache)
        client = CountingClient(delay=0)
        with pytest.raises(ValueError, match=f"concurrency must be at least 1, got {concurrency}"):
            run_pipeline(data, client, cache, concurrency=concurrency)
        assert client.prompts == [] and cache.exists() == warm

    def test_calls_not_taken_are_dropped_on_an_interrupt(self, tmp_path):
        # the five rubric calls are queued at once; the first raises, and the one
        # worker takes at most one more (50 ms each) before the rest are dropped
        data = make_dataset(num_students=3, steps=5)
        client = RaisingClient(KeyboardInterrupt(), on=1, delay=0.05)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(data, client, tmp_path, concurrency=1)
        assert client.calls <= 2
        assert len((tmp_path / "completions.jsonl").read_text().splitlines()) == client.calls - 1


class FixedClient:
    """Answers under model ``mock-1`` with ``fixed_indicators()``, then
    ``FIXED_RESPONSES``, then a 1 for each indicator; records the prompts."""

    model = "mock-1"

    def __init__(self):
        self.prompts = []

    def complete(self, system_message, user_message, params):
        self.prompts.append(user_message)
        codes = fixed_indicators().indicators
        return json.dumps({
            "indicators": {"mathematical_proficiency_indicators": [
                {code: text} for code, text in codes.items()]},
            "responses": FIXED_RESPONSES,
            "verdicts": dict.fromkeys(codes, 1),
        }[stage_of(user_message)])


# The keys the pipeline wrote for one interaction of make_problem() with the
# trace FIXED_PROCESS and answer "2", at temperature 0.0: its three
# completions' keys, by stage, and its own. A change to any of them misses
# every cache written before it.
PINNED_COMPLETION_KEYS = {
    "indicators": "61471dafab2e6246f1d650ea9aa969100c65c4c4e5872afa431ecaf161e798f1",
    "responses": "9c9e4b5fb6736f76f7c542697b8fd6b540493ec8d12960334cd6d0751918400f",
    "verdicts": "8456da82d62e88e07934f8ec4a0685d7e30f31f286539a948fc4404d5c5ef566",
}
PINNED_INTERACTION_KEY = "11b8ef005c87811ca7f0ca2077a29171"


class TestCacheKeys:
    @pytest.mark.parametrize("setting", [("", "0.0"), ("model-é", "0.7")])
    def test_prompt_keys_equal_the_joined_digest(self, setting):
        for name, head in prompts.STAGE_HEADS.items():
            for prompt in ("", "plain ASCII", "é 😀 ✓ 한국어", "x" * 3000, "é" * 1500, head,
                           head + "a trace", head + "é" * 2000, head[:-1], "a" + head,
                           head[:-1] + "Z" + "a trace"):
                assert runner_module._digest(name, *setting, prompt) == \
                    ref._digest(name, *setting, prompt)

    def test_keys_are_pinned(self, tmp_path):
        problem = make_problem()
        rec = make_record()
        rec.process_text = FIXED_PROCESS
        data = Dataset(problems={problem.problem_id: problem},
                       sequences=[StudentSequence(student_id=rec.student_id, steps=[rec])])
        client = FixedClient()
        _, report = run_pipeline(data, client, tmp_path)
        assert report.annotated == 1
        assert client.prompts == [
            render_indicator_prompt(problem),
            render_student_prompt(problem, fixed_indicators(), FIXED_PROCESS, "2"),
            render_eval_prompt(problem, fixed_indicators(), FIXED_RESPONSES)]

        def keys(name):
            return [key for key, _ in map(json.loads, (tmp_path / name).read_text().splitlines())]

        assert keys("completions.jsonl") == list(PINNED_COMPLETION_KEYS.values())
        assert keys("ratios.jsonl") == [PINNED_INTERACTION_KEY]

    def test_each_stage_head_is_its_prompts_start(self):
        problem = make_problem()
        rendered = {
            "indicators": (INDICATOR_TEMPLATE, render_indicator_prompt(problem)),
            "responses": (STUDENT_TEMPLATE, render_student_prompt(
                problem, fixed_indicators(), FIXED_PROCESS, "2")),
            "verdicts": (EVAL_TEMPLATE, render_eval_prompt(problem, fixed_indicators(),
                                                           FIXED_RESPONSES)),
        }
        for name, (template, prompt) in rendered.items():
            head = prompts.STAGE_HEADS[name]
            assert prompt.startswith(head) and template.startswith(head)
            # it ends at the first placeholder: the rendered text differs right after it
            assert template[len(head)] == "{" and prompt[len(head)] != "{"

    def test_warm_rerun_with_same_setting_hits(self, tmp_path):
        data = make_dataset()
        run_pipeline(data, CountingClient(model="m1"), tmp_path)
        warm = CountingClient(model="m1")
        _, report = run_pipeline(data, warm, tmp_path)
        assert warm.prompts == [] and report.cached == 12

    @pytest.mark.parametrize("change", ["model", "temperature", "template"])
    def test_changed_setting_misses(self, tmp_path, monkeypatch, change):
        data = make_dataset()
        run_pipeline(data, CountingClient(model="m1"), tmp_path)
        model, params = "m1", ChatParams()
        if change == "model":
            model = "m2"
        elif change == "temperature":
            params = ChatParams(temperature=0.7)
        else:
            monkeypatch.setattr(prompts, "EVAL_TEMPLATE", prompts.EVAL_TEMPLATE + "\n")
        client = CountingClient(model=model)
        _, report = run_pipeline(data, client, tmp_path, params=params)
        assert report.cached == 0 and report.annotated == 12
        # a completion is reused only where its prompt, model and
        # temperature are all unchanged: here the first two stages
        assert len(client.prompts) == (4 if change == "template" else 12)

    def test_changed_record_content_misses(self, tmp_path):
        data = make_dataset()
        run_pipeline(data, MockChatClient(), tmp_path)
        data.sequences[0].steps[0].selected_answer = "3"
        data.problems["p1"].text += " Explain."
        _, report = run_pipeline(data, MockChatClient(), tmp_path)
        changed = 1 + sum(rec.problem_id == "p1" for seq in data.sequences
                          for rec in seq.steps)
        assert report.cached == 12 - changed

    @pytest.mark.parametrize("field, value", [
        ("student_id", "s9"), ("timestamp", 1005), ("process_text", "line 0: other"),
        ("selected_answer", "3")])
    def test_each_keyed_record_field_misses(self, tmp_path, field, value):
        data = make_dataset()
        run_pipeline(data, MockChatClient(), tmp_path)
        setattr(data.sequences[0].steps[0], field, value)
        _, report = run_pipeline(data, MockChatClient(), tmp_path)
        assert (report.cached, report.annotated) == (11, 12)

    @pytest.mark.parametrize("field, value", [
        ("problem_id", "p1x"), ("kc_ids", ["kcB", "kcA"]), ("text", "Problem 1: solve for y."),
        ("solution_text", ""), ("answer", "3"), ("question_type", "short_answer"),
        ("difficulty", 4), ("options", ["1", "2", "3", "5", "4"])])
    def test_each_keyed_problem_field_misses(self, tmp_path, field, value):
        data = make_dataset()
        p1 = data.problems["p1"]
        p1.kc_ids, p1.solution_text = ["kcA", "kcB"], None
        run_pipeline(data, MockChatClient(), tmp_path)
        setattr(p1, field, value)
        if field == "problem_id":
            data.problems = {p.problem_id: p for p in data.problems.values()}
            for seq in data.sequences:
                for rec in seq.steps:
                    rec.problem_id = "p1x" if rec.problem_id == "p1" else rec.problem_id
        _, report = run_pipeline(data, MockChatClient(), tmp_path)
        # p1 is the problem of one record per student
        assert (report.cached, report.annotated) == (9, 12)

    @pytest.mark.parametrize("before, after", [
        (("s0", "x\x1fy", "z"), ("s0", "x", "y\x1fz")),
        (("s0\x1fa", "t", "b"), ("s0", "t", "a\x1fb")),
    ])
    def test_fields_that_join_alike_miss(self, tmp_path, before, after):
        # (student id, trace, answer) pairs whose fields joined by the key's
        # separator are the same text
        data = make_dataset(num_students=1, steps=1)
        rec = data.sequences[0].steps[0]
        rec.student_id, rec.process_text, rec.selected_answer = before
        run_pipeline(data, MockChatClient(), tmp_path)
        rec.student_id, rec.process_text, rec.selected_answer = after
        _, report = run_pipeline(data, MockChatClient(), tmp_path)
        assert report.cached == 0

    @pytest.mark.parametrize("field, value", [("correct", 1), ("duration", 7.0)])
    def test_fields_outside_the_key_hit(self, tmp_path, field, value):
        data = make_dataset()
        run_pipeline(data, MockChatClient(), tmp_path)
        for seq in data.sequences:
            for rec in seq.steps:
                setattr(rec, field, value)
        client = CountingClient(delay=0)
        _, report = run_pipeline(data, client, tmp_path)
        assert client.prompts == [] and report.cached == 12

    def test_cache_under_the_old_keys_is_reannotated_once_without_calls(self, tmp_path):
        # results and audits keyed as before each problem was digested from
        # an array of its fields; the completions' keys did not change
        data = make_dataset()
        cold, _ = run_pipeline(data, MockChatClient(), tmp_path)
        old = [ref.old_interaction_key(data.problems[rec.problem_id], rec, MockChatClient.model)
               for seq in data.sequences for rec in seq.steps]
        for name in ("ratios.jsonl", "audit.jsonl"):
            path = tmp_path / name
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            assert len(lines) == len(set(old)) == 12
            assert set(old).isdisjoint(key for key, _ in lines)
            path.write_text("".join(json.dumps([key, value]) + "\n"
                                    for key, (_, value) in zip(old, lines)))
        old_results = (tmp_path / "ratios.jsonl").read_text()
        client = CountingClient(delay=0)
        out, report = run_pipeline(data, client, tmp_path)
        assert client.prompts == [] and (report.annotated, report.cached) == (12, 0)
        assert [r.to_json() for s in out.sequences for r in s.steps] == \
            [r.to_json() for s in cold.sequences for r in s.steps]
        results = (tmp_path / "ratios.jsonl").read_text()
        assert results.startswith(old_results)
        assert [v for _, v in map(json.loads, results.splitlines())] == \
            [v for _, v in map(json.loads, old_results.splitlines())] * 2
        warm = CountingClient(delay=0)
        _, report = run_pipeline(data, warm, tmp_path)
        assert warm.prompts == [] and report.cached == 12


class GarbledRubricClient:
    """Wraps the mock and answers the indicator prompt of ``problem`` with ``text``."""

    def __init__(self, problem, text):
        self.inner = CountingClient(delay=0)
        self.prompt = render_indicator_prompt(problem)
        self.text = text

    def complete(self, system_message, user_message, params):
        if user_message == self.prompt:
            self.inner.prompts.append(user_message)
            return self.text
        return self.inner.complete(system_message, user_message, params)


class UnknownCodeClient:
    """Wraps the mock and adds an indicator with an unknown code to each rubric."""

    def __init__(self):
        self.inner = MockChatClient()

    def complete(self, system_message, user_message, params):
        text = self.inner.complete(system_message, user_message, params)
        if user_message.startswith("You are Teacher GPT.\nYour task is to analyze"):
            doc = extract_json_object(text)
            doc["mathematical_proficiency_indicators"].append({"XX1": "not a category"})
            text = json.dumps(doc)
        return text


class TestHitsAndRubrics:
    def test_partial_result_log_matches_cold_run(self, tmp_path):
        data = distinct_students(num_students=6, steps=5)
        cold_out, cold_report = run_pipeline(data, CountingClient(delay=0), tmp_path / "cold")
        log_path = tmp_path / "cold" / "ratios.jsonl"
        lines = log_path.read_text().splitlines(keepends=True)
        kept, dropped = lines[::2], lines[1::2]
        log_path.write_text("".join(kept))
        (tmp_path / "cold" / "completions.jsonl").unlink()
        audits = dict(map(json.loads, (tmp_path / "cold" / "audit.jsonl").read_text().splitlines()))
        client = CountingClient(delay=0)
        out, report = run_pipeline(data, client, tmp_path / "cold", concurrency=4)
        assert [r.to_json() for s in out.sequences for r in s.steps] == \
            [r.to_json() for s in cold_out.sequences for r in s.steps]
        assert (report.annotated, report.failed, report.failures, report.cached) == \
            (cold_report.annotated, cold_report.failed, cold_report.failures, len(kept))
        # the client sees exactly the prompts of a cold run over the dropped records
        missing = {(d["student_id"], d["problem_id"], d["timestamp"])
                   for d in (audits[json.loads(line)[0]] for line in dropped)}
        assert len(missing) == len(dropped)
        sequences = [replace(seq, steps=[r for r in seq.steps
                                         if (r.student_id, r.problem_id, r.timestamp) in missing])
                     for seq in data.sequences]
        rest = Dataset(problems=data.problems, sequences=[seq for seq in sequences if seq.steps])
        expected = CountingClient(delay=0)
        run_pipeline(rest, expected, tmp_path / "rest")
        assert sorted(client.prompts) == sorted(expected.prompts)

    @pytest.mark.parametrize("concurrency", (1, 4))
    def test_duplicate_record_is_annotated_once(self, tmp_path, concurrency):
        data = distinct_students(num_students=2, steps=3)
        record = data.sequences[1].steps[-1]
        data.sequences[1].steps.append(replace(record))
        # the first copy's stage-2 call stalls, so at concurrency 4 another
        # worker reaches the copy while the first is still being annotated
        problem = data.problems[record.problem_id]
        rubric = parse_indicators(MockChatClient().complete(
            "", render_indicator_prompt(problem), ChatParams()), problem.problem_id)
        stage2 = render_student_prompt(problem, rubric, record.process_text,
                                       record.selected_answer)
        client = CountingClient(delay=0, stall_first=stage2)
        _, report = run_pipeline(data, client, tmp_path, concurrency=concurrency)
        assert stage2 in client.prompts
        assert report.annotated == 7 and report.cached == 1
        for name in ("audit.jsonl", "ratios.jsonl"):
            assert len((tmp_path / name).read_text().splitlines()) == 6
        assert len(client.prompts) == len(set(client.prompts))

    def test_warm_run_submits_nothing_to_a_pool(self, tmp_path, monkeypatch):
        data = make_dataset()
        run_pipeline(data, MockChatClient(), tmp_path, concurrency=4)

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a warm run started a worker thread")

        monkeypatch.setattr(runner_module.threading, "Thread", NoPool)
        client = CountingClient(delay=0)
        out, report = run_pipeline(data, client, tmp_path, concurrency=4)
        assert len(client.prompts) == 0 and report.cached == report.annotated == 12
        assert all(rec.mp is not None for seq in out.sequences for rec in seq.steps)

    @pytest.mark.parametrize("text, error", [
        ("no rubric here", "ParseError"),
        ('{"mathematical_proficiency_indicators": [{"XX1": "bad"}]}', "EmptyRubricError"),
    ])
    @pytest.mark.parametrize("concurrency", (1, 4))
    def test_unparseable_rubric_fails_each_interaction(self, tmp_path, text, error,
                                                       concurrency):
        data = make_dataset(num_students=3, steps=4)
        client = GarbledRubricClient(data.problems["p0"], text)
        out, report = run_pipeline(data, client, tmp_path, concurrency=concurrency)
        bad = [rec for seq in data.sequences for rec in seq.steps if rec.problem_id == "p0"]
        assert report.failed == len(bad) == 3 and report.annotated == 9
        logged = logged_failures(tmp_path, report.failures)
        assert len(logged) == 3 and all(result == {"status": "failed"} for result, _ in logged)
        assert {ids for _, ids in logged} == {(rec.student_id, rec.problem_id, rec.timestamp)
                                              for rec in bad}
        audits = [d for _, d in map(json.loads,
                                    (tmp_path / "audit.jsonl").read_text().splitlines())]
        assert [d["error"].split(":")[0] for d in audits if d["status"] == "failed"] == \
            [error] * 3
        # the garbled completion is cached, so the prompt is sent once
        assert client.inner.prompts.count(client.prompt) == 1

    @pytest.mark.parametrize("concurrency", (1, 4))
    def test_rubric_warnings_come_once_per_problem(self, tmp_path, caplog, concurrency):
        data = make_dataset(num_students=3, steps=4)
        with caplog.at_level("WARNING", logger="prockt.pipeline.parsing"):
            _, report = run_pipeline(data, UnknownCodeClient(), tmp_path,
                                     concurrency=concurrency)
        assert report.annotated == 12
        dropped = [r.getMessage() for r in caplog.records
                   if "unknown code 'XX1'" in r.getMessage()]
        assert sorted(dropped) == [f"problem p{i}: dropping indicator with unknown code 'XX1'"
                                   for i in range(4)]


# -- HTTP client ----------------------------------------------------------

class StubResponse:
    def __init__(self, status, doc, headers=None):
        self.status_code = status
        self._doc = doc
        self.headers = headers or {}

    def raise_for_status(self):
        import requests
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._doc


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def ok_response(text):
    return StubResponse(200, {"choices": [{"message": {"content": text}}]})


class TestHttpChatClient:
    def test_success_returns_first_choice_content(self):
        session = StubSession([ok_response("hello")])
        client = HttpChatClient(endpoint="http://unit.test/v1", model="m",
                                api_key="k", session=session)
        got = client.complete("sys", "user", ChatParams())
        assert got == "hello"
        sent = session.requests[0]
        assert sent["json"]["model"] == "m"
        assert sent["json"]["temperature"] == 0.0
        assert sent["json"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user"}]
        assert sent["headers"]["Authorization"] == "Bearer k"

    def test_retries_then_succeeds(self):
        session = StubSession([StubResponse(500, {}), ok_response("recovered")])
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session,
                                backoff=0.0)
        assert client.complete("", "user", ChatParams()) == "recovered"
        assert len(session.requests) == 2

    def test_raises_after_exhausting_retries(self):
        session = StubSession([StubResponse(500, {})] * 3)
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session,
                                backoff=0.0)
        with pytest.raises(ChatClientError):
            client.complete("", "user", ChatParams(max_retries=3))
        assert len(session.requests) == 3

    @pytest.mark.parametrize("status", (400, 401, 403, 404))
    def test_client_error_is_not_retried(self, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        session = StubSession([StubResponse(status, {}), ok_response("unreachable")])
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session)
        with pytest.raises(ChatClientError, match=str(status)):
            client.complete("", "user", ChatParams(max_retries=3))
        assert len(session.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", (500, 408, 429))
    def test_retryable_status_backs_off(self, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        session = StubSession([StubResponse(status, {})] * 3)
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session, backoff=0.5)
        with pytest.raises(ChatClientError):
            client.complete("", "user", ChatParams(max_retries=3))
        assert len(session.requests) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("status", (429, 503))
    def test_retry_after_seconds_replace_the_backoff(self, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        session = StubSession([StubResponse(status, {}, {"Retry-After": "2"}),
                               ok_response("after the wait")])
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session, backoff=0.5)
        assert client.complete("", "user", ChatParams(max_retries=3)) == "after the wait"
        assert sleeps == [2.0]

    def test_retry_after_date_waits_until_then(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        then = email.utils.formatdate(time.time() + 30, usegmt=True)
        session = StubSession([StubResponse(503, {}, {"Retry-After": then}),
                               ok_response("after the wait")])
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session, backoff=0.5)
        assert client.complete("", "user", ChatParams(max_retries=3)) == "after the wait"
        assert len(sleeps) == 1 and 28.0 < sleeps[0] <= 30.0

    @pytest.mark.parametrize("header, wait", [
        ("3600", client_module.MAX_RETRY_AFTER_S),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # already past
    ])
    def test_retry_after_is_capped_and_never_negative(self, monkeypatch, header, wait):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        session = StubSession([StubResponse(429, {}, {"Retry-After": header}),
                               ok_response("ok")])
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session, backoff=0.5)
        assert client.complete("", "user", ChatParams(max_retries=3)) == "ok"
        assert sleeps == [wait]

    @pytest.mark.parametrize("status, header", [
        (429, "soon"), (429, ""), (429, "-5"), (429, "1.5"), (503, "Someday, 99 Foo"),
        (500, "2"),  # Retry-After is read on 429 and 503 only
    ])
    def test_unusable_retry_after_falls_back_to_backoff(self, monkeypatch, status, header):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        session = StubSession([StubResponse(status, {}, {"Retry-After": header})] * 3)
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session, backoff=0.5)
        with pytest.raises(ChatClientError):
            client.complete("", "user", ChatParams(max_retries=3))
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("content", (None, 42, ["text"]))
    def test_non_string_content_is_retried_then_raises(self, monkeypatch, content):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        reply = StubResponse(200, {"choices": [{"message": {"content": content}}]})
        session = StubSession([reply] * 3)
        client = HttpChatClient(endpoint="http://unit.test/v1", session=session, backoff=0.5)
        with pytest.raises(ChatClientError, match="not a string"):
            client.complete("", "user", ChatParams(max_retries=3))
        assert len(session.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("PROCKT_CHAT_ENDPOINT", raising=False)
        with pytest.raises(ChatClientError):
            HttpChatClient()


# -- mock client schema ---------------------------------------------------

class TestMockChatClient:
    def test_stage_one_covers_every_dimension(self, problem):
        client = MockChatClient()
        raw = client.complete("", render_indicator_prompt(problem), ChatParams())
        rubric = parse_indicators(raw, problem.problem_id)
        assert 8 <= len(rubric.indicators) <= 15
        assert {code[:2] for code in rubric.indicators} == {"CU", "SC", "PF", "AR"}

    def test_outputs_are_pure_functions_of_the_prompt(self, problem):
        prompt = render_indicator_prompt(problem)
        a = MockChatClient().complete("", prompt, ChatParams())
        b = MockChatClient().complete("", prompt, ChatParams())
        assert a == b

    def test_full_three_stage_round_trip(self, problem):
        client = MockChatClient()
        rubric = parse_indicators(
            client.complete("", render_indicator_prompt(problem), ChatParams()),
            problem.problem_id)
        p2 = render_student_prompt(problem, rubric, FIXED_PROCESS, "2")
        responses = parse_responses(client.complete("", p2, ChatParams()), rubric)
        p3 = render_eval_prompt(problem, rubric, responses)
        verdicts = parse_verdicts(client.complete("", p3, ChatParams()), rubric)
        mp = compute_mp_ratios(rubric, verdicts)
        assert MPRatios.from_json(mp.to_json()) == mp
        for code, text in responses.items():
            if text == "I don't know":
                assert verdicts[code] == 0
